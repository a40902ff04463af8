// Tests for the XML parser, DOM, and text writer.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "xml/dom.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace sj::xml {
namespace {

/// Records events as strings for easy comparison.
class Recorder : public EventHandler {
 public:
  Status StartElement(std::string_view name) override {
    events.push_back("<" + std::string(name));
    return Status::OK();
  }
  Status EndElement(std::string_view name) override {
    events.push_back(">" + std::string(name));
    return Status::OK();
  }
  Status Attribute(std::string_view name, std::string_view value) override {
    events.push_back("@" + std::string(name) + "=" + std::string(value));
    return Status::OK();
  }
  Status Text(std::string_view data) override {
    events.push_back("T" + std::string(data));
    return Status::OK();
  }
  Status Comment(std::string_view data) override {
    events.push_back("C" + std::string(data));
    return Status::OK();
  }
  Status ProcessingInstruction(std::string_view target,
                               std::string_view data) override {
    events.push_back("P" + std::string(target) + ":" + std::string(data));
    return Status::OK();
  }

  std::vector<std::string> events;
};

std::vector<std::string> ParseEvents(std::string_view xml,
                                     ParseOptions opts = {}) {
  Recorder r;
  Status st = Parse(xml, &r, opts);
  EXPECT_TRUE(st.ok()) << st;
  return r.events;
}

TEST(XmlParserTest, SimpleElement) {
  EXPECT_EQ(ParseEvents("<a/>"), (std::vector<std::string>{"<a", ">a"}));
}

TEST(XmlParserTest, NestedElementsWithText) {
  EXPECT_EQ(ParseEvents("<a><b>hi</b></a>"),
            (std::vector<std::string>{"<a", "<b", "Thi", ">b", ">a"}));
}

TEST(XmlParserTest, AttributesInOrder) {
  EXPECT_EQ(ParseEvents("<a x=\"1\" y='2'/>"),
            (std::vector<std::string>{"<a", "@x=1", "@y=2", ">a"}));
}

TEST(XmlParserTest, PredefinedEntities) {
  EXPECT_EQ(ParseEvents("<a>&lt;&gt;&amp;&quot;&apos;</a>"),
            (std::vector<std::string>{"<a", "T<>&\"'", ">a"}));
}

TEST(XmlParserTest, NumericCharacterReferences) {
  EXPECT_EQ(ParseEvents("<a>&#65;&#x42;</a>"),
            (std::vector<std::string>{"<a", "TAB", ">a"}));
}

TEST(XmlParserTest, Utf8FromCharRef) {
  auto ev = ParseEvents("<a>&#xE9;</a>");  // e-acute, U+00E9
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[1], std::string("T\xC3\xA9"));
}

TEST(XmlParserTest, EntityInAttribute) {
  EXPECT_EQ(ParseEvents("<a x=\"a&amp;b\"/>"),
            (std::vector<std::string>{"<a", "@x=a&b", ">a"}));
}

TEST(XmlParserTest, CdataIsVerbatimText) {
  EXPECT_EQ(ParseEvents("<a><![CDATA[<not&parsed>]]></a>"),
            (std::vector<std::string>{"<a", "T<not&parsed>", ">a"}));
}

TEST(XmlParserTest, CommentsAndPis) {
  EXPECT_EQ(ParseEvents("<a><!--note--><?go fast?></a>"),
            (std::vector<std::string>{"<a", "Cnote", "Pgo:fast", ">a"}));
}

TEST(XmlParserTest, CommentsCanBeDropped) {
  ParseOptions opts;
  opts.emit_comments = false;
  opts.emit_processing_instructions = false;
  EXPECT_EQ(ParseEvents("<a><!--note--><?go fast?></a>", opts),
            (std::vector<std::string>{"<a", ">a"}));
}

TEST(XmlParserTest, DeclarationAndDoctypeSkipped) {
  EXPECT_EQ(ParseEvents("<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a "
                        "EMPTY>]><a/>"),
            (std::vector<std::string>{"<a", ">a"}));
}

TEST(XmlParserTest, WhitespaceTextSkippedByDefault) {
  EXPECT_EQ(ParseEvents("<a>\n  <b/>\n</a>"),
            (std::vector<std::string>{"<a", "<b", ">b", ">a"}));
}

TEST(XmlParserTest, WhitespaceTextKeptOnRequest) {
  ParseOptions opts;
  opts.skip_whitespace_text = false;
  auto ev = ParseEvents("<a> <b/></a>", opts);
  EXPECT_EQ(ev, (std::vector<std::string>{"<a", "T ", "<b", ">b", ">a"}));
}

TEST(XmlParserTest, TrailingMiscAllowed) {
  EXPECT_EQ(ParseEvents("<a/><!--end-->\n"),
            (std::vector<std::string>{"<a", ">a", "Cend"}));
}

struct BadInput {
  const char* name;
  const char* xml;
  /// 1-based "line:column" the error message must lead with.
  const char* where;
};

/// The "line:column" prefix of a parse error message.
std::string ErrorPosition(const Status& st) {
  const std::string& msg = st.message();
  const size_t first = msg.find(':');
  if (first == std::string::npos) return msg;
  return msg.substr(0, msg.find(':', first + 1));
}

class XmlParserErrorTest : public ::testing::TestWithParam<BadInput> {};

TEST_P(XmlParserErrorTest, RejectsMalformedInput) {
  Recorder r;
  Status st = Parse(GetParam().xml, &r);
  EXPECT_EQ(st.code(), StatusCode::kParseError) << GetParam().xml;
  // Error messages carry a line:column prefix.
  EXPECT_EQ(ErrorPosition(st), GetParam().where) << st;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, XmlParserErrorTest,
    ::testing::Values(
        BadInput{"Unclosed", "<a>", "1:4"},
        BadInput{"Mismatched", "<a></b>", "1:8"},
        BadInput{"TwoRoots", "<a/><b/>", "1:5"},
        BadInput{"NoRoot", "   ", "1:4"},
        BadInput{"BadEntity", "<a>&nope;</a>", "1:10"},
        BadInput{"UnterminatedEntity", "<a>&amp</a>", "1:8"},
        BadInput{"BadCharRef", "<a>&#xZZ;</a>", "1:10"},
        BadInput{"HugeCharRef", "<a>&#x110000;</a>", "1:14"},
        BadInput{"AttrNoValue", "<a x/>", "1:5"},
        BadInput{"AttrUnquoted", "<a x=1/>", "1:6"},
        BadInput{"AttrUnterminated", "<a x=\"1/>", "1:10"},
        BadInput{"LtInAttr", "<a x=\"<\"/>", "1:7"},
        BadInput{"UnterminatedComment", "<a><!--", "1:8"},
        BadInput{"UnterminatedCdata", "<a><![CDATA[x", "1:14"},
        BadInput{"UnterminatedPi", "<a><?pi", "1:8"},
        BadInput{"TextAfterRoot", "<a/>text", "1:5"},
        BadInput{"GarbageTag", "<1a/>", "1:2"},
        // Multi-line inputs: the position counts lines and columns of the
        // input text, not of decoded values.
        BadInput{"BadEntityAfterEntity", "<a>\n&amp;&lt;&nope;\n</a>", "3:1"},
        BadInput{"AttrErrorAfterEntity",
                 "<a>\n  <b x=\"&amp;\n&quot;\" y>", "3:10"},
        BadInput{"LtInMultiLineAttr", "<a x=\"one\ntwo <\"/>", "2:5"},
        BadInput{"MismatchedOnLine3", "<a>\n  <b>text</b>\n  </c>\n</a>",
                 "3:7"},
        BadInput{"UnterminatedCommentOnLine2", "<a>\n<!-- x", "2:7"}),
    [](const ::testing::TestParamInfo<BadInput>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(XmlParserTest, EntitiesDecodeToTheSameEvents) {
  // Each pair spells the same document with and without references; the
  // event streams must be identical (the plain spelling reaches the
  // handler as views of the input, the other one decoded).
  const std::pair<const char*, const char*> pairs[] = {
      {"<a x=\"ab\">cd</a>", "<a x=\"&#97;b\">c&#x64;</a>"},
      {"<a x='1 > 2'>x > y</a>", "<a x='1 &gt; 2'>x &#62; y</a>"},
      {"<a><b y=\"\"/>plain\ntext<c/></a>",
       "<a><b y=\"\"/>pl&#97;in&#10;text<c/></a>"},
      // Whitespace-only text is dropped whether or not it is spelled
      // with references.
      {"<a> <b/>\t</a>", "<a>&#32;<b/>&#9;</a>"},
  };
  for (const auto& [plain, escaped] : pairs) {
    EXPECT_EQ(ParseEvents(plain), ParseEvents(escaped)) << escaped;
    ParseOptions keep;
    keep.skip_whitespace_text = false;
    EXPECT_EQ(ParseEvents(plain, keep), ParseEvents(escaped, keep))
        << escaped;
  }
}

TEST(XmlParserTest, NullHandlerRejected) {
  EXPECT_EQ(Parse("<a/>", nullptr).code(), StatusCode::kInvalidArgument);
}

TEST(XmlParserTest, HandlerErrorPropagates) {
  class Failing : public Recorder {
    Status Text(std::string_view) override {
      return Status::Internal("stop");
    }
  } handler;
  EXPECT_EQ(Parse("<a>x</a>", &handler).code(), StatusCode::kInternal);
}

TEST(DomTest, BuildsTreeShape) {
  auto doc = ParseToDom("<a x=\"1\"><b>t</b><!--c--></a>").value();
  const DomNode* root = doc->document_element();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "a");
  ASSERT_EQ(root->attributes.size(), 1u);
  EXPECT_EQ(root->attributes[0]->name, "x");
  EXPECT_EQ(root->attributes[0]->value, "1");
  ASSERT_EQ(root->children.size(), 2u);
  EXPECT_EQ(root->children[0]->name, "b");
  EXPECT_EQ(root->children[0]->children[0]->value, "t");
  EXPECT_EQ(root->children[1]->kind, DomKind::kComment);
  EXPECT_EQ(root->children[0]->parent, root);
}

TEST(DomTest, SerializeRoundTrip) {
  const std::string xml = "<a x=\"1&amp;2\"><b>t&lt;u</b><c/><?p d?></a>";
  auto doc = ParseToDom(xml).value();
  EXPECT_EQ(Serialize(*doc), xml);
}

TEST(DomTest, SerializeEscapesAttributesAndText) {
  auto doc = ParseToDom("<a x=\"&quot;\">&amp;</a>").value();
  std::string out = Serialize(*doc);
  EXPECT_EQ(out, "<a x=\"&quot;\">&amp;</a>");
}

TEST(TextWriterTest, RoundTripsThroughParser) {
  const std::string xml =
      "<site><x id=\"i0\" f=\"y\"><name>n</name>text</x><!--c--></site>";
  std::string out;
  TextWriter writer(&out);
  ASSERT_TRUE(Parse(xml, &writer).ok());
  EXPECT_EQ(out, xml);
}

TEST(TextWriterTest, AttributeAfterContentRejected) {
  std::string out;
  TextWriter w(&out);
  ASSERT_TRUE(w.StartElement("a").ok());
  ASSERT_TRUE(w.Text("t").ok());
  EXPECT_EQ(w.Attribute("x", "1").code(), StatusCode::kInvalidArgument);
}

TEST(TextWriterTest, EmptyElementUsesSelfClosingForm) {
  std::string out;
  TextWriter w(&out);
  ASSERT_TRUE(w.StartElement("a").ok());
  ASSERT_TRUE(w.EndElement("a").ok());
  EXPECT_EQ(out, "<a/>");
}

}  // namespace
}  // namespace sj::xml
