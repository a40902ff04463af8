#include "xml/parser.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <string>
#include <vector>

#include "util/result.h"

namespace sj::xml {
namespace {

bool IsNameStartChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool IsNameChar(char c) {
  return IsNameStartChar(c) || std::isdigit(static_cast<unsigned char>(c)) ||
         c == '-' || c == '.';
}

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// Recursive-descent parser; recursion depth equals element nesting depth.
/// The cursor is a plain byte offset: character data, attribute values,
/// comments and the like are located with find/memchr, and the line and
/// column of an error are worked out from the input only when one is
/// reported.
class Cursor {
 public:
  Cursor(std::string_view input, EventHandler* handler, ParseOptions options)
      : input_(input), handler_(handler), options_(options) {}

  Status Run() {
    SJ_RETURN_NOT_OK(handler_->StartDocument());
    SJ_RETURN_NOT_OK(SkipProlog());
    if (AtEnd() || Peek() != '<') return Error("expected document element");
    SJ_RETURN_NOT_OK(ParseElement());
    // Trailing misc: whitespace, comments, processing instructions.
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) break;
      if (LookingAt("<!--")) {
        SJ_RETURN_NOT_OK(ParseComment());
      } else if (Peek() == '<' && PeekAt(1) == '?') {
        SJ_RETURN_NOT_OK(ParseProcessingInstruction());
      } else {
        return Error("content after document element");
      }
    }
    return handler_->EndDocument();
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < input_.size() ? input_[pos_ + off] : '\0';
  }

  void Advance() { ++pos_; }

  bool LookingAt(std::string_view token) const {
    return input_.substr(pos_).starts_with(token);
  }

  bool Consume(std::string_view token) {
    if (!LookingAt(token)) return false;
    pos_ += token.size();
    return true;
  }

  /// Moves to the next occurrence of `token` (or to the end of the input
  /// when there is none) and reports whether it was found.
  bool SkipTo(std::string_view token) {
    pos_ = std::min(input_.find(token, pos_), input_.size());
    return !AtEnd();
  }

  /// Offset of the first `c` in [pos_, end), or `end` when absent.
  size_t FindByte(char c, size_t end) const {
    const void* hit = std::memchr(input_.data() + pos_, c, end - pos_);
    return hit == nullptr
               ? end
               : static_cast<size_t>(static_cast<const char*>(hit) -
                                     input_.data());
  }

  /// A ParseError at the cursor: 1-based line and column, counted in
  /// bytes of the input (a newline starts a new line).
  Status Error(std::string msg) const {
    const std::string_view before = input_.substr(0, pos_);
    const size_t line =
        1 + static_cast<size_t>(std::count(before.begin(), before.end(), '\n'));
    const size_t line_start = before.rfind('\n');
    const size_t column =
        1 + pos_ - (line_start == std::string_view::npos ? 0 : line_start + 1);
    return Status::ParseError(std::to_string(line) + ":" +
                              std::to_string(column) + ": " + std::move(msg));
  }

  void SkipWhitespace() {
    while (!AtEnd() && IsSpace(Peek())) Advance();
  }

  /// Skips an optional XML declaration, DOCTYPE, and leading misc content.
  Status SkipProlog() {
    for (;;) {
      SkipWhitespace();
      if (Consume("<?xml")) {
        if (SkipTo("?>")) Consume("?>");
        continue;
      }
      if (LookingAt("<!DOCTYPE")) {
        int bracket_depth = 0;  // internal subsets nest in [ ]
        while (!AtEnd()) {
          char c = Peek();
          Advance();
          if (c == '[') ++bracket_depth;
          if (c == ']') --bracket_depth;
          if (c == '>' && bracket_depth <= 0) break;
        }
        continue;
      }
      if (LookingAt("<!--")) {
        SJ_RETURN_NOT_OK(ParseComment());
        continue;
      }
      if (!AtEnd() && Peek() == '<' && PeekAt(1) == '?') {
        SJ_RETURN_NOT_OK(ParseProcessingInstruction());
        continue;
      }
      return Status::OK();
    }
  }

  Result<std::string_view> ParseName() {
    if (AtEnd() || !IsNameStartChar(Peek())) return Error("expected a name");
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) Advance();
    return input_.substr(start, pos_ - start);
  }

  /// Resolves entity and character references in raw character data.
  Status DecodeText(std::string_view raw, std::string* out) {
    out->clear();
    out->reserve(raw.size());
    for (size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        out->push_back(raw[i]);
        ++i;
        continue;
      }
      size_t semi = raw.find(';', i + 1);
      if (semi == std::string_view::npos) {
        return Error("unterminated entity reference");
      }
      std::string_view entity = raw.substr(i + 1, semi - i - 1);
      if (entity == "lt") {
        out->push_back('<');
      } else if (entity == "gt") {
        out->push_back('>');
      } else if (entity == "amp") {
        out->push_back('&');
      } else if (entity == "quot") {
        out->push_back('"');
      } else if (entity == "apos") {
        out->push_back('\'');
      } else if (!entity.empty() && entity[0] == '#') {
        uint32_t code = 0;
        bool hex = entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X');
        std::string_view digits = entity.substr(hex ? 2 : 1);
        if (digits.empty()) return Error("empty character reference");
        for (char d : digits) {
          uint32_t v;
          if (d >= '0' && d <= '9') {
            v = static_cast<uint32_t>(d - '0');
          } else if (hex && d >= 'a' && d <= 'f') {
            v = static_cast<uint32_t>(d - 'a' + 10);
          } else if (hex && d >= 'A' && d <= 'F') {
            v = static_cast<uint32_t>(d - 'A' + 10);
          } else {
            return Error("bad character reference &" + std::string(entity) +
                         ";");
          }
          code = code * (hex ? 16u : 10u) + v;
          if (code > 0x10FFFF) return Error("character reference out of range");
        }
        AppendUtf8(code, out);
      } else {
        return Error("unknown entity &" + std::string(entity) + ";");
      }
      i = semi + 1;
    }
    return Status::OK();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseComment() {
    if (!Consume("<!--")) return Error("expected comment");
    size_t start = pos_;
    if (!SkipTo("-->")) return Error("unterminated comment");
    std::string_view body = input_.substr(start, pos_ - start);
    Consume("-->");
    return options_.emit_comments ? handler_->Comment(body) : Status::OK();
  }

  Status ParseProcessingInstruction() {
    if (!Consume("<?")) return Error("expected processing instruction");
    SJ_ASSIGN_OR_RETURN(std::string_view target, ParseName());
    SkipWhitespace();
    size_t start = pos_;
    if (!SkipTo("?>")) return Error("unterminated processing instruction");
    std::string_view body = input_.substr(start, pos_ - start);
    Consume("?>");
    return options_.emit_processing_instructions
               ? handler_->ProcessingInstruction(target, body)
               : Status::OK();
  }

  Status ParseCdata() {
    if (!Consume("<![CDATA[")) return Error("expected CDATA section");
    size_t start = pos_;
    if (!SkipTo("]]>")) return Error("unterminated CDATA section");
    std::string_view body = input_.substr(start, pos_ - start);
    Consume("]]>");
    return body.empty() ? Status::OK() : handler_->Text(body);
  }

  Status ParseAttributes() {
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag");
      if (Peek() == '>' || Peek() == '/') return Status::OK();
      SJ_ASSIGN_OR_RETURN(std::string_view name, ParseName());
      SkipWhitespace();
      if (AtEnd() || Peek() != '=') return Error("expected '=' in attribute");
      Advance();
      SkipWhitespace();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Error("expected quoted attribute value");
      }
      char quote = Peek();
      Advance();
      size_t start = pos_;
      const size_t close = FindByte(quote, input_.size());
      pos_ = FindByte('<', close);
      if (pos_ < close) return Error("'<' in attribute value");
      if (AtEnd()) return Error("unterminated attribute value");
      std::string_view raw = input_.substr(start, pos_ - start);
      Advance();  // closing quote
      SJ_ASSIGN_OR_RETURN(std::string_view value, Decoded(raw));
      SJ_RETURN_NOT_OK(handler_->Attribute(name, value));
    }
  }

  /// `raw` with its references resolved: `raw` itself when it holds no
  /// '&' (the common case, handed on as a view of the input), otherwise
  /// the decoded copy in scratch_ (valid until the next call).
  Result<std::string_view> Decoded(std::string_view raw) {
    if (raw.find('&') == std::string_view::npos) return raw;
    SJ_RETURN_NOT_OK(DecodeText(raw, &scratch_));
    return std::string_view(scratch_);
  }

  /// Parses one element: start tag, attributes, content, end tag.
  Status ParseElement() {
    Advance();  // '<'
    SJ_ASSIGN_OR_RETURN(std::string_view name, ParseName());
    // `name` views into the stable input buffer, so it survives recursion.
    SJ_RETURN_NOT_OK(handler_->StartElement(name));
    SJ_RETURN_NOT_OK(ParseAttributes());
    if (Peek() == '/') {
      Advance();
      if (AtEnd() || Peek() != '>') return Error("expected '>' after '/'");
      Advance();
      return handler_->EndElement(name);
    }
    Advance();  // '>'

    for (;;) {
      if (AtEnd()) {
        return Error("unterminated element <" + std::string(name) + ">");
      }
      if (Peek() == '<') {
        if (PeekAt(1) == '/') {
          Advance();  // '<'
          Advance();  // '/'
          SJ_ASSIGN_OR_RETURN(std::string_view end_name, ParseName());
          SkipWhitespace();
          if (AtEnd() || Peek() != '>') return Error("expected '>'");
          Advance();
          if (end_name != name) {
            return Error("mismatched end tag </" + std::string(end_name) +
                         ">, expected </" + std::string(name) + ">");
          }
          return handler_->EndElement(name);
        }
        if (LookingAt("<!--")) {
          SJ_RETURN_NOT_OK(ParseComment());
        } else if (LookingAt("<![CDATA[")) {
          SJ_RETURN_NOT_OK(ParseCdata());
        } else if (PeekAt(1) == '?') {
          SJ_RETURN_NOT_OK(ParseProcessingInstruction());
        } else {
          SJ_RETURN_NOT_OK(ParseElement());
        }
        continue;
      }
      // Character data up to the next markup.
      size_t start = pos_;
      pos_ = FindByte('<', input_.size());
      std::string_view raw = input_.substr(start, pos_ - start);
      SJ_ASSIGN_OR_RETURN(std::string_view text, Decoded(raw));
      if (options_.skip_whitespace_text &&
          std::all_of(text.begin(), text.end(), IsSpace)) {
        continue;
      }
      SJ_RETURN_NOT_OK(handler_->Text(text));
    }
  }

  std::string_view input_;
  EventHandler* handler_;
  ParseOptions options_;
  size_t pos_ = 0;
  std::string scratch_;
};

}  // namespace

Status Parse(std::string_view input, EventHandler* handler,
             const ParseOptions& options) {
  if (handler == nullptr) {
    return Status::InvalidArgument("Parse: handler must not be null");
  }
  Cursor cursor(input, handler, options);
  return cursor.Run();
}

}  // namespace sj::xml
