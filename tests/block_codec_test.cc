// Round-trip and edge-case property tests for the FOR/delta block codec
// (encoding/block_codec.h): every block the compressed backend can ever
// encode must decode bit-exactly, the encoder must pick encodings that
// actually compress the column shapes the backend stores (monotone
// fragment pre lists, near-constant kind/level runs, non-monotone parent
// deltas, kNilNode extremes), and malformed headers must be rejected
// rather than decoded into garbage. The encoder's output is also held
// byte for byte to a sort-based reference encoder, and the images of one
// XMark document to a golden transcript.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "encoding/block_codec.h"
#include "encoding/doc_table.h"
#include "encoding/loader.h"
#include "storage/compressed_doc.h"
#include "storage/compressed_tags.h"
#include "util/rng.h"
#include "xmlgen/xmark.h"

namespace sj::encoding {
namespace {

std::vector<uint32_t> RoundTrip(const std::vector<uint32_t>& values) {
  std::vector<uint8_t> buf(MaxEncodedBlockBytes(values.size()));
  const size_t bytes = EncodeBlock(values, buf.data());
  EXPECT_LE(bytes, buf.size());
  auto size = EncodedBlockSize(buf.data(), bytes);
  EXPECT_TRUE(size.ok()) << size.status();
  EXPECT_EQ(size.value(), bytes);
  std::vector<uint32_t> out(values.size());
  Status decoded = DecodeBlock(buf.data(), bytes, values.size(), out.data());
  EXPECT_TRUE(decoded.ok()) << decoded;
  return out;
}

TEST(BlockCodecTest, EmptyBlockRoundTrips) {
  std::vector<uint32_t> empty;
  EXPECT_EQ(RoundTrip(empty), empty);
  uint8_t buf[kBlockHeaderBytes + 8];
  EXPECT_EQ(EncodeBlock(empty, buf), kBlockHeaderBytes);
}

TEST(BlockCodecTest, SingleValueRoundTrips) {
  for (uint32_t v : {0u, 1u, 4096u, std::numeric_limits<uint32_t>::max()}) {
    std::vector<uint32_t> one{v};
    EXPECT_EQ(RoundTrip(one), one) << v;
    // A single value needs only the header: base carries it.
    uint8_t buf[kBlockHeaderBytes + sizeof(uint32_t)];
    EXPECT_EQ(EncodeBlock(one, buf), kBlockHeaderBytes) << v;
  }
}

TEST(BlockCodecTest, ConstantBlockEncodesToHeaderOnly) {
  std::vector<uint32_t> values(kBlockValues, 123456789u);
  EXPECT_EQ(RoundTrip(values), values);
  std::vector<uint8_t> buf(MaxEncodedBlockBytes(values.size()));
  EXPECT_EQ(EncodeBlock(values, buf.data()), kBlockHeaderBytes);
}

TEST(BlockCodecTest, MonotoneRunsCompressTightly) {
  // A fragment pre list: strictly increasing with small steps. Delta
  // encoding must land near 2 bits per value, far below the raw 32.
  std::vector<uint32_t> values;
  Rng rng(7);
  uint32_t v = 1000;
  for (size_t i = 0; i < kBlockValues; ++i) {
    v += static_cast<uint32_t>(rng.Range(1, 3));
    values.push_back(v);
  }
  EXPECT_EQ(RoundTrip(values), values);
  std::vector<uint8_t> buf(MaxEncodedBlockBytes(values.size()));
  const size_t bytes = EncodeBlock(values, buf.data());
  EXPECT_LE(bytes, kBlockHeaderBytes + kBlockValues * 3 / 8 + 1);
}

TEST(BlockCodecTest, MaxWidthValuesRoundTrip) {
  // Alternating extremes of the uint32 range, including kNilNode (the
  // parent column's root marker, 0xFFFFFFFF). Circular FOR wraps the
  // frame around the sentinel -- 0xFFFFFFFF becomes base + 0, 0 becomes
  // base + 1 -- so even this block packs to one bit per value.
  std::vector<uint32_t> values;
  for (size_t i = 0; i < kBlockValues; ++i) {
    values.push_back(i % 2 == 0 ? 0u : kNilNode);
  }
  EXPECT_EQ(RoundTrip(values), values);
  std::vector<uint8_t> buf(MaxEncodedBlockBytes(values.size()));
  const size_t bytes = EncodeBlock(values, buf.data());
  EXPECT_LE(bytes, kBlockHeaderBytes + kBlockValues / 8);
}

TEST(BlockCodecTest, TagColumnShapePacksSmall) {
  // The tag-column shape that motivates circular FOR: a handful of tiny
  // dictionary codes with kNoTag sentinels for text nodes interspersed.
  // Classic FOR would need 32 bits per value; circular FOR needs 5.
  std::vector<uint32_t> values;
  Rng rng(11);
  for (size_t i = 0; i < kBlockValues; ++i) {
    values.push_back(rng.Percent(40) ? kNoTag
                                     : static_cast<uint32_t>(rng.Below(20)));
  }
  EXPECT_EQ(RoundTrip(values), values);
  std::vector<uint8_t> buf(MaxEncodedBlockBytes(values.size()));
  const size_t bytes = EncodeBlock(values, buf.data());
  EXPECT_LE(bytes, kBlockHeaderBytes + kBlockValues);  // <= 8 bits/value
}

TEST(BlockCodecTest, NonMonotoneParentDeltasRoundTrip) {
  // A parent column shape: mostly "a few ranks back", with jumps back
  // to ancestors and the root's kNilNode up front -- signed deltas in
  // both directions.
  std::vector<uint32_t> values{kNilNode, 0, 0, 2, 2, 0, 5, 5, 6, 0};
  Rng rng(21);
  for (size_t i = 0; i < 900; ++i) {
    values.push_back(static_cast<uint32_t>(
        rng.Percent(20) ? rng.Below(10) : values.size() - rng.Range(1, 5)));
  }
  EXPECT_EQ(RoundTrip(values), values);
}

TEST(BlockCodecTest, RandomBlocksOfEveryShapeRoundTrip) {
  Rng rng(1234);
  for (int round = 0; round < 200; ++round) {
    const size_t count = 1 + rng.Below(kBlockValues);
    // Vary the value magnitude so every bit width 1..32 is exercised.
    const uint32_t mask =
        static_cast<uint32_t>((uint64_t{1} << rng.Range(1, 32)) - 1);
    std::vector<uint32_t> values;
    values.reserve(count);
    uint32_t walk = static_cast<uint32_t>(rng.Next());
    for (size_t i = 0; i < count; ++i) {
      if (rng.Percent(50)) {
        values.push_back(static_cast<uint32_t>(rng.Next()) & mask);
      } else {
        // Random-walk stretches favor the delta encoding.
        walk += static_cast<uint32_t>(rng.Range(0, 64)) - 32;
        values.push_back(walk);
      }
    }
    EXPECT_EQ(RoundTrip(values), values) << "round " << round;
  }
}

TEST(BlockCodecTest, MalformedHeadersAreRejected) {
  std::vector<uint32_t> values{1, 2, 3, 4, 5};
  std::vector<uint8_t> buf(MaxEncodedBlockBytes(values.size()));
  const size_t bytes = EncodeBlock(values, buf.data());
  std::vector<uint32_t> out(values.size());

  // Truncated header.
  EXPECT_FALSE(EncodedBlockSize(buf.data(), kBlockHeaderBytes - 1).ok());
  // Unknown mode.
  std::vector<uint8_t> bad = buf;
  bad[0] = 7;
  EXPECT_FALSE(DecodeBlock(bad.data(), bytes, values.size(), out.data()).ok());
  // Impossible bit width.
  bad = buf;
  bad[1] = 33;
  EXPECT_FALSE(DecodeBlock(bad.data(), bytes, values.size(), out.data()).ok());
  // Count beyond kBlockValues.
  bad = buf;
  bad[2] = 0xFF;
  bad[3] = 0xFF;
  EXPECT_FALSE(DecodeBlock(bad.data(), bytes, values.size(), out.data()).ok());
  // Count that disagrees with the directory's expectation.
  EXPECT_FALSE(
      DecodeBlock(buf.data(), bytes, values.size() + 1, out.data()).ok());
  // Payload truncated below what the header promises.
  std::vector<uint32_t> wide(64);
  for (size_t i = 0; i < wide.size(); ++i) {
    wide[i] = static_cast<uint32_t>(i * 92821u);
  }
  std::vector<uint8_t> wide_buf(MaxEncodedBlockBytes(wide.size()));
  const size_t wide_bytes = EncodeBlock(wide, wide_buf.data());
  std::vector<uint32_t> wide_out(wide.size());
  EXPECT_FALSE(DecodeBlock(wide_buf.data(), wide_bytes - 1, wide.size(),
                           wide_out.data())
                   .ok());
}

// Test-only reference encoder: the sort-based frame choice the codec
// shipped with. Sorting the block makes the circular gaps adjacent
// pairs; the base sits just past the largest one, scanning from the
// wrap-around gap with strict '>' (the wrap gap wins ties with an inner
// gap, and the first of tied inner gaps wins). DELTA and the header and
// payload layout are spelled out independently of block_codec.cc.
std::vector<uint8_t> ReferenceEncode(const std::vector<uint32_t>& values) {
  const size_t n = values.size();
  auto bits = [](uint64_t v) {
    uint32_t b = 0;
    while (v != 0) {
      ++b;
      v >>= 1;
    }
    return b;
  };
  auto emit = [n](uint8_t mode, uint32_t width, uint32_t base,
                  const std::vector<uint64_t>& packed) {
    std::vector<uint8_t> out{mode, static_cast<uint8_t>(width),
                             static_cast<uint8_t>(n & 0xFF),
                             static_cast<uint8_t>(n >> 8)};
    for (int shift = 0; shift < 32; shift += 8) {
      out.push_back(static_cast<uint8_t>(base >> shift));
    }
    std::vector<bool> stream;
    for (uint64_t v : packed) {
      for (uint32_t b = 0; b < width; ++b) stream.push_back((v >> b) & 1);
    }
    for (size_t i = 0; i < stream.size(); i += 8) {
      uint8_t byte = 0;
      for (size_t b = 0; b < 8 && i + b < stream.size(); ++b) {
        byte |= static_cast<uint8_t>(stream[i + b] << b);
      }
      out.push_back(byte);
    }
    return out;
  };
  if (n == 0) return emit(0, 0, 0, {});

  std::vector<uint32_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  size_t base_idx = 0;
  uint64_t best_gap = sorted[0] + (uint64_t{1} << 32) - sorted[n - 1];
  for (size_t i = 1; i < n; ++i) {
    const uint64_t gap = uint64_t{sorted[i]} - sorted[i - 1];
    if (gap > best_gap) {
      best_gap = gap;
      base_idx = i;
    }
  }
  const uint32_t base = sorted[base_idx];
  const uint32_t span = sorted[base_idx == 0 ? n - 1 : base_idx - 1] - base;
  const uint32_t for_width = bits(span);

  std::vector<uint64_t> deltas;
  uint32_t delta_width = 0;
  for (size_t i = 1; i < n; ++i) {
    const int64_t d = static_cast<int64_t>(values[i]) -
                      static_cast<int64_t>(values[i - 1]);
    const uint64_t zigzag = d >= 0 ? static_cast<uint64_t>(d) * 2
                                   : static_cast<uint64_t>(-d) * 2 - 1;
    deltas.push_back(zigzag);
    delta_width = std::max(delta_width, bits(zigzag));
  }
  if (delta_width <= 32 &&
      ((n - 1) * delta_width + 7) / 8 < (n * for_width + 7) / 8) {
    return emit(1, delta_width, values[0], deltas);
  }
  std::vector<uint64_t> offsets;
  for (uint32_t v : values) offsets.push_back(uint32_t{v - base});
  return emit(0, for_width, base, offsets);
}

void ExpectMatchesReference(const std::vector<uint32_t>& values,
                            const std::string& label) {
  std::vector<uint8_t> buf(MaxEncodedBlockBytes(values.size()));
  buf.resize(EncodeBlock(values, buf.data()));
  EXPECT_EQ(buf, ReferenceEncode(values)) << label;
}

TEST(BlockCodecReferenceTest, SeededRandomBlocksMatch) {
  Rng rng(2026);
  for (int round = 0; round < 400; ++round) {
    const size_t count = 1 + rng.Below(kBlockValues);
    std::vector<uint32_t> values;
    values.reserve(count);
    // Round-robin over shapes: full-range noise (FOR at 32 bits, the
    // bucketed gap search), clusters scattered over the range (a large
    // gap somewhere inside the block), narrow ranges, random walks.
    const int shape = round % 4;
    const uint32_t mask =
        static_cast<uint32_t>((uint64_t{1} << rng.Range(1, 32)) - 1);
    std::vector<uint32_t> centers;
    for (int c = 0; c < 1 + static_cast<int>(rng.Below(4)); ++c) {
      centers.push_back(static_cast<uint32_t>(rng.Next()));
    }
    uint32_t walk = static_cast<uint32_t>(rng.Next());
    for (size_t i = 0; i < count; ++i) {
      switch (shape) {
        case 0:
          values.push_back(static_cast<uint32_t>(rng.Next()));
          break;
        case 1:
          values.push_back(centers[rng.Below(centers.size())] +
                           (static_cast<uint32_t>(rng.Next()) & mask));
          break;
        case 2:
          values.push_back(static_cast<uint32_t>(rng.Next()) & mask);
          break;
        default:
          walk += static_cast<uint32_t>(rng.Range(0, 64)) - 32;
          values.push_back(walk);
          break;
      }
    }
    ExpectMatchesReference(values, "round " + std::to_string(round));
  }
}

TEST(BlockCodecReferenceTest, SentinelMixesMatch) {
  Rng rng(77);
  for (int round = 0; round < 100; ++round) {
    const size_t count = 1 + rng.Below(kBlockValues);
    const uint32_t small = static_cast<uint32_t>(rng.Range(1, 1 << 20));
    std::vector<uint32_t> values;
    for (size_t i = 0; i < count; ++i) {
      values.push_back(rng.Percent(static_cast<int>(round % 100))
                           ? (rng.Percent(50) ? kNoTag : kNilNode)
                           : static_cast<uint32_t>(rng.Below(small)));
    }
    ExpectMatchesReference(values, "round " + std::to_string(round));
  }
}

TEST(BlockCodecReferenceTest, SpansAroundHalfTheRangeMatch) {
  const uint32_t half = uint32_t{1} << 31;
  for (uint32_t low : {0u, 1u, 12345u, half - 1}) {
    for (uint32_t span : {half - 1, half, half + 1}) {
      const uint32_t high = low + span;
      ExpectMatchesReference({low, high}, "pair");
      ExpectMatchesReference({high, low, high}, "pair reversed");
      ExpectMatchesReference({low, low + 7, high - 3, high}, "inner");
      std::vector<uint32_t> spread;
      for (uint32_t i = 0; i <= 64; ++i) {
        spread.push_back(low + static_cast<uint32_t>(
                                   uint64_t{span} * i / 64));
      }
      ExpectMatchesReference(spread, "spread");
    }
  }
}

TEST(BlockCodecReferenceTest, TiedLargestGapsPickTheFirst) {
  // Inner gaps of equal width, all wider than the wrap-around gap: the
  // frame must start past the first of them in value order, regardless
  // of the order the values arrive in.
  const uint32_t gap = 0x60000000u;
  ExpectMatchesReference({0, gap, 2 * gap}, "three");
  ExpectMatchesReference({2 * gap, 0, gap}, "three shuffled");
  // Three clusters with offsets 0..2: two tied inner gaps of gap - 2.
  std::vector<uint32_t> clusters;
  Rng rng(5);
  for (int i = 0; i < 900; ++i) {
    clusters.push_back(static_cast<uint32_t>(rng.Below(3)) * gap +
                       static_cast<uint32_t>(rng.Below(3)));
  }
  ExpectMatchesReference(clusters, "three clusters");
  // Four clusters a quarter of the range apart, offsets 0..48 in steps
  // of 16: the three inner gaps tie with the wrap-around gap, which
  // must win.
  std::vector<uint32_t> quarters;
  for (int i = 0; i < 900; ++i) {
    quarters.push_back(static_cast<uint32_t>(rng.Below(4)) * 0x40000000u +
                       static_cast<uint32_t>(rng.Below(4)) * 16u);
  }
  ExpectMatchesReference(quarters, "wrap ties inner");
  // An inner gap of exactly 2^31 ties with the wrap-around gap too.
  ExpectMatchesReference({0x10u, 0x10u + 0x80000000u}, "wrap tie");
  ExpectMatchesReference({5, 5 + 0x55555555u, 5 + 2 * 0x55555555u},
                         "three thirds");
}

TEST(BlockCodecReferenceTest, SingleAndConstantBlocksMatch) {
  for (uint32_t v : {0u, 1u, 4096u, kNoTag}) {
    ExpectMatchesReference({v}, "single");
    ExpectMatchesReference(std::vector<uint32_t>(kBlockValues, v),
                           "constant");
    ExpectMatchesReference(std::vector<uint32_t>(17, v), "short constant");
  }
  ExpectMatchesReference({}, "empty");
}

std::string ColumnLine(const std::string& what,
                       const storage::CompressedColumn& column) {
  return what + " pages=" + std::to_string(column.pages.size()) +
         " bytes=" + std::to_string(column.encoded_bytes) +
         " image_digest=" + std::to_string(column.image_digest) + "\n";
}

// One paged column's allocation: page count and first/last page id. Page
// ids pick the pool shard, so these lines pin the allocation order.
std::string PageRangeLine(const std::string& what,
                          const std::vector<storage::PageId>& pages) {
  std::string line = what + " pages=" + std::to_string(pages.size());
  if (!pages.empty()) {
    line += " first=" + std::to_string(pages.front()) +
            " last=" + std::to_string(pages.back());
  }
  return line + "\n";
}

// Pins the images of XMark 1.1 MB seed 1, parsed from its text: the
// source digests, the paged page counts, and every compressed doc and
// fragment column's page count, encoded size and image digest, then every
// paged column's page range. Any change to the parser's output, the
// digests, the encoder's frame choice or the paged allocation order shows
// up here as a changed line.
TEST(BlockCodecGolden, XMarkImagesMatchGolden) {
  xmlgen::XMarkOptions xmark;
  xmark.size_mb = 1.1;
  xmark.seed = 1;
  auto text = xmlgen::GenerateXMarkText(xmark);
  ASSERT_TRUE(text.ok()) << text.status();
  auto loaded = LoadDocument(text.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const DocTable& doc = *loaded.value();

  std::string transcript;
  transcript += "nodes " + std::to_string(doc.size()) + "\n";
  transcript +=
      "doc_digest " + std::to_string(DocColumnsDigest(doc)) + "\n";
  transcript += "frag_digest " +
                std::to_string(FragmentColumnsDigest(doc)) + "\n";

  const storage::ColumnLayout raw = storage::ColumnLayout::kRaw;
  storage::SimulatedDisk paged_disk;
  auto paged_doc = storage::CompressedDocTable::Create(doc, &paged_disk, raw);
  ASSERT_TRUE(paged_doc.ok()) << paged_doc.status();
  transcript +=
      "paged doc pages=" + std::to_string(paged_disk.page_count()) + "\n";
  auto paged_tags =
      storage::CompressedTagIndex::Create(doc, &paged_disk, raw);
  ASSERT_TRUE(paged_tags.ok()) << paged_tags.status();
  transcript += "paged tags pages=" +
                std::to_string(paged_tags.value()->page_count()) + "\n";

  storage::SimulatedDisk disk;
  auto compressed = storage::CompressedDocTable::Create(doc, &disk);
  ASSERT_TRUE(compressed.ok()) << compressed.status();
  const storage::CompressedDocTable& table = *compressed.value();
  transcript += ColumnLine("doc post", table.post());
  transcript += ColumnLine("doc kind", table.kind());
  transcript += ColumnLine("doc level", table.level());
  transcript += ColumnLine("doc parent", table.parent());
  transcript += ColumnLine("doc tag", table.tag());
  auto tags = storage::CompressedTagIndex::Create(doc, &disk);
  ASSERT_TRUE(tags.ok()) << tags.status();
  for (TagId t = 0; t < doc.tags().size(); ++t) {
    const storage::CompressedFragment& frag = tags.value()->fragment(t);
    const std::string name = "fragment " + doc.tags().Name(t);
    transcript += ColumnLine(name + " pre", frag.pre);
    transcript += ColumnLine(name + " post", frag.post);
  }
  transcript += "compressed pages=" + std::to_string(disk.page_count()) +
                "\n";

  const storage::CompressedDocTable& paged = *paged_doc.value();
  transcript += PageRangeLine("paged post", paged.post().pages);
  transcript += PageRangeLine("paged kind", paged.kind().pages);
  transcript += PageRangeLine("paged level", paged.level().pages);
  transcript += PageRangeLine("paged parent", paged.parent().pages);
  transcript += PageRangeLine("paged tag", paged.tag().pages);
  for (TagId t = 0; t < doc.tags().size(); ++t) {
    const storage::CompressedFragment& frag = paged_tags.value()->fragment(t);
    const std::string name = "paged fragment " + doc.tags().Name(t);
    transcript += PageRangeLine(name + " pre", frag.pre.pages);
    transcript += PageRangeLine(name + " post", frag.post.pages);
  }

  const std::filesystem::path golden =
      std::filesystem::path(__FILE__).parent_path() / "golden" /
      "xmark_images.txt";
  std::ifstream in(golden, std::ios::binary);
  std::ostringstream want;
  want << in.rdbuf();
  if (transcript == want.str()) return;
  // Leave the actual transcript in the working directory for diffing.
  std::ofstream("xmark_images.actual.txt", std::ios::binary) << transcript;
  std::istringstream got_lines(transcript);
  std::istringstream want_lines(want.str());
  std::string got_line;
  std::string want_line;
  for (size_t line = 1;; ++line) {
    const bool more_got = static_cast<bool>(std::getline(got_lines, got_line));
    const bool more_want =
        static_cast<bool>(std::getline(want_lines, want_line));
    if (!more_got && !more_want) break;
    if (!more_got || !more_want || got_line != want_line) {
      FAIL() << golden << " line " << line << " differs\n  want: "
             << (more_want ? want_line : "<eof>")
             << "\n  got:  " << (more_got ? got_line : "<eof>")
             << "\n(actual transcript written to xmark_images.actual.txt)";
    }
  }
}

}  // namespace
}  // namespace sj::encoding
