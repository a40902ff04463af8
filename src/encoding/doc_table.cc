#include "encoding/doc_table.h"

#include <algorithm>

namespace sj {
namespace {

constexpr uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001B3ULL;

/// Continues an FNV-1a digest over one byte.
uint64_t FnvMixU8(uint64_t h, uint8_t value) {
  return (h ^ value) * kFnvPrime;
}

/// Continues an FNV-1a digest over one little-endian uint32 value.
uint64_t FnvMixU32(uint64_t h, uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    h = FnvMixU8(h, static_cast<uint8_t>(value >> shift));
  }
  return h;
}

}  // namespace

TagId TagDictionary::Intern(std::string_view name) {
  auto it = codes_.find(name);
  if (it != codes_.end()) return it->second;
  TagId id = static_cast<TagId>(names_.size());
  names_.emplace_back(name);
  codes_.emplace(names_.back(), id);
  return id;
}

std::optional<TagId> TagDictionary::Lookup(std::string_view name) const {
  auto it = codes_.find(name);
  if (it == codes_.end()) return std::nullopt;
  return it->second;
}

bool IsDocumentOrder(const NodeSequence& seq) {
  for (size_t i = 1; i < seq.size(); ++i) {
    if (seq[i - 1] >= seq[i]) return false;
  }
  return true;
}

void DocTable::ComputeDigests() const {
  uint64_t h = kFnvOffsetBasis;
  for (uint32_t post : posts()) h = FnvMixU32(h, post);
  for (uint8_t kind : kinds()) h = FnvMixU8(h, kind);
  for (uint8_t level : levels()) h = FnvMixU8(h, level);
  // The axis cursors read parent and tag through the pool as well, so a
  // stale parent/tag page image must fail the digest check too.
  for (uint32_t parent : parents()) h = FnvMixU32(h, parent);
  for (uint32_t tag : tags_column()) h = FnvMixU32(h, tag);
  doc_digest_ = h;
  for (uint32_t tag : tags_column()) h = FnvMixU32(h, tag);
  frag_digest_ = h;
}

uint64_t DocColumnsDigest(const DocTable& doc) {
  std::call_once(doc.digest_once_, [&doc] { doc.ComputeDigests(); });
  return doc.doc_digest_;
}

uint64_t FragmentColumnsDigest(const DocTable& doc) {
  std::call_once(doc.digest_once_, [&doc] { doc.ComputeDigests(); });
  return doc.frag_digest_;
}

std::string_view DocTable::value(NodeId v) const {
  if (value_offset_.empty() || v >= value_offset_.size()) return {};
  return std::string_view(heap_).substr(value_offset_[v], value_length_[v]);
}

std::string DocTable::DebugString(NodeId v) const {
  std::string out = "<pre=" + std::to_string(v) +
                    ", post=" + std::to_string(post(v)) +
                    ", level=" + std::to_string(level(v)) + ", ";
  switch (kind(v)) {
    case NodeKind::kElement:
      out += "element " + dict_.Name(tag(v));
      break;
    case NodeKind::kAttribute:
      out += "attribute @" + dict_.Name(tag(v));
      break;
    case NodeKind::kText:
      out += "text";
      break;
    case NodeKind::kComment:
      out += "comment";
      break;
    case NodeKind::kProcessingInstruction:
      out += "pi " + dict_.Name(tag(v));
      break;
  }
  out += ">";
  return out;
}

}  // namespace sj
