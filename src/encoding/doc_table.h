// The XPath accelerator document encoding (Grust, SIGMOD 2002).
//
// Each document node v is mapped to its preorder and postorder traversal
// ranks <pre(v), post(v)>. The relation
//
//     pre/post plane region        axis from context node c
//     ------------------------     -------------------------
//     pre > pre(c), post < post(c)  descendant
//     pre < pre(c), post > post(c)  ancestor
//     pre > pre(c), post > post(c)  following
//     pre < pre(c), post < post(c)  preceding
//
// partitions the document into the four regions of paper Fig. 1/2. The
// DocTable stores the encoding column-wise in BATs: `pre` is the void head
// (only positions), `post`/`level`/`kind`/`tag`/`parent` are dense tails.
// Attribute nodes participate in the traversal (ranked directly after their
// owner element) and carry kind = kAttribute so axis steps can filter them,
// reproducing the paper's "special encoding ... filtered out if needed".

#ifndef STAIRJOIN_ENCODING_DOC_TABLE_H_
#define STAIRJOIN_ENCODING_DOC_TABLE_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bat/bat.h"
#include "util/result.h"
#include "util/status.h"

namespace sj {

/// A node is identified by its preorder rank (the void head oid).
using NodeId = uint32_t;

/// Invalid / nil node id (parent of the root).
inline constexpr NodeId kNilNode = bat::kNilOid;

/// Dictionary code of an element/attribute name or PI target.
using TagId = uint32_t;

/// Tag code carried by nodes without a name (text, comments). This is a
/// *legitimate* value of the tag column, not an "absent" marker --
/// TagDictionary::Lookup reports never-interned names as std::nullopt
/// precisely so the two cases cannot be conflated.
inline constexpr TagId kNoTag = 0xFFFFFFFFu;

/// XPath data-model node categories stored in the `kind` column.
enum class NodeKind : uint8_t {
  kElement = 0,
  kAttribute = 1,
  kText = 2,
  kComment = 3,
  kProcessingInstruction = 4,
};

/// \brief Interns tag names; code order is first-occurrence order.
class TagDictionary {
 public:
  /// Returns the code for `name`, interning it on first use.
  TagId Intern(std::string_view name);

  /// Returns the code for `name`, or std::nullopt when never interned
  /// (distinct from kNoTag, which is the tag column value of unnamed
  /// nodes and could otherwise be confused with "unknown name").
  std::optional<TagId> Lookup(std::string_view name) const;

  /// Returns the name for a valid code.
  const std::string& Name(TagId id) const { return names_[id]; }

  /// Number of distinct tags.
  size_t size() const { return names_.size(); }

 private:
  /// Transparent hash: Intern and Lookup probe with the caller's
  /// string_view, never building a temporary std::string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::unordered_map<std::string, TagId, NameHash, std::equal_to<>> codes_;
  std::vector<std::string> names_;
};

/// A context/result node sequence: pre ranks, normally in document order.
using NodeSequence = std::vector<NodeId>;

/// True iff `seq` is strictly increasing (document order, duplicate free).
bool IsDocumentOrder(const NodeSequence& seq);

/// \brief The encoded document: the relational `doc` table of the paper.
///
/// Nodes are addressed by pre rank. The table is immutable once built
/// (documents are loaded, then queried); DocTableBuilder produces it.
/// Being immutable, it computes its column digests (DocColumnsDigest,
/// FragmentColumnsDigest) once, on first use, and answers every later
/// call from that memo.
class DocTable {
 public:
  /// Number of encoded nodes (attributes included).
  size_t size() const { return post_.size(); }
  bool empty() const { return post_.empty(); }

  /// The document element (smallest pre rank).
  NodeId root() const { return 0; }

  /// Postorder rank of node v.
  uint32_t post(NodeId v) const { return post_.AtOid(v); }
  /// Depth of v; the root has level 0.
  uint32_t level(NodeId v) const { return level_.AtOid(v); }
  /// Node category of v.
  NodeKind kind(NodeId v) const {
    return static_cast<NodeKind>(kind_.AtOid(v));
  }
  /// Tag code of v (kNoTag for text/comment nodes).
  TagId tag(NodeId v) const { return tag_.AtOid(v); }
  /// Parent of v (kNilNode for the root).
  NodeId parent(NodeId v) const { return parent_.AtOid(v); }

  /// Exact subtree size: number of descendants of v, attributes included.
  /// Satisfies Eq. (1) with the exact level: size = post - pre + level.
  uint32_t subtree_size(NodeId v) const {
    return post(v) - v + level(v);
  }

  /// Height h of the document (maximum level); Eq. (1)'s bound.
  uint32_t height() const { return height_; }

  /// Raw post column for the sequential scan kernels.
  std::span<const uint32_t> posts() const { return post_.tail(); }
  /// Raw kind column (uint8_t-encoded NodeKind).
  std::span<const uint8_t> kinds() const { return kind_.tail(); }
  /// Raw level column.
  std::span<const uint8_t> levels() const { return level_.tail(); }
  /// Raw parent column.
  std::span<const uint32_t> parents() const { return parent_.tail(); }
  /// Raw tag column.
  std::span<const uint32_t> tags_column() const { return tag_.tail(); }

  /// The tag dictionary.
  const TagDictionary& tags() const { return dict_; }

  /// Text / attribute / comment / PI value of v ("" when values were not
  /// stored at build time or v is an element).
  std::string_view value(NodeId v) const;

  /// True iff node values were retained at build time.
  bool has_values() const { return !value_offset_.empty(); }

  /// Number of attribute nodes.
  uint64_t attribute_count() const { return attribute_count_; }

  // --- Region predicates (paper Fig. 1/2) -------------------------------

  /// v is in the descendant region of c.
  bool IsDescendant(NodeId v, NodeId c) const {
    return v > c && post(v) < post(c);
  }
  /// v is in the ancestor region of c.
  bool IsAncestor(NodeId v, NodeId c) const {
    return v < c && post(v) > post(c);
  }
  /// v is in the following region of c.
  bool IsFollowing(NodeId v, NodeId c) const {
    return v > c && post(v) > post(c);
  }
  /// v is in the preceding region of c.
  bool IsPreceding(NodeId v, NodeId c) const {
    return v < c && post(v) < post(c);
  }

  /// Validates a node id.
  Status CheckNode(NodeId v) const {
    if (v < size()) return Status::OK();
    return Status::OutOfRange("node id " + std::to_string(v) +
                              " outside document of " +
                              std::to_string(size()) + " nodes");
  }

  /// Human-readable one-line description of a node (for examples/tooling).
  std::string DebugString(NodeId v) const;

 private:
  friend class DocTableBuilder;
  friend uint64_t DocColumnsDigest(const DocTable& doc);
  friend uint64_t FragmentColumnsDigest(const DocTable& doc);

  /// Fills doc_digest_ and frag_digest_ in one pass over the columns;
  /// runs once per table, under digest_once_.
  void ComputeDigests() const;

  bat::Bat<uint32_t> post_;
  bat::Bat<uint8_t> level_;
  bat::Bat<uint8_t> kind_;
  bat::Bat<uint32_t> tag_;
  bat::Bat<uint32_t> parent_;
  // Optional value storage: per-node [offset, offset+length) into heap_.
  std::vector<uint32_t> value_offset_;
  std::vector<uint32_t> value_length_;
  std::string heap_;
  TagDictionary dict_;
  uint32_t height_ = 0;
  uint64_t attribute_count_ = 0;
  mutable std::once_flag digest_once_;
  mutable uint64_t doc_digest_ = 0;
  mutable uint64_t frag_digest_ = 0;
};

/// FNV-1a digest over the post/kind/level/parent/tag columns. Identifies
/// the encoding a paged or compressed document image was built from, so
/// consumers holding both a DocTable and an image can detect mismatched
/// pairs (two different documents can share a node count, and two
/// documents with identical structure can still differ in the tag
/// column). Computed once per table; later calls read the memo.
uint64_t DocColumnsDigest(const DocTable& doc);

/// FNV-1a digest identifying the encoding a tag fragment image was built
/// from: DocColumnsDigest continued over the tag column (fragments depend
/// on tags, and the continuation keeps the two digests distinct). Comes
/// from the same one-time pass as DocColumnsDigest.
uint64_t FragmentColumnsDigest(const DocTable& doc);

}  // namespace sj

#endif  // STAIRJOIN_ENCODING_DOC_TABLE_H_
