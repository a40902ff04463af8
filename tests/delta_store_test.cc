// Updatable documents, tested end to end: edits applied through the
// delta overlay must be NODE-IDENTICAL to rebuilding the database from
// the edited document -- per query, per backend (memory/paged/
// compressed), before and after Compact(). The logical rank space is
// dense, so "identical" is literal NodeSequence equality, never a
// remapping. Randomized edit scripts drive the segment surgery through
// arbitrary insert/delete/replace interleavings; a column-equivalence
// walk pins the merging accessor against the materialized fold; and a
// writers-vs-readers test (run under the SJ_SANITIZE TSan job) proves
// snapshot isolation: readers only ever observe committed states.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/database.h"
#include "core/doc_accessor.h"
#include "core/tag_view.h"
#include "delta/delta_accessor.h"
#include "delta/overlay.h"
#include "test_util.h"
#include "util/rng.h"

namespace sj {
namespace {

/// The query mix every equivalence check runs: staircase axes, pushdown
/// candidates, twig runs, non-staircase cursors, predicates (existence
/// and positional), and a union.
const char* const kQueries[] = {
    "/descendant::t0",
    "/descendant::t1",
    "/descendant::t0/child::t1",
    "/descendant::t1/child::t2/child::t3",
    "/descendant::t2/ancestor::t0",
    "/descendant::t3/following-sibling::t4",
    "/descendant::t4/preceding-sibling::node()",
    "/descendant::t0/attribute::*",
    "/child::node()/child::node()",
    "/descendant::t0[child::t1]",
    "/descendant::t1[2]",
    "/descendant::t5/parent::node()",
    "/descendant::t0 | /descendant::t5",
    "/descendant-or-self::node()",
};

struct Config {
  StorageBackend backend;
  PushdownMode pushdown;
};

std::vector<Config> Configs() {
  std::vector<Config> configs;
  for (StorageBackend backend :
       {StorageBackend::kMemory, StorageBackend::kPaged,
        StorageBackend::kCompressed}) {
    for (PushdownMode pushdown :
         {PushdownMode::kAuto, PushdownMode::kAlways, PushdownMode::kNever}) {
      configs.push_back({backend, pushdown});
    }
  }
  return configs;
}

/// Runs every query of kQueries under `config`; aborts the test on a
/// query failure.
std::vector<NodeSequence> RunAll(const Database& db, const Config& config) {
  SessionOptions options;
  options.backend = config.backend;
  options.hints.pushdown = config.pushdown;
  auto session = db.CreateSession(options);
  EXPECT_TRUE(session.ok()) << session.status();
  std::vector<NodeSequence> results;
  for (const char* q : kQueries) {
    auto r = session.value().Run(q);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status();
    results.push_back(r.ok() ? std::move(r.value().nodes) : NodeSequence{});
  }
  return results;
}

/// The reference: a database rebuilt from scratch over the materialized
/// merged table. Its pre ranks are the overlay's logical ranks by
/// construction, so result sequences must match element-wise.
std::unique_ptr<Database> RebuildReference(const Database& db) {
  auto snap = db.CurrentSnapshot();
  std::unique_ptr<DocTable> merged;
  if (snap->overlay() != nullptr) {
    auto folded = delta::MaterializeMerged(*snap->images().doc,
                                           *snap->overlay(), BuildOptions{});
    EXPECT_TRUE(folded.ok()) << folded.status();
    if (!folded.ok()) return nullptr;
    merged = std::move(folded).value();
  } else {
    // Pristine: re-encode the base document's XML-equivalent by folding
    // an empty overlay is pointless; reuse serialization-free copy via
    // an empty edit is not available, so tests only call this on edited
    // databases.
    ADD_FAILURE() << "RebuildReference called on a pristine database";
    return nullptr;
  }
  auto rebuilt = Database::FromTable(std::move(merged));
  EXPECT_TRUE(rebuilt.ok()) << rebuilt.status();
  return rebuilt.ok() ? std::move(rebuilt).value() : nullptr;
}

/// Node-identity across every backend/pushdown config: the edited
/// database answers exactly like the rebuilt one.
void ExpectEquivalent(const Database& edited, const Database& reference,
                      const std::string& label) {
  for (const Config& config : Configs()) {
    std::vector<NodeSequence> got = RunAll(edited, config);
    std::vector<NodeSequence> want = RunAll(reference, config);
    ASSERT_EQ(got.size(), want.size());
    for (size_t q = 0; q < got.size(); ++q) {
      EXPECT_EQ(got[q], want[q])
          << label << ": query '" << kQueries[q] << "' diverged on backend "
          << static_cast<int>(config.backend) << " pushdown "
          << static_cast<int>(config.pushdown);
    }
  }
}

/// Column-equivalence: the merging accessor must read, rank for rank,
/// the columns the rebuilt table stores. Tags compare by NAME (the two
/// dictionaries may assign different ids).
void ExpectColumnsEquivalent(const Database& edited, const Database& ref) {
  auto snap = edited.CurrentSnapshot();
  ASSERT_NE(snap->overlay(), nullptr);
  const delta::Overlay& overlay = *snap->overlay();
  const DocTable& base = *snap->images().doc;
  auto ref_snap = ref.CurrentSnapshot();
  const DocTable& want = *ref_snap->images().doc;
  delta::DeltaDocAccessor<MemoryDocAccessor> acc(overlay, base);
  ASSERT_EQ(acc.size(), want.size());
  for (NodeId v = 0; v < want.size(); ++v) {
    EXPECT_EQ(acc.Post(v), want.post(v)) << "post(" << v << ")";
    EXPECT_EQ(acc.Kind(v), static_cast<uint8_t>(want.kind(v)))
        << "kind(" << v << ")";
    EXPECT_EQ(acc.Level(v), want.level(v)) << "level(" << v << ")";
    EXPECT_EQ(acc.Parent(v), want.parent(v)) << "parent(" << v << ")";
    const TagId got_tag = acc.Tag(v);
    const TagId want_tag = want.tag(v);
    ASSERT_EQ(got_tag == kNoTag, want_tag == kNoTag) << "tag(" << v << ")";
    if (got_tag != kNoTag) {
      EXPECT_EQ(overlay.TagName(base.tags(), got_tag),
                want.tags().Name(want_tag))
          << "tag name(" << v << ")";
    }
  }
}

/// What ExpectFragmentsEquivalent saw, so a script can check that it
/// reached every kind of tag.
struct FragmentCoverage {
  uint64_t with_delta_entries = 0;
  uint64_t with_deleted_slots = 0;
  uint64_t untouched = 0;  ///< non-empty base fragment, neither of the above
};

/// Fragment-equivalence: for every tag of the merged dictionary, the
/// merging fragment cursor must read exactly the fragment a TagIndex
/// built over the merged document holds -- size, Pre/Post per slot and
/// LowerBound for every logical pre. A tag that no delta entry and no
/// deleted base slot touches must stay one base slot segment.
void ExpectFragmentsEquivalent(const Database& edited,
                               FragmentCoverage* coverage) {
  auto snap = edited.CurrentSnapshot();
  ASSERT_NE(snap->overlay(), nullptr);
  const delta::Overlay& overlay = *snap->overlay();
  const DatabaseImages& images = snap->images();
  auto merged = snap->MergedDoc();
  ASSERT_TRUE(merged.ok()) << merged.status();
  const DocTable& doc = *merged.value();
  const TagIndex rebuilt(doc);

  // Delta element entries per merged tag.
  std::vector<uint64_t> delta_entries(overlay.merged_dict_size(), 0);
  for (uint64_t i = 0; i < overlay.delta_size(); ++i) {
    if (overlay.DeltaKind(i) == static_cast<uint8_t>(NodeKind::kElement) &&
        overlay.DeltaTag(i) != kNoTag) {
      ++delta_entries[overlay.DeltaTag(i)];
    }
  }

  for (TagId t = 0; t < overlay.merged_dict_size(); ++t) {
    const std::string& name = overlay.TagName(images.doc->tags(), t);
    const TagView& base = images.tag_index->view(t);
    const TagView& want =
        rebuilt.view(doc.tags().Lookup(name).value_or(kNoTag));
    delta::DeltaFragmentCursor<MemoryFragmentCursor> cursor(overlay, t, base);
    ASSERT_EQ(cursor.size(), want.size()) << "tag " << name;
    for (size_t slot = 0; slot < want.size(); ++slot) {
      EXPECT_EQ(cursor.Pre(slot), want.pre[slot])
          << "tag " << name << " Pre(" << slot << ")";
      EXPECT_EQ(cursor.Post(slot), want.post[slot])
          << "tag " << name << " Post(" << slot << ")";
    }
    for (uint64_t p = 0; p <= overlay.logical_size(); ++p) {
      const size_t expected = static_cast<size_t>(
          std::lower_bound(want.pre.begin(), want.pre.end(), p) -
          want.pre.begin());
      EXPECT_EQ(cursor.LowerBound(p), expected)
          << "tag " << name << " LowerBound(" << p << ")";
    }

    const uint64_t base_survivors = want.size() - delta_entries[t];
    if (delta_entries[t] > 0) ++coverage->with_delta_entries;
    if (base_survivors < base.size()) ++coverage->with_deleted_slots;
    if (delta_entries[t] == 0 && base_survivors == base.size() &&
        base.size() > 0) {
      ++coverage->untouched;
      EXPECT_EQ(overlay.fragment(t).slots.size(), 1u)
          << "untouched tag " << name << " split into slot segments";
    }
    if (::testing::Test::HasFailure()) return;  // one tag's worth is enough
  }
}

std::unique_ptr<Database> OpenXml(const std::string& xml) {
  auto db = Database::FromXml(xml);
  EXPECT_TRUE(db.ok()) << db.status();
  return db.ok() ? std::move(db).value() : nullptr;
}

// ---------------------------------------------------------------------------
// Hand-crafted edits against the paper's Fig. 1/2 document.
// ---------------------------------------------------------------------------

TEST(DeltaStore, InsertLastChildMatchesRebuild) {
  auto db = OpenXml(sj::testing::kPaperExampleXml);
  ASSERT_NE(db, nullptr);
  // e is pre rank 4; append <k><l/></k> as its last child.
  EditTxn txn = db->BeginEdit();
  ASSERT_TRUE(txn.InsertLastChild(4, "<k><l/></k>").ok());
  ASSERT_TRUE(txn.Commit().ok());
  auto expected =
      OpenXml("<a><b><c/></b><d/><e><f><g/><h/></f><i><j/></i><k><l/></k>"
              "</e></a>");
  ASSERT_NE(expected, nullptr);
  ExpectEquivalent(*db, *expected, "insert k under e");
  ExpectColumnsEquivalent(*db, *expected);
  EXPECT_EQ(db->CurrentSnapshot()->epoch(), 1u);
  EXPECT_EQ(db->CurrentSnapshot()->delta_nodes(), 2u);
}

TEST(DeltaStore, DeleteSubtreeMatchesRebuild) {
  auto db = OpenXml(sj::testing::kPaperExampleXml);
  ASSERT_NE(db, nullptr);
  // Delete f's subtree (pre 5: f, g, h).
  EditTxn txn = db->BeginEdit();
  ASSERT_TRUE(txn.DeleteSubtree(5).ok());
  ASSERT_TRUE(txn.Commit().ok());
  auto expected = OpenXml("<a><b><c/></b><d/><e><i><j/></i></e></a>");
  ASSERT_NE(expected, nullptr);
  ExpectEquivalent(*db, *expected, "delete f");
  ExpectColumnsEquivalent(*db, *expected);
}

TEST(DeltaStore, ReplaceSubtreeMatchesRebuild) {
  auto db = OpenXml(sj::testing::kPaperExampleXml);
  ASSERT_NE(db, nullptr);
  // Replace b's subtree (pre 1) in place.
  EditTxn txn = db->BeginEdit();
  ASSERT_TRUE(txn.ReplaceSubtree(1, "<z><w/><w/></z>").ok());
  ASSERT_TRUE(txn.Commit().ok());
  auto expected =
      OpenXml("<a><z><w/><w/></z><d/><e><f><g/><h/></f><i><j/></i></e></a>");
  ASSERT_NE(expected, nullptr);
  ExpectEquivalent(*db, *expected, "replace b with z");
  ExpectColumnsEquivalent(*db, *expected);
}

TEST(DeltaStore, EditsComposeWithinAndAcrossTransactions) {
  auto db = OpenXml(sj::testing::kPaperExampleXml);
  ASSERT_NE(db, nullptr);
  {
    // One transaction, three composing ops: each op addresses the
    // document as left by the previous one.
    EditTxn txn = db->BeginEdit();
    ASSERT_TRUE(txn.InsertLastChild(0, "<p><q/></p>").ok());
    ASSERT_TRUE(txn.DeleteSubtree(3).ok());  // d (unshifted by the append)
    ASSERT_TRUE(txn.ReplaceSubtree(8, "<j2/>").ok());  // j moved 9 -> 8
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    // A second epoch edits the first's inserted subtree.
    EditTxn txn = db->BeginEdit();
    ASSERT_TRUE(txn.InsertLastChild(10, "<r/>").ok());  // q, inside the delta
    ASSERT_TRUE(txn.Commit().ok());
  }
  auto expected = OpenXml(
      "<a><b><c/></b><e><f><g/><h/></f><i><j2/></i></e><p><q><r/></q></p>"
      "</a>");
  ASSERT_NE(expected, nullptr);
  ExpectEquivalent(*db, *expected, "composed edits");
  ExpectColumnsEquivalent(*db, *expected);
  EXPECT_EQ(db->CurrentSnapshot()->epoch(), 2u);
}

TEST(DeltaStore, CompactionPreservesResultsAndResetsDelta) {
  auto db = OpenXml(sj::testing::kPaperExampleXml);
  ASSERT_NE(db, nullptr);
  EditTxn txn = db->BeginEdit();
  ASSERT_TRUE(txn.InsertLastChild(4, "<k/>").ok());
  ASSERT_TRUE(txn.DeleteSubtree(1).ok());
  ASSERT_TRUE(txn.Commit().ok());
  auto reference = RebuildReference(*db);
  ASSERT_NE(reference, nullptr);
  ExpectEquivalent(*db, *reference, "pre-compaction");

  ASSERT_TRUE(db->Compact().ok());
  EXPECT_EQ(db->CurrentSnapshot()->epoch(), 2u);
  EXPECT_EQ(db->CurrentSnapshot()->overlay(), nullptr);
  EXPECT_EQ(db->CurrentSnapshot()->delta_nodes(), 0u);
  ExpectEquivalent(*db, *reference, "post-compaction");

  // Idempotent: a second Compact over a clean snapshot is a free no-op.
  ASSERT_TRUE(db->Compact().ok());
  EXPECT_EQ(db->CurrentSnapshot()->epoch(), 2u);

  const DatabaseStats stats = db->TotalStats();
  EXPECT_EQ(stats.edits_committed, 1u);
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.delta_nodes, 0u);
}

TEST(DeltaStore, CompactionKeepsTheSimulatedDeviceLatency) {
  auto db = OpenXml(sj::testing::kPaperExampleXml);
  ASSERT_NE(db, nullptr);
  auto before = db->CurrentSnapshot();
  before->images().disk->set_read_latency_micros(50);
  EditTxn txn = db->BeginEdit();
  ASSERT_TRUE(txn.InsertLastChild(4, "<k/>").ok());
  ASSERT_TRUE(txn.Commit().ok());
  ASSERT_TRUE(db->Compact().ok());
  // Compaction rebuilds the images on a fresh disk; faults after it must
  // still cost what the caller configured, not RAM speed.
  auto after = db->CurrentSnapshot();
  ASSERT_NE(after->images().disk.get(), before->images().disk.get());
  EXPECT_EQ(after->images().disk->read_latency_micros(), 50u);
}

TEST(DeltaStore, EditValidation) {
  auto db = OpenXml(sj::testing::kPaperExampleXml);
  ASSERT_NE(db, nullptr);
  EditTxn txn = db->BeginEdit();
  EXPECT_FALSE(txn.DeleteSubtree(0).ok());            // root undeletable
  EXPECT_FALSE(txn.ReplaceSubtree(0, "<x/>").ok());   // root irreplaceable
  EXPECT_FALSE(txn.DeleteSubtree(10).ok());           // out of range
  EXPECT_FALSE(txn.InsertLastChild(10, "<x/>").ok()); // out of range
  EXPECT_FALSE(txn.InsertLastChild(4, "").ok());      // not a fragment
  EXPECT_FALSE(txn.InsertLastChild(4, "<x><y/>").ok());  // unbalanced
  EXPECT_EQ(txn.ops_applied(), 0u);
  // A no-op transaction commits without publishing an epoch.
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(db->CurrentSnapshot()->epoch(), 0u);
  EXPECT_EQ(db->TotalStats().edits_committed, 0u);
}

TEST(DeltaStore, OptimisticConflictLosesToFirstCommitter) {
  auto db = OpenXml(sj::testing::kPaperExampleXml);
  ASSERT_NE(db, nullptr);
  EditTxn first = db->BeginEdit();
  EditTxn second = db->BeginEdit();
  ASSERT_TRUE(first.InsertLastChild(0, "<x/>").ok());
  ASSERT_TRUE(second.InsertLastChild(0, "<y/>").ok());
  ASSERT_TRUE(first.Commit().ok());
  Status conflict = second.Commit();
  ASSERT_FALSE(conflict.ok());
  EXPECT_NE(conflict.message().find("snapshot conflict"), std::string::npos)
      << conflict;
  // The loser's edits never became visible.
  auto session = db->CreateSession();
  ASSERT_TRUE(session.ok());
  auto x = session.value().Run("/descendant::x");
  auto y = session.value().Run("/descendant::y");
  ASSERT_TRUE(x.ok() && y.ok());
  EXPECT_EQ(x.value().nodes.size(), 1u);
  EXPECT_EQ(y.value().nodes.size(), 0u);
}

TEST(DeltaStore, ExplainNamesSnapshotEpochAndOverlayJoins) {
  auto db = OpenXml(sj::testing::kPaperExampleXml);
  ASSERT_NE(db, nullptr);
  auto session = db->CreateSession();
  ASSERT_TRUE(session.ok());
  auto pristine = session.value().Run("/descendant::e");
  ASSERT_TRUE(pristine.ok());
  EXPECT_EQ(pristine.value().snapshot_epoch, 0u);
  EXPECT_EQ(pristine.value().Explain().find("snapshot:"), std::string::npos);

  EditTxn txn = db->BeginEdit();
  ASSERT_TRUE(txn.InsertLastChild(4, "<k/>").ok());
  ASSERT_TRUE(txn.Commit().ok());
  auto edited = session.value().Run("/descendant::e");
  ASSERT_TRUE(edited.ok());
  EXPECT_EQ(edited.value().snapshot_epoch, 1u);
  EXPECT_EQ(edited.value().snapshot_delta_nodes, 1u);
  const std::string explain = edited.value().Explain();
  EXPECT_NE(explain.find("snapshot: epoch 1 (delta: 1 nodes)"),
            std::string::npos)
      << explain;
  EXPECT_NE(explain.find("overlay staircase join"), std::string::npos)
      << explain;

  // Overlay joins run serially on every backend: even a session asking
  // for intra-query parallelism must not report a parallel plan.
  SessionOptions wide;
  wide.num_threads = 4;
  auto parallel_session = db->CreateSession(wide);
  ASSERT_TRUE(parallel_session.ok());
  auto wide_run = parallel_session.value().Run("/descendant::e");
  ASSERT_TRUE(wide_run.ok());
  EXPECT_EQ(wide_run.value().Explain().find("parallel"), std::string::npos);
}

TEST(DeltaStore, StalePlansRetireAcrossCommits) {
  auto db = OpenXml(sj::testing::kPaperExampleXml);
  ASSERT_NE(db, nullptr);
  auto session = db->CreateSession();
  ASSERT_TRUE(session.ok());
  Session& s = session.value();

  auto first = s.Run("/descendant::k");
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().plan_cached);
  EXPECT_EQ(first.value().nodes.size(), 0u);
  auto second = s.Run("/descendant::k");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().plan_cached);

  // The commit interns 'k' into the merged dictionary; the cached plan
  // resolved it to "unknown tag -> empty" and MUST not be served again.
  EditTxn txn = db->BeginEdit();
  ASSERT_TRUE(txn.InsertLastChild(4, "<k/>").ok());
  ASSERT_TRUE(txn.Commit().ok());
  auto after = s.Run("/descendant::k");
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().plan_cached)
      << "a plan compiled at epoch 0 was served at epoch 1";
  EXPECT_EQ(after.value().nodes.size(), 1u);
  // The new epoch's plan caches normally from here on.
  auto again = s.Run("/descendant::k");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().plan_cached);
  EXPECT_EQ(again.value().nodes.size(), 1u);
}

TEST(DeltaStore, SnapshotPinsKeepOldEpochsAlive) {
  auto db = OpenXml(sj::testing::kPaperExampleXml);
  ASSERT_NE(db, nullptr);
  auto old_snap = db->CurrentSnapshot();
  EditTxn txn = db->BeginEdit();
  ASSERT_TRUE(txn.DeleteSubtree(5).ok());
  ASSERT_TRUE(txn.Commit().ok());
  ASSERT_TRUE(db->Compact().ok());
  // The pinned epoch-0 snapshot still answers from the ORIGINAL images
  // even though the database has compacted past it.
  EXPECT_EQ(old_snap->epoch(), 0u);
  EXPECT_EQ(old_snap->images().doc->size(), 10u);
  EXPECT_EQ(db->CurrentSnapshot()->images().doc->size(), 7u);

  const DatabaseStats stats = db->TotalStats();
  EXPECT_EQ(stats.edits_committed, 1u);
  EXPECT_EQ(stats.compactions, 1u);
}

TEST(DeltaStore, SessionsFollowTheSnapshotChain) {
  auto db = OpenXml(sj::testing::kPaperExampleXml);
  ASSERT_NE(db, nullptr);
  const uint64_t pins_before = db->TotalStats().snapshots_pinned;
  auto session = db->CreateSession();
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(db->TotalStats().snapshots_pinned, pins_before + 1);
  ASSERT_TRUE(session.value().Run("/descendant::b").ok());
  // Same epoch: no rebind.
  ASSERT_TRUE(session.value().Run("/descendant::b").ok());
  EXPECT_EQ(db->TotalStats().snapshots_pinned, pins_before + 1);
  EditTxn txn = db->BeginEdit();
  ASSERT_TRUE(txn.InsertLastChild(0, "<b/>").ok());
  ASSERT_TRUE(txn.Commit().ok());
  auto rebound = session.value().Run("/descendant::b");
  ASSERT_TRUE(rebound.ok());
  EXPECT_EQ(rebound.value().nodes.size(), 2u);
  EXPECT_EQ(db->TotalStats().snapshots_pinned, pins_before + 2);
}

// ---------------------------------------------------------------------------
// Randomized edit scripts: overlay vs rebuilt, every backend, pre and
// post compaction.
// ---------------------------------------------------------------------------

/// A small random fragment: 1..4 elements (old and fresh tag names),
/// occasional attribute and text content.
std::string RandomFragmentXml(Rng& rng) {
  const uint64_t shape = rng.Below(5);
  std::string tag = "t" + std::to_string(rng.Below(8));  // t6/t7: fresh names
  std::string xml = "<" + tag;
  if (rng.Below(3) == 0) {
    xml += " a=\"" + std::to_string(rng.Below(100)) + "\"";
  }
  xml += ">";
  switch (shape) {
    case 0:
      break;
    case 1:
      xml += "text" + std::to_string(rng.Below(10));
      break;
    case 2:
      xml += "<t" + std::to_string(rng.Below(8)) + "/>";
      break;
    case 3:
      xml += "<t" + std::to_string(rng.Below(8)) + "><t" +
             std::to_string(rng.Below(8)) + "/></t" +
             std::to_string(rng.Below(8)) + ">";
      // Deliberately mismatched closers would be a parse error; repair:
      return "<" + tag + "><u1><u2/></u1></" + tag + ">";
    default:
      xml += "<u3/><u4/>";
      break;
  }
  xml += "</" + tag + ">";
  return xml;
}

TEST(DeltaStoreRandomized, EditScriptsMatchRebuildAcrossBackends) {
  // Commits before the mid-script compaction, then after it. After it
  // every node is a base node, so each commit opens with a delete that
  // leaves a deleted base run behind.
  constexpr int kCommitsBeforeCompact = 5;
  constexpr int kCommits = 10;
  // Random documents are seed-sensitive in size: these three have 57, 5
  // and 377 nodes.
  const std::pair<uint64_t, size_t> kDocs[] = {{7, 160}, {41, 160}, {21, 400}};
  for (const auto& [seed, target_nodes] : kDocs) {
    sj::testing::RandomDocOptions doc_options;
    doc_options.target_nodes = target_nodes;
    auto db = OpenXml(sj::testing::RandomDocumentXml(seed, doc_options));
    ASSERT_NE(db, nullptr);
    Rng rng(seed * 1000003);
    FragmentCoverage coverage;
    for (int commit = 0; commit < kCommits; ++commit) {
      if (commit == kCommitsBeforeCompact) {
        ASSERT_TRUE(db->Compact().ok());
      }
      auto merged = db->CurrentSnapshot()->MergedDoc();
      ASSERT_TRUE(merged.ok()) << merged.status();
      const DocTable& doc = *merged.value();
      // Element inventory of the working document (logical ranks).
      std::vector<NodeId> elements;
      for (NodeId v = 0; v < doc.size(); ++v) {
        if (doc.kind(v) == NodeKind::kElement) elements.push_back(v);
      }
      ASSERT_GT(elements.size(), 1u);

      EditTxn txn = db->BeginEdit();
      if (commit >= kCommitsBeforeCompact) {
        // Small subtrees only, so the document never empties out.
        std::vector<NodeId> small;
        for (NodeId v : elements) {
          if (v != 0 && doc.subtree_size(v) <= 8) small.push_back(v);
        }
        ASSERT_FALSE(small.empty());
        ASSERT_TRUE(txn.DeleteSubtree(small[rng.Below(small.size())]).ok());
      }
      const uint64_t ops = 1 + rng.Below(4);
      for (uint64_t op = 0; op < ops; ++op) {
        const uint64_t kind = rng.Below(10);
        if (kind < 5) {
          const NodeId parent = elements[rng.Below(elements.size())];
          // The parent may have been deleted by an earlier op of this
          // txn; skip such picks (the script is random, not clever).
          if (parent >= txn.logical_size()) continue;
          Status st = txn.InsertLastChild(parent, RandomFragmentXml(rng));
          if (!st.ok()) continue;  // e.g. non-element after earlier edits
        } else if (kind < 8 && txn.logical_size() > 20) {
          const NodeId v =
              1 + static_cast<NodeId>(rng.Below(txn.logical_size() - 1));
          (void)txn.DeleteSubtree(v);
        } else {
          const NodeId v = elements[rng.Below(elements.size())];
          if (v == 0 || v >= txn.logical_size()) continue;
          (void)txn.ReplaceSubtree(v, RandomFragmentXml(rng));
        }
      }
      ASSERT_TRUE(txn.Commit().ok());
      if (db->CurrentSnapshot()->overlay() == nullptr) continue;  // no-op txn
      auto reference = RebuildReference(*db);
      ASSERT_NE(reference, nullptr);
      const std::string label =
          "seed " + std::to_string(seed) + " commit " + std::to_string(commit);
      ExpectEquivalent(*db, *reference, label);
      ExpectColumnsEquivalent(*db, *reference);
      ExpectFragmentsEquivalent(*db, &coverage);
      if (::testing::Test::HasFailure()) return;  // don't cascade
    }
    // The script reached every kind of fragment rebuild.
    EXPECT_GT(coverage.with_delta_entries, 0u) << "seed " << seed;
    EXPECT_GT(coverage.with_deleted_slots, 0u) << "seed " << seed;
    EXPECT_GT(coverage.untouched, 0u) << "seed " << seed;
    // Fold everything and re-check against a fresh rebuild of the final
    // state: compaction must not change a single node id.
    auto reference = RebuildReference(*db);
    ASSERT_NE(reference, nullptr);
    ASSERT_TRUE(db->Compact().ok());
    ExpectEquivalent(*db, *reference,
                     "seed " + std::to_string(seed) + " post-compaction");
  }
}

TEST(DeltaStoreRandomized, EditChainKeepsPatchCountsExact) {
  // A long chain in the shape of a serving writer: four-op transactions
  // that insert <wpatch><rec/></wpatch> as the last child of a random
  // open_auction or delete a random live wpatch, compacting every 32nd
  // commit. Each transaction plans its targets on the committed state
  // and applies them highest rank first, so no op shifts a later op's
  // target. After every commit each backend, with and without the twig
  // join, must count exactly the live patches.
  constexpr int kCommits = 256;
  constexpr int kOpsPerCommit = 4;
  constexpr int kCompactEvery = 32;
  constexpr double kTargetLive = 64;
  xmlgen::XMarkOptions gen;
  gen.size_mb = 0.2;
  gen.seed = 1;
  gen.rich_text = false;
  auto opened = Database::FromXmark(gen);
  ASSERT_TRUE(opened.ok()) << opened.status();
  std::unique_ptr<Database> db = std::move(opened).value();

  // Backend-major: memory, paged, compressed, each twig auto then never.
  std::vector<Session> readers;
  for (StorageBackend backend :
       {StorageBackend::kMemory, StorageBackend::kPaged,
        StorageBackend::kCompressed}) {
    for (TwigMode twig : {TwigMode::kAuto, TwigMode::kNever}) {
      SessionOptions options;
      options.backend = backend;
      options.hints.twig = twig;
      auto session = db->CreateSession(options);
      ASSERT_TRUE(session.ok()) << session.status();
      readers.push_back(std::move(session).value());
    }
  }
  auto count = [](Session& s, const char* q) -> uint64_t {
    auto r = s.Run(q);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status();
    return r.ok() ? r.value().nodes.size() : ~uint64_t{0};
  };

  Rng rng(20031);
  uint64_t live = 0;
  FragmentCoverage coverage;
  for (int commit = 1; commit <= kCommits; ++commit) {
    auto patches = readers[0].Run("/descendant::wpatch");
    auto parents = readers[0].Run("/descendant::open_auction");
    ASSERT_TRUE(patches.ok() && parents.ok());
    const NodeSequence& patch_nodes = patches.value().nodes;
    const NodeSequence& parent_nodes = parents.value().nodes;
    ASSERT_FALSE(parent_nodes.empty());
    std::vector<std::pair<NodeId, bool>> targets;  // (pre, insert?)
    std::vector<bool> doomed(patch_nodes.size(), false);
    int inserts = 0;
    int deletes = 0;
    for (int op = 0; op < kOpsPerCommit; ++op) {
      // Deletes grow likelier with the live count, which so hovers near
      // kTargetLive.
      const double live_now = static_cast<double>(live + inserts - deletes);
      if (!patch_nodes.empty() &&
          rng.NextDouble() < live_now / (2.0 * kTargetLive)) {
        const size_t k = rng.Below(patch_nodes.size());
        if (!doomed[k]) {
          doomed[k] = true;
          targets.emplace_back(patch_nodes[k], false);
          ++deletes;
          continue;
        }
      }
      targets.emplace_back(parent_nodes[rng.Below(parent_nodes.size())], true);
      ++inserts;
    }
    std::sort(targets.begin(), targets.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    EditTxn txn = db->BeginEdit();
    for (const auto& [pre, insert] : targets) {
      const Status st =
          insert ? txn.InsertLastChild(pre, "<wpatch><rec/></wpatch>")
                 : txn.DeleteSubtree(pre);
      ASSERT_TRUE(st.ok()) << "commit " << commit << ": " << st;
    }
    ASSERT_TRUE(txn.Commit().ok()) << "commit " << commit;
    live = live + inserts - deletes;

    const std::string label = "commit " + std::to_string(commit);
    for (size_t i = 0; i < readers.size(); ++i) {
      EXPECT_EQ(count(readers[i], "/descendant::wpatch"), live)
          << label << ", reader " << i;
      EXPECT_EQ(count(readers[i], "/descendant::wpatch/child::rec"), live)
          << label << ", reader " << i;
    }
    if (commit % kCompactEvery == 0) {
      auto reference = RebuildReference(*db);
      ASSERT_NE(reference, nullptr);
      ExpectEquivalent(*db, *reference, label);
      ExpectFragmentsEquivalent(*db, &coverage);
      ASSERT_TRUE(db->Compact().ok());
    }
    if (::testing::Test::HasFailure()) return;  // don't cascade
  }
  // Patches survived compactions as base nodes and were then deleted.
  EXPECT_GT(coverage.with_delta_entries, 0u);
  EXPECT_GT(coverage.with_deleted_slots, 0u);
  EXPECT_GT(coverage.untouched, 0u);
}

// ---------------------------------------------------------------------------
// Golden backend matrix: every backend x snapshot state x thread count x
// pushdown x twig mode, EXPLAIN and per-step faults byte-for-byte
// against a committed transcript. Refactors of the step dispatch must
// keep results, plans, labels and fault counts exactly where they are.
// ---------------------------------------------------------------------------

/// Reaches every StepOperator the staircase engine plans: staircase and
/// its node-test filter pass, pushdown, axis-cursor, positional, twig
/// plus twig-subsumed, and empty -- over base tags (t0..t5) and the
/// tags the edit script introduces (t6, t7, u*).
const char* const kMatrixQueries[] = {
    "/descendant::t0",
    "/descendant::t1/ancestor::t0",
    "/descendant::t0/descendant::t2",
    "/descendant::t0/child::t1/child::t2",
    "/descendant::t3/following-sibling::t4",
    "/descendant::t2/parent::node()",
    "/descendant::t1[2]",
    "/descendant::t0/child::t1[last()]",
    "/descendant::nosuchtag/child::t0",
    "/descendant::t0[child::t5]/following::t6",
    "/descendant::t7 | /descendant::t4/preceding::t3",
    "/descendant::t2/descendant-or-self::node()/child::text()",
    "/descendant::t0/descendant::t2/parent::node()",
    "/descendant::t1/child::t2/following-sibling::node()",
    "/descendant::t0/descendant-or-self::t1[last()]",
    "/descendant::t3/following::t4[1]",
    "/descendant::t4/preceding::t3[2]",
    "/descendant::t3/following-sibling::t4[2]",
    "/descendant::t4/preceding-sibling::t3[1]",
    "/descendant::t0[child::t1[child::t2]]",
    "/descendant::t1[/descendant::t5]",
    "/descendant::t0/child::t1[1][child::t2]",
    "/descendant::t2[ancestor::t0]",
};

/// The matrix document (9285 nodes) and the edit script shared by the
/// edited and compacted states: three commits of random inserts,
/// deletes and replaces.
std::unique_ptr<Database> OpenMatrixDatabase(int commits) {
  sj::testing::RandomDocOptions doc_options;
  doc_options.target_nodes = 20000;
  DatabaseOptions options;
  options.plan_cache_entries = 0;  // transcripts carry no cache headers
  auto opened = Database::FromXml(
      sj::testing::RandomDocumentXml(5, doc_options), options);
  EXPECT_TRUE(opened.ok()) << opened.status();
  if (!opened.ok()) return nullptr;
  std::unique_ptr<Database> db = std::move(opened).value();
  Rng rng(2024);
  for (int commit = 0; commit < commits; ++commit) {
    EditTxn txn = db->BeginEdit();
    for (int op = 0; op < 6; ++op) {
      const uint64_t size = txn.logical_size();
      const NodeId v = 1 + static_cast<NodeId>(rng.Below(size - 1));
      switch (rng.Below(3)) {
        case 0:
          (void)txn.InsertLastChild(v, RandomFragmentXml(rng));
          break;
        case 1:
          if (size > 8000) (void)txn.DeleteSubtree(v);
          break;
        default:
          (void)txn.ReplaceSubtree(v, RandomFragmentXml(rng));
          break;
      }
    }
    EXPECT_TRUE(txn.Commit().ok());
  }
  return db;
}

/// One configuration's transcript: per query the masked EXPLAIN (wall
/// times replaced by '*') and the PlanSummary fault column. Sessions use
/// cold private pools -- small single-threaded (evictions exercise the
/// pool's LRU order), large under parallel workers (no evictions, so
/// fault counts do not depend on thread interleaving).
std::string MatrixTranscript(const Database& db, StorageBackend backend,
                             unsigned threads, PushdownMode pushdown,
                             TwigMode twig) {
  static const std::regex kMillis(R"(\([0-9.]+ ms\))");
  std::string out;
  for (const char* q : kMatrixQueries) {
    SessionOptions options;
    options.backend = backend;
    options.num_threads = threads;
    options.hints.pushdown = pushdown;
    options.hints.twig = twig;
    if (backend != StorageBackend::kMemory) {
      options.private_pool_pages = threads > 1 ? 512 : 12;
    }
    auto session = db.CreateSession(options);
    EXPECT_TRUE(session.ok()) << session.status();
    if (!session.ok()) return out;
    auto r = session.value().Run(q);
    out += "-- ";
    out += q;
    out += "\n";
    if (!r.ok()) {
      out += "error: " + r.status().ToString() + "\n";
      continue;
    }
    out += "nodes: " + std::to_string(r.value().nodes.size()) + "\n";
    out += std::regex_replace(r.value().Explain(), kMillis, "(* ms)");
    out += "faults:";
    for (const PlanStepSummary& row : r.value().PlanSummary()) {
      out += " " + std::to_string(row.faults);
    }
    out += "\n";
  }
  return out;
}

TEST(DeltaStoreGolden, BackendMatrixMatchesTranscript) {
  auto pristine = OpenMatrixDatabase(0);
  auto edited = OpenMatrixDatabase(3);
  auto compacted = OpenMatrixDatabase(3);
  ASSERT_NE(pristine, nullptr);
  ASSERT_NE(edited, nullptr);
  ASSERT_NE(compacted, nullptr);
  ASSERT_TRUE(compacted->Compact().ok());
  const std::pair<const char*, const Database*> snapshots[] = {
      {"pristine", pristine.get()},
      {"edited", edited.get()},
      {"compacted", compacted.get()}};
  const std::pair<const char*, StorageBackend> backends[] = {
      {"memory", StorageBackend::kMemory},
      {"paged", StorageBackend::kPaged},
      {"compressed", StorageBackend::kCompressed}};

  std::string transcript;
  for (const auto& [backend_name, backend] : backends) {
    for (const auto& [snapshot_name, db] : snapshots) {
      for (unsigned threads : {1u, 3u}) {
        for (PushdownMode pushdown :
             {PushdownMode::kAlways, PushdownMode::kNever}) {
          for (TwigMode twig : {TwigMode::kAuto, TwigMode::kNever}) {
            transcript += "== backend=" + std::string(backend_name) +
                          " snapshot=" + snapshot_name +
                          " threads=" + std::to_string(threads) +
                          " pushdown=" +
                          (pushdown == PushdownMode::kAlways ? "always"
                                                             : "never") +
                          " twig=" +
                          (twig == TwigMode::kAuto ? "auto" : "never") +
                          "\n";
            transcript +=
                MatrixTranscript(*db, backend, threads, pushdown, twig);
          }
        }
      }
    }
  }

  const std::filesystem::path golden =
      std::filesystem::path(__FILE__).parent_path() / "golden" /
      "backend_matrix.txt";
  std::ifstream in(golden, std::ios::binary);
  std::ostringstream want;
  want << in.rdbuf();
  if (transcript != want.str()) {
    // Leave the actual transcript in the working directory for diffing
    // (or, after a deliberate plan change, for replacing the golden).
    std::ofstream("backend_matrix.actual.txt", std::ios::binary)
        << transcript;
    std::istringstream got_lines(transcript);
    std::istringstream want_lines(want.str());
    std::string got_line;
    std::string want_line;
    size_t line = 0;
    while (true) {
      ++line;
      const bool more_got =
          static_cast<bool>(std::getline(got_lines, got_line));
      const bool more_want =
          static_cast<bool>(std::getline(want_lines, want_line));
      if (!more_got && !more_want) break;
      if (!more_got || !more_want || got_line != want_line) {
        FAIL() << golden << " line " << line << " differs\n  want: "
               << (more_want ? want_line : "<eof>")
               << "\n  got:  " << (more_got ? got_line : "<eof>")
               << "\n(actual transcript written to "
                  "backend_matrix.actual.txt)";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot isolation under concurrent writers (TSan-relevant).
// ---------------------------------------------------------------------------

TEST(DeltaStoreConcurrency, ReadersNeverObserveHalfACommit) {
  auto db = OpenXml("<r><m/><m/></r>");
  ASSERT_NE(db, nullptr);
  constexpr int kWriters = 2;
  constexpr int kCommitsPerWriter = 12;
  constexpr int kReaders = 8;
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  // Writers append <m/> in PAIRS within one transaction; every published
  // snapshot therefore holds an even count of m elements. Optimistic
  // conflicts are expected (two writers race) and retried.
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&db] {
      for (int k = 0; k < kCommitsPerWriter; ++k) {
        while (true) {
          EditTxn txn = db->BeginEdit();
          if (!txn.InsertLastChild(0, "<m/>").ok() ||
              !txn.InsertLastChild(0, "<m/>").ok()) {
            continue;
          }
          if (txn.Commit().ok()) break;
        }
      }
    });
  }
  // A compactor folds the delta while writers keep committing and
  // readers keep draining pinned snapshots.
  threads.emplace_back([&db, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(db->Compact().ok());
      std::this_thread::yield();
    }
  });
  for (int r = 0; r < kReaders; ++r) {
    const StorageBackend backend =
        r % 2 == 0 ? StorageBackend::kMemory : StorageBackend::kPaged;
    threads.emplace_back([&db, &stop, &violations, backend] {
      SessionOptions options;
      options.backend = backend;
      auto session = db->CreateSession(options);
      if (!session.ok()) {
        ++violations;
        return;
      }
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = session.value().Run("/descendant::m");
        if (!result.ok() || result.value().nodes.size() % 2 != 0 ||
            result.value().nodes.size() < 2) {
          ++violations;
          return;
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(violations.load(), 0);
  auto session = db->CreateSession();
  ASSERT_TRUE(session.ok());
  auto final_count = session.value().Run("/descendant::m");
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count.value().nodes.size(),
            2u + 2u * kWriters * kCommitsPerWriter);
  const DatabaseStats stats = db->TotalStats();
  EXPECT_EQ(stats.edits_committed,
            static_cast<uint64_t>(kWriters * kCommitsPerWriter));
}

}  // namespace
}  // namespace sj
