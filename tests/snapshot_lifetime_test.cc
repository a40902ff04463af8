// Image lifetime under edits and compaction: a held DatabaseSnapshot is
// the one way to reach a database's images, so a reader holding one must
// keep reading the images it pinned through any later commit and
// Compact(), and letting go of the last holder must free the superseded
// images rather than leak them. EditTxn is one such holder until it is
// spent: a committed transaction left in scope must not keep the images
// it edited alive across compactions.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <utility>

#include "api/database.h"
#include "path_oracle.h"
#include "test_util.h"

namespace sj {
namespace {

std::unique_ptr<Database> OpenPaperExample() {
  auto db = Database::FromXml(sj::testing::kPaperExampleXml);
  EXPECT_TRUE(db.ok()) << db.status();
  return db.ok() ? std::move(db).value() : nullptr;
}

/// Commits one insert under e (pre 4) of the paper example; the
/// transaction leaves scope when this returns.
void CommitOneInsert(Database* db) {
  EditTxn txn = db->BeginEdit();
  ASSERT_TRUE(txn.InsertLastChild(4, "<k/>").ok());
  ASSERT_TRUE(txn.Commit().ok());
}

TEST(SnapshotLifetime, HeldSnapshotOutlivesEditCommitAndCompact) {
  auto db = OpenPaperExample();
  ASSERT_NE(db, nullptr);
  std::shared_ptr<const DatabaseSnapshot> snap = db->CurrentSnapshot();
  const DatabaseImages& images = snap->images();
  const DocTable& doc = *images.doc;
  const TagIndex& tags = *images.tag_index;
  storage::BufferPool* pool = images.pool.get();
  storage::SimulatedDisk* disk = images.disk.get();
  ASSERT_NE(pool, nullptr);
  ASSERT_NE(disk, nullptr);
  std::weak_ptr<const DatabaseImages> old_images = snap->images_ptr();

  CommitOneInsert(db.get());
  ASSERT_TRUE(db->Compact().ok());
  auto current = db->CurrentSnapshot();
  ASSERT_NE(current->images_ptr(), snap->images_ptr());
  EXPECT_EQ(current->images().doc->size(), 11u);

  // Everything reached through the held snapshot is the pristine open.
  EXPECT_EQ(doc.size(), 10u);
  auto e_nodes = sj::testing::PathOracle(doc, "/descendant::e/child::node()");
  ASSERT_TRUE(e_nodes.ok()) << e_nodes.status();
  EXPECT_EQ(e_nodes.value(), (NodeSequence{5, 8}));
  const std::optional<TagId> e = doc.tags().Lookup("e");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(tags.tag_count(*e), 1u);
  EXPECT_EQ(tags.view(*e).size(), 1u);

  // The old pool still serves the old disk's pages.
  ASSERT_GT(disk->page_count(), 0u);
  storage::Page page;
  ASSERT_TRUE(disk->Read(0, &page).ok());
  pool->FlushAll();
  pool->ResetStats();
  auto frame = pool->Pin(0);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(std::memcmp(frame.value(), page.bytes, storage::kPageSize), 0);
  ASSERT_TRUE(pool->Unpin(0).ok());
  EXPECT_EQ(pool->stats().faults, 1u);

  // Releasing the last holder frees the superseded images.
  EXPECT_FALSE(old_images.expired());
  snap.reset();
  EXPECT_TRUE(old_images.expired());
}

TEST(SnapshotLifetime, SpentTransactionReleasesItsSnapshot) {
  // Spent by a publishing commit and by a no-op commit alike.
  for (bool edit : {true, false}) {
    SCOPED_TRACE(edit ? "commit" : "no-op commit");
    auto db = OpenPaperExample();
    ASSERT_NE(db, nullptr);
    std::weak_ptr<const DatabaseImages> old_images =
        db->CurrentSnapshot()->images_ptr();

    EditTxn txn = db->BeginEdit();
    if (edit) {
      ASSERT_TRUE(txn.InsertLastChild(4, "<k/>").ok());
    }
    EXPECT_EQ(txn.logical_size(), edit ? 11u : 10u);
    ASSERT_TRUE(txn.Commit().ok());
    // Spent: no working document any more.
    EXPECT_EQ(txn.logical_size(), 0u);
    EXPECT_EQ(txn.ops_applied(), 0u);
    EXPECT_FALSE(txn.Commit().ok());
    if (!edit) CommitOneInsert(db.get());

    // The committed epoch still shares the open's images until
    // compacted; the spent transaction, still in scope, must not keep
    // them alive.
    EXPECT_FALSE(old_images.expired());
    ASSERT_TRUE(db->Compact().ok());
    EXPECT_TRUE(old_images.expired());
  }
}

TEST(SnapshotLifetime, ConflictingCommitKeepsItsSnapshot) {
  auto db = OpenPaperExample();
  ASSERT_NE(db, nullptr);
  std::weak_ptr<const DatabaseImages> old_images =
      db->CurrentSnapshot()->images_ptr();

  {
    EditTxn loser = db->BeginEdit();
    ASSERT_TRUE(loser.InsertLastChild(0, "<y/>").ok());
    CommitOneInsert(db.get());
    ASSERT_FALSE(loser.Commit().ok());
    // A failed commit leaves the transaction as it was: working document
    // and pinned snapshot both survive a later compaction.
    EXPECT_EQ(loser.logical_size(), 11u);
    EXPECT_EQ(loser.ops_applied(), 1u);
    ASSERT_TRUE(db->Compact().ok());
    EXPECT_FALSE(old_images.expired());
  }
  EXPECT_TRUE(old_images.expired());
}

}  // namespace
}  // namespace sj
