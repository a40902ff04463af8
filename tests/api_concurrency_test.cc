// The facade's thread-safety contract, tested: N threads x M queries
// over ONE shared Database -- both storage backends, pushdown on and off
// -- must produce exactly what a single-threaded session produces, node
// for node and trace for trace, while all sessions share one sharded
// buffer pool. Runs under the SJ_SANITIZE matrix (ASan/UBSan and TSan:
// the TSan job is what proves the pool's sharded latches and the
// database's immutability claims).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "xmlgen/xmark.h"

namespace sj {
namespace {

constexpr const char* kQueries[] = {
    "/descendant::open_auction/child::bidder/child::increase",
    "/descendant::person/attribute::id",
    "/descendant::profile/descendant::education",
    "/descendant::increase/ancestor::bidder",
    "/descendant::bidder/following-sibling::bidder",
    "/descendant::item[child::name] | /descendant::keyword",
};

/// The session configurations under test: all three storage backends,
/// pushdown on, off and cost-based. (Parallel intra-query workers are
/// exercised on the memory backend; on the pool-backed backends every
/// concurrent session already stresses the shared pool.)
std::vector<SessionOptions> Configs() {
  std::vector<SessionOptions> configs;
  for (StorageBackend backend :
       {StorageBackend::kMemory, StorageBackend::kPaged,
        StorageBackend::kCompressed}) {
    for (PushdownMode pushdown : {PushdownMode::kAuto, PushdownMode::kAlways,
                                  PushdownMode::kNever}) {
      SessionOptions o;
      o.backend = backend;
      o.hints.pushdown = pushdown;
      configs.push_back(o);
    }
  }
  SessionOptions parallel;
  parallel.num_threads = 2;
  parallel.hints.pushdown = PushdownMode::kNever;
  configs.push_back(parallel);
  return configs;
}

/// What must be bit-identical across threads: the nodes and the executed
/// plan (descriptions and the deterministic join counters; millis and
/// pool-level counters legitimately vary).
struct Oracle {
  NodeSequence nodes;
  std::vector<std::string> steps;
  std::vector<uint64_t> scanned;
  uint64_t result_size = 0;
};

Oracle MakeOracle(const QueryResult& r) {
  Oracle o;
  o.nodes = r.nodes;
  for (const StepTrace& t : r.trace) {
    o.steps.push_back(t.description);
    o.scanned.push_back(t.stats.nodes_scanned);
  }
  o.result_size = r.totals.result_size;
  return o;
}

class ApiConcurrencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    xmlgen::XMarkOptions gen;
    gen.size_mb = 0.5;
    gen.rich_text = false;
    DatabaseOptions open;
    open.build.store_values = false;
    open.pool_pages = 128;  // smaller than the doc image: evictions happen
    db_ = Database::FromXmark(gen, open).value().release();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static Database* db_;
};

Database* ApiConcurrencyTest::db_ = nullptr;

TEST_F(ApiConcurrencyTest, ConcurrentSessionsMatchTheSingleThreadedOracle) {
  const std::vector<SessionOptions> configs = Configs();

  // Single-threaded oracle: one result per (config, query).
  std::vector<std::vector<Oracle>> oracles(configs.size());
  for (size_t c = 0; c < configs.size(); ++c) {
    Session session = std::move(db_->CreateSession(configs[c])).value();
    for (const char* q : kQueries) {
      auto r = session.Run(q);
      ASSERT_TRUE(r.ok()) << q << ": " << r.status();
      ASSERT_GT(r.value().nodes.size(), 0u)
          << q << " returned nothing; the oracle would be vacuous";
      oracles[c].push_back(MakeOracle(r.value()));
    }
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::atomic<int> failures{0};
  std::vector<std::string> messages(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Stagger configs across threads so different backends and
      // pushdown modes genuinely overlap on the shared pool.
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < configs.size(); ++i) {
          size_t c = (i + static_cast<size_t>(t)) % configs.size();
          auto session = db_->CreateSession(configs[c]);
          if (!session.ok()) {
            messages[t] = session.status().ToString();
            ++failures;
            return;
          }
          for (size_t qi = 0; qi < std::size(kQueries); ++qi) {
            auto r = session.value().Run(kQueries[qi]);
            if (!r.ok()) {
              messages[t] = std::string(kQueries[qi]) + ": " +
                            r.status().ToString();
              ++failures;
              return;
            }
            const Oracle got = MakeOracle(r.value());
            const Oracle& want = oracles[c][qi];
            if (got.nodes != want.nodes || got.steps != want.steps ||
                got.scanned != want.scanned ||
                got.result_size != want.result_size) {
              messages[t] = std::string("diverged from oracle: ") +
                            kQueries[qi];
              ++failures;
              return;
            }
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  for (const std::string& m : messages) {
    EXPECT_TRUE(m.empty()) << m;
  }
  // The paged configurations really did share the pool.
  auto snap = db_->CurrentSnapshot();
  EXPECT_GT(snap->images().pool->stats().pins, 0u);
}

TEST_F(ApiConcurrencyTest, SessionsWithPrivatePoolsStayIsolated) {
  // Private pools (cold-cache experiments) must neither disturb nor read
  // the shared pool -- even when other threads hammer it.
  SessionOptions shared_opt;
  shared_opt.backend = StorageBackend::kPaged;
  SessionOptions private_opt = shared_opt;
  private_opt.private_pool_pages = 16;

  std::thread background([&] {
    Session s = std::move(db_->CreateSession(shared_opt)).value();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(s.Run(kQueries[0]).ok());
    }
  });
  Session isolated = std::move(db_->CreateSession(private_opt)).value();
  auto snap = db_->CurrentSnapshot();
  ASSERT_NE(isolated.pool(), snap->images().pool.get());
  isolated.pool()->ResetStats();
  auto r = isolated.Run(kQueries[2]);
  ASSERT_TRUE(r.ok()) << r.status();
  // The private pool was cold: this session's faults are its own.
  EXPECT_GT(isolated.pool()->stats().faults, 0u);
  background.join();
}

TEST_F(ApiConcurrencyTest, TotalStatsCountConcurrentQueries) {
  // The database's lifetime counters (DatabaseStats, guarded by the
  // stats latch) must count exactly, even with every thread reporting
  // concurrently -- and a failed Run lands in queries_failed, never in
  // queries_run.
  const DatabaseStats before = db_->TotalStats();
  constexpr int kThreads = 8;
  constexpr int kRunsPerThread = 10;
  std::vector<std::thread> threads;
  std::atomic<uint64_t> expected_nodes{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Session s = std::move(db_->CreateSession(SessionOptions{})).value();
      for (int i = 0; i < kRunsPerThread; ++i) {
        auto r = s.Run(kQueries[i % 3]);
        ASSERT_TRUE(r.ok()) << r.status();
        expected_nodes.fetch_add(r.value().nodes.size(),
                                 std::memory_order_relaxed);
      }
      ASSERT_FALSE(s.Run("/descendant::").ok());  // parse error
    });
  }
  for (auto& th : threads) th.join();
  const DatabaseStats after = db_->TotalStats();
  EXPECT_EQ(after.sessions_created - before.sessions_created,
            static_cast<uint64_t>(kThreads));
  EXPECT_EQ(after.queries_run - before.queries_run,
            static_cast<uint64_t>(kThreads * kRunsPerThread));
  EXPECT_EQ(after.queries_failed - before.queries_failed,
            static_cast<uint64_t>(kThreads));
  EXPECT_EQ(after.result_nodes - before.result_nodes,
            expected_nodes.load(std::memory_order_relaxed));
  // The MVCC counters: every session pinned the (pristine) snapshot at
  // creation, and a read-only workload never moves the edit counters.
  EXPECT_EQ(after.snapshots_pinned - before.snapshots_pinned,
            static_cast<uint64_t>(kThreads));
  EXPECT_EQ(after.edits_committed, 0u);
  EXPECT_EQ(after.delta_nodes, 0u);
  EXPECT_EQ(after.compactions, 0u);
}

TEST_F(ApiConcurrencyTest, ConcurrentPlanCacheHitsServeTheUncachedResult) {
  // 8 threads, fresh sessions every round, all asking the plan cache for
  // the same few plans across three backends: every served plan must
  // produce node-for-node the uncached oracle, and the TSan job proves
  // the cache latch and the shared_ptr plan handoff are clean. The
  // queries are unique to this test so the first run of each config is
  // genuinely uncached; the last one shares nested predicate-path plans.
  constexpr const char* kCachedQueries[] = {
      "/descendant::bidder/child::increase",
      "/descendant::category/child::name",
      "/descendant::open_auction[child::bidder[child::increase]]",
  };
  std::vector<SessionOptions> configs;
  for (StorageBackend backend :
       {StorageBackend::kMemory, StorageBackend::kPaged,
        StorageBackend::kCompressed}) {
    SessionOptions o;
    o.backend = backend;
    configs.push_back(o);
  }

  const uint64_t hits_before = db_->TotalStats().plan_cache_hits;
  std::vector<std::vector<Oracle>> oracles(configs.size());
  for (size_t c = 0; c < configs.size(); ++c) {
    Session session = std::move(db_->CreateSession(configs[c])).value();
    for (const char* q : kCachedQueries) {
      auto r = session.Run(q);
      ASSERT_TRUE(r.ok()) << q << ": " << r.status();
      ASSERT_FALSE(r.value().plan_cached)
          << q << " was already cached; the oracle must be the uncached run";
      ASSERT_GT(r.value().nodes.size(), 0u) << q;
      oracles[c].push_back(MakeOracle(r.value()));
    }
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 5;
  std::atomic<int> failures{0};
  std::atomic<uint64_t> served{0};
  std::vector<std::string> messages(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < configs.size(); ++i) {
          const size_t c = (i + static_cast<size_t>(t)) % configs.size();
          // A fresh session per round: every first run goes through the
          // SHARED cache latch, not the session-local memo.
          auto session = db_->CreateSession(configs[c]);
          if (!session.ok()) {
            messages[t] = session.status().ToString();
            ++failures;
            return;
          }
          for (size_t qi = 0; qi < std::size(kCachedQueries); ++qi) {
            auto r = session.value().Run(kCachedQueries[qi]);
            if (!r.ok()) {
              messages[t] = std::string(kCachedQueries[qi]) + ": " +
                            r.status().ToString();
              ++failures;
              return;
            }
            if (!r.value().plan_cached) {
              messages[t] = std::string("expected a cache hit: ") +
                            kCachedQueries[qi];
              ++failures;
              return;
            }
            ++served;
            const Oracle got = MakeOracle(r.value());
            const Oracle& want = oracles[c][qi];
            if (got.nodes != want.nodes || got.steps != want.steps ||
                got.scanned != want.scanned ||
                got.result_size != want.result_size) {
              messages[t] = std::string("cached plan diverged: ") +
                            kCachedQueries[qi];
              ++failures;
              return;
            }
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  for (const std::string& m : messages) {
    EXPECT_TRUE(m.empty()) << m;
  }
  EXPECT_EQ(served.load(), static_cast<uint64_t>(kThreads * kRounds *
                                                 configs.size() *
                                                 std::size(kCachedQueries)));
  // Every one of those serves went through the shared cache (fresh
  // sessions have empty memos), so the lifetime hit counter moved.
  EXPECT_GE(db_->TotalStats().plan_cache_hits - hits_before, served.load());
}

TEST_F(ApiConcurrencyTest, SessionCreationIsCheap) {
  // The open-time digest work must not be repaid per session: creating a
  // session is O(1) in document size. The PAGED backend is the one that
  // historically paid O(doc) digest passes in the evaluator constructor
  // -- 10k creations on a ~23k-node document finish instantly unless
  // someone reintroduces that pass.
  SessionOptions paged;
  paged.backend = StorageBackend::kPaged;
  for (int i = 0; i < 10000; ++i) {
    auto session = db_->CreateSession(paged);
    ASSERT_TRUE(session.ok());
  }
  SUCCEED();
}

}  // namespace
}  // namespace sj
