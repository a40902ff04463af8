// The plan cache, tested at both layers: PlanCache as a data structure
// (strict LRU order, hit counting, replacement semantics) and the
// Database/Session serving contract built on it -- semantic options key
// the cache so backends and PlanHints never share a plan, EXPLAIN of a
// cached run is byte-identical to the uncached one apart from its
// leading cache line, and the lifetime counters in DatabaseStats fold
// the cache's numbers in exactly. (The 8-thread concurrent-hit test
// lives in api_concurrency_test.cc so the TSan CI job picks it up.)

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/database.h"
#include "api/plan_cache.h"
#include "xmlgen/xmark.h"
#include "xpath/explain_strings.h"
#include "xpath/plan.h"

namespace sj {
namespace {

std::shared_ptr<const xpath::CompiledPlan> DummyPlan() {
  return std::make_shared<const xpath::CompiledPlan>();
}

/// Blanks the per-step wall-clock milliseconds ("(0.0210 ms)") out of an
/// EXPLAIN report: they are the one legitimately nondeterministic part,
/// and the byte-identity contract is about everything else.
std::string StripMillis(const std::string& explain) {
  std::string out = explain;
  size_t ms;
  while ((ms = out.find(" ms)")) != std::string::npos) {
    const size_t open = out.rfind('(', ms);
    if (open == std::string::npos) break;
    out.erase(open, ms + 4 - open);
  }
  return out;
}

TEST(PlanCacheTest, HitCountingAndStats) {
  PlanCache cache(4);
  EXPECT_FALSE(cache.Lookup("a").has_value());
  cache.Insert("a", DummyPlan());
  auto first = cache.Lookup("a");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->hits, 1u);
  auto second = cache.Lookup("a");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->hits, 2u);

  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, EvictsInStrictLruOrder) {
  PlanCache cache(2);
  cache.Insert("a", DummyPlan());
  cache.Insert("b", DummyPlan());
  // Touch "a": it becomes most-recently-used, so "b" is now the victim.
  ASSERT_TRUE(cache.Lookup("a").has_value());
  cache.Insert("c", DummyPlan());

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.Lookup("b").has_value());  // the LRU entry went
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());

  // Recency is now [a, c] (the lookups above touched a, then c), so the
  // next insert displaces "a" -- eviction follows lookups, not inserts.
  cache.Insert("d", DummyPlan());
  EXPECT_FALSE(cache.Lookup("a").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
  EXPECT_TRUE(cache.Lookup("d").has_value());
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(PlanCacheTest, ReinsertReplacesWithoutCountingAnEviction) {
  PlanCache cache(2);
  cache.Insert("a", DummyPlan());
  ASSERT_TRUE(cache.Lookup("a").has_value());
  ASSERT_TRUE(cache.Lookup("a").has_value());

  cache.Insert("a", DummyPlan());  // replacement, not displacement
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  auto hit = cache.Lookup("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->hits, 1u);  // the fresh plan starts its count over
}

TEST(PlanCacheTest, ZeroCapacityDisablesTheCache) {
  PlanCache cache(0);
  cache.Insert("a", DummyPlan());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup("a").has_value());
}

class PlanCacheDatabaseTest : public ::testing::Test {
 protected:
  static std::unique_ptr<Database> OpenDb(size_t plan_cache_entries) {
    xmlgen::XMarkOptions gen;
    gen.size_mb = 0.3;
    gen.rich_text = false;
    DatabaseOptions open;
    open.build.store_values = false;
    open.plan_cache_entries = plan_cache_entries;
    return std::move(Database::FromXmark(gen, open)).value();
  }
};

constexpr const char* kQuery =
    "/descendant::open_auction/child::bidder/child::increase";

TEST_F(PlanCacheDatabaseTest, BackendsNeverShareAPlan) {
  auto db = OpenDb(16);
  SessionOptions paged;
  paged.backend = StorageBackend::kPaged;
  SessionOptions compressed;
  compressed.backend = StorageBackend::kCompressed;

  // Same query text, different backend: the pushdown and twig decisions
  // frozen into a kPaged plan are meaningless for kCompressed, so the
  // second backend must MISS and compile its own entry.
  Session s1 = std::move(db->CreateSession(paged)).value();
  auto r1 = s1.Run(kQuery);
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_FALSE(r1.value().plan_cached);

  Session s2 = std::move(db->CreateSession(compressed)).value();
  auto r2 = s2.Run(kQuery);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_FALSE(r2.value().plan_cached);

  EXPECT_EQ(db->plan_cache()->size(), 2u);
  EXPECT_EQ(db->plan_cache()->stats().misses, 2u);
  EXPECT_EQ(db->plan_cache()->stats().hits, 0u);

  // A fresh session with the SAME semantic options is served the plan.
  Session s3 = std::move(db->CreateSession(paged)).value();
  auto r3 = s3.Run(kQuery);
  ASSERT_TRUE(r3.ok()) << r3.status();
  EXPECT_TRUE(r3.value().plan_cached);
  EXPECT_EQ(r3.value().nodes, r1.value().nodes);
  EXPECT_EQ(db->plan_cache()->size(), 2u);
  EXPECT_EQ(db->plan_cache()->stats().hits, 1u);
}

TEST_F(PlanCacheDatabaseTest, ExecutionOnlyOptionsShareAPlan) {
  auto db = OpenDb(16);
  SessionOptions base;  // memory backend
  SessionOptions skewed = base;
  skewed.num_threads = 2;  // execution-only: not part of the key

  Session s1 = std::move(db->CreateSession(base)).value();
  ASSERT_TRUE(s1.Run(kQuery).ok());
  Session s2 = std::move(db->CreateSession(skewed)).value();
  auto r2 = s2.Run(kQuery);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_TRUE(r2.value().plan_cached);
  EXPECT_EQ(db->plan_cache()->size(), 1u);
}

TEST_F(PlanCacheDatabaseTest, EveryPlanHintSeparatesPlans) {
  // Sessions that differ from a kAuto session in one PlanHints field
  // only must each MISS and compile their own entry: pinned hints change
  // the frozen operators, and pushdown_selectivity is the key component
  // callers use to keep sessions' plans apart.
  auto db = OpenDb(16);
  const SessionOptions base;
  Session s0 = std::move(db->CreateSession(base)).value();
  auto r0 = s0.Run(kQuery);
  ASSERT_TRUE(r0.ok()) << r0.status();

  struct Variant {
    const char* name;
    PlanHints hints;
  };
  const Variant variants[] = {
      {"pushdown=kAlways", {.pushdown = PushdownMode::kAlways}},
      {"pushdown=kNever", {.pushdown = PushdownMode::kNever}},
      {"twig=kNever", {.twig = TwigMode::kNever}},
      {"pushdown_selectivity=0.5", {.pushdown_selectivity = 0.5}},
  };
  size_t entries = 1;
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    SessionOptions opt = base;
    opt.hints = v.hints;
    Session s = std::move(db->CreateSession(opt)).value();
    auto r = s.Run(kQuery);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_FALSE(r.value().plan_cached);
    EXPECT_EQ(r.value().nodes, r0.value().nodes);
    EXPECT_EQ(db->plan_cache()->size(), ++entries);
    EXPECT_EQ(db->plan_cache()->stats().misses, entries);
    EXPECT_EQ(db->plan_cache()->stats().hits, 0u);
  }
}

TEST_F(PlanCacheDatabaseTest, CachedExplainIsByteIdenticalModuloCacheLine) {
  // A twig chain, and an existence predicate nested in another: the
  // cached plan carries the predicate paths' plans too.
  constexpr const char* kQueries[] = {
      kQuery,
      "/descendant::person[child::profile[child::education]]",
  };
  auto db = OpenDb(16);
  for (const char* q : kQueries) {
    SCOPED_TRACE(q);
    Session cold = std::move(db->CreateSession()).value();
    auto uncached = cold.Run(q);
    ASSERT_TRUE(uncached.ok()) << uncached.status();
    ASSERT_FALSE(uncached.value().plan_cached);
    ASSERT_FALSE(uncached.value().nodes.empty());

    // A fresh session (empty local memo) is served from the shared cache.
    Session warm = std::move(db->CreateSession()).value();
    auto cached = warm.Run(q);
    ASSERT_TRUE(cached.ok()) << cached.status();
    ASSERT_TRUE(cached.value().plan_cached);
    EXPECT_EQ(cached.value().nodes, uncached.value().nodes);
    EXPECT_GE(cached.value().plan_cache_hits, 1u);

    const std::string plain = uncached.value().Explain();
    const std::string served = cached.value().Explain();
    ASSERT_NE(served.find('\n'), std::string::npos);
    const std::string head = served.substr(0, served.find('\n'));
    EXPECT_EQ(head.rfind(xpath::explain::kPlanCachedOpen, 0), 0u)
        << "cached EXPLAIN must lead with the cache line, got: " << head;
    // Everything after the cache line is the uncached report, byte for
    // byte (modulo the wall-clock numbers, which no two runs share).
    EXPECT_EQ(StripMillis(served.substr(served.find('\n') + 1)),
              StripMillis(plain));
  }
}

TEST_F(PlanCacheDatabaseTest, RepeatRunsInOneSessionCountServes) {
  auto db = OpenDb(16);
  Session s = std::move(db->CreateSession()).value();
  ASSERT_FALSE(s.Run(kQuery).value().plan_cached);
  // EXPLAIN's hit count keeps climbing across repeat serves, whether the
  // plan came from the shared cache or the session's local memo.
  uint64_t last = 0;
  for (int i = 0; i < 3; ++i) {
    auto r = s.Run(kQuery);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_TRUE(r.value().plan_cached);
    EXPECT_GT(r.value().plan_cache_hits, last);
    last = r.value().plan_cache_hits;
  }
}

TEST_F(PlanCacheDatabaseTest, TotalStatsFoldInPlanCacheCounters) {
  auto db = OpenDb(16);
  Session s1 = std::move(db->CreateSession()).value();
  ASSERT_TRUE(s1.Run(kQuery).ok());
  Session s2 = std::move(db->CreateSession()).value();
  ASSERT_TRUE(s2.Run(kQuery).ok());

  const DatabaseStats stats = db->TotalStats();
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_EQ(stats.plan_cache_evictions, 0u);
  EXPECT_EQ(stats.queries_run, 2u);
}

TEST_F(PlanCacheDatabaseTest, RepeatServesInOneSessionReachTotalStats) {
  auto db = OpenDb(16);
  Session s = std::move(db->CreateSession()).value();
  int served = 0;
  for (int i = 0; i < 3; ++i) {
    auto r = s.Run("/descendant::person");
    ASSERT_TRUE(r.ok()) << r.status();
    served += r.value().plan_cached ? 1 : 0;
  }
  // The first run compiles; the repeats come from the session's local
  // memo, which the shared cache never sees -- they are hits all the same.
  EXPECT_EQ(served, 2);
  const DatabaseStats stats = db->TotalStats();
  EXPECT_EQ(stats.plan_cache_hits, 2u);
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_EQ(stats.queries_run, 3u);
}

TEST_F(PlanCacheDatabaseTest, DisabledCacheParsesEveryRun) {
  auto db = OpenDb(0);
  EXPECT_EQ(db->plan_cache(), nullptr);
  Session s = std::move(db->CreateSession()).value();
  for (int i = 0; i < 2; ++i) {
    auto r = s.Run(kQuery);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_FALSE(r.value().plan_cached);
    EXPECT_EQ(r.value().plan_cache_hits, 0u);
  }
  const DatabaseStats stats = db->TotalStats();
  EXPECT_EQ(stats.plan_cache_hits, 0u);
  EXPECT_EQ(stats.plan_cache_misses, 0u);
}

}  // namespace
}  // namespace sj
