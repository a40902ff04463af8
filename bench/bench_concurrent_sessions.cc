// CS1 -- concurrent sessions over one shared Database: query throughput
// vs session count (1/2/4/8) on an XMark instance over the paged
// backend, with the shared BufferPool latched by ONE global mutex vs the
// per-bucket sharded latch (DatabaseOptions::pool_shards). The disk is
// given a realistic per-read latency and every query starts cold (the
// pool is flushed before each query, modeling a served hot set that is
// evicted between arrivals), so the runs are fault-dominated -- and a
// fault sleeps while the faulting page's latch is held. With one global
// latch every session therefore queues behind every disk read (the
// ROADMAP's "one global mutex ... serializing" open item); the sharded
// latch overlaps faults on different buckets, so total wall time for a
// fixed amount of work drops as sessions are added even on a single
// core. Results land in BENCH_concurrent_sessions.json as
//   {"query": "mix/<S>sessions", "backend": "pool-<N>-shards",
//    "size_mb", "faults", "skipped", "result", "ms"}
// records (skipped/result are the deterministic per-query sums over the
// run); throughput scaling beyond 1 session on the sharded pool is the
// acceptance signal.

#include <atomic>
#include <thread>
#include <vector>

#include "bench_util.h"

namespace sj::bench {
namespace {

/// A mix touching every column family: staircase steps (post/kind),
/// child/attribute cursors (parent/tag), and a pushdown-eligible name
/// test (fragment pages).
constexpr const char* kMix[] = {
    "/descendant::open_auction/child::bidder/child::increase",
    "/descendant::person/attribute::id",
    "/descendant::profile/descendant::education",
    "/descendant::increase/ancestor::bidder",
};

/// Total query rounds, split across the sessions of a run (perfect
/// scaling halves the wall time per session-count doubling).
constexpr int kTotalRounds = 16;

/// Simulated disk read latency. 50us is a fast NVMe-class device; large
/// enough that faults dominate the runs, small enough that the bench
/// stays quick.
constexpr uint32_t kReadLatencyMicros = 50;

struct RunResult {
  double ms = 0;
  double qps = 0;
  uint64_t faults = 0;
  uint64_t skipped = 0;  ///< JoinStats::nodes_skipped summed over every query
  uint64_t result = 0;   ///< result cardinality summed over every query
};

RunResult RunSessions(const Database& db, unsigned session_count) {
  SessionOptions opt;
  opt.backend = StorageBackend::kPaged;
  std::vector<Session> sessions;
  sessions.reserve(session_count);
  for (unsigned s = 0; s < session_count; ++s) {
    sessions.push_back(MustSession(db, opt));
  }
  db.buffer_pool()->FlushAll();
  db.buffer_pool()->ResetStats();

  const int rounds_per_session =
      kTotalRounds / static_cast<int>(session_count);
  // Per-query skipped/result are deterministic; their order-independent
  // sums stay deterministic under concurrency (unlike ms, and unlike
  // faults once sessions race on the shared pool).
  std::atomic<uint64_t> total_skipped{0};
  std::atomic<uint64_t> total_result{0};
  Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(session_count);
  for (unsigned s = 0; s < session_count; ++s) {
    threads.emplace_back([&, s] {
      for (int round = 0; round < rounds_per_session; ++round) {
        for (const char* q : kMix) {
          // Cold arrival: whatever an earlier query left resident is
          // dropped (pinned frames of in-flight queries survive), so
          // every query pays its faults -- the disk-bound regime.
          db.buffer_pool()->FlushAll();
          QueryResult r = MustRun(sessions[s], q);
          if (r.nodes.empty()) {
            std::fprintf(stderr, "empty result under concurrency: %s\n", q);
            std::abort();
          }
          total_skipped.fetch_add(r.totals.nodes_skipped,
                                  std::memory_order_relaxed);
          total_result.fetch_add(r.nodes.size(), std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  RunResult result;
  result.ms = timer.ElapsedMillis();
  result.skipped = total_skipped.load(std::memory_order_relaxed);
  result.result = total_result.load(std::memory_order_relaxed);
  result.qps = 1000.0 *
               static_cast<double>(rounds_per_session) *
               static_cast<double>(session_count) *
               static_cast<double>(std::size(kMix)) /
               result.ms;
  result.faults = db.buffer_pool()->stats().faults;
  return result;
}

void Run() {
  PrintHeader("CS1 (facade concurrency)",
              "query throughput vs session count on the paged backend: "
              "one global pool latch vs the per-bucket sharded latch");
  const double mb = BenchSizes().front();
  std::vector<JsonRecord> json;

  TablePrinter t({"pool latch", "sessions", "total queries", "time [ms]",
                  "queries/s", "speedup", "faults"});
  for (size_t shards : {size_t{1}, size_t{8}}) {
    DatabaseOptions open;
    open.pool_shards = shards;
    // Ample frames per shard (32 with 8 shards), so concurrent pins
    // never exhaust a bucket; the per-query flush supplies the faults.
    open.pool_pages = 256;
    auto db = MakeDatabase(mb, open);
    db->disk()->set_read_latency_micros(kReadLatencyMicros);
    const size_t actual_shards = db->buffer_pool()->shard_count();
    std::string label = "pool-" + std::to_string(actual_shards) +
                        (actual_shards == 1 ? "-shard" : "-shards");

    double base_qps = 0;
    for (unsigned sessions : {1u, 2u, 4u, 8u}) {
      RunResult r = RunSessions(*db, sessions);
      if (sessions == 1) base_qps = r.qps;
      t.AddRow({label, std::to_string(sessions),
                std::to_string(kTotalRounds * std::size(kMix)),
                TablePrinter::Fixed(r.ms, 1),
                TablePrinter::Count(static_cast<uint64_t>(r.qps)),
                TablePrinter::Fixed(r.qps / base_qps, 2) + "x",
                TablePrinter::Count(r.faults)});
      JsonRecord rec;
      rec.query = "mix/" + std::to_string(sessions) + "sessions";
      rec.backend = label;
      rec.size_mb = mb;
      rec.faults = r.faults;
      rec.ms = r.ms;
      rec.skipped = r.skipped;
      rec.result = r.result;
      json.push_back(std::move(rec));
    }
  }
  t.Print();
  std::printf("a fault sleeps %u us holding its page's latch: the single "
              "latch queues every session behind every disk read, the "
              "sharded latch overlaps faults on different buckets -- so "
              "only the sharded pool converts added sessions into "
              "throughput\n",
              kReadLatencyMicros);
  WriteJson(json, "BENCH_concurrent_sessions.json");
}

}  // namespace
}  // namespace sj::bench

int main() {
  sj::bench::Run();
  return 0;
}
