// SV1 -- the serving hot path under load: plan cache + SkipTo-driven
// prefetch.
//
// Two phases over one XMark instance:
//
// Phase A (prefetch, single-threaded, deterministic): the skip-heavy
// query mix runs cold (pool flushed per query) on the paged AND the
// compressed backend with a 50us-per-read disk, prefetch off vs on.
// With prefetch on, a cursor's SkipTo/LowerBound announces the landing
// pages and the pool faults them as ONE batched disk request (one seek
// plus cheap per-page transfers) instead of N synchronous seeks; the
// bench asserts identical result nodes and, per query, fewer synchronous
// device requests. The cold wall-clock is printed, never asserted.
// faults/skipped/result are deterministic and gated by
// tools/check_bench_regression.py.
//
// Phase B (saturation, concurrent): N client threads drive one shared
// Database in a closed loop, each drawing queries from a deterministic
// zipf(1.1) schedule over a parse-heavy mix -- the arrival rate is
// whatever the backend sustains (saturation). Plan cache on vs off:
// with the cache, a hot query's parse + planning collapses into one LRU
// lookup shared across every session. Reported per regime: completed
// arrival rate (queries/s) and client-observed p50/p95/p99 latency. The
// bench asserts identical per-query results and the cache's
// deterministic counts: every query is a hit or a miss, and no session
// misses a query twice. skipped/result sums are schedule-deterministic
// and gated; the timings ride in the table and the JSON rows (never
// gated: their margins drown in host noise).
//
// Results land in BENCH_serving_saturation.json.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "util/rng.h"

namespace sj::bench {
namespace {

/// Phase A mix: staircase skips, twig leapfrog cascades (LowerBound
/// seeks), and an ancestor axis -- every query jumps columns around.
constexpr const char* kSkipMix[] = {
    "/descendant::open_auctions/descendant::open_auction"
    "/descendant::bidder/descendant::date",
    "/descendant::regions/descendant::item/descendant::mailbox"
    "/descendant::date",
    "/descendant::open_auction/child::bidder/child::increase",
    "/descendant::increase/ancestor::bidder",
};

/// Phase B mix: parse-heavy union queries (the workload a plan cache
/// exists for), ordered hottest-first for the zipf draw. The hot head
/// is the serving classic -- navigational lookups whose parse + plan
/// cost rivals their evaluation -- with the analytical scans in the
/// zipf tail.
constexpr const char* kServingMix[] = {
    "/descendant::open_auctions | /descendant::closed_auctions"
    " | /descendant::people | /descendant::catgraph",
    "/descendant::open_auction/child::bidder/child::increase"
    " | /descendant::closed_auction/child::price",
    "/descendant::person/child::profile/child::education"
    " | /descendant::person/attribute::id",
    "/descendant::open_auctions/descendant::open_auction"
    "/descendant::bidder/descendant::date",
    "/descendant::profile/descendant::education"
    " | /descendant::increase/ancestor::bidder",
    "/descendant::regions/descendant::item/descendant::mailbox"
    "/descendant::date",
    "/descendant::people/child::person/child::profile",
};

/// Simulated disk read latency for phase A (fast NVMe-class device):
/// large enough that cold runs are seek-dominated, small enough that the
/// smoke run stays quick.
constexpr uint32_t kReadLatencyMicros = 50;

/// Phase B: queries each client issues per run.
constexpr int kQueriesPerThread = 192;

/// Phase B: client threads at saturation (the asserted regime).
constexpr unsigned kSaturationThreads = 8;

/// Seed of the per-thread zipf schedules; identical for the cache-on and
/// cache-off runs, so both serve the exact same query sequence.
constexpr uint64_t kScheduleSeed = 0x5e201f08;

/// Timing floor for both phases: even SJ_BENCH_REPS=1 smoke runs take
/// the best of this many repetitions, so a single rep's scheduler jitter
/// does not decide the printed timings.
constexpr int kMinTimedReps = 3;

int TimedReps() { return std::max(BenchReps(), kMinTimedReps); }

/// Floor of phase B's alternating cache-off/cache-on rep pairs. A rep
/// at 8 clients lasts tens of milliseconds, so one descheduled client
/// can cost it more than the cache's margin; the best of this many
/// pairs rides out most such stalls on a loaded host.
constexpr int kMinServeReps = 9;

// --- phase A: cold prefetch ------------------------------------------------

struct PrefetchRun {
  double ms = -1;  ///< best-of-reps wall time
  uint64_t faults = 0;
  uint64_t prefetched = 0;
  uint64_t batch_reads = 0;
  uint64_t skipped = 0;
  uint64_t result = 0;
  NodeSequence nodes;
};

PrefetchRun RunPrefetch(const DatabaseSnapshot& snap, Session& session,
                        const char* query, bool prefetch) {
  storage::BufferPool* pool = snap.images().pool.get();
  storage::SimulatedDisk* disk = snap.images().disk.get();
  PrefetchRun out;
  for (int rep = 0; rep < TimedReps(); ++rep) {
    pool->set_prefetch_enabled(prefetch);
    pool->FlushAll();
    pool->ResetStats();
    const uint64_t batch_before = disk->batch_reads();
    Timer timer;
    QueryResult r = MustRun(session, query);
    const double ms = timer.ElapsedMillis();
    if (out.ms < 0 || ms < out.ms) out.ms = ms;
    const storage::PoolStats ps = pool->stats();
    out.faults = ps.faults;
    out.prefetched = ps.prefetched;
    out.batch_reads = disk->batch_reads() - batch_before;
    out.skipped = r.totals.nodes_skipped;
    out.result = r.nodes.size();
    out.nodes = std::move(r.nodes);
  }
  pool->set_prefetch_enabled(false);
  return out;
}

void PhasePrefetch(std::vector<JsonRecord>* json) {
  // A fixed instance size at EVERY scale (so the gated rows never move):
  // on the 1.1 MB document a fragment is a page or two and a skip rarely
  // crosses one, leaving a prefetcher nothing to batch; at 33 MB the hot
  // fragments span dozens of pages and the leapfrog genuinely jumps.
  const double mb = 33.0;
  DatabaseOptions open;
  open.pool_pages = 256;
  auto db = MakeDatabase(mb, open);
  auto snap = db->CurrentSnapshot();
  snap->images().disk->set_read_latency_micros(kReadLatencyMicros);

  TablePrinter t({"backend", "query", "faults off/on", "prefetched",
                  "batched", "cold ms off", "cold ms on", "speedup"});
  struct Backend {
    StorageBackend backend;
    const char* label;
  };
  const Backend backends[] = {{StorageBackend::kPaged, "paged"},
                              {StorageBackend::kCompressed, "compressed"}};
  // The per-query, per-backend IO claim is asserted exactly below via
  // the deterministic seek counts. The wall-clock totals over both
  // backends are only reported: the compressed image packs many blocks
  // per page, so its disk time (and hence its margin) is a fraction of
  // its decode CPU, and scheduler noise can swallow the grand total's.
  double total_off = 0;
  double total_on = 0;
  for (const Backend& b : backends) {
    SessionOptions opt;
    opt.backend = b.backend;
    Session session = MustSession(*db, opt);
    for (const char* query : kSkipMix) {
      PrefetchRun off =
          RunPrefetch(*snap, session, query, /*prefetch=*/false);
      PrefetchRun on = RunPrefetch(*snap, session, query, /*prefetch=*/true);
      if (off.nodes != on.nodes) {
        std::fprintf(stderr, "prefetch changed the result of %s\n", query);
        std::abort();
      }
      // The deterministic IO claim: with prefetch on, the device serves
      // strictly fewer synchronous requests -- each batch replaces its
      // prefetched pages' individual seeks with one -- and the readahead
      // window never turns that into MORE requests than faulting on
      // demand would issue.
      const uint64_t seeks_on = on.faults - on.prefetched + on.batch_reads;
      if (seeks_on >= off.faults) {
        std::fprintf(stderr,
                     "prefetch did not reduce device requests on %s %s: "
                     "%llu synchronous seeks on vs %llu off\n",
                     b.label, query, static_cast<unsigned long long>(seeks_on),
                     static_cast<unsigned long long>(off.faults));
        std::abort();
      }
      total_off += off.ms;
      total_on += on.ms;
      t.AddRow({b.label, query,
                TablePrinter::Count(off.faults) + "/" +
                    TablePrinter::Count(on.faults),
                TablePrinter::Count(on.prefetched),
                TablePrinter::Count(on.batch_reads),
                TablePrinter::Fixed(off.ms, 2), TablePrinter::Fixed(on.ms, 2),
                TablePrinter::Fixed(off.ms / on.ms, 2) + "x"});
      JsonRecord rec_off;
      rec_off.query = query;
      rec_off.backend = std::string(b.label) + "/prefetch-off";
      rec_off.size_mb = mb;
      rec_off.faults = off.faults;
      rec_off.ms = off.ms;
      rec_off.skipped = off.skipped;
      rec_off.result = off.result;
      json->push_back(std::move(rec_off));
      JsonRecord rec_on;
      rec_on.query = query;
      rec_on.backend = std::string(b.label) + "/prefetch-on";
      rec_on.size_mb = mb;
      rec_on.faults = on.faults;
      rec_on.ms = on.ms;
      rec_on.skipped = on.skipped;
      rec_on.result = on.result;
      json->push_back(std::move(rec_on));
    }
  }
  t.Print();
  std::printf("cold total over both backends: %.2f ms prefetch off, %.2f ms "
              "on (%.2fx; reported, not asserted)\n",
              total_off, total_on, total_off / total_on);
  std::printf("a SkipTo/LowerBound landing is faulted as one batched read "
              "(1 seek + %u/%u us per extra page) instead of one %u us seek "
              "per column page\n",
              kReadLatencyMicros / storage::kBatchTransferDivisor,
              storage::kBatchTransferDivisor, kReadLatencyMicros);
}

// --- phase B: saturation ---------------------------------------------------

struct ServeRun {
  double ms = 0;   ///< wall time of the best rep
  double qps = 0;  ///< completed arrival rate of the best rep
  Percentiles latency;
  uint64_t skipped = 0;  ///< schedule-deterministic sum over every query
  uint64_t result = 0;   ///< schedule-deterministic sum over every query
};

/// One client session per thread over `db`.
std::vector<Session> MakeClients(const Database& db, unsigned threads) {
  SessionOptions opt;  // memory backend: phase B isolates the CPU path
  std::vector<Session> sessions;
  sessions.reserve(threads);
  for (unsigned s = 0; s < threads; ++s) {
    sessions.push_back(MustSession(db, opt));
  }
  return sessions;
}

/// Serves one rep of the zipf mix, one client thread per session, and
/// keeps it in `best` if its throughput beats what `best` holds.
void ServeRep(std::vector<Session>& sessions, ServeRun* best) {
  const unsigned threads = static_cast<unsigned>(sessions.size());
  const std::vector<double> cdf = ZipfCdf(std::size(kServingMix), 1.1);
  std::vector<std::vector<double>> latencies(threads);
  std::atomic<uint64_t> total_skipped{0};
  std::atomic<uint64_t> total_result{0};
  Timer wall;
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (unsigned s = 0; s < threads; ++s) {
    clients.emplace_back([&, s] {
      // The schedule depends on the thread index only: the cache-on
      // and cache-off runs (and every rep) serve identical sequences.
      Rng rng(kScheduleSeed + s);
      latencies[s].reserve(kQueriesPerThread);
      for (int q = 0; q < kQueriesPerThread; ++q) {
        const char* query = kServingMix[DrawZipf(cdf, rng)];
        Timer timer;
        QueryResult r = MustRun(sessions[s], query);
        latencies[s].push_back(timer.ElapsedMillis());
        total_skipped.fetch_add(r.totals.nodes_skipped,
                                std::memory_order_relaxed);
        total_result.fetch_add(r.nodes.size(), std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  const double ms = wall.ElapsedMillis();
  const double qps =
      1000.0 * static_cast<double>(kQueriesPerThread) *
      static_cast<double>(threads) / ms;
  if (qps > best->qps) {
    best->ms = ms;
    best->qps = qps;
    best->latency = LatencyPercentiles(latencies);
    best->skipped = total_skipped.load(std::memory_order_relaxed);
    best->result = total_result.load(std::memory_order_relaxed);
  }
}

void PhaseSaturation(std::vector<JsonRecord>* json, double mb) {
  // Two databases over the same generated instance (the generator is
  // deterministic): the plan-cached serving configuration vs planning
  // every query afresh. Memory-only images: phase B measures the CPU
  // hot path, not the disk.
  DatabaseOptions cached_open;
  cached_open.build_paged = false;
  cached_open.build_compressed = false;
  auto cached_db = MakeDatabase(mb, cached_open);
  DatabaseOptions uncached_open = cached_open;
  uncached_open.plan_cache_entries = 0;
  auto uncached_db = MakeDatabase(mb, uncached_open);

  TablePrinter t({"plan cache", "clients", "queries/s", "p50 [ms]",
                  "p95 [ms]", "p99 [ms]", "speedup"});
  for (unsigned threads : {1u, kSaturationThreads}) {
    std::vector<Session> uncached_clients = MakeClients(*uncached_db, threads);
    std::vector<Session> cached_clients = MakeClients(*cached_db, threads);
    // The cache-off and cache-on reps alternate, so a shift in host load
    // between reps hits both sides alike; each keeps its best rep.
    ServeRun uncached;
    ServeRun cached;
    for (int rep = 0; rep < std::max(BenchReps(), kMinServeReps); ++rep) {
      ServeRep(uncached_clients, &uncached);
      ServeRep(cached_clients, &cached);
    }
    if (cached.skipped != uncached.skipped ||
        cached.result != uncached.result) {
      std::fprintf(stderr,
                   "plan cache changed query results: skipped %llu vs %llu, "
                   "result %llu vs %llu\n",
                   static_cast<unsigned long long>(cached.skipped),
                   static_cast<unsigned long long>(uncached.skipped),
                   static_cast<unsigned long long>(cached.result),
                   static_cast<unsigned long long>(uncached.result));
      std::abort();
    }
    const char* labels[] = {"off", "on"};
    const ServeRun* runs[] = {&uncached, &cached};
    for (int i = 0; i < 2; ++i) {
      t.AddRow({labels[i], std::to_string(threads),
                TablePrinter::Count(static_cast<uint64_t>(runs[i]->qps)),
                TablePrinter::Fixed(runs[i]->latency.p50, 3),
                TablePrinter::Fixed(runs[i]->latency.p95, 3),
                TablePrinter::Fixed(runs[i]->latency.p99, 3),
                TablePrinter::Fixed(runs[i]->qps / uncached.qps, 2) + "x"});
      JsonRecord rec;
      rec.query = "zipf-mix/" + std::to_string(threads) + "clients";
      rec.backend = std::string("plan-cache-") + labels[i];
      rec.size_mb = mb;
      rec.ms = runs[i]->ms;
      rec.skipped = runs[i]->skipped;
      rec.result = runs[i]->result;
      rec.p50_ms = runs[i]->latency.p50;
      rec.p95_ms = runs[i]->latency.p95;
      rec.p99_ms = runs[i]->latency.p99;
      json->push_back(std::move(rec));
    }
  }
  t.Print();

  const DatabaseStats stats = cached_db->TotalStats();
  std::printf("plan cache over 1 and %u clients: %llu hits / %llu misses / "
              "%llu evictions; a hot query's parse + planning collapses "
              "into one LRU lookup shared by every session\n",
              kSaturationThreads,
              static_cast<unsigned long long>(stats.plan_cache_hits),
              static_cast<unsigned long long>(stats.plan_cache_misses),
              static_cast<unsigned long long>(stats.plan_cache_evictions));
  if (stats.plan_cache_hits == 0) {
    std::fprintf(stderr, "plan cache never hit under the zipf mix\n");
    std::abort();
  }
  // Each session memoizes what it planned, so it misses a query at most
  // once (more than one session may race to plan the same query).
  const uint64_t max_misses = stats.sessions_created * std::size(kServingMix);
  if (stats.plan_cache_misses > max_misses) {
    std::fprintf(stderr,
                 "plan cache missed %llu times, more than once per session "
                 "per query (%llu)\n",
                 static_cast<unsigned long long>(stats.plan_cache_misses),
                 static_cast<unsigned long long>(max_misses));
    std::abort();
  }
  if (stats.plan_cache_hits + stats.plan_cache_misses != stats.queries_run) {
    std::fprintf(stderr,
                 "plan cache served %llu hits + %llu misses for %llu "
                 "queries\n",
                 static_cast<unsigned long long>(stats.plan_cache_hits),
                 static_cast<unsigned long long>(stats.plan_cache_misses),
                 static_cast<unsigned long long>(stats.queries_run));
    std::abort();
  }
}

void Run() {
  PrintHeader("SV1 (serving hot path)",
              "plan cache + SkipTo-driven prefetch under load: cold "
              "batched faulting, then zipf saturation at 8 clients");
  std::vector<JsonRecord> json;
  PhasePrefetch(&json);
  PhaseSaturation(&json, BenchSizes().front());
  WriteJson(json, "BENCH_serving_saturation.json");
}

}  // namespace
}  // namespace sj::bench

int main() {
  sj::bench::Run();
  return 0;
}
