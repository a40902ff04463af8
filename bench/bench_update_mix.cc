// UM1 -- serving an updatable document: the overlay's read overhead and
// snapshot isolation under a concurrent writer.
//
// Two phases over one XMark instance (fixed 1.1 MB at every scale, so
// the gated rows never move):
//
// Phase A (overlay vs compacted, single-threaded, deterministic): a
// deterministic edit script (inserts, deletes, replacements; seeded RNG)
// commits through the delta store, then the read mix runs on all three
// backends twice -- over the live overlay, and again after
// Database::Compact folded the delta into fresh images. The bench
// asserts the two regimes answer node-identically (the delta store's
// core claim) and reports the overlay's read overhead.
// faults/skipped/result are deterministic (cold pool per query) and
// gated by tools/check_bench_regression.py.
//
// Phase B (writer vs readers, concurrent): 4 client threads draw a
// zipf(1.1) schedule over the read mix while a writer commits edit
// bursts of fresh-tag subtrees (and periodically compacts). The writer's
// edits are disjoint from the read mix's tags, so snapshot isolation
// makes every reader's answer independent of the writer: the bench
// asserts the summed result cardinality with the writer equals the
// no-writer run's, and reports client-observed p50/p95/p99 both ways
// (percentiles ride in the JSON rows, never gated).
//
// Phase C (commit latency, single-threaded): a seeded commit script
// modelled on the end-to-end edit-mix writer -- 4 ops per commit that
// insert <wpatch><rec/></wpatch> under a random open_auction or delete
// an earlier wpatch, steering the live count to 256, with a compaction
// every 32 commits -- reports the EditTxn::Commit wall-time percentiles
// (never gated) and gates the final live-patch count as `result`.
//
// Results land in BENCH_update_mix.json.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "util/rng.h"

namespace sj::bench {
namespace {

/// The read mix of both phases: staircase scans, a twig cascade, an
/// ancestor walk, an attribute step -- plus one query over a tag that
/// only exists in the delta (the overlay's merged dictionary at work).
constexpr const char* kReadMix[] = {
    "/descendant::open_auction/child::bidder/child::increase",
    "/descendant::person/attribute::id",
    "/descendant::regions/descendant::item/descendant::mailbox"
    "/descendant::date",
    "/descendant::increase/ancestor::bidder",
    "/descendant::upd/child::rec",
};

/// Phase A edit script: commits x ops-per-commit, seeded.
constexpr int kEditCommits = 6;
constexpr int kOpsPerCommit = 4;
constexpr uint64_t kEditSeed = 0x10fe23a9;

/// Phase B: queries each client issues, clients, writer burst size.
constexpr int kQueriesPerThread = 96;
constexpr unsigned kClientThreads = 4;
constexpr int kWriterBurst = 4;
constexpr uint64_t kScheduleSeed = 0x7a11c0de;

/// Phase C: commits, ops per commit, compaction period, the live wpatch
/// count the deletes steer to, and the script's seed.
constexpr int kScriptCommits = 256;
constexpr int kScriptOps = 4;
constexpr int kScriptCompactEvery = 32;
constexpr double kScriptTargetLive = 256;
constexpr uint64_t kScriptSeed = 0xc0111175;

/// Timing floor: the asserted phase B comparison runs over a saturated
/// thread pool; a single rep's scheduler jitter is real.
constexpr int kMinTimedReps = 2;

int TimedReps() { return std::max(BenchReps(), kMinTimedReps); }

// --- phase A: overlay vs compacted -----------------------------------------

/// Applies the deterministic edit script: inserts of <upd><rec/></upd>
/// fragments under random element parents, small-subtree deletions and
/// replacements. Every op addresses the working document's logical
/// ranks; the script is a function of the seed and the generated
/// instance only.
void ApplyEditScript(Database* db) {
  Rng rng(kEditSeed);
  for (int commit = 0; commit < kEditCommits; ++commit) {
    auto merged = db->CurrentSnapshot()->MergedDoc();
    if (!merged.ok()) {
      std::fprintf(stderr, "merge failed: %s\n",
                   merged.status().ToString().c_str());
      std::abort();
    }
    const DocTable& doc = *merged.value();
    std::vector<NodeId> elements;
    for (NodeId v = 0; v < doc.size(); ++v) {
      if (doc.kind(v) == NodeKind::kElement) elements.push_back(v);
    }
    EditTxn txn = db->BeginEdit();
    for (int op = 0; op < kOpsPerCommit; ++op) {
      const uint64_t kind = rng.Below(10);
      const NodeId v = elements[rng.Below(elements.size())];
      if (kind < 6) {
        (void)txn.InsertLastChild(v, "<upd><rec/></upd>");
      } else if (kind < 8) {
        if (v != 0 && doc.subtree_size(v) <= 32) (void)txn.DeleteSubtree(v);
      } else {
        if (v != 0 && doc.subtree_size(v) <= 32) {
          (void)txn.ReplaceSubtree(v, "<upd><rec/><rec/></upd>");
        }
      }
    }
    if (!txn.Commit().ok()) {
      std::fprintf(stderr, "edit commit %d failed\n", commit);
      std::abort();
    }
  }
}

struct MixRun {
  double ms = -1;  ///< best-of-reps wall time over the whole mix
  uint64_t faults = 0;
  uint64_t skipped = 0;
  uint64_t result = 0;
  std::vector<NodeSequence> nodes;
};

MixRun RunMix(const Database& db, Session& session) {
  const bool pooled = session.pool() != nullptr;
  MixRun out;
  for (int rep = 0; rep < TimedReps(); ++rep) {
    if (pooled) {
      db.buffer_pool()->FlushAll();
      db.buffer_pool()->ResetStats();
    }
    uint64_t skipped = 0;
    uint64_t result = 0;
    std::vector<NodeSequence> nodes;
    Timer timer;
    for (const char* query : kReadMix) {
      QueryResult r = MustRun(session, query);
      skipped += r.totals.nodes_skipped;
      result += r.nodes.size();
      nodes.push_back(std::move(r.nodes));
    }
    const double ms = timer.ElapsedMillis();
    if (out.ms < 0 || ms < out.ms) out.ms = ms;
    out.faults = pooled ? db.buffer_pool()->stats().faults : 0;
    out.skipped = skipped;
    out.result = result;
    out.nodes = std::move(nodes);
  }
  return out;
}

void PhaseOverlayVsCompacted(std::vector<JsonRecord>* json, double mb) {
  auto db = MakeDatabase(mb);
  ApplyEditScript(db.get());
  const uint64_t delta_nodes = db->CurrentSnapshot()->delta_nodes();

  struct Backend {
    StorageBackend backend;
    const char* label;
  };
  const Backend backends[] = {{StorageBackend::kMemory, "memory"},
                              {StorageBackend::kPaged, "paged"},
                              {StorageBackend::kCompressed, "compressed"}};

  TablePrinter t({"backend", "regime", "faults", "skipped", "result",
                  "mix ms", "overhead"});
  // Overlay first, then fold; the same Session objects rebind to the
  // compacted snapshot on their next Run (the session-follows-epoch
  // path this bench exists to price).
  std::vector<MixRun> overlay_runs;
  std::vector<Session> sessions;
  for (const Backend& b : backends) {
    SessionOptions opt;
    opt.backend = b.backend;
    sessions.push_back(MustSession(*db, opt));
    overlay_runs.push_back(RunMix(*db, sessions.back()));
  }
  if (!db->Compact().ok()) {
    std::fprintf(stderr, "Compact failed\n");
    std::abort();
  }
  for (size_t i = 0; i < std::size(backends); ++i) {
    const Backend& b = backends[i];
    const MixRun& overlay = overlay_runs[i];
    const MixRun compacted = RunMix(*db, sessions[i]);
    // The core claim: folding the delta into fresh images changes not
    // one node of one answer.
    if (overlay.nodes != compacted.nodes) {
      std::fprintf(stderr, "compaction changed results on %s\n", b.label);
      std::abort();
    }
    const char* regimes[] = {"overlay", "compacted"};
    const MixRun* runs[] = {&overlay, &compacted};
    for (int r = 0; r < 2; ++r) {
      t.AddRow({b.label, regimes[r], TablePrinter::Count(runs[r]->faults),
                TablePrinter::Count(runs[r]->skipped),
                TablePrinter::Count(runs[r]->result),
                TablePrinter::Fixed(runs[r]->ms, 2),
                r == 0 ? TablePrinter::Fixed(overlay.ms / compacted.ms, 2) +
                             "x"
                       : "1.00x"});
      JsonRecord rec;
      rec.query = "update-mix";
      rec.backend = std::string(b.label) + "/" + regimes[r];
      rec.size_mb = mb;
      rec.faults = runs[r]->faults;
      rec.ms = runs[r]->ms;
      rec.skipped = runs[r]->skipped;
      rec.result = runs[r]->result;
      json->push_back(std::move(rec));
    }
  }
  t.Print();
  std::printf("%d commits left %llu resident delta nodes; reads merged "
              "them in rank order until Compact rebuilt the images\n",
              kEditCommits, static_cast<unsigned long long>(delta_nodes));
}

// --- phase B: readers vs a writer ------------------------------------------

struct ServeRun {
  double ms = 0;
  Percentiles latency;
  uint64_t result = 0;  ///< schedule-deterministic sum over every query
  uint64_t commits = 0;
  uint64_t compactions = 0;
};

/// Runs the closed-loop zipf schedule, optionally against a concurrent
/// writer committing <wpatch/> bursts (a tag the read mix never
/// touches, so isolation keeps every answer's cardinality fixed).
ServeRun Serve(Database* db, bool with_writer) {
  const std::vector<double> cdf = ZipfCdf(std::size(kReadMix), 1.1);
  ServeRun best;
  bool first = true;
  for (int rep = 0; rep < TimedReps(); ++rep) {
    std::vector<Session> sessions;
    sessions.reserve(kClientThreads);
    for (unsigned s = 0; s < kClientThreads; ++s) {
      sessions.push_back(MustSession(*db));
    }
    std::vector<std::vector<double>> latencies(kClientThreads);
    std::atomic<uint64_t> total_result{0};
    std::atomic<bool> stop{false};
    uint64_t commits = 0;
    uint64_t compactions = 0;
    std::thread writer;
    if (with_writer) {
      writer = std::thread([db, &stop, &commits, &compactions] {
        while (!stop.load(std::memory_order_relaxed)) {
          EditTxn txn = db->BeginEdit();
          bool ok = true;
          for (int i = 0; i < kWriterBurst && ok; ++i) {
            ok = txn.InsertLastChild(0, "<wpatch/>").ok();
          }
          if (ok && txn.Commit().ok()) ++commits;
          if (commits % 8 == 7) {
            if (db->Compact().ok()) ++compactions;
          }
        }
      });
    }
    Timer wall;
    std::vector<std::thread> clients;
    clients.reserve(kClientThreads);
    for (unsigned s = 0; s < kClientThreads; ++s) {
      clients.emplace_back([&, s] {
        Rng rng(kScheduleSeed + s);
        latencies[s].reserve(kQueriesPerThread);
        for (int q = 0; q < kQueriesPerThread; ++q) {
          const char* query = kReadMix[DrawZipf(cdf, rng)];
          Timer timer;
          QueryResult r = MustRun(sessions[s], query);
          latencies[s].push_back(timer.ElapsedMillis());
          total_result.fetch_add(r.nodes.size(), std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& c : clients) c.join();
    const double ms = wall.ElapsedMillis();
    stop.store(true, std::memory_order_relaxed);
    if (writer.joinable()) writer.join();
    if (first || ms < best.ms) {
      first = false;
      best.ms = ms;
      best.latency = LatencyPercentiles(latencies);
      best.result = total_result.load(std::memory_order_relaxed);
      best.commits = commits;
      best.compactions = compactions;
    }
  }
  return best;
}

void PhaseWriterVsReaders(std::vector<JsonRecord>* json, double mb) {
  // Memory-only images: phase B prices snapshot churn on the CPU path,
  // not the disk. A fresh instance, so phase A's edits don't leak in.
  DatabaseOptions open;
  open.build_paged = false;
  open.build_compressed = false;
  auto db = MakeDatabase(mb, open);

  ServeRun quiet = Serve(db.get(), /*with_writer=*/false);
  ServeRun busy = Serve(db.get(), /*with_writer=*/true);
  // Snapshot isolation, priced and asserted: the writer's commits and
  // compactions moved the epoch under every reader, yet no answer
  // changed -- the summed cardinality is schedule-deterministic.
  if (busy.result != quiet.result) {
    std::fprintf(stderr,
                 "concurrent writer changed reader results: %llu vs %llu\n",
                 static_cast<unsigned long long>(busy.result),
                 static_cast<unsigned long long>(quiet.result));
    std::abort();
  }

  TablePrinter t({"writer", "clients", "p50 [ms]", "p95 [ms]", "p99 [ms]",
                  "commits", "compactions"});
  const char* labels[] = {"no-writer", "with-writer"};
  const ServeRun* runs[] = {&quiet, &busy};
  for (int i = 0; i < 2; ++i) {
    t.AddRow({labels[i], std::to_string(kClientThreads),
              TablePrinter::Fixed(runs[i]->latency.p50, 3),
              TablePrinter::Fixed(runs[i]->latency.p95, 3),
              TablePrinter::Fixed(runs[i]->latency.p99, 3),
              TablePrinter::Count(runs[i]->commits),
              TablePrinter::Count(runs[i]->compactions)});
    JsonRecord rec;
    rec.query = "zipf-read-mix/" + std::to_string(kClientThreads) + "clients";
    rec.backend = labels[i];
    rec.size_mb = mb;
    rec.ms = runs[i]->ms;
    rec.result = runs[i]->result;
    rec.p50_ms = runs[i]->latency.p50;
    rec.p95_ms = runs[i]->latency.p95;
    rec.p99_ms = runs[i]->latency.p99;
    json->push_back(std::move(rec));
  }
  t.Print();
  std::printf("readers rebind to each published epoch between queries; "
              "the writer's %llu commits (+%llu compactions) never touched "
              "a result\n",
              static_cast<unsigned long long>(busy.commits),
              static_cast<unsigned long long>(busy.compactions));
}

// --- phase C: commit latency ----------------------------------------------

/// Runs the commit script and returns the final live-patch count; the
/// Commit wall time of every transaction goes to `commit_ms`.
uint64_t RunCommitScript(Database* db, std::vector<double>* commit_ms) {
  Session session = MustSession(*db);
  Rng rng(kScriptSeed);
  uint64_t live = 0;
  for (int commit = 0; commit < kScriptCommits; ++commit) {
    // Targets come from the working document's own reads, untimed.
    const NodeSequence patches = MustRun(session, "/descendant::wpatch").nodes;
    const NodeSequence parents =
        MustRun(session, "/descendant::open_auction").nodes;
    if (patches.size() != live || parents.empty()) {
      std::fprintf(stderr, "commit script lost track of its patches\n");
      std::abort();
    }
    std::vector<std::pair<NodeId, bool>> targets;  // (pre, insert?)
    std::vector<bool> doomed(patches.size(), false);
    uint64_t inserts = 0;
    uint64_t deletes = 0;
    for (int op = 0; op < kScriptOps; ++op) {
      const double live_now = static_cast<double>(live + inserts - deletes);
      if (!patches.empty() &&
          rng.NextDouble() < live_now / (2.0 * kScriptTargetLive)) {
        const size_t k = rng.Below(patches.size());
        if (!doomed[k]) {
          doomed[k] = true;
          targets.emplace_back(patches[k], false);
          ++deletes;
          continue;
        }
      }
      targets.emplace_back(parents[rng.Below(parents.size())], true);
      ++inserts;
    }
    // Highest rank first: an op never shifts the ranks of the ops after it.
    std::sort(targets.begin(), targets.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    EditTxn txn = db->BeginEdit();
    for (const auto& [pre, insert] : targets) {
      const Status st = insert
                            ? txn.InsertLastChild(pre, "<wpatch><rec/></wpatch>")
                            : txn.DeleteSubtree(pre);
      if (!st.ok()) {
        std::fprintf(stderr, "commit script op failed: %s\n",
                     st.ToString().c_str());
        std::abort();
      }
    }
    Timer timer;
    const Status st = txn.Commit();
    commit_ms->push_back(timer.ElapsedMillis());
    if (!st.ok()) {
      std::fprintf(stderr, "commit script commit failed: %s\n",
                   st.ToString().c_str());
      std::abort();
    }
    live = live + inserts - deletes;
    if ((commit + 1) % kScriptCompactEvery == 0 && !db->Compact().ok()) {
      std::fprintf(stderr, "commit script Compact failed\n");
      std::abort();
    }
  }
  return live;
}

void PhaseCommitLatency(std::vector<JsonRecord>* json, double mb) {
  // Commit cost does not depend on the pool-backed images; memory-only
  // images keep the compactions cheap.
  DatabaseOptions open;
  open.build_paged = false;
  open.build_compressed = false;
  auto db = MakeDatabase(mb, open);
  std::vector<double> commit_ms;
  const uint64_t live = RunCommitScript(db.get(), &commit_ms);
  double total_ms = 0;
  for (double ms : commit_ms) total_ms += ms;
  const Percentiles latency = LatencyPercentiles({commit_ms});

  TablePrinter t({"commits", "compactions", "live patches", "p50 [ms]",
                  "p95 [ms]", "p99 [ms]"});
  t.AddRow({std::to_string(kScriptCommits),
            std::to_string(kScriptCommits / kScriptCompactEvery),
            TablePrinter::Count(live), TablePrinter::Fixed(latency.p50, 4),
            TablePrinter::Fixed(latency.p95, 4),
            TablePrinter::Fixed(latency.p99, 4)});
  t.Print();
  JsonRecord rec;
  rec.query = "commit";
  rec.backend = "memory";
  rec.size_mb = mb;
  rec.ms = total_ms;
  rec.result = live;
  rec.p50_ms = latency.p50;
  rec.p95_ms = latency.p95;
  rec.p99_ms = latency.p99;
  json->push_back(std::move(rec));
}

void Run() {
  PrintHeader("UM1 (update mix)",
              "MVCC delta store under a read mix: overlay vs compacted "
              "read cost, reader latency against a concurrent writer, and "
              "commit latency");
  const double mb = 1.1;  // fixed at every scale: the gated rows never move
  std::vector<JsonRecord> json;
  PhaseOverlayVsCompacted(&json, mb);
  PhaseWriterVsReaders(&json, mb);
  PhaseCommitLatency(&json, mb);
  WriteJson(json, "BENCH_update_mix.json");
}

}  // namespace
}  // namespace sj::bench

int main() {
  sj::bench::Run();
  return 0;
}
