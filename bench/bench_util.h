// Shared benchmark harness: document-size sweeps matching the paper's
// x-axis (1.1 / 11 / 111 / 1111 MB), cached workload construction, and
// paper-vs-measured table output.
//
// Environment:
//   SJ_BENCH_SCALE=small  -> sizes {1.1, 11}
//   (default)             -> sizes {1.1, 11, 111}
//   SJ_BENCH_SCALE=xl     -> sizes {1.1, 11, 111, 1111}  (the paper's full
//                            sweep; needs ~2 GB RAM)
//   SJ_BENCH_REPS=N       -> timing repetitions (default 3, best-of)

#ifndef STAIRJOIN_BENCH_BENCH_UTIL_H_
#define STAIRJOIN_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/session.h"
#include "core/staircase_join.h"
#include "core/tag_view.h"
#include "encoding/doc_table.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/timer.h"
#include "xmlgen/xmark.h"

namespace sj::bench {

/// One generated workload instance.
struct Workload {
  double size_mb = 0;
  std::unique_ptr<DocTable> doc;
  std::unique_ptr<TagIndex> index;

  /// Dictionary code of `name`; kNoTag (empty TagIndex view) if the
  /// generated document happens not to contain it.
  TagId Tag(const char* name) const {
    return doc->tags().Lookup(name).value_or(kNoTag);
  }

  /// All element nodes with the given tag, in document order.
  const NodeSequence& Nodes(const char* name) const {
    return index->view(Tag(name)).pre;
  }
};

/// Document sizes for the sweep (see header comment).
inline std::vector<double> BenchSizes() {
  const char* scale = std::getenv("SJ_BENCH_SCALE");
  if (scale != nullptr && std::string(scale) == "small") return {1.1, 11.0};
  if (scale != nullptr && std::string(scale) == "xl") {
    return {1.1, 11.0, 111.0, 1111.0};
  }
  return {1.1, 11.0, 111.0};
}

/// Timing repetitions (best-of-N).
inline int BenchReps() {
  const char* reps = std::getenv("SJ_BENCH_REPS");
  int n = reps != nullptr ? std::atoi(reps) : 3;
  return n > 0 ? n : 3;
}

/// Generates (and fragments) one workload instance; prints progress.
inline Workload MakeWorkload(double size_mb, bool with_index = true) {
  Workload w;
  w.size_mb = size_mb;
  xmlgen::XMarkOptions gen;
  gen.size_mb = size_mb;
  gen.rich_text = false;
  BuildOptions build;
  build.store_values = false;
  Timer t;
  auto doc = xmlgen::GenerateXMarkDocument(gen, build);
  if (!doc.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 doc.status().ToString().c_str());
    std::abort();
  }
  w.doc = std::move(doc).value();
  if (with_index) w.index = std::make_unique<TagIndex>(*w.doc);
  std::fprintf(stderr, "[workload] %.1f MB-equivalent: %zu nodes (%.0f ms)\n",
               size_mb, w.doc->size(), t.ElapsedMillis());
  return w;
}

/// Opens a Database over a generated XMark instance (structure only, no
/// stored values): the facade twin of MakeWorkload for benches that query
/// through Sessions rather than calling joins directly. `options.build`
/// is forced to store_values=false; everything else is honored.
inline std::unique_ptr<Database> MakeDatabase(double size_mb,
                                              DatabaseOptions options = {}) {
  xmlgen::XMarkOptions gen;
  gen.size_mb = size_mb;
  gen.rich_text = false;
  options.build.store_values = false;
  Timer t;
  auto db = Database::FromXmark(gen, options);
  if (!db.ok()) {
    std::fprintf(stderr, "database open failed: %s\n",
                 db.status().ToString().c_str());
    std::abort();
  }
  std::fprintf(stderr, "[workload] %.1f MB-equivalent: %zu nodes (%.0f ms)\n",
               size_mb, db.value()->doc().size(), t.ElapsedMillis());
  return std::move(db).value();
}

/// Creates a session over `db` or aborts.
inline Session MustSession(const Database& db,
                           const SessionOptions& options = {}) {
  auto session = db.CreateSession(options);
  if (!session.ok()) {
    std::fprintf(stderr, "session failed: %s\n",
                 session.status().ToString().c_str());
    std::abort();
  }
  return std::move(session).value();
}

/// Runs `query` from the document root or aborts.
inline QueryResult MustRun(Session& session, const char* query) {
  auto r = session.Run(query);
  if (!r.ok()) {
    std::fprintf(stderr, "query failed: %s\n  %s\n", query,
                 r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).value();
}

/// One query measured on a cold pool (see RunCold). Every field but `ms`
/// is deterministic for a single-threaded run.
struct ColdRun {
  double ms = -1;        ///< best-of-reps QueryResult::millis
  uint64_t faults = 0;   ///< pool faults of the last rep (0 without a pool)
  uint64_t pins = 0;     ///< pool pins of the last rep (0 without a pool)
  uint64_t skipped = 0;  ///< JoinStats::nodes_skipped summed over the plan
  uint64_t result = 0;   ///< result cardinality
  QueryResult last;      ///< the last rep's answer: nodes, trace, plan
};

/// Runs `query` BenchReps() times. When the session reads through a
/// pool, each rep starts on a flushed pool with reset counters, so the
/// faults are the query's cold faults and the time includes the paging.
inline ColdRun RunCold(Session& session, const char* query) {
  ColdRun out;
  storage::BufferPool* pool = session.pool();
  for (int rep = 0; rep < BenchReps(); ++rep) {
    if (pool != nullptr) {
      pool->FlushAll();
      pool->ResetStats();
    }
    out.last = MustRun(session, query);
    if (out.ms < 0 || out.last.millis < out.ms) out.ms = out.last.millis;
  }
  if (pool != nullptr) {
    const storage::PoolStats ps = pool->stats();
    out.faults = ps.faults;
    out.pins = ps.pins;
  }
  out.skipped = out.last.totals.nodes_skipped;
  out.result = out.last.nodes.size();
  return out;
}

/// Cumulative zipf(s) distribution over `n` ranks (rank 0 hottest).
inline std::vector<double> ZipfCdf(size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

/// Draws one rank from a ZipfCdf.
inline size_t DrawZipf(const std::vector<double>& cdf, Rng& rng) {
  const double u = rng.NextDouble();
  return static_cast<size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

/// Client-observed latency percentiles, milliseconds.
struct Percentiles {
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// Percentiles over every client thread's latency samples (nearest
/// rank, rounded down).
inline Percentiles LatencyPercentiles(
    const std::vector<std::vector<double>>& per_thread) {
  std::vector<double> all;
  for (const std::vector<double>& samples : per_thread) {
    all.insert(all.end(), samples.begin(), samples.end());
  }
  if (all.empty()) return {};
  std::sort(all.begin(), all.end());
  const double n = static_cast<double>(all.size());
  auto pct = [&](double q) {
    return all[std::min(all.size() - 1, static_cast<size_t>(q * n))];
  };
  return {pct(0.50), pct(0.95), pct(0.99)};
}

/// Formats a document size like the paper's x-axis labels.
inline std::string SizeLabel(double mb) {
  return TablePrinter::Fixed(mb, 1) + " MB";
}

/// Prints the standard bench header.
inline void PrintHeader(const char* experiment_id, const char* description) {
  std::printf(
      "==============================================================\n");
  std::printf("%s\n%s\n", experiment_id, description);
  std::printf(
      "==============================================================\n");
}

/// One machine-readable benchmark record (the shared BENCH_*.json row
/// format of the IO-conscious benches). `faults`, `skipped` and `result`
/// are deterministic for single-threaded cold-pool runs -- the CI
/// perf-regression gate (tools/check_bench_regression.py) compares them
/// against committed baselines; `ms` is wall time and never gated.
struct JsonRecord {
  std::string query;
  std::string backend;
  double size_mb = 0;
  uint64_t faults = 0;
  double ms = 0;
  uint64_t skipped = 0;  ///< JoinStats::nodes_skipped summed over the plan
  uint64_t result = 0;   ///< join-result cardinality
  /// Client-observed latency percentiles, milliseconds (serving benches;
  /// single-query benches leave them 0). Wall time, never gated.
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
};

/// Writes records as a JSON array to `path` (logs to stderr).
inline void WriteJson(const std::vector<JsonRecord>& records,
                      const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    std::fprintf(f,
                 "  {\"query\": \"%s\", \"backend\": \"%s\", "
                 "\"size_mb\": %.1f, \"faults\": %llu, \"skipped\": %llu, "
                 "\"result\": %llu, \"ms\": %.3f, \"p50_ms\": %.3f, "
                 "\"p95_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
                 r.query.c_str(), r.backend.c_str(), r.size_mb,
                 static_cast<unsigned long long>(r.faults),
                 static_cast<unsigned long long>(r.skipped),
                 static_cast<unsigned long long>(r.result), r.ms, r.p50_ms,
                 r.p95_ms, r.p99_ms,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::fprintf(stderr, "[json] wrote %zu records to %s\n", records.size(),
               path);
}

}  // namespace sj::bench

#endif  // STAIRJOIN_BENCH_BENCH_UTIL_H_
