// S43 -- Paper Section 4.3: memory bandwidth of the copy phase. The
// experiment evaluates the full XPath query /descendant::node() through
// xpath::Evaluator (not a hand-called join): with estimation the step
// consists almost entirely of the branch-free copy loop, and we report
//   (bytes read + bytes written) / execution time.
// Paper (Dual-P4 Xeon 2.2 GHz): 719 MB/s, 805 MB/s with prefetch+unrolling;
// absolute numbers are machine-specific, the *ordering*
// (copy phase >> comparison scan) is the reproduced shape.

#include "bench_util.h"

namespace sj::bench {
namespace {

double BandwidthMbs(uint64_t nodes_touched, uint64_t result_size,
                    double millis) {
  double bytes = static_cast<double>(nodes_touched + result_size) * 4.0;
  return bytes / (millis / 1000.0) / (1024.0 * 1024.0);
}

/// Best-of-reps evaluation of /descendant::node(); returns the step's
/// JoinStats through `stats`.
double RunQuery(const Database& db, SkipMode mode, JoinStats* stats) {
  SessionOptions opt;
  // keep_attributes=true exercises the pure branch-free bulk copy (and
  // matches the region-query semantics of the paper's experiment).
  opt.staircase.skip_mode = mode;
  opt.staircase.keep_attributes = true;
  auto session = db.CreateSession(opt);
  if (!session.ok()) std::abort();
  double best = BestOfMillis(BenchReps(), [&] {
    auto r = session.value().Run("/descendant::node()");
    if (!r.ok()) std::abort();
    *stats = r.value().trace.front().stats;
  });
  return best;
}

void Run() {
  PrintHeader("S43 (Section 4.3)",
              "/descendant::node() copy-phase bandwidth: estimation-based "
              "copy vs comparison scan (full query through the evaluator)");
  TablePrinter t({"doc size", "result", "copy loop [ms]", "copy [MB/s]",
                  "scan loop [ms]", "scan [MB/s]"});
  for (double mb : BenchSizes()) {
    DatabaseOptions open;
    open.build_paged = false;  // a pure memory-bandwidth experiment
    auto db = MakeDatabase(mb, open);

    JoinStats copy_stats, scan_stats;
    double copy_ms = RunQuery(*db, SkipMode::kEstimated, &copy_stats);
    double scan_ms = RunQuery(*db, SkipMode::kNone, &scan_stats);

    t.AddRow({SizeLabel(mb), TablePrinter::Count(copy_stats.result_size),
              TablePrinter::Fixed(copy_ms, 2),
              TablePrinter::Count(static_cast<uint64_t>(BandwidthMbs(
                  copy_stats.nodes_accessed(), copy_stats.result_size,
                  copy_ms))),
              TablePrinter::Fixed(scan_ms, 2),
              TablePrinter::Count(static_cast<uint64_t>(BandwidthMbs(
                  scan_stats.nodes_accessed(), scan_stats.result_size,
                  scan_ms)))});
  }
  t.Print();
  std::printf("paper: 719 MB/s (805 MB/s unrolled+prefetch) on 2002-era "
              "hardware; expect higher absolute numbers here, with copy "
              "bandwidth exceeding scan bandwidth\n");
}

}  // namespace
}  // namespace sj::bench

int main() {
  sj::bench::Run();
  return 0;
}
