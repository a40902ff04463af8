// FR1 -- Paper Section 6 (Future Research): fragmentation by tag name.
// "...the execution time of Q1 could be brought down from 345 ms to 39 ms."
// TagIndex materializes one pre/post fragment per element tag at load
// time; both Q1 steps then run over fragments only.
//
// The paged section runs the same Q1 IO-consciously: the whole document
// scanned through the buffer pool (cold) vs. the paged tag fragments
// (cold), reporting page faults next to wall time. Results additionally
// land in BENCH_frag_tagname.json as
//   {"query", "backend", "size_mb", "faults", "ms"}
// records so the perf trajectory is machine-readable.

#include <vector>

#include "bench_util.h"
#include "core/fragment_impl.h"
#include "core/staircase_impl.h"
#include "storage/compressed_accessor.h"
#include "storage/compressed_tags.h"

namespace sj::bench {
namespace {

using storage::BufferPool;
using storage::ColumnLayout;
using storage::CompressedDocAccessor;
using storage::CompressedDocTable;
using storage::CompressedFragmentCursor;
using storage::CompressedTagIndex;
using storage::SimulatedDisk;

/// Q1 = /site//profile//education (two descendant steps + name tests).
NodeSequence FilterTag(const DocTable& doc, const NodeSequence& nodes,
                       TagId tag) {
  NodeSequence out;
  for (NodeId v : nodes) {
    if (doc.tag(v) == tag && doc.kind(v) == NodeKind::kElement) {
      out.push_back(v);
    }
  }
  return out;
}

double Q1FullDoc(const Workload& w, size_t* result) {
  return BestOfMillis(BenchReps(), [&] {
    const DocTable& doc = *w.doc;
    NodeSequence s1 =
        StaircaseJoin(doc, {doc.root()}, Axis::kDescendant).value();
    NodeSequence profiles = FilterTag(doc, s1, w.Tag("profile"));
    NodeSequence s2 = StaircaseJoin(doc, profiles, Axis::kDescendant).value();
    NodeSequence educations = FilterTag(doc, s2, w.Tag("education"));
    if (educations.empty()) std::abort();
    *result = educations.size();
  });
}

double Q1Fragments(const Workload& w, size_t* result) {
  return BestOfMillis(BenchReps(), [&] {
    const DocTable& doc = *w.doc;
    NodeSequence profiles =
        StaircaseJoinView(doc, w.index->view(w.Tag("profile")), {doc.root()},
                          Axis::kDescendant)
            .value();
    NodeSequence educations =
        StaircaseJoinView(doc, w.index->view(w.Tag("education")), profiles,
                          Axis::kDescendant)
            .value();
    if (educations.empty()) std::abort();
    *result = educations.size();
  });
}

/// Cold-pool timing: every repetition starts from an empty pool, so the
/// faults of one run are deterministic and `ms` includes the paging.
template <typename F>
double ColdBestOfMillis(BufferPool* pool, F&& f) {
  double best = -1;
  for (int rep = 0; rep < BenchReps(); ++rep) {
    pool->FlushAll();
    pool->ResetStats();
    Timer t;
    f();
    double ms = t.ElapsedMillis();
    if (best < 0 || ms < best) best = ms;
  }
  return best;
}

/// One descendant step of the generic staircase join through a fresh
/// paged accessor (its pages are unpinned on return, between steps).
NodeSequence PagedDescendant(const CompressedDocTable& paged, BufferPool* pool,
                             const NodeSequence& context) {
  CompressedDocAccessor acc(paged, pool);
  return internal::StaircaseJoinOver(acc, context, Axis::kDescendant, {},
                                     nullptr)
      .value();
}

/// One descendant step of the generic fragment join over `tag`'s paged
/// fragment, likewise through fresh cursors.
NodeSequence PagedFragmentDescendant(const CompressedTagIndex& tags, TagId tag,
                                     const CompressedDocTable& paged,
                                     BufferPool* pool,
                                     const NodeSequence& context) {
  CompressedFragmentCursor frag(tags.fragment(tag), pool);
  CompressedDocAccessor acc(paged, pool);
  return internal::FragmentStaircaseJoinOver(frag, acc, context,
                                             Axis::kDescendant, {}, nullptr)
      .value();
}

size_t Q1PagedFullDoc(const Workload& w, const CompressedDocTable& paged,
                      BufferPool* pool) {
  const DocTable& doc = *w.doc;
  NodeSequence s1 = PagedDescendant(paged, pool, {doc.root()});
  NodeSequence profiles = FilterTag(doc, s1, w.Tag("profile"));
  NodeSequence s2 = PagedDescendant(paged, pool, profiles);
  NodeSequence educations = FilterTag(doc, s2, w.Tag("education"));
  if (educations.empty()) std::abort();
  return educations.size();
}

size_t Q1PagedFragments(const Workload& w, const CompressedDocTable& paged,
                        const CompressedTagIndex& tags, BufferPool* pool) {
  const DocTable& doc = *w.doc;
  NodeSequence profiles = PagedFragmentDescendant(tags, w.Tag("profile"),
                                                  paged, pool, {doc.root()});
  NodeSequence educations = PagedFragmentDescendant(
      tags, w.Tag("education"), paged, pool, profiles);
  if (educations.empty()) std::abort();
  return educations.size();
}

void Run() {
  PrintHeader("FR1 (Section 6)",
              "fragmentation by tag name: Q1 over the full plane vs over "
              "per-tag fragments, in memory and through the buffer pool");
  std::vector<JsonRecord> json;

  TablePrinter t({"doc size", "Q1 full doc [ms]", "Q1 fragments [ms]",
                  "speedup", "fragment build [ms]", "fragment mem [MB]"});
  TablePrinter p({"doc size", "paged full doc [ms]", "faults",
                  "paged fragments [ms]", "faults", "fault savings"});
  for (double mb : BenchSizes()) {
    Workload w = MakeWorkload(mb, /*with_index=*/false);
    size_t q1_result = 0;
    double full = Q1FullDoc(w, &q1_result);

    Timer build;
    w.index = std::make_unique<TagIndex>(*w.doc);
    double build_ms = build.ElapsedMillis();
    double frag = Q1Fragments(w, &q1_result);

    t.AddRow({SizeLabel(mb), TablePrinter::Fixed(full, 2),
              TablePrinter::Fixed(frag, 2),
              TablePrinter::Fixed(full / frag, 1) + "x",
              TablePrinter::Fixed(build_ms, 0),
              TablePrinter::Fixed(
                  static_cast<double>(w.index->memory_bytes()) / 1048576.0,
                  1)});
    json.push_back(
        {"Q1", "memory/full-doc", mb, 0, full, 0, q1_result, 0, 0, 0});
    json.push_back(
        {"Q1", "memory/fragments", mb, 0, frag, 0, q1_result, 0, 0, 0});

    // The IO-conscious rerun: same Q1, raw page columns behind the
    // buffer pool.
    SimulatedDisk disk;
    auto paged =
        CompressedDocTable::Create(*w.doc, &disk, ColumnLayout::kRaw).value();
    auto tags =
        CompressedTagIndex::Create(*w.doc, &disk, ColumnLayout::kRaw).value();
    BufferPool pool(&disk, 64);

    double paged_full_ms = ColdBestOfMillis(
        &pool, [&] { q1_result = Q1PagedFullDoc(w, *paged, &pool); });
    uint64_t paged_full_faults = pool.stats().faults;
    double paged_frag_ms = ColdBestOfMillis(
        &pool, [&] { q1_result = Q1PagedFragments(w, *paged, *tags, &pool); });
    uint64_t paged_frag_faults = pool.stats().faults;

    p.AddRow({SizeLabel(mb), TablePrinter::Fixed(paged_full_ms, 2),
              std::to_string(paged_full_faults),
              TablePrinter::Fixed(paged_frag_ms, 2),
              std::to_string(paged_frag_faults),
              TablePrinter::Fixed(static_cast<double>(paged_full_faults) /
                                      static_cast<double>(
                                          paged_frag_faults > 0
                                              ? paged_frag_faults
                                              : 1),
                                  1) +
                  "x"});
    json.push_back({"Q1", "paged/full-doc-cold", mb, paged_full_faults,
                    paged_full_ms, 0, q1_result, 0, 0, 0});
    json.push_back({"Q1", "paged/fragments-cold", mb, paged_frag_faults,
                    paged_frag_ms, 0, q1_result, 0, 0, 0});
  }
  t.Print();
  std::printf("paper: 345 ms -> 39 ms for Q1 on the 1 GB instance (~9x); "
              "the one-off fragmentation cost amortizes at load time\n\n");
  p.Print();
  std::printf("pushdown on the paged backend reads fragment pages instead of "
              "document pages: \"nodes never touched\" becomes pages never "
              "faulted\n");
  WriteJson(json, "BENCH_frag_tagname.json");
}

}  // namespace
}  // namespace sj::bench

int main() {
  sj::bench::Run();
  return 0;
}
