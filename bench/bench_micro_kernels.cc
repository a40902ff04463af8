// S42 -- Paper Section 4.2 micro benchmarks (google-benchmark): per-node
// cost of the scan and copy loops, branch-prediction friendliness, pruning
// throughput, and B+-tree seek cost. The paper's numbers: ~17 cycles per
// scan iteration, ~5 cycles per copy iteration on a 2.2 GHz P4. Two more
// rows time database open: block-encoding the doc columns and parsing
// XMark text into a DocTable.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "baselines/sql_plan.h"
#include "bench_util.h"
#include "core/doc_accessor.h"
#include "core/kernels.h"
#include "encoding/block_codec.h"
#include "encoding/loader.h"

namespace sj::bench {
namespace {

/// One cached 11 MB-equivalent workload for all micro benches.
const Workload& SharedWorkload() {
  static Workload w = MakeWorkload(11.0);
  return w;
}

void BM_ScanPartitionDescBasic(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  const DocTable& doc = *w.doc;
  NodeSequence result;
  result.reserve(doc.size());
  MemoryDocAccessor acc(doc);
  for (auto _ : state) {
    result.clear();
    internal::Scan<MemoryDocAccessor> s{acc, false, false, &result,
                                        JoinStats{}};
    internal::ScanPartitionDescBasic(s, 1, doc.size() - 1,
                                     doc.post(doc.root()));
    benchmark::DoNotOptimize(result.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_ScanPartitionDescBasic);

void BM_ScanPartitionDescCopyPhase(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  const DocTable& doc = *w.doc;
  NodeSequence result;
  result.reserve(doc.size());
  MemoryDocAccessor acc(doc);
  for (auto _ : state) {
    result.clear();
    internal::Scan<MemoryDocAccessor> s{acc, false, false, &result,
                                        JoinStats{}};
    internal::ScanPartitionDescEstimated(s, 1, doc.size() - 1,
                                         doc.post(doc.root()));
    benchmark::DoNotOptimize(result.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_ScanPartitionDescCopyPhase);

void BM_ScanPartitionDescWithAttributeFilter(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  const DocTable& doc = *w.doc;
  NodeSequence result;
  result.reserve(doc.size());
  MemoryDocAccessor acc(doc);
  for (auto _ : state) {
    result.clear();
    internal::Scan<MemoryDocAccessor> s{acc, true, false, &result,
                                        JoinStats{}};
    internal::ScanPartitionDescEstimated(s, 1, doc.size() - 1,
                                         doc.post(doc.root()));
    benchmark::DoNotOptimize(result.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_ScanPartitionDescWithAttributeFilter);

void BM_PruneContextDescendant(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  // Everything under open_auctions: heavily nested context.
  NodeSequence ctx;
  const NodeSequence& auctions = w.Nodes("open_auction");
  const NodeSequence& bidders = w.Nodes("bidder");
  std::merge(auctions.begin(), auctions.end(), bidders.begin(), bidders.end(),
             std::back_inserter(ctx));
  for (auto _ : state) {
    NodeSequence kept = PruneContext(*w.doc, ctx, Axis::kDescendant);
    benchmark::DoNotOptimize(kept.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ctx.size()));
}
BENCHMARK(BM_PruneContextDescendant);

void BM_StaircaseJoinAncIncrease(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  const NodeSequence& increases = w.Nodes("increase");
  for (auto _ : state) {
    auto r = StaircaseJoin(*w.doc, increases, Axis::kAncestor);
    benchmark::DoNotOptimize(r.value().data());
  }
}
BENCHMARK(BM_StaircaseJoinAncIncrease);

void BM_BPlusTreeSeek(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  static SqlPlanEvaluator* sql = new SqlPlanEvaluator(*w.doc);
  uint32_t pre = 0;
  const uint32_t n = static_cast<uint32_t>(w.doc->size());
  for (auto _ : state) {
    auto it = sql->index().Seek({pre, 0, 0});
    benchmark::DoNotOptimize(it.Valid());
    pre = (pre + 7919) % n;
  }
}
BENCHMARK(BM_BPlusTreeSeek);

void BM_EncodeBlockDocColumns(benchmark::State& state) {
  const DocTable& doc = *SharedWorkload().doc;
  // The five doc columns as the compressed backend encodes them: the
  // byte columns widened to uint32 first.
  std::vector<std::vector<uint32_t>> columns;
  columns.emplace_back(doc.posts().begin(), doc.posts().end());
  columns.emplace_back(doc.kinds().begin(), doc.kinds().end());
  columns.emplace_back(doc.levels().begin(), doc.levels().end());
  columns.emplace_back(doc.parents().begin(), doc.parents().end());
  columns.emplace_back(doc.tags_column().begin(), doc.tags_column().end());
  std::vector<uint8_t> out(encoding::MaxEncodedBlockBytes(
      encoding::kBlockValues));
  int64_t values = 0;
  for (const auto& column : columns) {
    values += static_cast<int64_t>(column.size());
  }
  for (auto _ : state) {
    size_t bytes = 0;
    for (const auto& column : columns) {
      const std::span<const uint32_t> all(column);
      for (size_t start = 0; start < all.size();
           start += encoding::kBlockValues) {
        bytes += encoding::EncodeBlock(
            all.subspan(start, std::min(encoding::kBlockValues,
                                        all.size() - start)),
            out.data());
      }
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * values);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * values *
                          static_cast<int64_t>(sizeof(uint32_t)));
}
BENCHMARK(BM_EncodeBlockDocColumns)->Unit(benchmark::kMillisecond);

void BM_LoadDocument(benchmark::State& state) {
  // The same 11 MB XMark text a database open parses.
  static const std::string* text = [] {
    xmlgen::XMarkOptions gen;
    gen.size_mb = 11.0;
    gen.seed = 1;
    return new std::string(xmlgen::GenerateXMarkText(gen).value());
  }();
  for (auto _ : state) {
    auto doc = LoadDocument(*text);
    benchmark::DoNotOptimize(doc.value()->size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text->size()));
}
BENCHMARK(BM_LoadDocument)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sj::bench

BENCHMARK_MAIN();
