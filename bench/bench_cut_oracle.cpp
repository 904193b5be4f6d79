// Kernel microbench: the host cut oracle (mincut::evaluate_two_respecting)
// on the 16 trees of the E26 packing (ER n=96, average degree 8, weights
// 1..100), the per-tree step every serving path runs — the stream's warm
// and full tiers, mincutd's host-mode SOLVE and the guard's winning-tree
// re-check.
//
// One iteration evaluates all 16 trees. The checksum folds every tree's
// value and runner-up, so any change to the oracle's outputs shows as a
// counter change; wall time per iteration / 16 is the per-call cost.

#include "bench_common.hpp"
#include "mincut/cut_oracle.hpp"
#include "mincut/tree_packing.hpp"
#include "tree/rooted_tree.hpp"

namespace umc {
namespace {

void BM_CutOracleE26(benchmark::State& state) {
  const WeightedGraph g = benchutil::weighted_er(96, 8.0, 21);
  mincut::PackingConfig config;
  config.max_trees = 16;
  config.use_cache = false;
  Rng rng(2026);
  minoragg::Ledger ledger;
  const mincut::TreePacking packing = mincut::tree_packing(g, rng, ledger, config);
  std::vector<RootedTree> trees;
  trees.reserve(packing.trees.size());
  for (const std::vector<EdgeId>& tree : packing.trees) trees.emplace_back(g, tree, /*root=*/0);

  std::uint64_t checksum = 0;
  for (auto _ : state) {
    checksum = 0x756d635f6f72636cULL;  // "umc_orcl"
    for (const RootedTree& t : trees) {
      const mincut::TwoRespectEval ev = mincut::evaluate_two_respecting(t);
      checksum = mix64(checksum ^ static_cast<std::uint64_t>(ev.best.value));
      checksum = mix64(checksum ^ static_cast<std::uint64_t>(ev.runner_up));
      benchmark::DoNotOptimize(ev);
    }
  }
  state.counters["trees"] = static_cast<double>(trees.size());
  state.counters["checksum"] = static_cast<double>(checksum % (1u << 30));
  state.counters["evals_per_s"] = benchmark::Counter(static_cast<double>(trees.size()),
                                                     benchmark::Counter::kIsIterationInvariantRate);
}

BENCHMARK(BM_CutOracleE26)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace umc
