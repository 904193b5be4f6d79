// Kernel microbench of the host solve path.
//
// BM_CutOracleE26: the host cut oracle (mincut::evaluate_two_respecting)
// on the 16 trees of the E26 packing (ER n=96, average degree 8, weights
// 1..100), the per-tree step every serving path runs — the stream's warm
// and full tiers, mincutd's host-mode SOLVE and the guard's winning-tree
// re-check. One iteration evaluates all 16 trees. The checksum folds every
// tree's value and runner-up, so any change to the oracle's outputs shows
// as a counter change; wall time per iteration / 16 is the per-call cost.
//
// BM_MinCutValue: the packing's exact lambda seed (umc::min_cut_value) on
// E26, on sparse graphs (a random spanning tree plus n/4 chords, weights
// 1..100) and on a barbell whose min cut is far below every weighted
// degree. BM_ColdHostSolveSparse: one cold host-mode solve_pipeline on the
// sparse family (cache off, 16 trees, width 1) — seed, packing and 16 host
// oracle calls end to end. `lambda` is the value found.

#include "bench_common.hpp"
#include "mincut/cut_oracle.hpp"
#include "mincut/exact_mincut.hpp"
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

/// A random spanning tree plus n/4 chords, weights 1..100.
WeightedGraph sparse_tree_chords(NodeId n) {
  Rng rng(0x5ba75eULL + static_cast<std::uint64_t>(n));
  WeightedGraph g = random_connected(n, n - 1 + n / 4, rng);
  randomize_weights(g, 1, 100, rng);
  return g;
}

/// Two ER halves (average degree 8, weights 50..99) joined by four edges of
/// weight 1..5: the min cut sits far below every weighted degree, so the
/// value comes from contraction rounds, not the degree bound.
WeightedGraph barbell(NodeId n) {
  Rng rng(0xba4be11ULL);
  const NodeId half = n / 2;
  WeightedGraph g(2 * half);
  for (const NodeId base : {NodeId{0}, half}) {
    const WeightedGraph c =
        erdos_renyi_connected(half, 8.0 / static_cast<double>(half - 1), rng);
    for (const Edge& e : c.edges())
      g.add_edge(base + e.u, base + e.v, 50 + static_cast<Weight>(rng.next_below(50)));
  }
  for (int i = 0; i < 4; ++i)
    g.add_edge(static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(half))),
               half + static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(half))),
               1 + static_cast<Weight>(rng.next_below(5)));
  return g;
}

void run_min_cut_value(benchmark::State& state, const WeightedGraph& g) {
  Weight lambda = 0;
  for (auto _ : state) {
    lambda = min_cut_value(g);
    benchmark::DoNotOptimize(lambda);
  }
  state.counters["n"] = static_cast<double>(g.n());
  state.counters["m"] = static_cast<double>(g.m());
  state.counters["lambda"] = static_cast<double>(lambda);
}

void BM_MinCutValueE26(benchmark::State& state) {
  run_min_cut_value(state, benchutil::weighted_er(96, 8.0, 21));
}
void BM_MinCutValueSparse(benchmark::State& state) {
  run_min_cut_value(state, sparse_tree_chords(static_cast<NodeId>(state.range(0))));
}
void BM_MinCutValueBarbell(benchmark::State& state) {
  run_min_cut_value(state, barbell(static_cast<NodeId>(state.range(0))));
}

BENCHMARK(BM_MinCutValueE26)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MinCutValueSparse)->Arg(2048)->Arg(8192)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MinCutValueBarbell)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_ColdHostSolveSparse(benchmark::State& state) {
  const WeightedGraph g = sparse_tree_chords(static_cast<NodeId>(state.range(0)));
  mincut::PackingConfig config;
  config.max_trees = 16;
  config.use_cache = false;
  Weight lambda = 0;
  std::size_t trees = 0;
  for (auto _ : state) {
    Rng rng(2026);
    minoragg::Ledger ledger;
    const mincut::PipelineResult r =
        mincut::solve_pipeline(g, rng, ledger, config, 1, mincut::TreeSolveMode::kHost);
    lambda = r.best.value;
    trees = r.trees.size();
  }
  state.counters["lambda"] = static_cast<double>(lambda);
  state.counters["trees"] = static_cast<double>(trees);
}

BENCHMARK(BM_ColdHostSolveSparse)->Arg(2048)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace umc
