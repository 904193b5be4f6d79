// Tests for the baseline oracles: Stoer-Wagner, the naive 2-respecting
// table, and the reference cut/cover machinery (Facts 5 & 6); and the
// Stoer-Wagner differential of the solve path's min-cut value routine.

#include <gtest/gtest.h>

#include <numeric>

#include "baseline/naive_two_respect.hpp"
#include "baseline/stoer_wagner.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "mincut/cut_values.hpp"
#include "mincut/tree_packing.hpp"
#include "tree/spanning.hpp"
#include "util/rng.hpp"

namespace umc::baseline {
namespace {

/// Brute-force min cut over all 2^(n-1) bipartitions (tiny n only).
Weight brute_force_min_cut(const WeightedGraph& g) {
  const NodeId n = g.n();
  Weight best = mincut::kInfWeight;
  for (std::uint64_t mask = 1; mask < (1ULL << (n - 1)); ++mask) {
    Weight cut = 0;
    for (const Edge& e : g.edges()) {
      const bool su = e.u == n - 1 ? false : ((mask >> e.u) & 1);
      const bool sv = e.v == n - 1 ? false : ((mask >> e.v) & 1);
      if (su != sv) cut += e.w;
    }
    best = std::min(best, cut);
  }
  return best;
}

TEST(StoerWagner, KnownSmallCases) {
  // Two triangles joined by one light edge.
  WeightedGraph g(6);
  g.add_edge(0, 1, 10);
  g.add_edge(1, 2, 10);
  g.add_edge(2, 0, 10);
  g.add_edge(3, 4, 10);
  g.add_edge(4, 5, 10);
  g.add_edge(5, 3, 10);
  g.add_edge(2, 3, 1);
  const GlobalMinCut cut = stoer_wagner(g);
  EXPECT_EQ(cut.value, 1);
  EXPECT_TRUE(cut.side == std::vector<NodeId>({0, 1, 2}) ||
              cut.side == std::vector<NodeId>({3, 4, 5}));
}

TEST(StoerWagner, TwoNodesParallelEdges) {
  WeightedGraph g(2);
  g.add_edge(0, 1, 3);
  g.add_edge(0, 1, 4);
  EXPECT_EQ(stoer_wagner(g).value, 7);
}

TEST(StoerWagner, MatchesBruteForceOnRandomGraphs) {
  Rng rng(101);
  for (int trial = 0; trial < 30; ++trial) {
    const NodeId n = 4 + static_cast<NodeId>(rng.next_below(7));
    WeightedGraph g = random_connected(n, n + static_cast<EdgeId>(rng.next_below(12)), rng);
    randomize_weights(g, 1, 20, rng);
    EXPECT_EQ(stoer_wagner(g).value, brute_force_min_cut(g)) << "trial " << trial;
  }
}

TEST(StoerWagner, SideIsActualCut) {
  Rng rng(103);
  for (int trial = 0; trial < 10; ++trial) {
    WeightedGraph g = erdos_renyi_connected(20, 0.2, rng);
    randomize_weights(g, 1, 9, rng);
    const GlobalMinCut cut = stoer_wagner(g);
    std::vector<bool> in_side(static_cast<std::size_t>(g.n()), false);
    for (const NodeId v : cut.side) in_side[static_cast<std::size_t>(v)] = true;
    Weight crossing = 0;
    for (const Edge& e : g.edges())
      if (in_side[static_cast<std::size_t>(e.u)] != in_side[static_cast<std::size_t>(e.v)])
        crossing += e.w;
    EXPECT_EQ(crossing, cut.value);
    EXPECT_GT(cut.side.size(), 0u);
    EXPECT_LT(cut.side.size(), static_cast<std::size_t>(g.n()));
  }
}

TEST(ReferenceCutValues, Fact5CutEqualsCovOnSingleEdges) {
  Rng rng(109);
  WeightedGraph g = erdos_renyi_connected(25, 0.15, rng);
  randomize_weights(g, 1, 7, rng);
  const auto tree = bfs_spanning_tree(g, 0);
  const RootedTree t(g, tree, 0);
  const auto cov1 = mincut::reference_cov1(t);
  for (const EdgeId e : tree) {
    EXPECT_EQ(cov1[static_cast<std::size_t>(e)], mincut::reference_cut_pair(t, e, e));
    EXPECT_EQ(cov1[static_cast<std::size_t>(e)], mincut::reference_cov_pair(t, e, e));
  }
}

TEST(ReferenceCutValues, Fact5PairIdentity) {
  Rng rng(113);
  WeightedGraph g = erdos_renyi_connected(18, 0.2, rng);
  randomize_weights(g, 1, 5, rng);
  const auto tree = bfs_spanning_tree(g, 0);
  const RootedTree t(g, tree, 0);
  const auto cov1 = mincut::reference_cov1(t);
  for (std::size_t i = 0; i < tree.size(); ++i) {
    for (std::size_t j = i + 1; j < tree.size(); ++j) {
      const EdgeId e = tree[i], f = tree[j];
      EXPECT_EQ(mincut::reference_cut_pair(t, e, f),
                cov1[static_cast<std::size_t>(e)] + cov1[static_cast<std::size_t>(f)] -
                    2 * mincut::reference_cov_pair(t, e, f));
    }
  }
}

TEST(ReferenceCutValues, CutOfTreeEdgePartitionsBySubtree) {
  // On a path graph with a chord, cutting {i,i+1} plus the chord's crossing.
  WeightedGraph g = path_graph(6);
  g.add_edge(1, 4, 10);
  std::vector<EdgeId> tree = {0, 1, 2, 3, 4};
  const RootedTree t(g, tree, 0);
  // Tree edge {2,3}: crossing edges are itself (w=1) and the chord (w=10).
  EXPECT_EQ(mincut::reference_cut_pair(t, 2, 2), 11);
  // Pair ({1,2}, {4,5}): chord covers {1,2}..{3,4} so it crosses only e.
  EXPECT_EQ(mincut::reference_cut_pair(t, 1, 4), 1 + 10 + 1);
}

TEST(NaiveTwoRespect, MinCutWhenTreeTwoRespectsIt) {
  // Dumbbell: min cut = the bridge; any spanning tree 1-respects it.
  WeightedGraph g = dumbbell(4, 2);
  const auto tree = bfs_spanning_tree(g, 0);
  const RootedTree t(g, tree, 0);
  const auto best = naive_two_respecting(t);
  EXPECT_EQ(best.value, stoer_wagner(g).value);
}

TEST(NaiveTwoRespect, AgainstExhaustivePairEnumeration) {
  Rng rng(127);
  for (int trial = 0; trial < 10; ++trial) {
    WeightedGraph g = erdos_renyi_connected(14, 0.25, rng);
    randomize_weights(g, 1, 9, rng);
    const auto tree = bfs_spanning_tree(g, 0);
    const RootedTree t(g, tree, 0);
    const auto fast = naive_two_respecting(t);
    mincut::CutResult slow;
    for (std::size_t i = 0; i < tree.size(); ++i) {
      slow.absorb({mincut::reference_cut_pair(t, tree[i], tree[i]), tree[i], kNoEdge});
      for (std::size_t j = i + 1; j < tree.size(); ++j)
        slow.absorb({mincut::reference_cut_pair(t, tree[i], tree[j]), tree[i], tree[j]});
    }
    EXPECT_EQ(fast.value, slow.value);
  }
}

TEST(NaiveTwoRespect, Fact6InterestNecessaryCondition) {
  // If Cut(e,f) beats every 1-respecting cut then Cov(e,f) > Cov(e)/2.
  Rng rng(131);
  for (int trial = 0; trial < 6; ++trial) {
    WeightedGraph g = erdos_renyi_connected(12, 0.3, rng);
    randomize_weights(g, 1, 8, rng);
    const auto tree = bfs_spanning_tree(g, 0);
    const RootedTree t(g, tree, 0);
    const Weight best1 = naive_one_respecting(t).value;
    for (std::size_t i = 0; i < tree.size(); ++i) {
      for (std::size_t j = 0; j < tree.size(); ++j) {
        if (i == j) continue;
        const EdgeId e = tree[i], f = tree[j];
        if (mincut::reference_cut_pair(t, e, f) < best1) {
          EXPECT_GT(2 * mincut::reference_cov_pair(t, e, f),
                    mincut::reference_cov_pair(t, e, e));
        }
      }
    }
  }
}

/// Two random clusters of `a` and `b` nodes (heavy weights) joined by
/// `links` light edges, so the min cut is far below every weighted degree.
WeightedGraph two_clusters(NodeId a, NodeId b, int links, double p, Rng& rng) {
  WeightedGraph g(a + b);
  const auto cluster = [&](NodeId base, NodeId size) {
    WeightedGraph c = erdos_renyi_connected(size, p, rng);
    for (const Edge& e : c.edges())
      g.add_edge(base + e.u, base + e.v, 50 + static_cast<Weight>(rng.next_below(50)));
  };
  cluster(0, a);
  cluster(a, b);
  for (int i = 0; i < links; ++i)
    g.add_edge(static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(a))),
               a + static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(b))),
               1 + static_cast<Weight>(rng.next_below(5)));
  return g;
}

/// Random spanning tree plus `extra` edges between uniform pairs, parallel
/// edges included.
WeightedGraph random_multigraph(NodeId n, EdgeId extra, Rng& rng) {
  WeightedGraph g = random_tree(n, rng);
  for (EdgeId i = 0; i < extra; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u != v) g.add_edge(u, v);
  }
  return g;
}

Weight min_weighted_degree(const WeightedGraph& g) {
  Weight best = mincut::kInfWeight;
  for (NodeId v = 0; v < g.n(); ++v) best = std::min(best, g.weighted_degree(v));
  return best;
}

TEST(MinCutValue, MatchesStoerWagner) {
  Rng rng(0x4e4f49ULL);  // "NOI"
  int graphs = 0, below_degree = 0, mismatches = 0;
  const auto check = [&](const WeightedGraph& g, const char* family) {
    const Weight expected = stoer_wagner(g).value;
    const Weight got = min_cut_value(g);
    if (got != expected && ++mismatches <= 3)
      ADD_FAILURE() << family << " #" << graphs << " n=" << g.n() << ": " << got
                    << " != Stoer-Wagner " << expected;
    ++graphs;
    if (expected < min_weighted_degree(g)) ++below_degree;
  };
  for (int trial = 0; trial < 60; ++trial) {
    const auto a = 3 + static_cast<NodeId>(rng.next_below(20));
    const auto b = 3 + static_cast<NodeId>(rng.next_below(20));
    check(two_clusters(a, b, 1 + static_cast<int>(rng.next_below(4)), 0.6, rng), "two clusters");
    const auto side = 3 + static_cast<NodeId>(rng.next_below(12));
    WeightedGraph bar = dumbbell(side, 1 + static_cast<NodeId>(rng.next_below(4)));
    randomize_weights(bar, 1, 100, rng);
    check(bar, "barbell");
  }
  for (int trial = 0; trial < 80; ++trial) {
    const auto n = 4 + static_cast<NodeId>(rng.next_below(60));
    WeightedGraph sparse = erdos_renyi_connected(n, 3.0 / static_cast<double>(n), rng);
    randomize_weights(sparse, 1, 100, rng);
    check(sparse, "ER sparse");
    WeightedGraph dense = erdos_renyi_connected(n, 0.5, rng);
    randomize_weights(dense, 1, 100, rng);
    check(dense, "ER dense");
  }
  for (int trial = 0; trial < 60; ++trial) {
    WeightedGraph grid = random_planar_grid(2 + static_cast<NodeId>(rng.next_below(8)),
                                            2 + static_cast<NodeId>(rng.next_below(8)), 0.3, rng);
    randomize_weights(grid, 1, 10, rng);
    check(grid, "planar grid");
    WeightedGraph cycle = cycle_graph(3 + static_cast<NodeId>(rng.next_below(40)));
    randomize_weights(cycle, 1, 20, rng);
    check(cycle, "cycle");
  }
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = 2 + static_cast<NodeId>(rng.next_below(30));
    WeightedGraph multi = random_multigraph(n, 2 * n, rng);
    randomize_weights(multi, 1, 5, rng);
    check(multi, "multigraph");
    WeightedGraph pair(2);
    for (int k = 1 + static_cast<int>(rng.next_below(4)); k > 0; --k)
      pair.add_edge(0, 1, 1 + static_cast<Weight>(rng.next_below(1000)));
    check(pair, "n=2");
    WeightedGraph heavy = random_connected(n + 2, 2 * n + 4, rng);
    randomize_weights(heavy, 1, 1'000'000'000, rng);
    check(heavy, "weights to 1e9");
  }
  EXPECT_EQ(mismatches, 0) << "of " << graphs;
  EXPECT_GE(graphs, 500);
  // The contraction path, not just the degree bound, decides these.
  EXPECT_GE(below_degree, 150) << "of " << graphs;
}

TEST(MinCutValue, DisconnectedIsZero) {
  WeightedGraph g(5);
  g.add_edge(0, 1, 4);
  g.add_edge(1, 2, 4);
  g.add_edge(3, 4, 9);
  EXPECT_EQ(min_cut_value(g), 0);
}

TEST(MinCutValue, PackingSeedMatchesStoerWagner) {
  // The three cold_solve graphs of perfbench and the E26 stream graph.
  std::vector<WeightedGraph> graphs;
  {
    Rng rng(7);
    graphs.push_back(erdos_renyi_connected(96, 8.0 / 95.0, rng));
    randomize_weights(graphs.back(), 1, 100, rng);
  }
  {
    Rng rng(0x67a1dULL);
    graphs.push_back(random_planar_grid(10, 10, 0.3, rng));
    randomize_weights(graphs.back(), 1, 10, rng);
  }
  {
    Rng rng(0xde75eULL);
    graphs.push_back(erdos_renyi_connected(40, 0.5, rng));
    randomize_weights(graphs.back(), 1, 50, rng);
  }
  {
    Rng rng(21);
    graphs.push_back(erdos_renyi_connected(96, 8.0 / 95.0, rng));
    randomize_weights(graphs.back(), 1, 100, rng);
  }
  mincut::PackingConfig config;
  config.max_trees = 2;
  config.use_cache = false;
  for (const WeightedGraph& g : graphs) {
    Rng rng(1);
    minoragg::Ledger ledger;
    EXPECT_EQ(mincut::tree_packing(g, rng, ledger, config).lambda_seed, stoer_wagner(g).value);
  }
}

}  // namespace
}  // namespace umc::baseline
