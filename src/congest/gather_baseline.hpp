#pragma once

// Naive CONGEST baseline: ship the entire graph to a root over a BFS tree
// (one edge descriptor per tree-edge per round, greedy pipelining) and solve
// min-cut centrally there. Θ(D + m) rounds — the strawman every sublinear
// algorithm in the paper's Section 1 is compared against; experiment E11
// measures the crossover against the shortcut-compiled algorithm. The root
// computes umc::min_cut_value, not the Stoer–Wagner audit oracle, so the
// fault sweep's oracle checks an independent implementation.

#include <cstdint>

#include "graph/graph.hpp"

namespace umc::congest {

struct GatherBaselineResult {
  std::int64_t rounds_used = 0;   // BFS construction + pipelined gather
  Weight min_cut_value = 0;       // computed locally at the root
};

/// Requires a connected graph with n >= 2.
[[nodiscard]] GatherBaselineResult gather_exact_mincut(const WeightedGraph& g, NodeId root);

}  // namespace umc::congest
