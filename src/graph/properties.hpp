#pragma once

// Structural graph queries: connectivity, BFS distances, diameter, and the
// exact global min-cut value.
//
// Hop-diameter D is a first-class experiment parameter (the paper's bounds
// are stated in terms of D), so both an exact all-pairs routine (small n)
// and a 2-approximation via double-sweep BFS (large n) are provided.

#include <vector>

#include "graph/graph.hpp"

namespace umc {

/// Hop distances from `src` (ignores weights); kUnreachable for other
/// components.
inline constexpr int kUnreachable = -1;
[[nodiscard]] std::vector<int> bfs_distances(const WeightedGraph& g, NodeId src);

[[nodiscard]] bool is_connected(const WeightedGraph& g);

/// Exact weighted global min-cut value (0 on a disconnected graph) by the
/// Nagamochi–Ono–Ibaraki contraction algorithm: the bound starts at the
/// minimum weighted degree; each round runs one maximum-adjacency ordering
/// of the contracted multigraph, contracts every edge whose attachment
/// reaches the bound (its endpoints are at least that well connected),
/// lowers the bound to the cut of the phase and contracts the last two
/// nodes. Near-linear on the graphs the packing seeds from; the value
/// equals baseline::stoer_wagner's, which stays the audit oracle. Requires
/// n >= 2.
[[nodiscard]] Weight min_cut_value(const WeightedGraph& g);

/// Number of connected components (n == 0 gives 0).
[[nodiscard]] int num_components(const WeightedGraph& g);

/// Exact hop-diameter via n BFS sweeps. Requires a connected graph.
[[nodiscard]] int exact_diameter(const WeightedGraph& g);

/// Lower bound on the hop-diameter via a double-sweep BFS (within 2x of the
/// true value; exact on trees). Requires a connected graph.
[[nodiscard]] int approx_diameter(const WeightedGraph& g);

/// Component id (0-based, by discovery order) per node.
[[nodiscard]] std::vector<int> component_ids(const WeightedGraph& g);

}  // namespace umc
