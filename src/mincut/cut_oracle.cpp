#include "mincut/cut_oracle.hpp"

#include <tuple>
#include <utility>

#include "util/scratch.hpp"

namespace umc::mincut {

TwoRespectEval evaluate_two_respecting(const RootedTree& t) {
  const WeightedGraph& g = t.host();
  const NodeId n = g.n();
  const auto nn = static_cast<std::size_t>(n);
  const auto stride = nn + 1;
  UMC_ASSERT(n >= 2);

  // Preorder numbering: subtree(order[a]) is the position range [a, end[a]).
  const std::span<const NodeId> order = t.preorder();
  ScratchLease<std::vector<std::size_t>> pos_lease;
  std::vector<std::size_t>& pos = *pos_lease;
  pos.assign(nn, 0);
  ScratchLease<std::vector<std::size_t>> end_lease;
  std::vector<std::size_t>& end = *end_lease;
  end.assign(nn, 0);
  for (std::size_t a = 0; a < nn; ++a) {
    pos[static_cast<std::size_t>(order[a])] = a;
    end[a] = a + static_cast<std::size_t>(t.subtree_size(order[a]));
  }

  // Q[i][j] = total weight from positions [0, i) to positions [0, j), each
  // edge entered in both directions, so W(A, B) over two position ranges is
  // a four-term lookup and W(S, S) counts every edge inside S twice.
  ScratchLease<std::vector<Weight>> q_lease;
  std::vector<Weight>& Q = *q_lease;
  Q.assign(stride * stride, 0);
  for (const Edge& e : g.edges()) {
    const std::size_t pu = pos[static_cast<std::size_t>(e.u)];
    const std::size_t pv = pos[static_cast<std::size_t>(e.v)];
    Q[(pu + 1) * stride + pv + 1] += e.w;
    Q[(pv + 1) * stride + pu + 1] += e.w;
  }
  for (std::size_t i = 1; i <= nn; ++i) {
    const Weight* above = Q.data() + (i - 1) * stride;
    Weight* row = Q.data() + i * stride;
    Weight run = 0;
    for (std::size_t j = 1; j <= nn; ++j) {
      run += row[j];
      row[j] = above[j] + run;
    }
  }
  const auto W = [&](std::size_t a0, std::size_t a1, std::size_t b0, std::size_t b1) {
    return Q[a1 * stride + b1] - Q[a0 * stride + b1] - Q[a1 * stride + b0] + Q[a0 * stride + b0];
  };

  // Per position: inside = W(S, S) and cut1 = W(S, V) - W(S, S).
  ScratchLease<std::vector<Weight>> inside_lease;
  std::vector<Weight>& inside = *inside_lease;
  inside.assign(nn, 0);
  ScratchLease<std::vector<Weight>> cut1_lease;
  std::vector<Weight>& cut1 = *cut1_lease;
  cut1.assign(nn, 0);
  for (std::size_t a = 0; a < nn; ++a) {
    inside[a] = W(a, end[a], a, end[a]);
    cut1[a] = W(a, end[a], 0, nn) - inside[a];
  }

  // Candidates rank by (value, singles before pairs, min node id, max node
  // id): the first minimum of a scan over singles in node order, then pairs
  // in lexicographic node order, so the result is a pure function of the
  // tree and independent of the position order scanned here. The runner-up
  // is the second-smallest value of the multiset, order-free as well.
  Weight best = kInfWeight;
  Weight second = kInfWeight;
  NodeId bu = kNoNode;
  NodeId bv = kNoNode;
  // A pair arrives in position order; the node ids sort only when it is
  // kept or tied.
  const auto sorted = [](NodeId u, NodeId v) {
    return v != kNoNode && v < u ? std::pair{v, u} : std::pair{u, v};
  };
  const auto consider = [&](Weight val, NodeId u, NodeId v) {
    if (val < best) {
      second = best;
      best = val;
      std::tie(bu, bv) = sorted(u, v);
    } else if (val <= second) {
      second = val;
      if (val != best) return;
      const auto [lo, hi] = sorted(u, v);
      if (std::tuple{hi != kNoNode, lo, hi} < std::tuple{bv != kNoNode, bu, bv})
        std::tie(bu, bv) = std::pair{lo, hi};
    }
  };
  // Position 0 is the root, which has no parent edge.
  for (std::size_t a = 1; a < nn; ++a) {
    const NodeId u = order[a];
    const Weight ca = cut1[a];
    const std::size_t ea = end[a];
    consider(ca, u, kNoNode);
    // (a, ea) are a's descendants: nested pairs.
    for (std::size_t b = a + 1; b < ea; ++b)
      consider(ca - cut1[b] + 2 * (W(a, ea, b, end[b]) - inside[b]), u, order[b]);
    // [ea, n) are disjoint from S_a.
    for (std::size_t b = ea; b < nn; ++b)
      consider(ca + cut1[b] - 2 * W(a, ea, b, end[b]), u, order[b]);
  }
  UMC_ASSERT_MSG(bu != kNoNode, "a spanning tree always yields a 1-respecting candidate");

  TwoRespectEval out;
  out.best.value = best;
  out.best.e = t.parent_edge(bu);
  out.best.f = bv == kNoNode ? kNoEdge : t.parent_edge(bv);
  out.runner_up = second;
  out.side.assign(nn, false);
  const auto in_subtree = [&](NodeId top, std::size_t p) {
    const std::size_t a = pos[static_cast<std::size_t>(top)];
    return a <= p && p < end[a];
  };
  for (NodeId x = 0; x < n; ++x) {
    const std::size_t p = pos[static_cast<std::size_t>(x)];
    const bool in_u = in_subtree(bu, p);
    const bool in_v = bv != kNoNode && in_subtree(bv, p);
    out.side[static_cast<std::size_t>(x)] = in_u != in_v;  // XOR: cut_witness convention
  }
  return out;
}

}  // namespace umc::mincut
