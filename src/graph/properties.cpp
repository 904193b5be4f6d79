#include "graph/properties.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

#include "graph/dsu.hpp"

namespace umc {

std::vector<int> bfs_distances(const WeightedGraph& g, NodeId src) {
  UMC_ASSERT(src >= 0 && src < g.n());
  std::vector<int> dist(static_cast<std::size_t>(g.n()), kUnreachable);
  std::queue<NodeId> q;
  dist[static_cast<std::size_t>(src)] = 0;
  q.push(src);
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    for (const AdjEntry& a : g.adj(v)) {
      if (dist[static_cast<std::size_t>(a.to)] == kUnreachable) {
        dist[static_cast<std::size_t>(a.to)] = dist[static_cast<std::size_t>(v)] + 1;
        q.push(a.to);
      }
    }
  }
  return dist;
}

bool is_connected(const WeightedGraph& g) {
  if (g.n() <= 1) return true;
  const std::vector<int> dist = bfs_distances(g, 0);
  return std::none_of(dist.begin(), dist.end(), [](int d) { return d == kUnreachable; });
}

Weight min_cut_value(const WeightedGraph& g) {
  UMC_ASSERT_MSG(g.n() >= 2, "a min-cut needs at least two nodes");
  // The contracted multigraph: k nodes, its edges (self-loops dropped,
  // parallel edges kept) and their CSR.
  NodeId k = g.n();
  std::vector<Edge> edges(g.edges().begin(), g.edges().end());
  std::vector<std::int32_t> offsets;
  std::vector<std::pair<NodeId, Weight>> adj;
  std::vector<Weight> attach;  // r(v): weight from scanned nodes into v
  std::vector<char> scanned;
  std::priority_queue<std::pair<Weight, NodeId>> heap;  // lazy: stale entries skipped
  Weight bound = std::numeric_limits<Weight>::max();
  while (k > 1) {
    const auto ks = static_cast<std::size_t>(k);
    offsets.assign(ks + 1, 0);
    attach.assign(ks, 0);  // the weighted degrees, for now
    for (const Edge& e : edges) {
      ++offsets[static_cast<std::size_t>(e.u) + 1];
      ++offsets[static_cast<std::size_t>(e.v) + 1];
      attach[static_cast<std::size_t>(e.u)] += e.w;
      attach[static_cast<std::size_t>(e.v)] += e.w;
    }
    // Every node's degree is a cut.
    bound = std::min(bound, *std::min_element(attach.begin(), attach.end()));
    for (std::size_t v = 0; v < ks; ++v) offsets[v + 1] += offsets[v];
    adj.resize(2 * edges.size());
    {
      std::vector<std::int32_t> fill(offsets.begin(), offsets.end() - 1);
      for (const Edge& e : edges) {
        adj[static_cast<std::size_t>(fill[static_cast<std::size_t>(e.u)]++)] = {e.v, e.w};
        adj[static_cast<std::size_t>(fill[static_cast<std::size_t>(e.v)]++)] = {e.u, e.w};
      }
    }

    // One maximum-adjacency ordering. When scanning u raises r(v) to q, the
    // local connectivity of u and v is at least q, so q >= bound lets them
    // merge without losing any cut below the bound.
    Dsu dsu(k);
    attach.assign(ks, 0);
    scanned.assign(ks, 0);
    heap.push({0, 0});
    NodeId prev = kNoNode, last = kNoNode, order = 0;
    while (!heap.empty()) {
      const auto [r, u] = heap.top();
      heap.pop();
      if (scanned[static_cast<std::size_t>(u)] != 0 || r != attach[static_cast<std::size_t>(u)])
        continue;
      scanned[static_cast<std::size_t>(u)] = 1;
      prev = last;
      last = u;
      ++order;
      for (std::int32_t i = offsets[static_cast<std::size_t>(u)];
           i < offsets[static_cast<std::size_t>(u) + 1]; ++i) {
        const auto [v, w] = adj[static_cast<std::size_t>(i)];
        if (scanned[static_cast<std::size_t>(v)] != 0) continue;
        Weight& rv = attach[static_cast<std::size_t>(v)];
        rv += w;
        if (rv >= bound) dsu.unite(u, v);
        heap.push({rv, v});
      }
    }
    if (order < k) return 0;  // the ordering never reached some node
    // Cut of the phase: `last` against the rest, = lambda(prev, last).
    bound = std::min(bound, attach[static_cast<std::size_t>(last)]);
    dsu.unite(prev, last);

    // Contract: renumber the DSU roots densely and drop self-loops.
    std::vector<NodeId> id(ks, kNoNode);
    NodeId next = 0;
    for (NodeId v = 0; v < k; ++v) {
      NodeId& root = id[static_cast<std::size_t>(dsu.find(v))];
      if (root == kNoNode) root = next++;
    }
    std::size_t kept = 0;
    for (const Edge& e : edges) {
      const NodeId a = id[static_cast<std::size_t>(dsu.find(e.u))];
      const NodeId b = id[static_cast<std::size_t>(dsu.find(e.v))];
      if (a != b) edges[kept++] = {a, b, e.w};
    }
    edges.resize(kept);
    k = next;
  }
  return bound;
}

int num_components(const WeightedGraph& g) {
  const std::vector<int> ids = component_ids(g);
  return ids.empty() ? 0 : 1 + *std::max_element(ids.begin(), ids.end());
}

std::vector<int> component_ids(const WeightedGraph& g) {
  std::vector<int> id(static_cast<std::size_t>(g.n()), -1);
  int next = 0;
  for (NodeId s = 0; s < g.n(); ++s) {
    if (id[static_cast<std::size_t>(s)] != -1) continue;
    id[static_cast<std::size_t>(s)] = next;
    std::queue<NodeId> q;
    q.push(s);
    while (!q.empty()) {
      const NodeId v = q.front();
      q.pop();
      for (const AdjEntry& a : g.adj(v)) {
        if (id[static_cast<std::size_t>(a.to)] == -1) {
          id[static_cast<std::size_t>(a.to)] = next;
          q.push(a.to);
        }
      }
    }
    ++next;
  }
  return id;
}

namespace {
/// Farthest node from src and its distance.
std::pair<NodeId, int> farthest(const WeightedGraph& g, NodeId src) {
  const std::vector<int> dist = bfs_distances(g, src);
  NodeId best = src;
  int best_d = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    const int d = dist[static_cast<std::size_t>(v)];
    UMC_ASSERT_MSG(d != kUnreachable, "diameter requires a connected graph");
    if (d > best_d) {
      best_d = d;
      best = v;
    }
  }
  return {best, best_d};
}
}  // namespace

int exact_diameter(const WeightedGraph& g) {
  UMC_ASSERT(g.n() >= 1);
  int diam = 0;
  for (NodeId v = 0; v < g.n(); ++v) diam = std::max(diam, farthest(g, v).second);
  return diam;
}

int approx_diameter(const WeightedGraph& g) {
  UMC_ASSERT(g.n() >= 1);
  const auto [far, d1] = farthest(g, 0);
  (void)d1;
  return farthest(g, far).second;
}

}  // namespace umc
