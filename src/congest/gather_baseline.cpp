#include "congest/gather_baseline.hpp"

#include <deque>

#include "congest/bfs_tree.hpp"
#include "congest/congest_net.hpp"
#include "graph/properties.hpp"
#include "util/assert.hpp"

namespace umc::congest {

GatherBaselineResult gather_exact_mincut(const WeightedGraph& g, NodeId root) {
  CongestNetwork net(g);
  const BfsTree bfs = build_bfs_tree(net, root);

  // Every edge descriptor (u, v, w — one O(log n)-bit message) is injected
  // at its smaller endpoint and pipelined up the BFS tree greedily.
  std::vector<std::deque<EdgeId>> queue(static_cast<std::size_t>(g.n()));
  for (EdgeId e = 0; e < g.m(); ++e)
    queue[static_cast<std::size_t>(std::min(g.edge(e).u, g.edge(e).v))].push_back(e);

  std::size_t at_root = queue[static_cast<std::size_t>(root)].size();
  while (at_root < static_cast<std::size_t>(g.m())) {
    for (NodeId v = 0; v < g.n(); ++v) {
      if (v == root || queue[static_cast<std::size_t>(v)].empty()) continue;
      const EdgeId desc = queue[static_cast<std::size_t>(v)].front();
      queue[static_cast<std::size_t>(v)].pop_front();
      net.send(v, bfs.parent_edge[static_cast<std::size_t>(v)], desc);
    }
    net.end_round();
    for (NodeId v = 0; v < g.n(); ++v) {
      for (const Message& m : net.inbox(v)) {
        if (v == root) {
          ++at_root;
        } else {
          queue[static_cast<std::size_t>(v)].push_back(static_cast<EdgeId>(m.payload));
        }
      }
    }
  }

  GatherBaselineResult out;
  out.rounds_used = net.rounds();
  out.min_cut_value = umc::min_cut_value(g);  // local computation at root
  return out;
}

}  // namespace umc::congest
