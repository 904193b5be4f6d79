#include "mincut/tree_packing.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>

#include "graph/properties.hpp"
#include "mincut/packing_cache.hpp"
#include "minoragg/boruvka.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tree/spanning.hpp"
#include "util/math.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace umc::mincut {

namespace {

#if !defined(UMC_OBS_DISABLED)
struct PackingMetrics {
  obs::Counter& resort_edges = obs::MetricsRegistry::global().counter(
      "umc_packing_resort_edges_total", {},
      "Edges re-costed by the greedy packing step (the producer and the "
      "stream's tree repair). The fast path re-costs all m at its first "
      "step, then only the <= n-1 edges whose load changed since the "
      "previous step; the reference recomputes all m every step.");
  obs::Counter& cache_hits = obs::MetricsRegistry::global().counter(
      "umc_packing_cache_hits_total", {},
      "tree_packing calls served by replaying a PackingCache entry.");
  obs::Counter& cache_misses = obs::MetricsRegistry::global().counter(
      "umc_packing_cache_misses_total", {},
      "tree_packing calls that computed a packing (cache off counts too).");
};

PackingMetrics& packing_metrics() {
  static PackingMetrics m;
  return m;
}
#endif

/// Binomial(w, p) sample: exact Bernoulli loop for small w, normal
/// approximation (clamped) for large w.
Weight binomial_sample(Weight w, double p, Rng& rng) {
  if (p >= 1.0) return w;
  if (p <= 0.0) return 0;
  if (w <= 64) {
    Weight s = 0;
    for (Weight i = 0; i < w; ++i) s += rng.next_bool(p) ? 1 : 0;
    return s;
  }
  const double mean = static_cast<double>(w) * p;
  const double sd = std::sqrt(mean * (1.0 - p));
  // Box-Muller from two uniform draws.
  const double u1 = std::max(1e-12, rng.next_real());
  const double u2 = rng.next_real();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  const double value = mean + sd * z;
  return std::clamp<Weight>(static_cast<Weight>(std::llround(value)), 0, w);
}

/// The cache a config resolves to: its session-scoped instance when set,
/// the process-wide one otherwise.
PackingCache& cache_for(const PackingConfig& config) {
  return config.cache != nullptr ? *config.cache : PackingCache::global();
}

}  // namespace

/// Folds every config field the producer branches on into the cache key.
/// chunk_min_edges and the cache pointer are deliberately absent: chunk
/// granularity cannot change any output, and the pointer selects where
/// entries live, not what they contain — packings computed under either
/// are interchangeable (see PackingConfig).
std::uint64_t packing_config_fingerprint(const PackingConfig& config) {
  std::uint64_t h = 0x7061636b636667ULL;  // "packcfg"
  h = mix64(h ^ std::bit_cast<std::uint64_t>(config.sample_c));
  h = mix64(h ^ std::bit_cast<std::uint64_t>(config.direct_threshold_c));
  h = mix64(h ^ static_cast<std::uint64_t>(config.max_trees));
  h = mix64(h ^ (config.use_fast_path ? 1ULL : 0ULL));
  return h;
}

GreedyPackingStep::GreedyPackingStep(const WeightedGraph& g, const PackingConfig& config)
    : g_(g), fast_(config.use_fast_path) {
  // Loads, costs, and the packer's DSU, worklists and chunk slots live on
  // thread-local arenas that keep their capacity across packing sessions,
  // so steady-state fast-path steps allocate only the returned tree.
  packer_->set_min_chunk_edges(static_cast<std::size_t>(std::max(config.chunk_min_edges, 1)));
  load_->assign(static_cast<std::size_t>(g.m()), 0);
  cost_->assign(static_cast<std::size_t>(g.m()), 0);
}

void GreedyPackingStep::add_load(EdgeId e) {
  UMC_ASSERT_MSG(!costed_, "loads are seeded before the first step");
  ++(*load_)[static_cast<std::size_t>(e)];
}

// cost = load / multiplicity, in fixed point (2^20) so Borůvka can use
// integer keys; ties are broken by edge id inside Borůvka.
void GreedyPackingStep::recost(std::size_t e) {
  (*cost_)[e] = ((*load_)[e] << 20) / g_.edges()[e].w;
}

std::vector<EdgeId> GreedyPackingStep::next(minoragg::Ledger& ledger) {
  if (!fast_ || !costed_) {
    // The reference re-costs every edge each step; the fast path only once,
    // then repairs the <= n-1 costs whose load changed.
    const auto m = static_cast<std::size_t>(g_.m());
    for (std::size_t e = 0; e < m; ++e) recost(e);
    costed_ = true;
#if !defined(UMC_OBS_DISABLED)
    packing_metrics().resort_edges.inc(static_cast<std::int64_t>(m));
#endif
  }
  std::vector<EdgeId> tree;
  if (fast_) {
    const BoruvkaPacker::Result r = packer_->run(g_, *cost_);
    // Replay the Minor-Aggregation producer's charges from the (identical)
    // phase structure: one round per selection phase, one final round that
    // observes the single supernode, one iteration bump per phase.
    ledger.charge(r.phases + 1);
    ledger.bump("boruvka_iterations", r.phases);
    tree.assign(r.tree.begin(), r.tree.end());
  } else {
    tree = minoragg::boruvka_mst(g_, *cost_, ledger);
  }
  for (const EdgeId e : tree) {
    const auto i = static_cast<std::size_t>(e);
    ++(*load_)[i];
    if (fast_) recost(i);
  }
#if !defined(UMC_OBS_DISABLED)
  if (fast_) packing_metrics().resort_edges.inc(static_cast<std::int64_t>(tree.size()));
#endif
  return tree;
}

namespace {

/// The producer. Journals each committed unit — the setup, then each greedy
/// iteration — into `ckpt`, firing `hook` just before the commit, and
/// charges each unit into its own ledger so a replayed prefix absorbs
/// exactly what the live run charged. When `ckpt` already holds work for
/// this (graph, config, entry rng state) — asserted — the committed prefix
/// is replayed through the sink and packing continues live from the first
/// uncommitted iteration; bit-equality with an uninterrupted run holds
/// because the setup and the greedy loop are deterministic given that
/// triple and charge_sequential is associative over the unit split. The
/// PackingCache is consulted only when `ckpt` is empty and populated on
/// completion. The front doors differ only in the journal they pass (their
/// caller's, or a throwaway one) and the span they open.
TreePacking pack(const WeightedGraph& g, Rng& rng, minoragg::Ledger& ledger,
                 const PackingConfig& config, const TreeSink& sink, PackingCheckpoint& ckpt,
                 const CrashHook& hook, [[maybe_unused]] const char* span) {
  UMC_ASSERT(g.n() >= 2);
  UMC_OBS_SPAN_VAR_L(obs_pack, span, "mincut", ledger.rounds());
  obs_pack.arg("n", g.n());
  obs_pack.arg("committed", ckpt.committed_iterations());

  PackingKey key;
  key.graph_fp = graph_fingerprint(g);
  key.config_fp = packing_config_fingerprint(config);
  key.rng_state = rng.state();
  if (ckpt.empty()) {
    ckpt.graph_fp = key.graph_fp;
    ckpt.config_fp = key.config_fp;
    ckpt.rng_entry = key.rng_state;
    if (config.use_cache) {
      if (const std::shared_ptr<const PackingEntry> hit = cache_for(config).lookup(key)) {
        // Replay: same trees in the same order, same charges, same generator
        // exit state — indistinguishable from a recompute, at output cost,
        // and strictly better than any journal.
#if !defined(UMC_OBS_DISABLED)
        packing_metrics().cache_hits.inc();
#endif
        obs_pack.arg("cache_hit", 1);
        for (const std::vector<EdgeId>& tree : hit->trees) sink(std::vector<EdgeId>(tree));
        ledger.charge_sequential(hit->charges);
        rng.set_state(hit->rng_after);
        TreePacking out;
        out.lambda_seed = hit->lambda_seed;
        out.sampled = hit->sampled;
        return out;
      }
    }
#if !defined(UMC_OBS_DISABLED)
    packing_metrics().cache_misses.inc();
#endif
  } else {
    // A journal binds to exactly one solve: resuming with a different
    // graph, config, or generator entry state is a caller bug, and replaying
    // across it would be a silent wrong answer.
    UMC_ASSERT_MSG(ckpt.graph_fp == key.graph_fp && ckpt.config_fp == key.config_fp &&
                       ckpt.rng_entry == key.rng_state,
                   "PackingCheckpoint resumed against a different (graph, config, seed)");
  }

  const std::int64_t logn = ceil_log2(static_cast<std::uint64_t>(g.n()) + 1) + 1;
  const std::int64_t logm = ceil_log2(static_cast<std::uint64_t>(g.m()) + 2) + 1;
  const auto cap = [&config](std::int64_t iters) {
    iters = std::max<std::int64_t>(iters, 1);
    if (config.max_trees > 0) iters = std::min<std::int64_t>(iters, config.max_trees);
    return static_cast<int>(iters);
  };

  if (!ckpt.setup_done) {
    minoragg::Ledger setup;
    // Seed lambda exactly (substitution for the [17] approx black box; see
    // header).
    const Weight lambda_seed = min_cut_value(g);
    setup.charge(logn * logn);  // the approx-min-cut's polylog round budget
    std::vector<Weight> multiplicity;
    bool sampled = false;
    int iterations = 0;
    if (static_cast<double>(lambda_seed) <= config.direct_threshold_c * static_cast<double>(logn)) {
      // Case (A): lambda = O(log n) — direct greedy packing on the full
      // multiplicities; nothing worth journaling beyond the iteration
      // target (rng untouched).
      iterations = cap(2 * lambda_seed * logm);
    } else {
      // Case (B): Karger-sample with p = C log n / lambda (the only
      // randomness of the whole solve), then pack the sample.
      sampled = true;
      const double base_p =
          config.sample_c * static_cast<double>(logn) / static_cast<double>(lambda_seed);
      for (double p = base_p;; p = std::min(1.0, 2 * p)) {
        multiplicity.assign(static_cast<std::size_t>(g.m()), 0);
        WeightedGraph sample(g.n());
        for (EdgeId e = 0; e < g.m(); ++e) {
          const Weight s = binomial_sample(g.edge(e).w, p, rng);
          multiplicity[static_cast<std::size_t>(e)] = s;
          if (s > 0) sample.add_edge(g.edge(e).u, g.edge(e).v, s);
        }
        if (!is_connected(sample)) {
          UMC_ASSERT_MSG(p < 1.0, "sampling at p = 1 keeps the graph connected");
          continue;  // resample denser (whp never needed at the theorem's C)
        }
        // The sampled min-cut value = Theta(C log n) whp; seed the
        // iteration count from it exactly (same substitution as above).
        iterations = cap(2 * min_cut_value(sample) * logm);
        break;
      }
    }
    if (hook) hook(SolvePhase::kPackingSetup, 0);
    ckpt.setup_done = true;
    ckpt.lambda_seed = lambda_seed;
    ckpt.sampled = sampled;
    ckpt.multiplicity = std::move(multiplicity);
    ckpt.rng_after_setup = rng.state();
    ckpt.setup_charges = setup;
    ckpt.iterations = iterations;
  } else {
    // Resume: the setup is journaled; skip straight past its randomness.
    rng.set_state(ckpt.rng_after_setup);
  }
  minoragg::Ledger pack_ledger;
  pack_ledger.charge_sequential(ckpt.setup_charges);

  // The packing substrate: g itself for case A; for case B the sample — the
  // original topology restricted to sampled edges, weighted by their
  // multiplicities — with its edge-id maps in both directions.
  WeightedGraph sample(ckpt.sampled ? g.n() : 0);
  std::vector<EdgeId> present;           // pack edge id -> original edge id
  std::vector<EdgeId> original_to_pack;  // inverse
  if (ckpt.sampled) {
    original_to_pack.assign(static_cast<std::size_t>(g.m()), kNoEdge);
    for (EdgeId e = 0; e < g.m(); ++e) {
      const Weight s = ckpt.multiplicity[static_cast<std::size_t>(e)];
      if (s == 0) continue;
      const EdgeId pack_id = sample.add_edge(g.edge(e).u, g.edge(e).v, s);
      original_to_pack[static_cast<std::size_t>(e)] = pack_id;
      present.push_back(e);
    }
  }
  GreedyPackingStep step(ckpt.sampled ? sample : g, config);

  // Replay the committed prefix (loads rebuilt from the journaled trees),
  // then continue live from the first uncommitted iteration.
  const int committed = ckpt.committed_iterations();
  for (int it = 0; it < committed; ++it) {
    const std::vector<EdgeId>& tree = ckpt.trees[static_cast<std::size_t>(it)];
    pack_ledger.charge_sequential(ckpt.iteration_charges[static_cast<std::size_t>(it)]);
    for (const EdgeId e : tree)
      step.add_load(ckpt.sampled ? original_to_pack[static_cast<std::size_t>(e)] : e);
    sink(std::vector<EdgeId>(tree));
  }
  for (int it = committed; it < ckpt.iterations; ++it) {
    UMC_OBS_SPAN_VAR_L(obs_iter, "mincut/packing_iter", "mincut", it);
    obs_iter.arg("pool_thread", ThreadPool::current_index());
    minoragg::Ledger iter_ledger;
    std::vector<EdgeId> tree = step.next(iter_ledger);
    iter_ledger.bump("packing_iterations");
    if (ckpt.sampled)
      for (EdgeId& e : tree) e = present[static_cast<std::size_t>(e)];
    if (hook) hook(SolvePhase::kPackingIteration, it);
    ckpt.trees.push_back(tree);
    ckpt.iteration_charges.push_back(iter_ledger);
    pack_ledger.charge_sequential(iter_ledger);
    sink(std::move(tree));
  }

  TreePacking out;
  out.lambda_seed = ckpt.lambda_seed;
  out.sampled = ckpt.sampled;
  if (config.use_cache) {
    auto entry = std::make_shared<PackingEntry>();
    entry->trees = ckpt.trees;
    entry->lambda_seed = out.lambda_seed;
    entry->sampled = out.sampled;
    entry->charges = pack_ledger;
    entry->rng_after = rng.state();
    cache_for(config).insert(key, std::move(entry));
  }
  ledger.charge_sequential(pack_ledger);
  return out;
}

}  // namespace

TreePacking tree_packing(const WeightedGraph& g, Rng& rng, minoragg::Ledger& ledger,
                         const PackingConfig& config) {
  TreePacking out;
  PackingCheckpoint journal;
  const TreePacking meta = pack(
      g, rng, ledger, config,
      [&out](std::vector<EdgeId> tree) { out.trees.push_back(std::move(tree)); }, journal,
      nullptr, "mincut/tree_packing");
  out.lambda_seed = meta.lambda_seed;
  out.sampled = meta.sampled;
  return out;
}

TreePacking tree_packing(const WeightedGraph& g, Rng& rng, minoragg::Ledger& ledger,
                         const PackingConfig& config, const TreeSink& sink) {
  PackingCheckpoint journal;
  return pack(g, rng, ledger, config, sink, journal, nullptr, "mincut/tree_packing");
}

TreePacking tree_packing_resumable(const WeightedGraph& g, Rng& rng, minoragg::Ledger& ledger,
                                   const PackingConfig& config, const TreeSink& sink,
                                   PackingCheckpoint& ckpt, const CrashHook& hook) {
  return pack(g, rng, ledger, config, sink, ckpt, hook, "mincut/tree_packing_resumable");
}

}  // namespace umc::mincut
