#include "mincut/exact_mincut.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <iterator>
#include <mutex>
#include <sstream>

#include "congest/gather_baseline.hpp"
#include "mincut/cut_oracle.hpp"
#include "mincut/two_respect.hpp"
#include "mincut/witness.hpp"
#include "minoragg/tree_primitives.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tree/rooted_tree.hpp"
#include "util/thread_pool.hpp"

namespace umc::mincut {

namespace {

#if !defined(UMC_OBS_DISABLED)
struct MincutTaskMetrics {
  obs::Counter& spawned = obs::MetricsRegistry::global().counter(
      "umc_mincut_tasks_spawned_total", {},
      "Tasks queued into exact_mincut TaskGraph sessions (tree solves plus "
      "intra-tree items).");
  obs::Counter& helped = obs::MetricsRegistry::global().counter(
      "umc_mincut_tasks_helped_total", {},
      "Tasks a joining thread claimed from another group's queue instead of "
      "blocking (help-first scheduling).");
  obs::Counter& sessions = obs::MetricsRegistry::global().counter(
      "umc_mincut_task_sessions_total", {},
      "Non-degraded exact_mincut TaskGraph sessions (width > 1).");
};

MincutTaskMetrics& mincut_task_metrics() {
  static MincutTaskMetrics m;
  return m;
}
#endif

// One tree's 2-respecting minimum in the caller's mode, charged into the
// tree's private ledger.
CutResult solve_tree(const WeightedGraph& g, const std::vector<EdgeId>& edges,
                     TreeSolveMode mode, std::int64_t index, minoragg::Ledger& ledger) {
  if (mode == TreeSolveMode::kHost) {
    UMC_OBS_SPAN_VAR_L(obs_tree, "mincut/host_tree_eval", "mincut", index);
    obs_tree.arg("pool_thread", ThreadPool::current_index());
    const RootedTree t(g, edges, /*root=*/0);
    ledger.charge(1);  // one aggregation-round equivalent
    ledger.bump("host_tree_evals");
    return evaluate_two_respecting(t).best;
  }
  UMC_OBS_SPAN_VAR_L(obs_tree, "mincut/two_respect_tree", "mincut", index);
  obs_tree.arg("pool_thread", ThreadPool::current_index());
  (void)minoragg::orient_tree(g, edges, /*root=*/0, ledger);
  return two_respecting_mincut(g, edges, /*root=*/0, ledger);
}

}  // namespace

// Every min-cut 2-respects some tree of the packing (whp); solve each tree
// and keep the best. Packing and solving are pipelined through ONE
// TaskGraph session sharing the pool: the session root runs the packing
// producer — whose per-phase Borůvka candidate folds themselves spawn as
// chunk tasks (see BoruvkaPacker) — and every tree it emits immediately
// becomes a solve task. Each solve gets a private Ledger and a disjoint
// result slot (deque elements have stable addresses, so the closures bind
// references taken before spawn), and everything merges below in
// tree-index order. `ledger` and `rng` are touched only by the producer
// during the session. The producer also records the packing into the
// PackingCache, which the guard battery's same-seed replay hits instead of
// repacking (see verify_mincut_result).
//
// With a journal attached there are two taps: trees whose solve already
// committed are filled from the journal instead of spawning, and every live
// solve commits its (result, ledger) under the journal mutex before
// finishing. A producer crash is captured so the already-spawned solves
// still run — and commit — before it propagates; a solve crash is captured
// by the session (which drains, then rethrows).
PipelineResult solve_pipeline(const WeightedGraph& g, Rng& rng, minoragg::Ledger& ledger,
                              const PackingConfig& config, int num_threads, TreeSolveMode mode,
                              SolveCheckpoint* ckpt, const CrashHook& hook) {
  UMC_ASSERT(g.n() >= 2);
  PipelineResult out;
  if (g.n() == 2) {
    // Single possible cut; one aggregation round reads it off.
    ledger.charge(1);
    out.best.value = g.total_weight();
    out.best.num_trees = 0;
    return out;
  }

  std::deque<std::vector<EdgeId>> trees;
  std::deque<CutResult> results;
  std::deque<minoragg::Ledger> tree_ledgers;
  std::mutex ckpt_mu;
  std::exception_ptr producer_crash;
  const TaskGraph::Stats stats = TaskGraph::session(std::max(1, num_threads), [&] {
    TaskGroup solves;
    const TreeSink sink = [&](std::vector<EdgeId> tree) {
      trees.push_back(std::move(tree));
      const std::vector<EdgeId>& edges = trees.back();
      CutResult& slot = results.emplace_back();
      minoragg::Ledger& tree_ledger = tree_ledgers.emplace_back();
      const auto index = static_cast<std::int64_t>(results.size()) - 1;
      if (ckpt != nullptr) {
        const auto i = static_cast<std::size_t>(index);
        const std::lock_guard<std::mutex> lock(ckpt_mu);
        ckpt->note_tree_count(results.size());
        if (ckpt->solved_mask[i] != 0) {
          slot = ckpt->solved[i];
          tree_ledger = ckpt->solve_charges[i];
          ++ckpt->replayed_units;
          return;  // journal replay: no solve task
        }
      }
      solves.spawn([&g, &edges, &slot, &tree_ledger, index, mode, ckpt, &ckpt_mu, &hook] {
        slot = solve_tree(g, edges, mode, index, tree_ledger);
        if (ckpt == nullptr) return;
        if (hook) hook(SolvePhase::kTreeSolve, index);
        const auto i = static_cast<std::size_t>(index);
        const std::lock_guard<std::mutex> lock(ckpt_mu);
        ckpt->solved[i] = slot;
        ckpt->solve_charges[i] = tree_ledger;
        ckpt->solved_mask[i] = 1;
      });
    };
    try {
      if (ckpt != nullptr) {
        (void)tree_packing_resumable(g, rng, ledger, config, sink, ckpt->packing, hook);
      } else {
        (void)tree_packing(g, rng, ledger, config, sink);
      }
    } catch (...) {
      producer_crash = std::current_exception();
    }
    solves.join();
  });
#if !defined(UMC_OBS_DISABLED)
  mincut_task_metrics().spawned.inc(stats.spawned);
  mincut_task_metrics().helped.inc(stats.helped);
  if (stats.width > 1) mincut_task_metrics().sessions.inc();
#else
  (void)stats;
#endif
  if (producer_crash) std::rethrow_exception(producer_crash);

  const std::size_t num_trees = results.size();
  out.best.num_trees = static_cast<int>(num_trees);
  out.tree_values.reserve(num_trees);
  for (std::size_t i = 0; i < num_trees; ++i) {
    // Sequential absorption in index order reproduces the seed's direct
    // charging: rounds sum either way, additive counters commute, and
    // "max_" counters take the same global max.
    ledger.charge_sequential(tree_ledgers[i]);
    const CutResult& r = results[i];
    out.tree_values.push_back(r.value);
    if (r.value < out.best.value) {  // strict: ties keep the lowest tree index
      out.best.value = r.value;
      out.best.e = r.e;
      out.best.f = r.f;
      out.best.winning_tree = static_cast<int>(i);
    }
  }
  UMC_ASSERT_MSG(out.best.value < kInfWeight, "a packing always yields at least one cut");
  out.trees.assign(std::make_move_iterator(trees.begin()), std::make_move_iterator(trees.end()));
  return out;
}

ExactMinCutResult exact_mincut(const WeightedGraph& g, Rng& rng, minoragg::Ledger& ledger,
                               const PackingConfig& config) {
  return exact_mincut(g, rng, ledger, config, ThreadPool::configured_threads());
}

ExactMinCutResult exact_mincut(const WeightedGraph& g, Rng& rng, minoragg::Ledger& ledger,
                               const PackingConfig& config, int num_threads) {
  UMC_OBS_SPAN_VAR_L(obs_exact, "mincut/exact", "mincut", ledger.rounds());
  obs_exact.arg("n", g.n());
  obs_exact.arg("m", g.m());
  return solve_pipeline(g, rng, ledger, config, num_threads, TreeSolveMode::kSimulated).best;
}

std::string MinCutDiagnosis::to_string() const {
  std::ostringstream os;
  os << (used_fallback ? "degraded to gather baseline" : "primary path healthy");
  for (const std::string& f : failures) os << "; " << f;
  return os.str();
}

bool self_check_enabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("UMC_SELF_CHECK");
    return env != nullptr && (std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0);
  }();
  return enabled;
}

// The guard battery against `primary`: one line per failure, empty means
// certified. Replays the packing from `seed` — the pipeline's randomness is
// only in the packing, so a same-seed replay must reproduce the winning
// tree, which the host oracle then re-evaluates independently of whichever
// per-tree mode produced the answer. The replay shares the primary solve's key (same graph, same entry
// rng state, same config), so it is a PackingCache hit: the recorded trees
// stream back at output cost instead of re-running the packing iterations.
std::vector<std::string> verify_mincut_result(const WeightedGraph& g, std::uint64_t seed,
                                              const GuardConfig& config,
                                              const ExactMinCutResult& primary) {
  std::vector<std::string> failures;
  if (g.n() == 2) {
    // Single possible cut: recompute it directly.
    if (primary.value != g.total_weight())
      failures.push_back("cut-cov mismatch: reported " + std::to_string(primary.value) +
                         ", direct recount " + std::to_string(g.total_weight()));
    return failures;
  }

  // Packing respect check: the winner must name a replayable packing tree.
  Rng replay(seed);
  minoragg::Ledger scratch;
  const TreePacking packing = tree_packing(g, replay, scratch, config.packing);
  if (primary.num_trees != static_cast<int>(packing.trees.size())) {
    failures.push_back("determinism: packing replay produced " +
                       std::to_string(packing.trees.size()) + " trees, primary saw " +
                       std::to_string(primary.num_trees));
    return failures;
  }
  if (primary.winning_tree < 0 || primary.winning_tree >= primary.num_trees) {
    failures.push_back("packing respect: winning tree index " +
                       std::to_string(primary.winning_tree) + " outside [0, " +
                       std::to_string(primary.num_trees) + ")");
    return failures;
  }
  const std::vector<EdgeId>& tree =
      packing.trees[static_cast<std::size_t>(primary.winning_tree)];

  try {
    // RootedTree construction validates the spanning-tree property.
    const RootedTree t(g, tree, /*root=*/0);

    // Cut=Cov spot check: materialize the bipartition and re-sum crossings.
    if (primary.e != kNoEdge) {
      const CutWitness w = cut_witness(t, CutResult{primary.value, primary.e, primary.f});
      if (w.value != primary.value)
        failures.push_back("cut-cov mismatch: reported " + std::to_string(primary.value) +
                           ", witness crossing sum " + std::to_string(w.value));
    } else {
      failures.push_back("packing respect: no defining tree edge reported");
    }

    // Oracle re-check: the host cut oracle — an implementation independent
    // of the MA solver — re-evaluates the winning tree; its minimum must
    // reproduce the reported value (the winner is that tree's minimum).
    const TwoRespectEval again = evaluate_two_respecting(t);
    if (again.best.value != primary.value)
      failures.push_back("oracle mismatch: host 2-respecting evaluation of winning tree gave " +
                         std::to_string(again.best.value) + ", primary reported " +
                         std::to_string(primary.value));
  } catch (const invariant_error& e) {
    failures.push_back(std::string("packing respect: ") + e.what());
  }
  return failures;
}

GuardedMinCutResult exact_mincut_guarded(const WeightedGraph& g, std::uint64_t seed,
                                         minoragg::Ledger& ledger, const GuardConfig& config) {
  GuardedMinCutResult out;
  UMC_OBS_SPAN_VAR_L(obs_guarded, "mincut/exact_guarded", "mincut", ledger.rounds());
  const bool check = config.self_check || self_check_enabled();
  try {
    Rng rng(seed);
    out.primary = exact_mincut(g, rng, ledger, config.packing);
    if (config.inject_result_corruption) {
      // Drill mode: silently corrupt the primary answer. Only the guard
      // battery can notice — exercising detection, not just degradation.
      out.primary.value += 1;
    }
    if (check) out.diagnosis.failures = verify_mincut_result(g, seed, config, out.primary);
  } catch (const invariant_error& e) {
    out.diagnosis.failures.push_back(std::string("invariant: ") + e.what());
  }

  if (out.diagnosis.failures.empty()) {
    out.value = out.primary.value;
    return out;
  }

  // Degrade: serve the Θ(D + m) gather baseline instead of aborting.
  UMC_OBS_SPAN_VAR_L(obs_fb, "mincut/gather_fallback", "mincut", ledger.rounds());
  out.diagnosis.used_fallback = true;
  const congest::GatherBaselineResult fb = congest::gather_exact_mincut(g, /*root=*/0);
  out.value = fb.min_cut_value;
  out.fallback_rounds = fb.rounds_used;
  ledger.charge(fb.rounds_used);  // honest accounting: the fallback is paid for
  ledger.bump("selfcheck_fallbacks");
  return out;
}

}  // namespace umc::mincut
