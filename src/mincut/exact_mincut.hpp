#pragma once

// Exact weighted min-cut (Theorem 1): tree packing (Theorem 12) x the
// deterministic 2-respecting min-cut (Theorem 40). A poly(log n)-round
// Minor-Aggregation algorithm, compiled to CONGEST via Theorem 17:
// Õ(D+√n) rounds on general graphs (recovering Dory et al. [7]) and Õ(D)
// on excluded-minor graphs — universally optimal modulo shortcut
// construction.

#include <cstdint>
#include <string>
#include <vector>

#include "mincut/instance.hpp"
#include "mincut/solve_checkpoint.hpp"
#include "mincut/tree_packing.hpp"
#include "minoragg/ledger.hpp"
#include "util/rng.hpp"

namespace umc::mincut {

struct ExactMinCutResult {
  Weight value = kInfWeight;
  /// Defining tree edge(s) of the winning 2-respecting cut, as edge ids of
  /// the input graph (f == kNoEdge for a 1-respecting winner).
  EdgeId e = kNoEdge;
  EdgeId f = kNoEdge;
  /// Index of the packing tree the winner 2-respects.
  int winning_tree = -1;
  int num_trees = 0;
};

// ---------------------------------------------------------------------------
// The solve pipeline: ONE pipelined packing -> per-tree fan-out behind every
// exact entry point (plain, supervised with a checkpoint journal, and the
// stream's full tier). Packing and solving share one TaskGraph session: the
// producer (tree_packing, or tree_packing_resumable when a journal is
// attached) hands each tree to a solve task the moment its Borůvka
// iteration ends, so tree 0 solves while iteration 1 still packs. Every tree solves into a
// private Ledger and result slot, merged in tree-index order — the cut
// value, winning tree, and every charged counter are bit-identical at any
// thread width.
//
// The per-tree step is a mode, fixed by each caller:
//   kSimulated  orient the tree (Theorem 48) and run the deterministic
//               2-respecting solver (Theorem 40) on the Minor-Aggregation
//               simulator, charging its rounds — the reproduction path,
//               where simulated round counts are the product (exact_mincut,
//               and the supervisor as tools/fault_sweep runs it).
//   kHost       RootedTree + evaluate_two_respecting (mincut/cut_oracle.hpp),
//               the host-speed oracle over the same candidate set. The
//               Ledger then counts evaluations, not simulated rounds: one
//               width-invariant round plus a "host_tree_evals" bump per
//               tree (the packing's charges are unchanged). Used by the
//               serving paths: the stream's full tier and its rescue, and
//               mincutd's supervised SOLVE. O(n^2 + m) time and (n+1)^2
//               words of scratch per evaluating thread.
// Both modes consume the identical packing, so value, winning tree, tree
// count and the rng exit state agree; only the defining edge pair (e, f)
// may differ under in-tree value ties.

enum class TreeSolveMode {
  kSimulated,  // orient_tree + two_respecting_mincut, charged in MA rounds
  kHost,       // RootedTree + evaluate_two_respecting, one round per tree
};

struct PipelineResult {
  ExactMinCutResult best;
  /// The packing in emit order (edge ids of the input graph) and each
  /// tree's 2-respecting minimum — the warm state a stream lineage adopts.
  std::vector<std::vector<EdgeId>> trees;
  std::vector<Weight> tree_values;
};

/// Requires a connected graph with n >= 2 (n == 2 charges one round and
/// returns the single cut without packing). `num_threads` is the session
/// width.
///
/// Checkpoint-resumable solve: with `ckpt` non-null every committed unit is
/// journaled into it, so a crash_error thrown by `hook` (which fires only
/// then) or escaping the producer loses only in-flight work. Re-entering
/// with the same (graph, config, mode, seed) and the surviving `ckpt`
/// replays the journal and recomputes the rest; the result, `ledger`
/// charges and `rng` exit state are bit-identical to an uninterrupted run
/// no matter where (or whether) crashes struck. A crash propagates out
/// after every already-spawned tree solve finished committing — the
/// pipelined units are not thrown away with the exception. The
/// SolveSupervisor's exact tier is this loop.
[[nodiscard]] PipelineResult solve_pipeline(const WeightedGraph& g, Rng& rng,
                                            minoragg::Ledger& ledger, const PackingConfig& config,
                                            int num_threads, TreeSolveMode mode,
                                            SolveCheckpoint* ckpt = nullptr,
                                            const CrashHook& hook = nullptr);

/// Requires a connected graph with n >= 2. Randomness is used only by the
/// tree packing; the 2-respecting solver is deterministic. The pipeline in
/// kSimulated mode at the UMC_THREADS width.
[[nodiscard]] ExactMinCutResult exact_mincut(const WeightedGraph& g, Rng& rng,
                                             minoragg::Ledger& ledger,
                                             const PackingConfig& config = {});

/// Same, with an explicit thread width for the per-tree solves instead of
/// the UMC_THREADS knob (which is read once per process — this overload is
/// what width-sweep tests and benches use).
[[nodiscard]] ExactMinCutResult exact_mincut(const WeightedGraph& g, Rng& rng,
                                             minoragg::Ledger& ledger,
                                             const PackingConfig& config, int num_threads);

// ---------------------------------------------------------------------------
// Graceful degradation: guarded execution with runtime self-checks.
//
// A production deployment cannot afford to abort on a corrupted intermediate
// result (bit-flipped memory, a miscompiled kernel, a bug tripped by a rare
// topology). exact_mincut_guarded runs the Theorem 1 pipeline, optionally
// validates the answer with independent spot checks, and on ANY failure —
// a guard mismatch or an invariant_error escaping the fast path — falls
// back to the Θ(D + m) gather baseline (congest/gather_baseline.hpp) and
// returns a structured diagnosis instead of throwing.
//
// Guards (enabled by the UMC_SELF_CHECK env knob — "1"/"on" —, the
// config.self_check flag, or the CLI's --self-check):
//   * cut=cov spot check — materialize the winning (e, f) cut as a witness
//     bipartition and re-sum the crossing weights (Theorem 40's Cut/Cov
//     identity), which must reproduce the reported value;
//   * packing respect check — the winning tree index is in range and its
//     edge set is a spanning tree of g (RootedTree validation);
//   * oracle re-check — the host cut oracle (evaluate_two_respecting, an
//     implementation independent of the MA solver) re-evaluates the winning
//     tree and must reproduce the value, and the replayed packing (same
//     seed) yields the same tree count.

struct GuardConfig {
  /// Force self-checks on regardless of UMC_SELF_CHECK.
  bool self_check = false;
  /// Fault injection for tests and drills: silently corrupt the primary
  /// result before the guards run. With self-checks on, the guards must
  /// detect it and degrade; with them off, the corruption sails through —
  /// which is precisely what the knob buys.
  bool inject_result_corruption = false;
  PackingConfig packing;
};

struct MinCutDiagnosis {
  bool used_fallback = false;
  /// One structured line per failed guard ("cut-cov mismatch: ...").
  std::vector<std::string> failures;
  [[nodiscard]] std::string to_string() const;
};

struct GuardedMinCutResult {
  /// The answer served: the primary result's value, or the gather
  /// baseline's when the guards rejected the primary path.
  Weight value = kInfWeight;
  ExactMinCutResult primary;  // meaningful iff !diagnosis.used_fallback
  MinCutDiagnosis diagnosis;
  std::int64_t fallback_rounds = 0;  // gather baseline cost, if taken
};

/// True when the UMC_SELF_CHECK environment knob enables guard checks
/// (values "1" or "on"; read once per process).
[[nodiscard]] bool self_check_enabled();

/// The guard battery as a standalone oracle: validates `primary` against a
/// same-seed packing replay (PackingCache hit in the common case), the
/// witness re-sum, and the host-oracle re-evaluation of the winning tree. Returns one
/// structured line per failed guard — empty means certified. This is the
/// cross-tier verifier the SolveSupervisor and the differential fault sweep
/// use to certify whichever tier produced an exact answer.
[[nodiscard]] std::vector<std::string> verify_mincut_result(const WeightedGraph& g,
                                                            std::uint64_t seed,
                                                            const GuardConfig& config,
                                                            const ExactMinCutResult& primary);

/// Guarded entry point. Takes a seed (not an Rng&) so the packing can be
/// replayed deterministically for the guards. Never throws on corruption of
/// its own results; model violations degrade to the baseline.
[[nodiscard]] GuardedMinCutResult exact_mincut_guarded(const WeightedGraph& g,
                                                       std::uint64_t seed,
                                                       minoragg::Ledger& ledger,
                                                       const GuardConfig& config = {});

}  // namespace umc::mincut
