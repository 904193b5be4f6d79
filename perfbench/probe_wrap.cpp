// Link-time wrappers of the layer entry points (see probe.hpp).
//
// Each wrapper is declared with the asm label `__wrap_<mangled name>` and
// forwards to `__real_<mangled name>`; CMakeLists.txt reads the labels from
// this file to pass the matching `-Wl,--wrap=` flags. A member function is
// wrapped as a free function taking `this` first, which is the same call
// under the Itanium C++ ABI. If a wrapped signature changes, `__real_...`
// no longer resolves and the traced link fails instead of silently
// measuring nothing. The declarations at namespace scope give each wrapper
// external linkage under its label.

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fault/supervisor.hpp"
#include "mincut/cut_oracle.hpp"
#include "mincut/exact_mincut.hpp"
#include "mincut/tree_packing.hpp"
#include "mincut/two_respect.hpp"
#include "probe.hpp"
#include "server/protocol.hpp"
#include "server/scheduler.hpp"

namespace perfbench {

using umc::Expected;
using umc::Rng;
using umc::WeightedGraph;
using umc::minoragg::Ledger;
namespace fault = umc::fault;
namespace mincut = umc::mincut;
namespace server = umc::server;

server::Admit real_submit(server::FairScheduler* self, const std::string& tenant,
                          server::FairScheduler::Job job)
    __asm__("__real__ZN3umc6server13FairScheduler6submitERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt8functionIFvvEE");
server::Admit wrap_submit(server::FairScheduler* self, const std::string& tenant,
                          server::FairScheduler::Job job)
    __asm__("__wrap__ZN3umc6server13FairScheduler6submitERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt8functionIFvvEE");
server::Admit wrap_submit(server::FairScheduler* self, const std::string& tenant,
                          server::FairScheduler::Job job) {
  const std::int64_t submitted = probe_now_ns();
  return real_submit(self, tenant, [tenant, submitted, job = std::move(job)] {
    const ProbeScope scope(Layer::kSchedulerJob, submitted, tenant);
    job();
  });
}

Expected<server::Request> real_parse_request(std::string_view payload)
    __asm__("__real__ZN3umc6server13parse_requestESt17basic_string_viewIcSt11char_traitsIcEE");
Expected<server::Request> wrap_parse_request(std::string_view payload)
    __asm__("__wrap__ZN3umc6server13parse_requestESt17basic_string_viewIcSt11char_traitsIcEE");
Expected<server::Request> wrap_parse_request(std::string_view payload) {
  const ProbeScope scope(Layer::kParseRequest);
  return real_parse_request(payload);
}

std::string real_serialize(const server::Response* self)
    __asm__("__real__ZNK3umc6server8Response9serializeB5cxx11Ev");
std::string wrap_serialize(const server::Response* self)
    __asm__("__wrap__ZNK3umc6server8Response9serializeB5cxx11Ev");
std::string wrap_serialize(const server::Response* self) {
  const ProbeScope scope(Layer::kSerialize);
  return real_serialize(self);
}

Expected<server::Response> real_parse_response(std::string_view payload)
    __asm__("__real__ZN3umc6server14parse_responseESt17basic_string_viewIcSt11char_traitsIcEE");
Expected<server::Response> wrap_parse_response(std::string_view payload)
    __asm__("__wrap__ZN3umc6server14parse_responseESt17basic_string_viewIcSt11char_traitsIcEE");
Expected<server::Response> wrap_parse_response(std::string_view payload) {
  const ProbeScope scope(Layer::kParseResponse);
  return real_parse_response(payload);
}

fault::SolveReport real_supervise(const fault::SolveSupervisor* self, const WeightedGraph& g,
                                  const mincut::CrashHook& hook)
    __asm__("__real__ZNK3umc5fault15SolveSupervisor5solveERKNS_13WeightedGraphERKSt8functionIFvNS_6mincut10SolvePhaseElEE");
fault::SolveReport wrap_supervise(const fault::SolveSupervisor* self, const WeightedGraph& g,
                                  const mincut::CrashHook& hook)
    __asm__("__wrap__ZNK3umc5fault15SolveSupervisor5solveERKNS_13WeightedGraphERKSt8functionIFvNS_6mincut10SolvePhaseElEE");
fault::SolveReport wrap_supervise(const fault::SolveSupervisor* self, const WeightedGraph& g,
                                  const mincut::CrashHook& hook) {
  const ProbeScope scope(Layer::kSupervisor);
  return real_supervise(self, g, hook);
}

mincut::TreePacking real_packing(const WeightedGraph& g, Rng& rng, Ledger& ledger,
                                 const mincut::PackingConfig& config)
    __asm__("__real__ZN3umc6mincut12tree_packingERKNS_13WeightedGraphERNS_3RngERNS_8minoragg6LedgerERKNS0_13PackingConfigE");
mincut::TreePacking wrap_packing(const WeightedGraph& g, Rng& rng, Ledger& ledger,
                                 const mincut::PackingConfig& config)
    __asm__("__wrap__ZN3umc6mincut12tree_packingERKNS_13WeightedGraphERNS_3RngERNS_8minoragg6LedgerERKNS0_13PackingConfigE");
mincut::TreePacking wrap_packing(const WeightedGraph& g, Rng& rng, Ledger& ledger,
                                 const mincut::PackingConfig& config) {
  const ProbeScope scope(Layer::kPacking);
  return real_packing(g, rng, ledger, config);
}

mincut::TreePacking real_packing_sink(const WeightedGraph& g, Rng& rng, Ledger& ledger,
                                      const mincut::PackingConfig& config,
                                      const mincut::TreeSink& sink)
    __asm__("__real__ZN3umc6mincut12tree_packingERKNS_13WeightedGraphERNS_3RngERNS_8minoragg6LedgerERKNS0_13PackingConfigERKSt8functionIFvSt6vectorIiSaIiEEEE");
mincut::TreePacking wrap_packing_sink(const WeightedGraph& g, Rng& rng, Ledger& ledger,
                                      const mincut::PackingConfig& config,
                                      const mincut::TreeSink& sink)
    __asm__("__wrap__ZN3umc6mincut12tree_packingERKNS_13WeightedGraphERNS_3RngERNS_8minoragg6LedgerERKNS0_13PackingConfigERKSt8functionIFvSt6vectorIiSaIiEEEE");
mincut::TreePacking wrap_packing_sink(const WeightedGraph& g, Rng& rng, Ledger& ledger,
                                      const mincut::PackingConfig& config,
                                      const mincut::TreeSink& sink) {
  const ProbeScope scope(Layer::kPacking);
  return real_packing_sink(g, rng, ledger, config, sink);
}

mincut::TreePacking real_packing_resumable(const WeightedGraph& g, Rng& rng, Ledger& ledger,
                                           const mincut::PackingConfig& config,
                                           const mincut::TreeSink& sink,
                                           mincut::PackingCheckpoint& ckpt,
                                           const mincut::CrashHook& hook)
    __asm__("__real__ZN3umc6mincut22tree_packing_resumableERKNS_13WeightedGraphERNS_3RngERNS_8minoragg6LedgerERKNS0_13PackingConfigERKSt8functionIFvSt6vectorIiSaIiEEEERNS0_17PackingCheckpointERKSC_IFvNS0_10SolvePhaseElEE");
mincut::TreePacking wrap_packing_resumable(const WeightedGraph& g, Rng& rng, Ledger& ledger,
                                           const mincut::PackingConfig& config,
                                           const mincut::TreeSink& sink,
                                           mincut::PackingCheckpoint& ckpt,
                                           const mincut::CrashHook& hook)
    __asm__("__wrap__ZN3umc6mincut22tree_packing_resumableERKNS_13WeightedGraphERNS_3RngERNS_8minoragg6LedgerERKNS0_13PackingConfigERKSt8functionIFvSt6vectorIiSaIiEEEERNS0_17PackingCheckpointERKSC_IFvNS0_10SolvePhaseElEE");
mincut::TreePacking wrap_packing_resumable(const WeightedGraph& g, Rng& rng, Ledger& ledger,
                                           const mincut::PackingConfig& config,
                                           const mincut::TreeSink& sink,
                                           mincut::PackingCheckpoint& ckpt,
                                           const mincut::CrashHook& hook) {
  const ProbeScope scope(Layer::kPacking);
  return real_packing_resumable(g, rng, ledger, config, sink, ckpt, hook);
}

mincut::CutResult real_tree_solve(const WeightedGraph& g, std::span<const umc::EdgeId> tree,
                                  umc::NodeId root, Ledger& ledger)
    __asm__("__real__ZN3umc6mincut21two_respecting_mincutERKNS_13WeightedGraphESt4spanIKiLm18446744073709551615EEiRNS_8minoragg6LedgerE");
mincut::CutResult wrap_tree_solve(const WeightedGraph& g, std::span<const umc::EdgeId> tree,
                                  umc::NodeId root, Ledger& ledger)
    __asm__("__wrap__ZN3umc6mincut21two_respecting_mincutERKNS_13WeightedGraphESt4spanIKiLm18446744073709551615EEiRNS_8minoragg6LedgerE");
mincut::CutResult wrap_tree_solve(const WeightedGraph& g, std::span<const umc::EdgeId> tree,
                                  umc::NodeId root, Ledger& ledger) {
  const ProbeScope scope(Layer::kTreeSolve);
  return real_tree_solve(g, tree, root, ledger);
}

mincut::TwoRespectEval real_oracle(const umc::RootedTree& t)
    __asm__("__real__ZN3umc6mincut23evaluate_two_respectingERKNS_10RootedTreeE");
mincut::TwoRespectEval wrap_oracle(const umc::RootedTree& t)
    __asm__("__wrap__ZN3umc6mincut23evaluate_two_respectingERKNS_10RootedTreeE");
mincut::TwoRespectEval wrap_oracle(const umc::RootedTree& t) {
  const ProbeScope scope(Layer::kOracleEval);
  return real_oracle(t);
}

std::vector<std::string> real_verify(const WeightedGraph& g, std::uint64_t seed,
                                     const mincut::GuardConfig& config,
                                     const mincut::ExactMinCutResult& primary)
    __asm__("__real__ZN3umc6mincut20verify_mincut_resultB5cxx11ERKNS_13WeightedGraphEmRKNS0_11GuardConfigERKNS0_17ExactMinCutResultE");
std::vector<std::string> wrap_verify(const WeightedGraph& g, std::uint64_t seed,
                                     const mincut::GuardConfig& config,
                                     const mincut::ExactMinCutResult& primary)
    __asm__("__wrap__ZN3umc6mincut20verify_mincut_resultB5cxx11ERKNS_13WeightedGraphEmRKNS0_11GuardConfigERKNS0_17ExactMinCutResultE");
std::vector<std::string> wrap_verify(const WeightedGraph& g, std::uint64_t seed,
                                     const mincut::GuardConfig& config,
                                     const mincut::ExactMinCutResult& primary) {
  const ProbeScope scope(Layer::kVerify);
  return real_verify(g, seed, config, primary);
}

}  // namespace perfbench
