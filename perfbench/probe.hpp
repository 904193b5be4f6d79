#pragma once

// Outside-in layer probe of the traced benchmark executables.
//
// probe_wrap.cpp defines `__wrap_<symbol>` for each layer entry point below;
// the traced executables are linked with it and `-Wl,--wrap=<symbol>`, so
// every call that crosses an object-file boundary into one of these
// functions goes through a wrapper that timestamps it and forwards to the
// real function.
// Calls a translation unit makes to its own functions are not seen, which
// is why each layer is probed at a function other files call.
//
// Records are kept in memory and taken with probe_drain(); in an executable
// linked without the wrappers there are none. A process that has
// UMC_PERFBENCH_PROBE_OUT in its environment (the traced mincutd) writes its
// records to that file when it exits.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : int {
  kSchedulerJob = 0,  // server::FairScheduler job: Engine::execute + reply write
  kParseRequest,      // server::parse_request
  kSerialize,         // server::Response::serialize
  kParseResponse,     // server::parse_response
  kSupervisor,        // fault::SolveSupervisor::solve
  kPacking,           // mincut::tree_packing / tree_packing_resumable
  kTreeSolve,         // mincut::two_respecting_mincut (graph + tree overload)
  kOracleEval,        // mincut::evaluate_two_respecting
  kVerify,            // mincut::verify_mincut_result
};
inline constexpr int kLayerCount = 9;

struct ProbeCall {
  Layer layer = Layer::kSchedulerJob;
  int thread = 0;  // per-process thread index
  int depth = 0;   // probed calls enclosing this one on the same thread
  // std::chrono::steady_clock nanoseconds (CLOCK_MONOTONIC: comparable
  // between processes on one host).
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;   // time inside nested probed calls, same thread
  std::int64_t submit_ns = 0;  // scheduler jobs: when submit() was called
  std::string tenant;          // scheduler jobs

  [[nodiscard]] std::int64_t self_ns() const { return end_ns - begin_ns - child_ns; }
};

[[nodiscard]] std::int64_t probe_now_ns();

/// Records one call: from construction to destruction, on this thread.
class ProbeScope {
 public:
  explicit ProbeScope(Layer layer, std::int64_t submit_ns = 0, std::string tenant = {});
  ~ProbeScope();
  ProbeScope(const ProbeScope&) = delete;
  ProbeScope& operator=(const ProbeScope&) = delete;

 private:
  Layer layer_;
  std::int64_t submit_ns_;
  std::string tenant_;
  std::int64_t begin_ns_ = 0;
};

/// Takes every record made so far (and clears the buffer).
[[nodiscard]] std::vector<ProbeCall> probe_drain();

/// Line format shared by the traced daemon's exit dump and the harness.
void probe_write(std::ostream& os, const std::vector<ProbeCall>& calls);
[[nodiscard]] bool probe_read(std::istream& is, std::vector<ProbeCall>& calls);

}  // namespace perfbench
