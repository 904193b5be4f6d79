// Probe record store (see probe.hpp); the wrappers are in probe_wrap.cpp.

#include "probe.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <utility>

namespace perfbench {

namespace {

struct Store {
  std::mutex mu;
  std::vector<ProbeCall> calls;  // guarded by mu

  ~Store() {
    // The traced daemon exits by returning from main once its serve loop
    // has drained, so every worker has finished recording by now.
    const char* path = std::getenv("UMC_PERFBENCH_PROBE_OUT");
    if (path == nullptr) return;
    std::ofstream os(path);
    const std::lock_guard<std::mutex> lock(mu);
    probe_write(os, calls);
  }
};

Store& store() {
  static Store s;
  return s;
}

std::atomic<int> g_next_thread{0};
thread_local const int t_thread = g_next_thread.fetch_add(1);
// Child-time accumulators of the probed calls open on this thread.
thread_local std::vector<std::int64_t> t_open;

}  // namespace

std::int64_t probe_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ProbeScope::ProbeScope(Layer layer, std::int64_t submit_ns, std::string tenant)
    : layer_(layer), submit_ns_(submit_ns), tenant_(std::move(tenant)) {
  (void)store();  // constructed before the first record, so it outlives them
  t_open.push_back(0);
  begin_ns_ = probe_now_ns();
}

ProbeScope::~ProbeScope() {
  ProbeCall c;
  c.end_ns = probe_now_ns();
  c.begin_ns = begin_ns_;
  c.layer = layer_;
  c.thread = t_thread;
  c.child_ns = t_open.back();
  t_open.pop_back();
  c.depth = static_cast<int>(t_open.size());
  if (!t_open.empty()) t_open.back() += c.end_ns - c.begin_ns;
  c.submit_ns = submit_ns_;
  c.tenant = std::move(tenant_);
  Store& s = store();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.calls.push_back(std::move(c));
}

std::vector<ProbeCall> probe_drain() {
  Store& s = store();
  const std::lock_guard<std::mutex> lock(s.mu);
  return std::exchange(s.calls, {});
}

void probe_write(std::ostream& os, const std::vector<ProbeCall>& calls) {
  for (const ProbeCall& c : calls)
    os << static_cast<int>(c.layer) << ' ' << c.thread << ' ' << c.depth << ' ' << c.begin_ns
       << ' ' << c.end_ns << ' ' << c.child_ns << ' ' << c.submit_ns << ' '
       << (c.tenant.empty() ? "-" : c.tenant) << '\n';
}

bool probe_read(std::istream& is, std::vector<ProbeCall>& calls) {
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    ProbeCall c;
    int layer = -1;
    if (!(ls >> layer >> c.thread >> c.depth >> c.begin_ns >> c.end_ns >> c.child_ns >>
          c.submit_ns >> c.tenant) ||
        layer < 0 || layer >= kLayerCount)
      return false;
    c.layer = static_cast<Layer>(layer);
    if (c.tenant == "-") c.tenant.clear();
    calls.push_back(std::move(c));
  }
  return true;
}

}  // namespace perfbench
