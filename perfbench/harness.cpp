// perfbench — runs one benchmark workload and prints its measurements as a
// single JSON object on stdout (run.py turns them into the reported result).
//
//   perfbench --workload serve_mixed|stream_drift|cold_solve --seed N
//             --seconds S --work-dir DIR [--daemon PATH] [--quick 1]
//
// Every workload is a closed loop: a caller sends its next request only
// after the previous one completed. A workload repeats one fixed unit of
// work, generated from the seed, until --seconds are used (at least once):
//
//   serve_mixed   one replay of four tenants' request scripts against a
//                 freshly spawned mincutd (PATH), one client thread per
//                 tenant, over the daemon's stdin/stdout frame protocol;
//   stream_drift  one stream::IncrementalMinCut lineage on the E26 graph
//                 absorbing kBatches batches of kOpsPerBatch updates,
//                 solving after each batch;
//   cold_solve    one pass over a suite of three graphs, each parsed from
//                 its edge list and solved by mincut::exact_mincut with the
//                 packing cache off.
//
// --quick 1 shrinks the serve_mixed and stream_drift units for the
// harness self-test (selftest.py); cold_solve has no smaller suite.
//
// The expected answer of every solve is computed with Stoer–Wagner before
// any timing starts. A wrong, uncertified, degraded or missing answer, or a
// unit whose value checksum or Minor-Aggregation round total differs from
// the first unit's, is a failure: the result reports it and the exit code
// is 1. The exit code is 2 for bad arguments and for a build that is not
// Release.
//
// Built as perfbench_traced (linked with probe_wrap.cpp), the harness also
// reports the per-layer metrics taken from the probe records.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/stoer_wagner.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "mincut/exact_mincut.hpp"
#include "mincut/packing_cache.hpp"
#include "server/protocol.hpp"
#include "stream/incremental.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "probe.hpp"

#ifndef UMC_BENCH_TRACED
#define UMC_BENCH_TRACED 0
#endif

namespace {

using namespace umc;
using perfbench::Layer;
using perfbench::ProbeCall;
using Clock = std::chrono::steady_clock;

// Linked with the layer wrappers: report the per-layer metrics too.
constexpr bool kTraced = UMC_BENCH_TRACED != 0;

// serve_mixed: four tenants (scheduling weights 1-4), each replaying
// kEpisodes episodes of 21 requests per unit (see tenant_script).
constexpr int kTenants = 4;
constexpr int kEpisodes = 4;
// stream_drift: the E26 graph and batch shape.
constexpr NodeId kStreamNodes = 96;
constexpr double kStreamAvgDegree = 8.0;
constexpr std::uint64_t kStreamGraphSeed = 21;
constexpr std::uint64_t kStreamLineageSeed = 2026;
constexpr int kBatches = 200;
constexpr int kOpsPerBatch = 8;
constexpr int kInsertLifetime = 16;
// cold_solve: the E21 instance (weighted ER n=96, avg degree 8, seed 7).
constexpr std::uint64_t kE21GraphSeed = 7;
// Set-up is repeated this many times per run and setup_s is their median;
// serve_mixed's set-up is a few milliseconds, so it takes more samples.
constexpr int kServeSetupSamples = 25;
constexpr int kSetupSamples = 3;

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}
double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double cpu_seconds(const rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}
double peak_rss_mib(const rusage& ru) {
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}
rusage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

std::string edge_list_text(const WeightedGraph& g) {
  std::ostringstream os;
  write_edge_list(os, g);
  return os.str();
}

/// What one run measured. Metrics are flat name -> value; run.py attaches
/// the units.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few causes, for the log
  std::vector<double> unit_wall_s;
  std::vector<double> setup_s;
  std::uint64_t checksum = 0;  // value fold of the first unit
  std::int64_t ma_rounds = 0;  // Ledger round total of the first unit
  double audit_ms = 0.0;
  std::map<std::string, double> metrics;

  void fail(std::string why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(why));
  }
  /// Every unit must fold the same values and charge the same rounds.
  void check_unit(std::uint64_t unit_checksum, std::int64_t unit_rounds) {
    if (unit_wall_s.size() == 1) {
      checksum = unit_checksum;
      ma_rounds = unit_rounds;
    } else if (unit_checksum != checksum || unit_rounds != ma_rounds) {
      fail("unit " + std::to_string(unit_wall_s.size()) + " drifted: checksum " +
           std::to_string(unit_checksum) + " rounds " + std::to_string(unit_rounds) +
           " vs first unit " + std::to_string(checksum) + " / " + std::to_string(ma_rounds));
    }
  }
};

/// Repeats a unit until `seconds` are used, always at least once: the next
/// unit starts only if the last one's wall time still fits.
template <class Unit>
void repeat_units(double seconds, Unit&& unit) {
  const Clock::time_point start = Clock::now();
  double last_s = 0.0;
  do {
    const Clock::time_point t0 = Clock::now();
    unit();
    last_s = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (std::chrono::duration<double>(Clock::now() - start).count() + last_s <= seconds);
}

std::vector<double> probe_ms(const std::vector<ProbeCall>& calls, Layer layer, bool self) {
  std::vector<double> out;
  for (const ProbeCall& c : calls)
    if (c.layer == layer)
      out.push_back(static_cast<double>(self ? c.self_ns() : c.end_ns - c.begin_ns) * 1e-6);
  return out;
}

/// Length of the union of the outermost probed intervals (any thread)
/// clipped to [lo, hi] — the part of that window some layer call covers.
double covered_ns(const std::vector<ProbeCall>& calls, std::int64_t lo, std::int64_t hi) {
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const ProbeCall& c : calls)
    if (c.depth == 0 && c.end_ns > lo && c.begin_ns < hi)
      iv.emplace_back(std::max(c.begin_ns, lo), std::min(c.end_ns, hi));
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  std::int64_t cur_lo = 0;
  std::int64_t cur_hi = -1;
  for (const auto& [a, b] : iv) {
    if (a > cur_hi) {
      if (cur_hi > cur_lo) total += static_cast<double>(cur_hi - cur_lo);
      cur_lo = a;
      cur_hi = b;
    } else {
      cur_hi = std::max(cur_hi, b);
    }
  }
  if (cur_hi > cur_lo) total += static_cast<double>(cur_hi - cur_lo);
  return total;
}

/// The mincut-layer metrics every workload reports, per unit of work.
void report_mincut_layers(Result& r, const std::vector<ProbeCall>& calls, double units) {
  const auto count = [&](Layer l) {
    return static_cast<double>(probe_ms(calls, l, false).size()) / units;
  };
  r.metrics["mincut.packing_ms_p50"] = median(probe_ms(calls, Layer::kPacking, /*self=*/true));
  r.metrics["mincut.packing_calls"] = count(Layer::kPacking);
  r.metrics["mincut.tree_solve_ms_p50"] = median(probe_ms(calls, Layer::kTreeSolve, false));
  r.metrics["mincut.tree_solves"] = count(Layer::kTreeSolve);
  r.metrics["mincut.oracle_eval_ms_p50"] = median(probe_ms(calls, Layer::kOracleEval, false));
  r.metrics["mincut.oracle_evals"] = count(Layer::kOracleEval);
  r.metrics["mincut.verify_ms_p50"] = median(probe_ms(calls, Layer::kVerify, false));
  r.metrics["mincut.verify_calls"] = count(Layer::kVerify);
  r.metrics["fault.supervisor_solve_ms_p50"] =
      median(probe_ms(calls, Layer::kSupervisor, false));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// serve_mixed

struct Step {
  server::Request req;
  std::string payload;
  Weight expected = 0;  // SOLVE: Stoer–Wagner value of the tenant's graph
};

std::string tenant_name(int t) { return "t" + std::to_string(t); }

/// One tenant's script, shaped like mincut_loadgen's "mixed" profile. Each
/// episode LOADs a fresh graph, then sends, in a seeded order, SOLVEs with
/// a seed from a four-seed pool (repeats hit the session packing cache) or
/// from the session stream, MUTATEs, a byte-identical re-LOAD and a STATS
/// probe. The graph sizes and the op counts are fixed: the tenants'
/// episodes together step through n = 12..28 evenly (edge density 1/4, as
/// the profile's), so every seed loads the daemon alike.
std::vector<Step> tenant_script(std::uint64_t seed, int t, int episodes) {
  Rng rng(mix64(seed ^ (0x7e4a47ULL + static_cast<std::uint64_t>(t))));
  std::uint64_t pool[4];
  for (std::uint64_t& s : pool) s = 1 + rng.next_below(1u << 20);
  std::vector<Step> steps;
  std::int64_t id = (static_cast<std::int64_t>(t) + 1) * 1'000'000;
  const auto push = [&](server::Request req) {
    req.id = ++id;
    Step s;
    s.payload = req.serialize();
    s.req = std::move(req);
    steps.push_back(std::move(s));
  };
  enum Kind { kSeededSolve, kStreamSolve, kMutate, kReload, kStats };
  std::vector<Kind> mix;
  mix.insert(mix.end(), 11, kSeededSolve);
  mix.insert(mix.end(), 3, kStreamSolve);
  mix.insert(mix.end(), 4, kMutate);
  mix.push_back(kReload);
  mix.push_back(kStats);
  for (int e = 0; e < episodes; ++e) {
    const int idx = e * kTenants + t;
    const auto n = static_cast<NodeId>(12 + 16 * idx / (kTenants * kEpisodes - 1));
    WeightedGraph g = random_connected(n, static_cast<EdgeId>(n * (n - 1) / 8), rng);
    randomize_weights(g, 1, 50, rng);
    server::Request load;
    load.op = server::Op::kLoad;
    load.tenant = tenant_name(t);
    load.weight = t + 1;
    load.body = edge_list_text(g);
    push(load);
    rng.shuffle(mix);
    for (const Kind kind : mix) {
      server::Request req;
      req.tenant = tenant_name(t);
      switch (kind) {
        case kSeededSolve:
          req.op = server::Op::kSolve;
          req.has_seed = true;
          req.seed = pool[rng.next_below(4)];
          break;
        case kStreamSolve:
          req.op = server::Op::kSolve;
          break;
        case kMutate:
          req.op = server::Op::kMutate;
          req.edge = static_cast<EdgeId>(rng.next_below(static_cast<std::uint64_t>(g.m())));
          req.new_weight = rng.next_in(1, 50);
          g.set_weight(req.edge, req.new_weight);
          break;
        case kReload:
          req = load;
          req.body = edge_list_text(g);
          break;
        case kStats:
          req.op = server::Op::kStats;
          req.tenant.clear();
          break;
      }
      push(std::move(req));
    }
  }
  return steps;
}

/// Stoer–Wagner expectation of every SOLVE, from a mirror of the tenant's
/// graph (per-tenant FIFO makes the mirror state at send time the state
/// the daemon solves).
void audit_script(std::vector<Step>& steps) {
  WeightedGraph mirror;
  for (Step& s : steps) {
    if (s.req.op == server::Op::kLoad) {
      std::istringstream is(s.req.body);
      mirror = read_edge_list(is);
    } else if (s.req.op == server::Op::kMutate) {
      mirror.set_weight(s.req.edge, s.req.new_weight);
    } else if (s.req.op == server::Op::kSolve) {
      s.expected = baseline::stoer_wagner(mirror).value;
    }
  }
}

bool write_all(int fd, const char* buf, std::size_t len) {
  while (len > 0) {
    const ssize_t w = write(fd, buf, len);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    buf += w;
    len -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, char* buf, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t r = read(fd, buf + got, len - got);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    got += static_cast<std::size_t>(r);
  }
  return true;
}

struct Reply {
  server::Response resp;
  Clock::time_point at;  // when its frame had been read
};

/// The client end of one daemon connection, shared by the client threads.
/// Writes are serialized; whichever waiting client finds no reader becomes
/// the reader and files every reply it reads under its id, so the
/// benchmark needs no thread beyond the clients.
class Wire {
 public:
  Wire(int wr, int rd) : wr_(wr), rd_(rd) {}

  bool send(const std::string& payload) {
    const auto len = static_cast<std::uint32_t>(payload.size());
    const char prefix[4] = {static_cast<char>(len & 0xff), static_cast<char>((len >> 8) & 0xff),
                            static_cast<char>((len >> 16) & 0xff),
                            static_cast<char>((len >> 24) & 0xff)};
    const std::lock_guard<std::mutex> lock(write_mu_);
    return write_all(wr_, prefix, 4) && write_all(wr_, payload.data(), payload.size());
  }

  /// The reply to `id`, or nullopt once the connection broke.
  std::optional<Reply> await(std::int64_t id) {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (const auto it = ready_.find(id); it != ready_.end()) {
        Reply r = std::move(it->second);
        ready_.erase(it);
        return r;
      }
      if (broken_) return std::nullopt;
      if (reading_) {
        cv_.wait(lk);
        continue;
      }
      reading_ = true;
      lk.unlock();
      std::optional<Reply> got = read_one();
      lk.lock();
      reading_ = false;
      if (got.has_value())
        ready_[got->resp.id] = std::move(*got);
      else
        broken_ = true;
      cv_.notify_all();
    }
  }

 private:
  std::optional<Reply> read_one() {
    char prefix[4];
    if (!read_all(rd_, prefix, 4)) return std::nullopt;
    std::uint32_t len = 0;
    for (int i = 3; i >= 0; --i) len = (len << 8) | static_cast<std::uint8_t>(prefix[i]);
    if (len > server::kMaxFrameBytes) return std::nullopt;
    std::string payload(len, '\0');
    if (len > 0 && !read_all(rd_, payload.data(), len)) return std::nullopt;
    const Clock::time_point at = Clock::now();
    Expected<server::Response> parsed = server::parse_response(payload);
    if (!parsed) return std::nullopt;
    return Reply{std::move(parsed.value()), at};
  }

  int wr_;
  int rd_;
  std::mutex write_mu_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool reading_ = false;                 // guarded by mu_
  bool broken_ = false;                  // guarded by mu_
  std::map<std::int64_t, Reply> ready_;  // guarded by mu_
};

struct Daemon {
  pid_t pid = -1;
  int wr = -1;
  int rd = -1;
  Clock::time_point spawned;
};

Daemon spawn_daemon(const std::string& path, const std::string& work_dir,
                    const std::string& probe_out) {
  int to_child[2];
  int from_child[2];
  if (pipe(to_child) != 0 || pipe(from_child) != 0) {
    std::perror("perfbench: pipe");
    std::exit(2);
  }
  Daemon d;
  d.spawned = Clock::now();
  d.pid = fork();
  if (d.pid < 0) {
    std::perror("perfbench: fork");
    std::exit(2);
  }
  if (d.pid == 0) {
    dup2(to_child[0], STDIN_FILENO);
    dup2(from_child[1], STDOUT_FILENO);
    close(to_child[0]);
    close(to_child[1]);
    close(from_child[0]);
    close(from_child[1]);
    const std::string log = work_dir + "/mincutd.stderr";
    const int log_fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) dup2(log_fd, STDERR_FILENO);
    if (!probe_out.empty()) setenv("UMC_PERFBENCH_PROBE_OUT", probe_out.c_str(), 1);
    // mincutd at its defaults: --width 2, verification on. UMC_THREADS is
    // inherited from the harness.
    execl(path.c_str(), path.c_str(), static_cast<char*>(nullptr));
    std::perror("perfbench: exec mincutd");
    _exit(127);
  }
  close(to_child[0]);
  close(from_child[1]);
  d.wr = to_child[1];
  d.rd = from_child[0];
  return d;
}

/// Hangs up (EOF drains the daemon) and reaps it; returns its usage.
rusage stop_daemon(Daemon& d, Result& r) {
  close(d.wr);
  rusage ru{};
  int status = 0;
  while (wait4(d.pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  close(d.rd);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) r.fail("mincutd did not exit cleanly");
  return ru;
}

struct Sample {
  server::Op op = server::Op::kStats;
  Clock::time_point sent;
  Clock::time_point got;
  double ms = 0.0;
};

/// Per-layer server timings of one replay, from the traced daemon's probe
/// records: each tenant's scheduler jobs in submit order are its
/// LOAD/MUTATE/SOLVE requests in send order (per-tenant FIFO, closed loop).
struct ServerTimings {
  std::vector<double> service_ms;  // SOLVE: Engine::execute
  std::vector<double> queue_ms;    // SOLVE: client latency - service
  std::vector<double> load_ms;     // LOAD: Engine::execute
  double covered_s = 0.0;          // submit -> job end (or reply), summed
  double latency_s = 0.0;          // client latency, summed
};

bool match_jobs(const std::vector<ProbeCall>& daemon_calls,
                const std::vector<std::vector<Sample>>& samples, ServerTimings& out) {
  std::map<std::string, std::vector<const ProbeCall*>> jobs;
  std::map<int, std::vector<const ProbeCall*>> serializes;  // by daemon thread
  for (const ProbeCall& c : daemon_calls) {
    if (c.layer == Layer::kSchedulerJob) jobs[c.tenant].push_back(&c);
    if (c.layer == Layer::kSerialize) serializes[c.thread].push_back(&c);
  }
  for (auto& [name, v] : jobs)
    std::sort(v.begin(), v.end(),
              [](const ProbeCall* a, const ProbeCall* b) { return a->submit_ns < b->submit_ns; });
  for (auto& [thread, v] : serializes)
    std::sort(v.begin(), v.end(),
              [](const ProbeCall* a, const ProbeCall* b) { return a->begin_ns < b->begin_ns; });
  for (int t = 0; t < kTenants; ++t) {
    const std::vector<const ProbeCall*>& tj = jobs[tenant_name(t)];
    std::size_t j = 0;
    for (const Sample& s : samples[static_cast<std::size_t>(t)]) {
      if (s.op == server::Op::kStats) continue;  // answered inline, not queued
      // The job is submitted after the request was sent and starts before
      // its reply is read; it may end just after, since it writes the
      // reply before its probe scope closes.
      if (j >= tj.size() || tj[j]->submit_ns < to_ns(s.sent) || tj[j]->begin_ns > to_ns(s.got))
        return false;
      const ProbeCall& job = *tj[j++];
      // The job is Engine::execute followed by the reply write, which
      // starts with Response::serialize on the same thread.
      std::int64_t exec_end = job.end_ns;
      const std::vector<const ProbeCall*>& ts = serializes[job.thread];
      const auto it =
          std::lower_bound(ts.begin(), ts.end(), job.begin_ns,
                           [](const ProbeCall* c, std::int64_t at) { return c->begin_ns < at; });
      if (it != ts.end() && (*it)->end_ns <= job.end_ns) exec_end = (*it)->begin_ns;
      const double exec_ms = static_cast<double>(exec_end - job.begin_ns) * 1e-6;
      if (s.op == server::Op::kSolve) {
        out.service_ms.push_back(exec_ms);
        out.queue_ms.push_back(s.ms - exec_ms);
      } else if (s.op == server::Op::kLoad) {
        out.load_ms.push_back(exec_ms);
      }
      out.covered_s +=
          static_cast<double>(std::min(job.end_ns, to_ns(s.got)) - job.submit_ns) * 1e-9;
      out.latency_s += s.ms * 1e-3;
    }
  }
  return true;
}

Result run_serve_mixed(std::uint64_t seed, double seconds, bool quick, const std::string& daemon,
                       const std::string& work_dir) {
  Result r;
  std::vector<std::vector<Step>> scripts;
  for (int t = 0; t < kTenants; ++t) scripts.push_back(tenant_script(seed, t, quick ? 1 : kEpisodes));
  const Clock::time_point audit0 = Clock::now();
  for (std::vector<Step>& s : scripts) audit_script(s);
  r.audit_ms = ms_between(audit0, Clock::now());

  const std::string probe_out = kTraced ? work_dir + "/mincutd_probe.txt" : std::string();
  std::vector<double> solve_ms;
  std::vector<ProbeCall> calls;  // daemon and client probe records of the replays
  ServerTimings timings;
  std::int64_t window_requests = 0;
  std::int64_t window_mutates = 0;
  std::int64_t solves = 0;
  std::int64_t non_exact = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_lookups = 0;
  std::int64_t rejected = 0;
  double window_s = 0.0;
  double daemon_cpu_s = 0.0;
  double daemon_life_s = 0.0;
  double client_cpu_s = 0.0;
  double peak_rss = 0.0;

  // One unit: spawn, every tenant LOADs (set-up ends when all four are
  // acked), then the four closed-loop clients replay the rest of their
  // scripts. Without `replay` only the set-up runs.
  const auto unit = [&](bool replay) {
    (void)perfbench::probe_drain();
    const double cpu0 = cpu_seconds(self_usage());
    Daemon d = spawn_daemon(daemon, work_dir, probe_out);
    Wire wire(d.wr, d.rd);
    std::vector<std::vector<Sample>> samples(kTenants);
    std::vector<std::vector<Reply>> replies(kTenants);
    std::mutex gate_mu;
    std::condition_variable gate_cv;
    int loaded = 0;  // guarded by gate_mu
    bool all_loaded = false;
    Clock::time_point setup_done;

    const auto client = [&](int t) {
      const std::vector<Step>& script = scripts[static_cast<std::size_t>(t)];
      const std::size_t steps = replay ? script.size() : 1;
      for (std::size_t k = 0; k < steps; ++k) {
        const Step& step = script[k];
        Sample s;
        s.op = step.req.op;
        s.sent = Clock::now();
        std::optional<Reply> reply;
        if (wire.send(step.payload)) reply = wire.await(step.req.id);
        if (!reply.has_value()) break;
        s.got = reply->at;
        s.ms = ms_between(s.sent, s.got);
        samples[static_cast<std::size_t>(t)].push_back(s);
        replies[static_cast<std::size_t>(t)].push_back(std::move(*reply));
        if (k == 0) {
          std::unique_lock<std::mutex> lk(gate_mu);
          if (++loaded == kTenants) {
            all_loaded = true;
            setup_done = Clock::now();
            gate_cv.notify_all();
          }
          gate_cv.wait(lk, [&] { return loaded >= kTenants; });
        }
      }
      // A client that broke off before its LOAD was acked releases the rest.
      const std::lock_guard<std::mutex> lk(gate_mu);
      if (loaded < kTenants) {
        loaded = kTenants;
        gate_cv.notify_all();
      }
    };
    std::vector<std::thread> others;
    for (int t = 1; t < kTenants; ++t) others.emplace_back(client, t);
    client(0);
    for (std::thread& th : others) th.join();
    const Clock::time_point replay_done = Clock::now();

    // The scheduler's rejection count, read after the replay.
    server::Request stats;
    stats.op = server::Op::kStats;
    stats.id = 1;
    std::optional<Reply> stats_reply;
    if (wire.send(stats.serialize())) stats_reply = wire.await(stats.id);
    if (!stats_reply.has_value()) r.fail("no reply to the closing STATS");
    const rusage ru = stop_daemon(d, r);
    const double life_s = std::chrono::duration<double>(Clock::now() - d.spawned).count();
    peak_rss = std::max(peak_rss, peak_rss_mib(ru));

    for (int t = 0; t < kTenants; ++t) {
      const auto sent = replay ? scripts[static_cast<std::size_t>(t)].size() : 1;
      const auto got = replies[static_cast<std::size_t>(t)].size();
      r.attempted += static_cast<std::int64_t>(sent);
      if (got < sent) {
        r.fail(tenant_name(t) + ": " + std::to_string(sent - got) + " request(s) unanswered");
        r.failed += static_cast<std::int64_t>(sent - got) - 1;
      }
    }
    if (!all_loaded) return;
    r.setup_s.push_back(std::chrono::duration<double>(setup_done - d.spawned).count());
    if (!replay) {
      for (int t = 0; t < kTenants; ++t) {
        const server::Response& resp = replies[static_cast<std::size_t>(t)][0].resp;
        if (!resp.ok) r.fail(tenant_name(t) + " LOAD: " + resp.error_code + " " + resp.message);
      }
      return;
    }
    if (stats_reply.has_value()) rejected += stats_reply->resp.field_int("rejected", 0);

    client_cpu_s += cpu_seconds(self_usage()) - cpu0;
    daemon_cpu_s += cpu_seconds(ru);
    daemon_life_s += life_s;
    const double wall_s = std::chrono::duration<double>(replay_done - setup_done).count();
    window_s += wall_s;
    r.unit_wall_s.push_back(wall_s);

    std::uint64_t checksum = 0x756d635f73727665ULL;
    std::int64_t rounds = 0;
    for (int t = 0; t < kTenants; ++t) {
      const std::vector<Step>& script = scripts[static_cast<std::size_t>(t)];
      const std::vector<Reply>& got = replies[static_cast<std::size_t>(t)];
      std::int64_t tenant_hits = 0;
      std::int64_t tenant_misses = 0;
      for (std::size_t k = 0; k < got.size(); ++k) {
        const Step& step = script[k];
        const server::Response& resp = got[k].resp;
        const std::string where = tenant_name(t) + " request " + std::to_string(step.req.id);
        if (!resp.ok) {
          r.fail(where + ": " + resp.error_code + " " + resp.message);
          continue;
        }
        if (k > 0) ++window_requests;
        if (step.req.op == server::Op::kMutate) ++window_mutates;
        if (step.req.op != server::Op::kSolve) continue;
        const auto tier_it = resp.fields.find("tier");
        const std::string tier = tier_it == resp.fields.end() ? "" : tier_it->second;
        ++solves;
        if (tier != "exact") ++non_exact;
        solve_ms.push_back(samples[static_cast<std::size_t>(t)][k].ms);
        const Weight value = resp.field_int("value", -1);
        checksum = mix64(checksum ^ static_cast<std::uint64_t>(value));
        rounds += resp.field_int("rounds", 0);
        tenant_hits = resp.field_int("cache_hits", 0);
        tenant_misses = resp.field_int("cache_misses", 0);
        if (value != step.expected)
          r.fail(where + ": value " + std::to_string(value) + ", Stoer-Wagner " +
                 std::to_string(step.expected));
        else if (resp.field_int("certified", 0) != 1)
          r.fail(where + ": uncertified answer");
        else if (tier != "exact" && tier != "checkpoint-replay")
          r.fail(where + ": degraded answer (tier " + tier + ")");
      }
      // The reply fields are the session's lifetime cache totals.
      cache_hits += tenant_hits;
      cache_lookups += tenant_hits + tenant_misses;
    }
    r.check_unit(checksum, rounds);

    if (!kTraced) return;
    std::vector<ProbeCall> daemon_calls;
    std::ifstream is(probe_out);
    if (!is || !perfbench::probe_read(is, daemon_calls)) {
      r.fail("cannot read the traced daemon's probe records");
      return;
    }
    if (!match_jobs(daemon_calls, samples, timings))
      r.fail("the daemon's scheduler jobs do not match the requests sent");
    std::vector<ProbeCall> client_calls = perfbench::probe_drain();
    calls.insert(calls.end(), std::make_move_iterator(daemon_calls.begin()),
                 std::make_move_iterator(daemon_calls.end()));
    calls.insert(calls.end(), std::make_move_iterator(client_calls.begin()),
                 std::make_move_iterator(client_calls.end()));
  };

  repeat_units(seconds, [&] { unit(/*replay=*/true); });
  while (r.failed == 0 && r.setup_s.size() < static_cast<std::size_t>(kServeSetupSamples))
    unit(/*replay=*/false);

  r.metrics["throughput_rps"] = static_cast<double>(window_requests) / window_s;
  r.metrics["updates_per_s"] = static_cast<double>(window_mutates) / window_s;
  r.metrics["solve_p50_ms"] = quantile(solve_ms, 0.5);
  r.metrics["solve_p95_ms"] = quantile(solve_ms, 0.95);
  r.metrics["solve_samples"] = static_cast<double>(solve_ms.size());
  r.metrics["peak_rss_mb"] = peak_rss;
  if (!kTraced) return r;
  const double units = static_cast<double>(r.unit_wall_s.size());
  report_mincut_layers(r, calls, units);
  r.metrics["server.solve_service_ms_p50"] = median(timings.service_ms);
  r.metrics["server.queue_wait_ms_p50"] = quantile(timings.queue_ms, 0.5);
  r.metrics["server.queue_wait_ms_p95"] = quantile(timings.queue_ms, 0.95);
  r.metrics["server.load_ms_p50"] = median(timings.load_ms);
  const auto us = [&](Layer l) { return median(probe_ms(calls, l, false)) * 1e3; };
  r.metrics["server.frame_us"] =
      us(Layer::kParseRequest) + us(Layer::kSerialize) + us(Layer::kParseResponse);
  r.metrics["server.cores_busy"] = daemon_cpu_s / daemon_life_s;
  r.metrics["server.scheduler_rejected"] = static_cast<double>(rejected) / units;
  r.metrics["fault.non_exact_tier_share"] =
      ratio(static_cast<double>(non_exact), static_cast<double>(solves));
  r.metrics["mincut.packing_cache_hit_ratio"] =
      ratio(static_cast<double>(cache_hits), static_cast<double>(cache_lookups));
  r.metrics["host.cores_busy"] = (client_cpu_s + daemon_cpu_s) / daemon_life_s;
  r.metrics["trace.coverage"] = timings.covered_s / timings.latency_s;
  return r;
}

// ---------------------------------------------------------------------------
// stream_drift

WeightedGraph e26_graph() {
  Rng rng(kStreamGraphSeed);
  WeightedGraph g = erdos_renyi_connected(
      kStreamNodes, kStreamAvgDegree / static_cast<double>(kStreamNodes - 1), rng);
  randomize_weights(g, 1, 100, rng);
  return g;
}

/// The drift stream. Every batch holds kOpsPerBatch ops in a seeded order:
/// one insert of a light edge, one delete of the edge inserted
/// kInsertLifetime batches earlier (a reweight while there is none yet), and
/// small-delta reweights of random live edges. Deleting only inserted edges
/// keeps the graph connected; once a re-pack has put them into trees, their
/// deletion breaks trees that must be repaired. A mirror StreamGraph
/// assigns slots exactly as the solver's own StreamGraph will. `expected`
/// receives the Stoer–Wagner value after each batch.
std::vector<stream::UpdateBatch> drift_stream(const WeightedGraph& base, std::uint64_t seed,
                                              int count, std::vector<Weight>& expected) {
  enum Kind { kReweight, kInsert, kDelete };
  Rng rng(mix64(seed ^ 0xd21f7ULL));
  stream::StreamGraph mirror(base);
  std::deque<EdgeId> inserted;  // live slots of inserted edges, oldest first
  std::vector<stream::UpdateBatch> batches;
  while (static_cast<int>(batches.size()) < count) {
    std::vector<EdgeId> live;
    for (EdgeId s = 0; s < mirror.slots(); ++s)
      if (mirror.alive(s)) live.push_back(s);
    std::vector<Weight> w(static_cast<std::size_t>(mirror.slots()));
    for (const EdgeId s : live) w[static_cast<std::size_t>(s)] = mirror.weight(s);
    std::vector<Kind> kinds(kOpsPerBatch, kReweight);
    kinds[0] = kInsert;
    if (static_cast<int>(inserted.size()) >= kInsertLifetime) kinds[1] = kDelete;
    rng.shuffle(kinds);
    stream::UpdateBatch batch;
    for (const Kind kind : kinds) {
      if (kind == kDelete) {
        const EdgeId e = inserted.front();
        inserted.pop_front();
        batch.erase(e);
        live.erase(std::find(live.begin(), live.end(), e));
      } else if (kind == kInsert) {
        const auto u = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(mirror.n())));
        auto v = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(mirror.n() - 1)));
        if (v >= u) ++v;
        batch.insert(u, v, rng.next_in(1, 10));
      } else {
        const EdgeId e = live[rng.next_below(live.size())];
        Weight& we = w[static_cast<std::size_t>(e)];
        const Weight delta = rng.next_in(1, 3);
        we = rng.next_bool(0.5) ? std::max<Weight>(1, we - delta) : std::min<Weight>(100, we + delta);
        batch.reweight(e, we);
      }
    }
    const Expected<stream::BatchDelta> delta = mirror.apply(batch);
    if (!delta.has_value()) {
      std::fprintf(stderr, "perfbench: drift batch rejected: %s\n",
                   delta.error().to_string().c_str());
      std::exit(2);
    }
    for (const stream::AppliedOp& op : delta.value().ops)
      if (op.kind == stream::UpdateKind::kInsert) inserted.push_back(op.slot);
    expected.push_back(baseline::stoer_wagner(mirror.current()).value);
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// The lineage mincutd --incremental builds for a session. Its seed is
/// fixed, as mincutd derives it from its own --seed and the tenant name;
/// the workload seed shapes only the update stream.
stream::StreamConfig drift_config(mincut::PackingCache& cache) {
  stream::StreamConfig sc;
  sc.seed = kStreamLineageSeed;
  sc.num_threads = 1;
  sc.packing.max_trees = 16;
  sc.packing.cache = &cache;
  sc.verify_full = true;
  return sc;
}

Result run_stream_drift(std::uint64_t seed, double seconds, bool quick) {
  Result r;
  const WeightedGraph base = e26_graph();
  const Clock::time_point audit0 = Clock::now();
  std::vector<Weight> expected;
  const Weight base_value = baseline::stoer_wagner(base).value;
  const std::vector<stream::UpdateBatch> batches =
      drift_stream(base, seed, quick ? kBatches / 8 : kBatches, expected);
  r.audit_ms = ms_between(audit0, Clock::now());

  std::vector<double> solve_ms;
  std::vector<double> apply_ms;
  std::vector<double> warm_ms;
  std::vector<double> full_ms;
  std::vector<ProbeCall> calls;
  stream::StreamCounters total{};
  std::int64_t ops = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_lookups = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double covered_s = 0.0;

  // Set-up: construct the lineage and answer its first (cold) solve.
  const auto setup = [&](mincut::PackingCache& cache) {
    const Clock::time_point t0 = Clock::now();
    auto inc = std::make_unique<stream::IncrementalMinCut>(base, drift_config(cache));
    const stream::StreamSolveReport rep = inc->solve();
    r.setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    ++r.attempted;
    if (rep.value != base_value || !rep.certified) r.fail("cold solve: wrong or uncertified");
    return inc;
  };

  const auto unit = [&] {
    mincut::PackingCache cache;
    const std::unique_ptr<stream::IncrementalMinCut> inc = setup(cache);
    (void)perfbench::probe_drain();  // the set-up is not part of the unit
    std::uint64_t checksum = 0x756d635f45323661ULL;
    std::int64_t rounds = 0;
    double unit_s = 0.0;
    const double cpu0 = cpu_seconds(self_usage());
    for (std::size_t b = 0; b < batches.size(); ++b) {
      const Clock::time_point t0 = Clock::now();
      const Expected<stream::BatchDelta> applied = inc->apply(batches[b]);
      const Clock::time_point t1 = Clock::now();
      const stream::StreamSolveReport rep = inc->solve();
      const Clock::time_point t2 = Clock::now();
      ++r.attempted;
      ops += static_cast<std::int64_t>(batches[b].size());
      unit_s += std::chrono::duration<double>(t2 - t0).count();
      solve_ms.push_back(ms_between(t1, t2));
      apply_ms.push_back(ms_between(t0, t1));
      (rep.tier == stream::StreamTier::kFullSolve ? full_ms : warm_ms).push_back(ms_between(t1, t2));
      checksum = mix64(checksum ^ static_cast<std::uint64_t>(rep.value));
      rounds += rep.ledger.rounds();
      if (!applied.has_value())
        r.fail("batch " + std::to_string(b) + " rejected: " + applied.error().to_string());
      else if (rep.value != expected[b])
        r.fail("batch " + std::to_string(b) + ": value " + std::to_string(rep.value) +
               ", Stoer-Wagner " + std::to_string(expected[b]));
      else if (!rep.certified)
        r.fail("batch " + std::to_string(b) + ": uncertified answer");
      if (kTraced) {
        std::vector<ProbeCall> batch_calls = perfbench::probe_drain();
        covered_s += std::chrono::duration<double>(t1 - t0).count() +
                     covered_ns(batch_calls, to_ns(t1), to_ns(t2)) * 1e-9;
        calls.insert(calls.end(), std::make_move_iterator(batch_calls.begin()),
                     std::make_move_iterator(batch_calls.end()));
      }
    }
    cpu_s += cpu_seconds(self_usage()) - cpu0;
    wall_s += unit_s;
    r.unit_wall_s.push_back(unit_s);
    r.check_unit(checksum, rounds);
    const stream::StreamCounters& c = inc->counters();
    total.solves += c.solves - 1;  // not the set-up's cold solve (a warm miss)
    total.warm_hits += c.warm_hits;
    total.fallbacks += c.fallbacks;
    total.trees_repaired += c.trees_repaired;
    total.trees_resolved += c.trees_resolved;
    total.trees_skipped += c.trees_skipped;
    cache_hits += cache.hits();
    cache_lookups += cache.hits() + cache.misses();
  };

  repeat_units(seconds, unit);
  while (r.setup_s.size() < static_cast<std::size_t>(kSetupSamples)) {
    mincut::PackingCache cache;
    (void)setup(cache);
  }

  const auto batches_run = static_cast<double>(solve_ms.size());
  r.metrics["throughput_rps"] = batches_run / wall_s;
  r.metrics["updates_per_s"] = static_cast<double>(ops) / wall_s;
  r.metrics["solve_p50_ms"] = quantile(solve_ms, 0.5);
  r.metrics["solve_p95_ms"] = quantile(solve_ms, 0.95);
  r.metrics["solve_samples"] = batches_run;
  r.metrics["peak_rss_mb"] = peak_rss_mib(self_usage());
  if (!kTraced) return r;
  const auto units = static_cast<double>(r.unit_wall_s.size());
  report_mincut_layers(r, calls, units);
  r.metrics["mincut.packing_cache_hit_ratio"] =
      ratio(static_cast<double>(cache_hits), static_cast<double>(cache_lookups));
  r.metrics["stream.apply_ms_p50"] = median(apply_ms);
  r.metrics["stream.warm_solve_ms_p50"] = median(warm_ms);
  r.metrics["stream.full_solve_ms_p50"] = median(full_ms);
  r.metrics["stream.warm_hit_ratio"] =
      ratio(static_cast<double>(total.warm_hits), static_cast<double>(total.solves));
  r.metrics["stream.tree_skip_ratio"] =
      ratio(static_cast<double>(total.trees_skipped),
            static_cast<double>(total.trees_skipped + total.trees_resolved));
  r.metrics["stream.trees_repaired"] = static_cast<double>(total.trees_repaired) / units;
  r.metrics["stream.fallback_ratio"] =
      ratio(static_cast<double>(total.fallbacks),
            static_cast<double>(total.warm_hits + total.fallbacks));
  r.metrics["host.cores_busy"] = cpu_s / wall_s;
  r.metrics["trace.coverage"] = covered_s / wall_s;
  return r;
}

// ---------------------------------------------------------------------------
// cold_solve

struct Instance {
  std::string name;
  std::string text;  // edge list (graph/io format)
  EdgeId m = 0;
  std::uint64_t packing_seed = 0;
  Weight expected = 0;
};

/// The fixed reproduction suite: the E21 instance with the E22 packing seed
/// (sampled packing, 240 trees), a weighted planar grid (weights 1-10, so
/// its min cut is below the direct-packing threshold) and a dense graph
/// whose min cut is far above it, so its packing samples too. Graphs and
/// packing seeds are fixed because a cold solve's time swings by tens of
/// percent with the sampled packing; the workload seed is not used.
std::vector<Instance> cold_suite() {
  std::vector<Instance> suite;
  const auto add = [&](std::string name, const WeightedGraph& g, std::uint64_t packing_seed) {
    suite.push_back({std::move(name), edge_list_text(g), g.m(), packing_seed, 0});
  };
  {
    Rng rng(kE21GraphSeed);
    WeightedGraph g = erdos_renyi_connected(96, 8.0 / 95.0, rng);
    randomize_weights(g, 1, 100, rng);
    add("e21_er96", g, kE21GraphSeed);
  }
  {
    Rng rng(0x67a1dULL);
    WeightedGraph g = random_planar_grid(10, 10, 0.3, rng);
    randomize_weights(g, 1, 10, rng);
    add("planar_grid100", g, 0x67a1dULL);
  }
  {
    Rng rng(0xde75eULL);
    WeightedGraph g = erdos_renyi_connected(40, 0.5, rng);
    randomize_weights(g, 1, 50, rng);
    add("dense_er40", g, 0xde75eULL);
  }
  return suite;
}

Result run_cold_solve(double seconds) {
  Result r;
  mincut::PackingConfig config;
  config.use_cache = false;

  // Set-up: generate the suite and warm the thread pool with one small
  // solve at the run's width.
  std::vector<Instance> suite;
  for (int i = 0; i < kSetupSamples; ++i) {
    const Clock::time_point t0 = Clock::now();
    suite = cold_suite();
    Rng warm_rng(1);
    const WeightedGraph warm = erdos_renyi_connected(16, 0.5, warm_rng);
    minoragg::Ledger ledger;
    (void)mincut::exact_mincut(warm, warm_rng, ledger, config);
    r.setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }

  const Clock::time_point audit0 = Clock::now();
  for (Instance& inst : suite) {
    std::istringstream is(inst.text);
    inst.expected = baseline::stoer_wagner(read_edge_list(is)).value;
  }
  r.audit_ms = ms_between(audit0, Clock::now());

  std::vector<double> solve_ms;
  std::vector<ProbeCall> calls;
  std::int64_t edges = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double covered_s = 0.0;

  const auto unit = [&] {
    (void)perfbench::probe_drain();
    std::uint64_t checksum = 0x756d635f45323163ULL;
    std::int64_t rounds = 0;
    const double cpu0 = cpu_seconds(self_usage());
    const Clock::time_point u0 = Clock::now();
    for (const Instance& inst : suite) {
      const Clock::time_point t0 = Clock::now();
      std::istringstream is(inst.text);
      Expected<WeightedGraph> g = try_read_edge_list(is);
      Rng rng(inst.packing_seed);
      minoragg::Ledger ledger;
      mincut::ExactMinCutResult res;
      if (g.has_value()) res = mincut::exact_mincut(g.value(), rng, ledger, config);
      const Clock::time_point t1 = Clock::now();
      ++r.attempted;
      edges += inst.m;
      solve_ms.push_back(ms_between(t0, t1));
      checksum = mix64(checksum ^ static_cast<std::uint64_t>(res.value));
      rounds += ledger.rounds();
      if (!g.has_value())
        r.fail(inst.name + ": edge list rejected: " + g.error().to_string());
      else if (res.value != inst.expected)
        r.fail(inst.name + ": value " + std::to_string(res.value) + ", Stoer-Wagner " +
               std::to_string(inst.expected));
      if (kTraced) {
        std::vector<ProbeCall> solve_calls = perfbench::probe_drain();
        covered_s += covered_ns(solve_calls, to_ns(t0), to_ns(t1)) * 1e-9;
        calls.insert(calls.end(), std::make_move_iterator(solve_calls.begin()),
                     std::make_move_iterator(solve_calls.end()));
      }
    }
    const double unit_s = std::chrono::duration<double>(Clock::now() - u0).count();
    cpu_s += cpu_seconds(self_usage()) - cpu0;
    wall_s += unit_s;
    r.unit_wall_s.push_back(unit_s);
    r.check_unit(checksum, rounds);
  };
  repeat_units(seconds, unit);

  r.metrics["throughput_rps"] = static_cast<double>(solve_ms.size()) / wall_s;
  r.metrics["updates_per_s"] = static_cast<double>(edges) / wall_s;
  r.metrics["solve_p50_ms"] = quantile(solve_ms, 0.5);
  r.metrics["solve_p95_ms"] = quantile(solve_ms, 0.95);
  r.metrics["solve_samples"] = static_cast<double>(solve_ms.size());
  r.metrics["peak_rss_mb"] = peak_rss_mib(self_usage());
  if (!kTraced) return r;
  report_mincut_layers(r, calls, static_cast<double>(r.unit_wall_s.size()));
  r.metrics["host.cores_busy"] = cpu_s / wall_s;
  r.metrics["trace.coverage"] = covered_s / wall_s;
  return r;
}

// ---------------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) continue;
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += json_number(v[i]);
  }
  return out + "]";
}

void print_result(const std::string& workload, int width, const Result& r) {
  std::string out = "{\"workload\":" + json_string(workload);
  out += ",\"width\":" + std::to_string(width);
  out += ",\"traced\":" + std::string(kTraced ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(r.failures[i]);
  }
  out += "],\"checksum\":" + json_string(std::to_string(r.checksum));
  out += ",\"ma_rounds\":" + std::to_string(r.ma_rounds);
  out += ",\"audit_ms\":" + json_number(r.audit_ms);
  out += ",\"unit_wall_s\":" + json_list(r.unit_wall_s);
  out += ",\"setup_s\":" + json_list(r.setup_s);
  out += ",\"metrics\":{";
  for (auto it = r.metrics.begin(); it != r.metrics.end(); ++it) {
    if (it != r.metrics.begin()) out += ',';
    out += json_string(it->first) + ":" + json_number(it->second);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_mixed|stream_drift|cold_solve --seed N\n"
               "                 --seconds S --work-dir DIR [--daemon PATH] [--quick 1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string daemon;
  std::string work_dir;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  bool have_seed = false;
  bool quick = false;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--daemon") {
      daemon = value;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--quick") {
      quick = std::strcmp(value, "1") == 0;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') seconds = -1.0;
    } else {
      return usage();
    }
  }
  if (!have_seed || !(seconds > 0.0) || work_dir.empty()) return usage();
  if (std::strcmp(UMC_BENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build; configure Release\n",
                 UMC_BENCH_BUILD_TYPE);
    return 2;
  }

  Result r;
  if (workload == "serve_mixed" && !daemon.empty()) {
    r = run_serve_mixed(seed, seconds, quick, daemon, work_dir);
  } else if (workload == "stream_drift") {
    r = run_stream_drift(seed, seconds, quick);
  } else if (workload == "cold_solve") {
    r = run_cold_solve(seconds);
  } else {
    return usage();
  }
  r.metrics["setup_s"] = median(r.setup_s);
  r.metrics["solve_wall_s"] = median(r.unit_wall_s);
  r.metrics["baseline.audit_ms"] = r.audit_ms;
  r.metrics["minoragg.ma_rounds"] = static_cast<double>(r.ma_rounds);
  // The caller sets each workload's width through UMC_THREADS; the result
  // records the width the round engine actually read.
  print_result(workload, ThreadPool::configured_threads(), r);
  for (const std::string& why : r.failures) std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
  return r.failed == 0 ? 0 : 1;
}
