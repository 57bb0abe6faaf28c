// perfbench.cpp — the repository benchmark (BENCHMARK.json).
//
// Drives AdmissionService from outside, through its public API, the way a
// user does: it generates one seeded workload, constructs the service,
// pumps the workload through submit_batch, checks the answers, and reports
// every metric by name and unit.  run.py builds this program and turns its
// report into the benchmark's result line.  By hand:
//
//   minrej_perfbench --workload power_law --seed 3 --seconds 10 --trace 0
//       --rate 150000 [--tiny] [--spans spans.jsonl]
//
// One run:
//   1. sim      make_scenario from --seed (timed; not part of set-up).
//   2. service  construction before every pass (setup_s); closed-loop
//               passes over the whole instance, each next batch submitted
//               when the last returns (throughput); open-loop passes at
//               --rate after a closed-loop warm-up, one driver thread on a
//               due-time schedule (decision latency, timed from each
//               arrival's due time to the return of the submit_batch that
//               carried it); snapshot → restore of the reference service
//               after every other closed pass (recovery_s).
//   3. checks   per-shard capacity; single-thread replay of every shard's
//               arrivals through a fresh algorithm (must reproduce every
//               decision; gives the core metrics); global capacity audit
//               and greedy repair of the accepted set; OPT lower bound
//               (exact max-flow, or a dual certificate that
//               verify_certificate accepts); snapshot → restore → snapshot
//               byte identity (io metrics).
//   4. report   one JSON line on stdout: attempted/failed arrivals, the
//               end-to-end and per-layer metrics, and provenance.
// A run that fails a check prints no metrics and exits 1.  --trace 1
// records spans (span_trace.h) around every call into a layer and writes
// them to --spans; end-to-end metrics are only meaningful with --trace 0.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/randomized_admission.h"
#include "core/run_budget.h"
#include "io/snapshot.h"
#include "offline/admission_opt.h"
#include "offline/certificate.h"
#include "service/admission_service.h"
#include "sim/workloads.h"
#include "span_trace.h"
#include "util/build_info.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MINREJ_PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define MINREJ_PERFBENCH_SANITIZED 1
#endif
#endif

namespace minrej::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- workloads -------------------------------------------------------------

struct Workload {
  const char* name;
  const char* scenario;
  std::size_t requests;
  std::size_t tiny_requests;
  std::size_t edges;
  bool fault_tolerance;
};

// Sizes: each instance pumps in roughly 0.4–1 s free-running, so a run
// fits several closed-loop passes.  setcover_reduction_replay generation
// grows quadratically with the request count, hence its smaller size.
constexpr Workload kWorkloads[] = {
    {"dense_burst", "dense_burst", 100000, 3000, 64, false},
    {"power_law", "power_law", 400000, 6000, 256, false},
    {"setcover_ft", "setcover_reduction_replay", 150000, 4000, 64, true},
};

// The service as a 4-core shared host runs it: 4 shards on 3 pump threads
// plus this program's single driver thread.  pump, batch and lca_reconcile
// keep their defaults, so the benchmark measures what users get.
constexpr std::size_t kShards = 4;
constexpr std::size_t kThreads = 3;
// Under fault tolerance, checkpoint() runs after every this many arrivals
// (256 default-size batches).  A checkpoint snapshots every shard's whole
// algorithm, ~0.1 s at setcover_ft's size, so a tighter interval would
// make the workload measure little else.
constexpr std::size_t kCheckpointArrivals = 256 * 256;
// Set-up is sampled this many times before every pass, besides the
// construction each pass makes.  A fresh process constructs in 20 or 35 µs
// depending on the run; once passes have run, every run takes 45–50 µs
// (power_law), so samples spread over the run agree between runs.
constexpr std::size_t kSetupSamplesPerPass = 8;
// Each open-loop pass starts on a fresh service.  Its first ~2,000
// arrivals run at a tenth of the steady rate (early α phases rebuild
// often), so a pass that timed them would report that start-up backlog as
// its tail: it filled about 1% of a power_law pass, and p99 swung between
// it and the steady tail from run to run.  These arrivals go in closed
// loop before the open-loop clock starts.
constexpr std::size_t kOpenWarmupArrivals = 8192;
// Open-loop latency quantiles are taken per window of this many
// consecutive timed arrivals (41 ms at power_law's rate; 41 samples lie
// beyond a window's p99), and the metrics are their medians over all
// windows of the run.  Descheduling on a shared host stalls the pump for
// 5–25 ms several times a pass, enough to set the p99 of a whole pass in
// some passes and not in others; the median window is one that no such
// stall hit.  driver.lag_max_us keeps the stalls.
constexpr std::size_t kLatencyWindow = 4096;
// The warm-up/reference pass plus one untraced and one traced pass.
constexpr std::size_t kMinClosedPasses = 3;
// recovery_s is timed after every other closed pass, so that its samples
// too spread over the run, and at least this many times.
constexpr std::size_t kRecoveryReps = 3;
// Share of --seconds spent in closed-loop passes; the rest is open loop.
constexpr double kClosedShare = 0.3;

ServiceConfig service_config(const Workload& w) {
  ServiceConfig config;
  config.shards = kShards;
  config.threads = kThreads;
  config.fault_tolerance.enabled = w.fault_tolerance;
  return config;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw InvalidArgument("unknown --workload '" + name +
                        "' (dense_burst, power_law, setcover_ft)");
}

// --- small helpers ---------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.5);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

/// All the digits of a double, as JSON.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The first failed check; the run reports it and exits 1.
struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}

/// Metrics in output order, each with its unit.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    items_.emplace_back(name, value, unit);
  }
  std::string json() const {
    JsonObject o;
    for (const auto& [name, value, unit] : items_) {
      JsonObject m;
      m.raw("value", num(value)).field("unit", unit);
      o.raw(name, m.dump());
    }
    return o.dump();
  }
  void print(std::ostream& out) const {
    for (const auto& [name, value, unit] : items_) {
      out << "  " << name << " = " << num(value) << ' ' << unit << '\n';
    }
  }

 private:
  std::vector<std::tuple<std::string, double, const char*>> items_;
};

// --- driving the service ---------------------------------------------------

/// Arrivals of a pass that did not get an engine decision: never placed
/// (the submit_batch carrying them threw before routing), voided by a
/// shard failure, or — under fault tolerance — shed, malformed or
/// quarantined.
std::size_t count_failed(const AdmissionService& svc, std::size_t submitted,
                         bool fault_tolerance) {
  std::size_t failed = submitted - std::min(submitted, svc.arrivals());
  for (std::size_t i = 0; i < svc.arrivals(); ++i) {
    if (svc.placement(i).second == kInvalidId ||
        (fault_tolerance && svc.decision_mode(i) != DecisionMode::kEngine)) {
      ++failed;
    }
  }
  return failed;
}

/// submit_batch, counting a throw instead of ending the run (the voided
/// arrivals are counted afterwards by count_failed).
void submit(AdmissionService& svc, std::span<const Request> slice,
            std::size_t& threw) {
  try {
    svc.submit_batch(slice);
  } catch (const std::exception& e) {
    if (threw++ == 0) {
      std::cerr << "perfbench: submit_batch threw: " << e.what() << '\n';
    }
  }
}

struct PassResult {
  double wall_s = 0.0;
  std::size_t failed = 0;
  std::size_t threw = 0;
  ServiceStats stats;
  std::vector<double> batch_us;
  std::vector<double> checkpoint_s;
};

class Driver {
 public:
  Driver(const AdmissionInstance& instance, ShardAlgorithmFactory factory,
         const Workload& workload)
      : instance_(instance),
        requests_(instance.requests()),
        factory_(std::move(factory)),
        workload_(workload),
        config_(service_config(workload)) {}

  const ServiceConfig& config() const noexcept { return config_; }
  const ShardAlgorithmFactory& factory() const noexcept { return factory_; }
  std::vector<double>& setup_samples() noexcept { return setup_s_; }

  std::unique_ptr<AdmissionService> construct(Tracer& tr) {
    const SpanId span = tr.open("service.construct", Layer::kService);
    const auto t0 = Clock::now();
    auto svc = std::make_unique<AdmissionService>(instance_.graph(), factory_,
                                                  config_);
    setup_s_.push_back(seconds_between(t0, Clock::now()));
    tr.close(span);
    return svc;
  }

  /// Checkpoints under fault tolerance once `done` crosses a multiple of
  /// kCheckpointArrivals.
  void maybe_checkpoint(AdmissionService& svc, std::size_t before,
                        std::size_t done, PassResult& r, Tracer& tr,
                        SpanId parent) {
    if (!workload_.fault_tolerance ||
        before / kCheckpointArrivals == done / kCheckpointArrivals ||
        done == requests_.size()) {
      return;
    }
    const SpanId span = tr.open("io.checkpoint", Layer::kIo, done, parent);
    const auto t0 = Clock::now();
    svc.checkpoint();
    r.checkpoint_s.push_back(seconds_between(t0, Clock::now()));
    tr.close(span);
  }

  /// Closed loop: the next batch-sized slice goes in when submit_batch
  /// returns.  `batch_spans` (traced reference pass) receives the span of
  /// every batch, in batch order.
  PassResult closed_pass(AdmissionService& svc, Tracer& tr, std::size_t pass,
                         std::vector<SpanId>* batch_spans) {
    PassResult r;
    const std::size_t n = requests_.size();
    const std::size_t batch = config_.batch;
    r.batch_us.reserve(n / batch + 1);
    const SpanId pass_span =
        tr.open("driver.closed_pass", Layer::kDriver, pass);
    const auto t0 = Clock::now();
    for (std::size_t off = 0, b = 0; off < n; off += batch, ++b) {
      const std::size_t m = std::min(batch, n - off);
      const SpanId span = tr.open("service.submit_batch", Layer::kService, b,
                                  pass_span);
      const auto b0 = Clock::now();
      submit(svc, std::span<const Request>(requests_.data() + off, m), r.threw);
      const auto b1 = Clock::now();
      tr.close(span);
      if (batch_spans != nullptr) batch_spans->push_back(span);
      r.batch_us.push_back(seconds_between(b0, b1) * 1e6);
      maybe_checkpoint(svc, off, off + m, r, tr, pass_span);
    }
    r.wall_s = seconds_between(t0, Clock::now());
    tr.close(pass_span);
    r.stats = svc.aggregate();
    r.failed = count_failed(svc, n, workload_.fault_tolerance);
    return r;
  }

  struct OpenResult {
    PassResult pass;
    double lag_max_us = 0.0;
    std::size_t backlog_max = 0;
  };

  /// Open loop: the first `warmup` arrivals go in closed loop, untimed;
  /// after them arrival i is due at start + (i − warmup)/rate whatever the
  /// service is doing.  The driver submits every due arrival, at most
  /// `batch` per submit_batch, and appends each arrival's latency (due →
  /// return of its submit_batch) to `latency_us`.  Lag is how late the
  /// driver sent the oldest arrival of a batch; backlog is how many were
  /// due at that time.
  OpenResult open_pass(AdmissionService& svc, double rate, std::size_t warmup,
                       Tracer& tr, std::size_t pass,
                       std::vector<double>& latency_us) {
    OpenResult out;
    PassResult& r = out.pass;
    const std::size_t n = requests_.size();
    const std::size_t batch = config_.batch;
    const double ns_per_arrival = 1e9 / rate;
    const SpanId pass_span = tr.open("driver.open_pass", Layer::kDriver, pass);
    std::size_t next = 0;
    std::size_t b = 0;
    for (; next < std::min(warmup, n); ++b) {
      const std::size_t m = std::min(batch, std::min(warmup, n) - next);
      const SpanId span = tr.open("service.submit_batch", Layer::kService, b,
                                  pass_span);
      submit(svc, std::span<const Request>(requests_.data() + next, m),
             r.threw);
      tr.close(span);
      maybe_checkpoint(svc, next, next + m, r, tr, pass_span);
      next += m;
    }
    const std::size_t first = next;
    const auto start = Clock::now() + std::chrono::milliseconds(1);
    const auto due = [&](std::size_t i) {
      return start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                         static_cast<double>(i - first) * ns_per_arrival));
    };
    while (next < n) {
      const auto now = Clock::now();
      const auto first_due = due(next);
      if (now < first_due) {
        const auto gap = first_due - now;
        if (gap > std::chrono::microseconds(200)) {
          std::this_thread::sleep_for(gap - std::chrono::microseconds(100));
        }
        continue;  // spin the last stretch
      }
      const auto since_start =
          std::chrono::duration<double, std::nano>(now - start).count();
      const std::size_t due_end = std::clamp<std::size_t>(
          first + static_cast<std::size_t>(since_start / ns_per_arrival) + 1,
          next + 1, n);
      out.backlog_max = std::max(out.backlog_max, due_end - next);
      out.lag_max_us =
          std::max(out.lag_max_us, seconds_between(first_due, now) * 1e6);
      const std::size_t m = std::min(batch, due_end - next);
      const SpanId span = tr.open("service.submit_batch", Layer::kService, b++,
                                  pass_span);
      submit(svc, std::span<const Request>(requests_.data() + next, m),
             r.threw);
      const auto done = Clock::now();
      tr.close(span);
      for (std::size_t i = next; i < next + m; ++i) {
        latency_us.push_back(seconds_between(due(i), done) * 1e6);
      }
      maybe_checkpoint(svc, next, next + m, r, tr, pass_span);
      next += m;
    }
    r.wall_s = seconds_between(start, Clock::now());
    tr.close(pass_span);
    r.stats = svc.aggregate();
    r.failed = count_failed(svc, n, workload_.fault_tolerance);
    return out;
  }

 private:
  const AdmissionInstance& instance_;
  const std::vector<Request>& requests_;
  ShardAlgorithmFactory factory_;
  const Workload& workload_;
  ServiceConfig config_;
  std::vector<double> setup_s_;
};

// --- checks and ground truth ----------------------------------------------

struct Replay {
  std::vector<double> process_us;
  double total_s = 0.0;
  double phase_rebuild_s = 0.0;
  std::uint64_t alpha_phases = 0;
  std::uint64_t augmentation_steps = 0;
  std::uint64_t compactions = 0;
  std::uint64_t preemptions = 0;
  std::size_t budget_exceeded_shards = 0;
};

/// Replays each shard's arrival subsequence, single-threaded, through a
/// fresh algorithm from the service's factory, and checks that the replay
/// reproduces the service: the same shard-local ids, the same augmentation
/// steps, and the same final decision for every arrival.
Replay replay_shards(const AdmissionService& svc,
                     const AdmissionInstance& instance,
                     const ShardAlgorithmFactory& factory, Tracer& tr,
                     const std::vector<SpanId>& batch_spans,
                     std::size_t batch) {
  const std::vector<Request>& requests = instance.requests();
  const Graph& graph = instance.graph();
  std::vector<std::vector<std::size_t>> by_shard(svc.shard_count());
  for (std::size_t i = 0; i < svc.arrivals(); ++i) {
    const auto [shard, local] = svc.placement(i);
    const std::string what = "replay: arrival " + std::to_string(i);
    check(local != kInvalidId, what + " was voided");
    check(local == by_shard[shard].size(),
          what + " has an out-of-order local id");
    by_shard[shard].push_back(i);
  }
  Replay out;
  out.process_us.assign(svc.arrivals(), 0.0);
  for (std::size_t s = 0; s < by_shard.size(); ++s) {
    const std::unique_ptr<OnlineAdmissionAlgorithm> algo = factory(graph, s);
    const auto* randomized =
        dynamic_cast<const RandomizedAdmission*>(algo.get());
    check(randomized != nullptr,
          "replay: shard factory is not RandomizedAdmission");
    for (std::size_t i : by_shard[s]) {
      const std::uint64_t phases = randomized->fractional().phase_count();
      const std::int64_t t0 = tr.now_ns();
      const ArrivalResult result = algo->process(requests[i]);
      const std::int64_t t1 = tr.now_ns();
      const double dt = static_cast<double>(t1 - t0) * 1e-9;
      out.process_us[i] = dt * 1e6;
      out.total_s += dt;
      if (randomized->fractional().phase_count() != phases) {
        out.phase_rebuild_s += dt;
      }
      out.preemptions += result.preempted.size();
      tr.add_replayed("core.process", Layer::kCore, i,
                      i / batch < batch_spans.size() ? batch_spans[i / batch]
                                                     : kNoSpan,
                      static_cast<std::uint32_t>(s), t0, t1);
    }
    const std::uint64_t steps = algo->augmentation_steps();
    check(steps == svc.shard_stats(s).augmentation_steps,
          "replay: shard " + std::to_string(s) + " augmentation steps differ");
    out.augmentation_steps += steps;
    out.alpha_phases += randomized->fractional().phase_count();
    out.compactions += randomized->fractional().compactions();
    if (steps > augmentation_step_budget(algo->arrivals(), graph.edge_count(),
                                         graph.max_capacity())) {
      ++out.budget_exceeded_shards;
    }
    for (std::size_t local = 0; local < by_shard[s].size(); ++local) {
      check(algo->is_accepted(static_cast<RequestId>(local)) ==
                svc.is_accepted(by_shard[s][local]),
            "replay: decision for arrival " +
                std::to_string(by_shard[s][local]) +
                " differs from the service");
    }
  }
  return out;
}

struct Audit {
  std::int64_t oversubscribed_units = 0;
  std::size_t oversubscribed_edges = 0;
};

/// Sums edge_usage() across shards.  Each shard must hold every capacity
/// on its own view; the global sum may exceed a capacity when requests
/// cross shards, and that excess is what the audit reports.
Audit capacity_audit(const AdmissionService& svc, const Graph& graph) {
  std::vector<std::int64_t> total(graph.edge_count(), 0);
  for (std::size_t s = 0; s < svc.shard_count(); ++s) {
    const std::vector<std::int64_t>& usage =
        svc.shard_algorithm(s).edge_usage();
    for (std::size_t e = 0; e < usage.size(); ++e) {
      check(usage[e] <= graph.capacity(static_cast<EdgeId>(e)),
            "shard " + std::to_string(s) + " exceeds the capacity of edge " +
                std::to_string(e));
      total[e] += usage[e];
    }
  }
  Audit audit;
  for (std::size_t e = 0; e < total.size(); ++e) {
    const std::int64_t excess =
        total[e] - graph.capacity(static_cast<EdgeId>(e));
    if (excess > 0) {
      audit.oversubscribed_units += excess;
      ++audit.oversubscribed_edges;
    }
  }
  return audit;
}

struct Repair {
  double cost = 0.0;
  std::int64_t unrepairable_units = 0;
  double seconds = 0.0;
};

/// Makes the served answer globally feasible: greedy_admission_rejection
/// on the accepted set.  Must-accept requests cannot be rejected, so an
/// edge their load alone overflows is reported as unrepairable units and
/// its capacity raised to that load for the repair.
Repair repair_accepted(const AdmissionService& svc,
                       const AdmissionInstance& instance) {
  const Graph& graph = instance.graph();
  std::vector<Request> accepted;
  std::vector<std::int64_t> must_load(graph.edge_count(), 0);
  for (std::size_t i = 0; i < svc.arrivals(); ++i) {
    if (!svc.is_accepted(i)) continue;
    const Request& r = instance.requests()[i];
    accepted.push_back(r);
    if (r.must_accept) {
      for (EdgeId e : r.edges) ++must_load[e];
    }
  }
  std::vector<Edge> edges(graph.edges().begin(), graph.edges().end());
  Repair out;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (must_load[e] > edges[e].capacity) {
      out.unrepairable_units += must_load[e] - edges[e].capacity;
      edges[e].capacity = must_load[e];
    }
  }
  const AdmissionInstance repair_instance(
      Graph(graph.vertex_count(), std::move(edges)), std::move(accepted));
  const auto t0 = Clock::now();
  const AdmissionOpt greedy = greedy_admission_rejection(repair_instance);
  out.seconds = seconds_between(t0, Clock::now());
  check(is_feasible_acceptance(repair_instance, greedy.accepted),
        "repair: the greedy repair left an edge over capacity");
  out.cost = greedy.rejected_cost;
  return out;
}

struct OptBound {
  double value = 0.0;
  bool exact = false;
  double seconds = 0.0;
};

/// Exact OPT by max-flow when the instance is in its class, else the value
/// of a dual certificate that the independent verifier accepts.
OptBound opt_lower_bound(const AdmissionInstance& instance) {
  OptBound out;
  const auto t0 = Clock::now();
  if (maxflow_solvable(instance)) {
    out.value = solve_admission_opt_maxflow(instance).rejected_cost;
    out.exact = true;
  } else {
    const DualCertificate cert = build_dual_certificate(instance);
    const CertificateVerdict verdict = verify_certificate(instance, cert);
    check(verdict.feasible && verdict.claim_ok,
          "dual certificate rejected by verify_certificate: " + verdict.error);
    out.value = verdict.value;
  }
  out.seconds = seconds_between(t0, Clock::now());
  return out;
}

// --- the run ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double rate = 0.0;
  bool tiny = false;
  std::string spans_path;
};

int run(const Options& opt) {
  const Workload& w = find_workload(opt.workload);
  // `tracer` takes the spans the traced run reports: generation, every
  // construction, the reference pass, the replay, io and offline.  Closed
  // passes after the reference alternate between `untraced` and `probe`,
  // whose spans are dropped; their throughput ratio is
  // trace.overhead_frac.  Open-loop passes are untraced.
  Tracer tracer(opt.trace);
  Tracer probe(opt.trace);
  Tracer untraced(false);
  double load_avg[1] = {0.0};
  if (getloadavg(load_avg, 1) != 1) load_avg[0] = -1.0;

  // 1. sim: the workload, from the seed alone.
  Rng rng(opt.seed);
  ScenarioParams params;
  params.requests = opt.tiny ? w.tiny_requests : w.requests;
  params.edges = w.edges;
  const SpanId gen_span = tracer.open("sim.generate", Layer::kSim);
  const auto g0 = Clock::now();
  const AdmissionInstance instance = make_scenario(w.scenario, params, rng);
  const double generate_s = seconds_between(g0, Clock::now());
  tracer.close(gen_span);
  const std::size_t n = instance.request_count();
  const bool unit_costs = all_unit_costs(instance);

  Driver driver(instance, randomized_shard_factory(unit_costs, opt.seed), w);
  const std::size_t batch = driver.config().batch;
  const auto run_start = Clock::now();

  const std::size_t extra_setups = opt.tiny ? 2 : kSetupSamplesPerPass;
  const std::size_t warmup = opt.tiny ? n / 4 : kOpenWarmupArrivals;

  // 2. closed-loop and open-loop passes, interleaved so that both sample
  // the whole run (a shared host's speed drifts over tens of seconds).
  // Each next pass is of the kind that is behind its share of the time.
  // Closed pass 0 warms caches and the allocator; it is the reference the
  // checks run on and is left out of the timing metrics.
  std::vector<PassResult> closed, open;
  std::vector<double> thr_traced, thr_untraced, pass_latency_us, window_us;
  // p50 and p99 of every latency window (kLatencyWindow).
  std::vector<double> window_p50_us, window_p99_us;
  std::size_t latency_samples = 0;
  std::vector<SpanId> batch_spans;
  std::unique_ptr<AdmissionService> reference;
  double closed_s = 0.0, open_s = 0.0, lag_max_us = 0.0;
  // Peak memory with the workload served once; later passes only repeat
  // it, and the allocator's reuse of their freed memory varies run to run.
  double peak_rss = 0.0;
  std::size_t backlog_max = 0;
  // io: snapshot() of the reference service, restored into a fresh one.
  // The first restored service must snapshot to the same bytes.
  std::vector<double> snapshot_s, restore_s, recovery_s;
  std::size_t snapshot_bytes = 0;
  const auto recover = [&] {
    const std::size_t rep = recovery_s.size();
    const SpanId s_span = tracer.open("io.snapshot", Layer::kIo, rep);
    const auto t0 = Clock::now();
    const std::vector<std::uint8_t> blob = reference->snapshot();
    const auto t1 = Clock::now();
    tracer.close(s_span);
    auto fresh = driver.construct(tracer);
    const SpanId r_span = tracer.open("io.restore", Layer::kIo, rep);
    const auto t2 = Clock::now();
    fresh->restore(blob);
    const auto t3 = Clock::now();
    tracer.close(r_span);
    snapshot_s.push_back(seconds_between(t0, t1));
    restore_s.push_back(seconds_between(t2, t3));
    recovery_s.push_back(snapshot_s.back() + restore_s.back());
    snapshot_bytes = blob.size();
    if (rep == 0) {
      check(fresh->snapshot() == blob,
            "restore(snapshot()) does not snapshot to the same bytes");
    }
  };
  const auto elapsed = [&] { return seconds_between(run_start, Clock::now()); };
  while (closed.size() < kMinClosedPasses || open.empty() ||
         (!opt.tiny && elapsed() < opt.seconds)) {
    for (std::size_t i = 0; i < extra_setups; ++i) driver.construct(tracer);
    const auto t0 = Clock::now();
    const bool want_closed =
        closed.size() < kMinClosedPasses ||
        (!open.empty() && closed_s < kClosedShare * (closed_s + open_s));
    if (want_closed) {
      const std::size_t pass = closed.size();
      Tracer& tr = pass == 0 ? tracer
                   : (opt.trace && pass % 2 == 0) ? probe
                                                  : untraced;
      auto svc = driver.construct(tr);
      closed.push_back(driver.closed_pass(*svc, tr, pass,
                                          pass == 0 ? &batch_spans : nullptr));
      if (pass == 0) {
        reference = std::move(svc);
        peak_rss = peak_rss_mb();
      } else {
        const double thr = static_cast<double>(n) / closed.back().wall_s;
        (&tr == &probe ? thr_traced : thr_untraced).push_back(thr);
      }
      closed_s += seconds_between(t0, Clock::now());
      if (pass % 2 == 1) recover();
    } else {
      auto svc = driver.construct(untraced);
      pass_latency_us.clear();
      pass_latency_us.reserve(n);  // no growth while timing
      Driver::OpenResult r =
          driver.open_pass(*svc, opt.rate, warmup, untraced, open.size(),
                           pass_latency_us);
      const std::size_t window =
          std::min(kLatencyWindow, pass_latency_us.size());
      for (auto it = pass_latency_us.begin();
           pass_latency_us.end() - it >= static_cast<std::ptrdiff_t>(window);
           it += static_cast<std::ptrdiff_t>(window)) {
        window_us.assign(it, it + static_cast<std::ptrdiff_t>(window));
        std::sort(window_us.begin(), window_us.end());
        window_p50_us.push_back(quantile_sorted(window_us, 0.50));
        window_p99_us.push_back(quantile_sorted(window_us, 0.99));
      }
      latency_samples += pass_latency_us.size();
      lag_max_us = std::max(lag_max_us, r.lag_max_us);
      backlog_max = std::max(backlog_max, r.backlog_max);
      open.push_back(std::move(r.pass));
      open_s += seconds_between(t0, Clock::now());
    }
  }

  // 3. checks, on the reference pass.
  const AdmissionService& ref = *reference;
  const ServiceStats& ref_stats = closed.front().stats;
  std::size_t attempted = 0, failed = 0, threw = 0;
  for (const std::vector<PassResult>* passes : {&closed, &open}) {
    for (const PassResult& p : *passes) {
      attempted += n;
      failed += p.failed;
      threw += p.threw;
      // Decisions do not depend on timing or batch boundaries.
      check(p.stats.accepted == ref_stats.accepted &&
                p.stats.rejected_cost == ref_stats.rejected_cost,
            "a pass decided differently from the reference pass");
    }
  }
  check(failed == 0, std::to_string(failed) + " arrivals failed (" +
                         std::to_string(threw) + " submit_batch throws)");

  const Replay replay = replay_shards(ref, instance, driver.factory(), tracer,
                                      batch_spans, batch);
  const Audit audit = capacity_audit(ref, instance.graph());
  // Shard-disjoint traffic (every request on one edge) must stay feasible.
  bool single_edge = true;
  for (const Request& r : instance.requests()) {
    single_edge &= r.edges.size() == 1;
  }
  check(!single_edge || audit.oversubscribed_units == 0,
        "shard-disjoint workload oversubscribed an edge");

  const SpanId repair_span = tracer.open("offline.repair", Layer::kOffline);
  const Repair repair = repair_accepted(ref, instance);
  tracer.close(repair_span);
  const SpanId opt_span = tracer.open("offline.opt", Layer::kOffline);
  const OptBound opt_lb = opt_lower_bound(instance);
  tracer.close(opt_span);
  const double served_cost = ref_stats.rejected_cost + repair.cost;
  check(opt_lb.value > 0.0,
        "OPT lower bound is 0: the workload is not overloaded");
  check(opt_lb.value <= served_cost * (1.0 + 1e-9) + 1e-9,
        "OPT lower bound exceeds the cost of a feasible (repaired) answer");

  std::vector<double> checkpoint_s;
  const std::size_t recovery_reps = opt.tiny ? 1 : kRecoveryReps;
  while (recovery_s.size() < recovery_reps) recover();
  if (w.fault_tolerance) {
    for (const auto* passes : {&closed, &open}) {
      for (const PassResult& p : *passes) {
        checkpoint_s.insert(checkpoint_s.end(), p.checkpoint_s.begin(),
                            p.checkpoint_s.end());
      }
    }
  }
  if (checkpoint_s.empty()) {
    // No checkpoint() without fault tolerance: time the work it does, one
    // algorithm snapshot per shard.
    for (std::size_t rep = 0; rep < recovery_reps; ++rep) {
      const SpanId span = tracer.open("io.checkpoint", Layer::kIo, rep);
      const auto t0 = Clock::now();
      for (std::size_t s = 0; s < ref.shard_count(); ++s) {
        SnapshotWriter writer("perfbench.checkpoint", 1);
        ref.shard_algorithm(s).save_snapshot(writer);
        check(!writer.finish().empty(), "empty shard snapshot");
      }
      checkpoint_s.push_back(seconds_between(t0, Clock::now()));
      tracer.close(span);
    }
  }

  // 4. metrics.
  std::vector<double> batch_us, wall, busy_max, busy_total, outside;
  for (std::size_t i = 1; i < closed.size(); ++i) {
    const PassResult& p = closed[i];
    batch_us.insert(batch_us.end(), p.batch_us.begin(), p.batch_us.end());
    wall.push_back(p.stats.seconds);
    busy_max.push_back(p.stats.max_shard_busy_s);
    busy_total.push_back(p.stats.total_busy_s);
    outside.push_back(p.stats.seconds - p.stats.max_shard_busy_s);
  }
  std::size_t max_arrivals = 0, crossing = 0;
  for (std::size_t s = 0; s < ref.shard_count(); ++s) {
    max_arrivals = std::max(max_arrivals, ref.shard_stats(s).arrivals);
  }
  for (const Request& r : instance.requests()) {
    for (EdgeId e : r.edges) {
      if (ref.shard_of_edge(e) != ref.shard_of_edge(r.edges.front())) {
        ++crossing;
        break;
      }
    }
  }

  Metrics e2e;
  e2e.add("throughput_arrivals_per_s", median(thr_untraced), "1/s");
  e2e.add("decision_p50_us", median(window_p50_us), "us");
  e2e.add("decision_p99_us", median(window_p99_us), "us");
  e2e.add("rejection_cost_ratio", served_cost / opt_lb.value, "ratio");
  e2e.add("setup_s", median(driver.setup_samples()), "s");
  e2e.add("recovery_s", median(recovery_s), "s");
  e2e.add("peak_rss_mb", peak_rss, "MB");

  Metrics layer;
  layer.add("sim.generate_s", generate_s, "s");
  layer.add("service.submit_batch_us.p50", quantile(batch_us, 0.50), "us");
  layer.add("service.submit_batch_us.p99", quantile(batch_us, 0.99), "us");
  layer.add("service.wall_s", median(wall), "s");
  layer.add("service.shard_busy_max_s", median(busy_max), "s");
  layer.add("service.shard_busy_total_s", median(busy_total), "s");
  layer.add("service.outside_shards_s", median(outside), "s");
  layer.add("service.shard_skew",
            static_cast<double>(max_arrivals) * static_cast<double>(kShards) /
                static_cast<double>(n),
            "ratio");
  layer.add("service.cross_shard_frac",
            static_cast<double>(crossing) / static_cast<double>(n), "fraction");
  layer.add("service.oversubscribed_units",
            static_cast<double>(audit.oversubscribed_units), "count");
  layer.add("service.oversubscribed_edges",
            static_cast<double>(audit.oversubscribed_edges), "count");
  layer.add("service.failed_fraction",
            static_cast<double>(failed) / static_cast<double>(attempted),
            "fraction");
  layer.add("core.process_us.p50", quantile(replay.process_us, 0.50), "us");
  layer.add("core.process_us.p99", quantile(replay.process_us, 0.99), "us");
  layer.add("core.process_us.max", quantile(replay.process_us, 1.0), "us");
  layer.add("core.process_total_s", replay.total_s, "s");
  layer.add("core.phase_rebuild_s", replay.phase_rebuild_s, "s");
  layer.add("core.alpha_phases", static_cast<double>(replay.alpha_phases),
            "count");
  layer.add("core.augmentation_steps",
            static_cast<double>(replay.augmentation_steps), "count");
  layer.add("core.compactions", static_cast<double>(replay.compactions),
            "count");
  layer.add("core.preemptions", static_cast<double>(replay.preemptions),
            "count");
  layer.add("core.budget_exceeded_shards",
            static_cast<double>(replay.budget_exceeded_shards), "count");
  layer.add("io.checkpoint_s", median(checkpoint_s), "s");
  layer.add("io.snapshot_s", median(snapshot_s), "s");
  layer.add("io.restore_s", median(restore_s), "s");
  layer.add("io.snapshot_bytes", static_cast<double>(snapshot_bytes), "bytes");
  layer.add("offline.opt_lower_bound", opt_lb.value, "cost");
  layer.add("offline.opt_exact", opt_lb.exact ? 1.0 : 0.0, "bool");
  layer.add("offline.opt_s", opt_lb.seconds, "s");
  layer.add("offline.online_rejected_cost", ref_stats.rejected_cost, "cost");
  layer.add("offline.repair_cost", repair.cost, "cost");
  layer.add("offline.repair_s", repair.seconds, "s");
  layer.add("offline.unrepairable_units",
            static_cast<double>(repair.unrepairable_units), "count");
  layer.add("driver.offered_rate", opt.rate, "1/s");
  layer.add("driver.latency_samples", static_cast<double>(latency_samples),
            "count");
  layer.add("driver.lag_max_us", lag_max_us, "us");
  layer.add("driver.backlog_max", static_cast<double>(backlog_max), "count");
  if (opt.trace) {
    const std::vector<Span>& spans = tracer.spans();
    const std::vector<double> self = tracer.self_seconds();
    std::vector<double> layer_self(kLayerCount, 0.0);
    double batch_wall = 0.0, batch_self = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      layer_self[static_cast<std::size_t>(spans[i].layer)] += self[i];
    }
    // The reference pass's batches: their replayed core work is the part
    // of service.wall_s the measured layers explain.
    for (SpanId id : batch_spans) {
      const Span& s = spans[static_cast<std::size_t>(id)];
      batch_wall += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      batch_self += self[static_cast<std::size_t>(id)];
    }
    layer.add("trace.overhead_frac",
              1.0 - median(thr_traced) / median(thr_untraced), "fraction");
    layer.add("trace.unexplained_frac",
              batch_wall > 0.0 ? batch_self / batch_wall : 0.0, "fraction");
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      layer.add(std::string("trace.self_s.") + kLayerNames[l], layer_self[l],
                "s");
    }
    layer.add("trace.spans", static_cast<double>(spans.size()), "count");
    if (!opt.spans_path.empty()) {
      check(tracer.write_jsonl(opt.spans_path),
            "could not write spans to " + opt.spans_path);
    }
  }

  std::cerr << "perfbench " << w.name << " seed=" << opt.seed
            << " requests=" << n
            << " closed_passes=" << closed.size()
            << " open_passes=" << open.size() << " latency_samples="
            << latency_samples << "\nclosed-loop arrivals/s per pass:";
  for (double thr : thr_untraced) std::cerr << ' ' << num(thr);
  std::cerr << "\nopen-loop p99 us over " << window_p99_us.size()
            << " windows: min " << num(quantile(window_p99_us, 0.0))
            << " quartiles " << num(quantile(window_p99_us, 0.25)) << ' '
            << num(quantile(window_p99_us, 0.5)) << ' '
            << num(quantile(window_p99_us, 0.75)) << " max "
            << num(quantile(window_p99_us, 1.0));
  std::cerr << "\nend-to-end:\n";
  e2e.print(std::cerr);
  std::cerr << "per-layer:\n";
  layer.print(std::cerr);

  JsonObject prov;
  prov.field("git_sha", build_git_sha())
      .field("build_type", build_type())
      .field("sweep_isa", sweep_isa())
      .field("hardware_concurrency", hardware_concurrency())
      .field("cache_line_bytes", cache_line_bytes())
      .raw("load_avg_1m", num(load_avg[0]))
      .field("workload", w.name)
      .field("scenario", w.scenario)
      .field("seed", opt.seed)
      .raw("rate", num(opt.rate))
      .field("requests", n)
      .field("shards", kShards)
      .field("threads", kThreads)
      .field("batch", batch)
      .field("fault_tolerance", w.fault_tolerance)
      .field("trace", opt.trace)
      .field("tiny", opt.tiny);
  JsonObject report;
  report.field("correct", true)
      .field("attempted", attempted)
      .field("failed", failed)
      .raw("end_to_end", e2e.json())
      .raw("per_layer", layer.json())
      .raw("provenance", prov.dump());
  std::cout << report.dump() << std::endl;
  return EXIT_SUCCESS;
}

int perfbench_main(int argc, char** argv) {
  const CliFlags flags = CliFlags::parse(
      argc, argv,
      {"workload", "seed", "seconds", "trace", "rate", "tiny", "spans"});
  Options opt;
  opt.workload = flags.get_string("workload", "");
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  opt.seconds = flags.get_double("seconds", 10.0);
  opt.trace = flags.get_int("trace", 0) != 0;
  opt.rate = flags.get_double("rate", 0.0);
  opt.tiny = flags.get_bool("tiny", false);
  opt.spans_path = flags.get_string("spans", "");
  MINREJ_REQUIRE(opt.rate > 0.0, "--rate (offered arrivals/s) must be > 0");
  MINREJ_REQUIRE(opt.seconds > 0.0, "--seconds must be > 0");

  // Numbers are only comparable between optimized, unsanitized builds.
  const std::string type = build_type();
#ifdef MINREJ_PERFBENCH_SANITIZED
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
  if ((type != "Release" && type != "RelWithDebInfo") || sanitized) {
    std::cerr << "perfbench: refusing to measure a " << type
              << (sanitized ? " sanitizer" : "")
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  try {
    return run(opt);
  } catch (const CheckFailed& e) {
    std::cerr << "perfbench: check failed: " << e.what() << '\n';
    return EXIT_FAILURE;
  }
}

}  // namespace
}  // namespace minrej::perfbench

int main(int argc, char** argv) {
  try {
    return minrej::perfbench::perfbench_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return EXIT_FAILURE;
  }
}
