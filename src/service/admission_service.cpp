#include "service/admission_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string_view>
#include <thread>

#include "core/randomized_admission.h"
#include "core/run_budget.h"
#include "io/snapshot.h"
#include "util/build_info.h"
#include "util/check.h"
#include "util/fault_injector.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

namespace minrej {

ShardAlgorithmFactory randomized_shard_factory(bool unit_costs,
                                               std::uint64_t seed) {
  return [unit_costs, seed](const Graph& graph, std::size_t shard) {
    RandomizedConfig cfg;
    cfg.unit_costs = unit_costs;
    cfg.seed = seed + shard;
    return std::make_unique<RandomizedAdmission>(graph, cfg);
  };
}

namespace {

ArrivalResult decide(OnlineAdmissionAlgorithm& algorithm,
                     const Request& request, bool shed) {
  return shed ? algorithm.process_shed(request) : algorithm.process(request);
}

std::size_t pump_workers(const ServiceConfig& config) {
  const std::size_t hw = hardware_concurrency();
  const std::size_t want =
      config.threads > 0 ? config.threads : std::min(config.shards, hw);
  return std::max<std::size_t>(1, std::min(want, config.shards));
}

/// Stream kinds of the two nested snapshot formats (io/snapshot.h).
constexpr std::string_view kServiceSnapshotKind = "minrej.service";
constexpr std::string_view kAlgorithmSnapshotKind = "minrej.algorithm";
constexpr std::uint32_t kServiceSnapshotVersion = 1;
/// Version 2: the engine section no longer carries an engine-kind string
/// (the library ships one engine).
constexpr std::uint32_t kAlgorithmSnapshotVersion = 2;

/// Order-sensitive fingerprint of the capacity vector: snapshots refuse to
/// load onto a graph with the same edge count but different capacities.
std::uint64_t capacity_fingerprint(const Graph& graph) noexcept {
  std::uint64_t state = 0x6D696E72656A6670ULL;  // "minrejfp"
  for (const std::int64_t c : graph.capacities()) {
    state ^= static_cast<std::uint64_t>(c);
    splitmix64(state);
  }
  return splitmix64(state);
}

}  // namespace

AdmissionService::AdmissionService(const Graph& graph,
                                   ShardAlgorithmFactory factory,
                                   ServiceConfig config)
    : graph_(graph), factory_(std::move(factory)), config_(std::move(config)) {
  MINREJ_REQUIRE(config_.shards >= 1, "service needs at least one shard");
  MINREJ_REQUIRE(config_.batch >= 1, "batch must be positive");
  MINREJ_REQUIRE(static_cast<bool>(factory_), "null algorithm factory");
  MINREJ_REQUIRE(graph_.edge_count() >= 1, "graph has no edges");
  MINREJ_REQUIRE(!(config_.lca_reconcile && config_.fault_tolerance.enabled),
                 "lca_reconcile is incompatible with fault tolerance: the "
                 "reconcile lane has no committed log to rebuild from");
  if (config_.partition) {
    // A partition that maps any edge out of range would fail mid-pump on
    // the first request touching that edge; surface it at construction
    // instead, where the error names the config, not the traffic.
    for (std::size_t e = 0; e < graph_.edge_count(); ++e) {
      MINREJ_REQUIRE(config_.partition(static_cast<EdgeId>(e)) <
                         config_.shards,
                     "partition maps an edge to a shard >= the shard count");
    }
  }
  const RetryPolicy& retry = config_.fault_tolerance.retry;
  MINREJ_REQUIRE(retry.backoff_base_s >= 0.0 && retry.backoff_max_s >= 0.0,
                 "retry backoff must be non-negative");
  MINREJ_REQUIRE(retry.jitter >= 0.0 && retry.jitter <= 1.0,
                 "retry jitter must be in [0, 1]");
  shards_.resize(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_[s].algorithm = factory_(graph_, s);
    MINREJ_REQUIRE(shards_[s].algorithm != nullptr,
                   "factory returned a null algorithm");
    MINREJ_REQUIRE(&shards_[s].algorithm->graph() == &graph_,
                   "shard algorithm must be built on the service graph");
  }
  if (config_.lca_reconcile) {
    // The reconcile lane is "shard K": its factory shard index is past the
    // real shards, so seeded factories give it an independent stream.
    lca_algorithm_ = factory_(graph_, config_.shards);
    MINREJ_REQUIRE(lca_algorithm_ != nullptr,
                   "factory returned a null algorithm");
    MINREJ_REQUIRE(&lca_algorithm_->graph() == &graph_,
                   "LCA lane algorithm must be built on the service graph");
  }
  // The ring rounds its capacity up to a power of two.  A full ring only
  // makes the router spin-yield, so the size is a throughput detail.
  const std::size_t capacity = std::max<std::size_t>(1024, config_.batch);
  lanes_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    lanes_.push_back(std::make_unique<Lane>(capacity));
  }
  const std::size_t workers = pump_workers(config_);
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    workers_.emplace_back([this, w, workers] { worker_loop(w, workers); });
  }
}

AdmissionService::~AdmissionService() {
  {
    std::lock_guard<std::mutex> lock(pump_mu_);
    stop_workers_ = true;
    ++wake_epoch_;
  }
  cv_wake_.notify_all();
  // Legal only between batches (rings drained, job slots empty), so
  // joining here never abandons work.
  for (std::thread& t : workers_) t.join();
}

void AdmissionService::kick_workers() {
  {
    std::lock_guard<std::mutex> lock(pump_mu_);
    ++wake_epoch_;
  }
  cv_wake_.notify_all();
}

void AdmissionService::wait_for_workers(const std::function<bool()>& pred) {
  // Bounded spin first: on the pumping fast path the workers finish the
  // batch within the spin window and no lock is ever taken.
  for (int spin = 0; spin < 4096; ++spin) {
    if (pred()) return;
    std::this_thread::yield();
  }
  std::unique_lock<std::mutex> lock(pump_mu_);
  while (!pred()) {
    // Timed wait: workers notify cv_done_ locklessly after each chunk, so
    // a notification racing past this thread costs one timeout, never a
    // hang.
    cv_done_.wait_for(lock, std::chrono::microseconds(200));
  }
}

void AdmissionService::worker_loop(std::size_t worker,
                                   std::size_t worker_total) {
  // Persistent consumer: owns shards worker, worker+W, worker+2W, …  Spins
  // over its lanes while work keeps arriving, yields through a bounded
  // grace window when idle, then sleeps on cv_wake_ with a short timeout
  // (the timeout caps the cost of a wakeup lost to the lock-free push
  // path; kick_workers cuts the common-case latency).
  constexpr int kIdleGracePolls = 256;
  std::uint64_t seen_epoch = 0;
  // Start asleep: until the first batch kicks, a fresh worker has nothing
  // to poll for and would only compete with the thread constructing it.
  int idle_polls = kIdleGracePolls;
  for (;;) {
    bool did_work = false;
    for (std::size_t s = worker; s < shards_.size(); s += worker_total) {
      if (run_lane_job(s)) did_work = true;
      if (drain_lane(s)) did_work = true;
    }
    if (did_work) {
      idle_polls = 0;
      cv_done_.notify_all();
      continue;
    }
    if (idle_polls < kIdleGracePolls) {
      ++idle_polls;
      std::this_thread::yield();
      continue;
    }
    std::unique_lock<std::mutex> lock(pump_mu_);
    if (stop_workers_) return;
    cv_wake_.wait_for(lock, std::chrono::microseconds(500), [&] {
      return stop_workers_ || wake_epoch_ != seen_epoch;
    });
    if (stop_workers_) return;
    // A timeout without a kick polls the lanes once and sleeps again: an
    // idle service must not spin through the grace window every 500 µs.
    if (wake_epoch_ == seen_epoch) continue;
    seen_epoch = wake_epoch_;
    lock.unlock();
    idle_polls = 0;
  }
}

bool AdmissionService::drain_lane(std::size_t s) {
  Lane& lane = *lanes_[s];
  std::uint32_t idx;
  if (!lane.ring.try_pop(idx)) return false;
  // The successful pop's acquire pairs with the routing thread's release
  // push: live_batch_ and the pre-batch shard state are visible from here.
  Shard& shard = shards_[s];
  constexpr std::size_t kChunk = 256;
  std::size_t consumed = 0;
  const Timer busy;
  do {
    ++consumed;
    process_arrival(s, idx, 0, busy);
  } while (consumed < kChunk && lane.ring.try_pop(idx));
  const double elapsed = busy.elapsed_s();
  shard.busy_seconds += elapsed;
  shard.batch_busy_s += elapsed;
  // One release per chunk, not per arrival: publishes every shard write
  // above to the routing thread's acquire load in the completion wait.
  lane.consumed.fetch_add(consumed, std::memory_order_release);
  return true;
}

bool AdmissionService::run_lane_job(std::size_t s) {
  Lane& lane = *lanes_[s];
  const auto kind =
      static_cast<JobKind>(lane.job.load(std::memory_order_acquire));
  if (kind == JobKind::kNone) return false;
  Shard& shard = shards_[s];
  if (kind == JobKind::kRetry) {
    const Timer busy;
    for (const std::size_t idx : lane.pending) {
      process_arrival(s, idx, lane.job_attempt, busy);
    }
    shard.busy_seconds += busy.elapsed_s();
  } else {
    try {
      rebuild_shard(s);
    } catch (...) {
      shard.error = std::current_exception();
    }
  }
  lane.job.store(static_cast<std::uint8_t>(JobKind::kNone),
                 std::memory_order_release);
  return true;
}

void AdmissionService::process_arrival(std::size_t s, std::size_t idx,
                                       std::size_t attempt,
                                       const Timer& busy) {
  Shard& shard = shards_[s];
  if (shard.error) return;  // poisoned: discard the rest of the batch
  const Request& request = live_batch_[idx];
  const FaultToleranceConfig& ft = config_.fault_tolerance;
  try {
    bool shed = false;
    if (ft.enabled) {
      if (ft.injector) {
        // Probe on the service-global arrival index: it advances even when
        // the shard sheds, so a healed shard is not doomed to replay the
        // exact probe pattern that quarantined it.
        const std::size_t global_arrival = live_base_ + idx;
        switch (ft.injector->probe(s, global_arrival, attempt)) {
          case FaultAction::kException:
            throw InjectedFault("injected shard-task fault (shard " +
                                std::to_string(s) + ", arrival " +
                                std::to_string(global_arrival) +
                                ", attempt " + std::to_string(attempt) + ")");
          case FaultAction::kDelay:
            std::this_thread::sleep_for(
                std::chrono::duration<double>(ft.injector->delay_seconds()));
            ++shard.injected_delays;
            break;
          case FaultAction::kNone:
            break;
        }
      }
      // Deadline shedding is per batch attempt: a slow sub-batch degrades
      // its own tail, the next batch starts fresh.  The budget latch is
      // per shard and permanent until a rebuild re-derives it.
      const double deadline = ft.overload.shard_deadline_s;
      if (deadline > 0.0 && !shard.deadline_shed &&
          shard.batch_busy_s + busy.elapsed_s() > deadline) {
        shard.deadline_shed = true;
      }
      shed = shard.degraded || shard.deadline_shed;
    }
    ArrivalResult result;
    if (config_.collect_latencies) {
      const Timer arrival_timer;
      result = decide(*shard.algorithm, request, shed);
      shard.latencies_s.push_back(arrival_timer.elapsed_s());
    } else {
      result = decide(*shard.algorithm, request, shed);
    }
    decisions_[idx] = result.accepted ? 1 : 0;
    if (ft.enabled) {
      const auto mode = static_cast<std::uint8_t>(
          shed ? DecisionMode::kShed : DecisionMode::kEngine);
      modes_[live_base_ + idx] = mode;
      shard.log.push_back(LogEntry{request, mode});
      if (ft.overload.shed_on_budget && !shard.degraded) {
        const std::uint64_t budget = augmentation_step_budget(
            shard.algorithm->arrivals(), graph_.edge_count(),
            graph_.max_capacity());
        if (shard.algorithm->augmentation_steps() > budget) {
          shard.degraded = true;
        }
      }
    }
    // Last: the arrival count is what a failed attempt rolls back by.
    ++shard.arrivals;
  } catch (...) {
    shard.error = std::current_exception();
  }
}

void AdmissionService::run_jobs(const std::vector<std::size_t>& shards,
                                JobKind kind, std::size_t attempt) {
  if (shards.empty()) return;
  // The release store into the job slot publishes live_batch_ and the job
  // parameters; the worker's acquire pairs with it, and its kNone release
  // store publishes the job's results back to this thread's acquire.
  for (const std::size_t s : shards) {
    Lane& lane = *lanes_[s];
    lane.job_attempt = attempt;
    lane.job.store(static_cast<std::uint8_t>(kind), std::memory_order_release);
  }
  kick_workers();
  wait_for_workers([&] {
    for (const std::size_t s : shards) {
      if (lanes_[s]->job.load(std::memory_order_acquire) !=
          static_cast<std::uint8_t>(JobKind::kNone)) {
        return false;
      }
    }
    return true;
  });
}

std::size_t AdmissionService::hash_edge_to_shard(
    EdgeId e, std::size_t shard_count) noexcept {
  if (shard_count <= 1) return 0;
  // splitmix64 of the edge id: spreads hot low-id edges (the Zipf head)
  // across shards instead of clustering them in shard 0.
  std::uint64_t state = static_cast<std::uint64_t>(e) + 1;
  return static_cast<std::size_t>(splitmix64(state) %
                                  static_cast<std::uint64_t>(shard_count));
}

std::size_t AdmissionService::shard_of_edge(EdgeId e) const {
  MINREJ_REQUIRE(e < graph_.edge_count(), "edge id out of range");
  if (!config_.partition) return hash_edge_to_shard(e, shards_.size());
  const std::size_t s = config_.partition(e);
  MINREJ_REQUIRE(s < shards_.size(),
                 "partition returned a shard out of range");
  return s;
}

std::size_t AdmissionService::shard_of_request(const Request& request) const {
  MINREJ_REQUIRE(!request.edges.empty(), "empty request");
  return shard_of_edge(request.edges.front());
}

std::vector<bool> AdmissionService::submit_batch(
    std::span<const Request> batch) {
  Timer wall;
  const FaultToleranceConfig& ft = config_.fault_tolerance;
  if (!ft.enabled) {
    // Routing is all-or-nothing: a request the router cannot place rejects
    // the batch before any placement is appended or any index pushed.
    // (Under fault tolerance such requests are recorded as kMalformed.)
    for (const Request& request : batch) {
      MINREJ_REQUIRE(request_routable(request),
                     "request has no edges or an out-of-range edge");
    }
  }
  const std::size_t base = placement_.size();
  // Between batches the workers are quiescent (the previous completion
  // wait saw every pushed index consumed), so these reads are stable.
  // next_local starts from each algorithm's arrival count *now*, because
  // the owning worker advances the live count while later arrivals of
  // this batch are still being routed.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    Lane& lane = *lanes_[s];
    lane.pending.clear();
    lane.next_local = static_cast<RequestId>(shard.algorithm->arrivals());
    shard.batch_arrivals = shard.arrivals;
    shard.batch_busy_s = 0.0;
    shard.deadline_shed = false;
  }
  lca_pending_.clear();
  decisions_.assign(batch.size(), 0);
  if (ft.enabled) {
    modes_.resize(base + batch.size(),
                  static_cast<std::uint8_t>(DecisionMode::kEngine));
  }
  const auto drop = [&](std::size_t i, std::size_t s, DecisionMode mode) {
    placement_.emplace_back(static_cast<std::uint32_t>(s), kInvalidId);
    modes_[base + i] = static_cast<std::uint8_t>(mode);
  };

  // Publish the batch, then stream indices into the shard rings as they
  // are routed: the ring push's release store is what makes live_batch_
  // (and decisions_, modes_) visible to the consuming worker, and workers
  // overlap with the rest of the routing loop.
  live_batch_ = batch;
  live_base_ = base;
  kick_workers();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& request = batch[i];
    if (ft.enabled && ((ft.injector && ft.injector->corrupt(base + i)) ||
                       !request_well_formed(request))) {
      // Attribute to the shard the first edge routes to when it is
      // routable at all; shard 0 is the catch-all for unroutable garbage.
      const std::size_t s =
          (!request.edges.empty() && request.edges.front() < graph_.edge_count())
              ? shard_of_edge(request.edges.front())
              : 0;
      ++shards_[s].malformed;
      drop(i, s, DecisionMode::kMalformed);
      continue;
    }
    if (lca_algorithm_ && request_crosses_shards(request)) {
      // Cross-shard arrival: diverted to the reconcile lane; its placement
      // is filled in by reconcile_lca_pending after the shard work drains.
      lca_pending_.push_back(i);
      placement_.emplace_back(kLcaShardMarker, kInvalidId);
      continue;
    }
    const std::size_t s = shard_of_request(request);
    Lane& lane = *lanes_[s];
    if (ft.enabled) {
      // Quarantined shards refuse traffic; a full per-batch queue sheds
      // the overflow (backpressure).  Neither reaches an algorithm.
      Shard& shard = shards_[s];
      const std::size_t cap = ft.overload.max_shard_queue;
      if (shard.quarantined || (cap > 0 && lane.pending.size() >= cap)) {
        ++shard.shed;
        drop(i, s, shard.quarantined ? DecisionMode::kQuarantineShed
                                     : DecisionMode::kShed);
        continue;
      }
    }
    placement_.emplace_back(static_cast<std::uint32_t>(s), lane.next_local++);
    lane.pending.push_back(i);
    std::size_t spins = 0;
    while (!lane.ring.try_push(static_cast<std::uint32_t>(i))) {
      // Ring full: the owning worker is behind.  Yield to it; kick
      // periodically in case it reached its idle sleep before our first
      // kick landed.
      if ((++spins & 0x3FFu) == 0) kick_workers();
      std::this_thread::yield();
    }
    ++lane.pushed;
  }
  kick_workers();
  wait_for_workers([&] {
    for (const auto& lane : lanes_) {
      if (lane->consumed.load(std::memory_order_acquire) < lane->pushed) {
        return false;
      }
    }
    return true;
  });
  if (!lca_pending_.empty()) reconcile_lca_pending(batch, base);

  // A failed shard stopped mid-sub-batch.  Under fault tolerance it is
  // rolled back and retried or quarantined.  Without it, its algorithm
  // never assigned ids to the remaining arrivals: void their placements
  // so a later batch cannot alias those local ids onto the stale entries
  // (is_accepted on a voided arrival throws instead of answering for the
  // wrong request), then rethrow the first error.
  std::vector<std::size_t> failed;
  std::exception_ptr first_error;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    if (!shard.error) continue;
    if (ft.enabled) {
      failed.push_back(s);
      continue;
    }
    if (!first_error) first_error = shard.error;
    shard.error = nullptr;
    const std::vector<std::size_t>& pending = lanes_[s]->pending;
    const std::size_t processed = shard.arrivals - shard.batch_arrivals;
    for (std::size_t j = processed; j < pending.size(); ++j) {
      placement_[base + pending[j]].second = kInvalidId;
    }
  }
  if (!failed.empty()) recover_failed_shards(std::move(failed), base);
  pumped_seconds_ += wall.elapsed_s();
  if (first_error) std::rethrow_exception(first_error);
  std::vector<bool> accepted(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    accepted[i] = decisions_[i] != 0;
  }
  return accepted;
}

void AdmissionService::recover_failed_shards(std::vector<std::size_t> failed,
                                             std::size_t base) {
  const RetryPolicy& retry = config_.fault_tolerance.retry;
  std::uint64_t jitter_state =
      retry.jitter_seed ^ (static_cast<std::uint64_t>(base) + 1);
  for (std::size_t attempt = 0;; ++attempt) {
    // Roll every casualty back to its batch-start state: drop the log and
    // latency suffix the failed attempt appended, then rebuild them all in
    // one dispatch — the rebuilds (factory + log replay) run as parallel
    // lane jobs, so one shard's replay never blocks a sibling's.
    std::vector<std::size_t> retry_set;
    std::vector<std::size_t> quarantine_set;
    for (const std::size_t s : failed) {
      Shard& shard = shards_[s];
      const std::size_t done = shard.arrivals - shard.batch_arrivals;
      shard.log.resize(shard.log.size() - done);
      if (config_.collect_latencies) {
        shard.latencies_s.resize(shard.latencies_s.size() - done);
      }
      shard.arrivals = shard.batch_arrivals;
      shard.error = nullptr;
      ++shard.task_failures;
      if (attempt >= retry.max_retries) {
        quarantine_set.push_back(s);
      } else {
        ++shard.retries;
        retry_set.push_back(s);
      }
    }
    run_jobs(failed, JobKind::kRebuild, attempt);
    // A rebuild that threw (corrupt checkpoint, factory failure) parked
    // its exception in shard.error; surface the first one.
    for (const std::size_t s : failed) {
      if (!shards_[s].error) continue;
      const std::exception_ptr error = shards_[s].error;
      shards_[s].error = nullptr;
      std::rethrow_exception(error);
    }
    for (const std::size_t s : quarantine_set) {
      // Exhausted retries: the shard is already rolled back to its last
      // committed state (above); mark it quarantined and shed its share
      // of this batch.
      Shard& shard = shards_[s];
      shard.quarantined = true;
      for (const std::size_t idx : lanes_[s]->pending) {
        decisions_[idx] = 0;
        placement_[base + idx].second = kInvalidId;
        modes_[base + idx] =
            static_cast<std::uint8_t>(DecisionMode::kQuarantineShed);
        ++shard.shed;
      }
    }
    if (retry_set.empty()) return;
    const double doubling = static_cast<double>(
        std::uint64_t{1} << std::min<std::size_t>(attempt, 30));
    double delay =
        std::min(retry.backoff_max_s, retry.backoff_base_s * doubling);
    const double u =
        static_cast<double>(splitmix64(jitter_state) >> 11) * 0x1.0p-53;
    delay *= 1.0 + retry.jitter * (2.0 * u - 1.0);
    if (delay > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }
    for (const std::size_t s : retry_set) {
      shards_[s].batch_busy_s = 0.0;
      shards_[s].deadline_shed = false;
    }
    run_jobs(retry_set, JobKind::kRetry, attempt + 1);
    failed.clear();
    for (const std::size_t s : retry_set) {
      if (shards_[s].error) failed.push_back(s);
    }
    if (failed.empty()) return;
  }
}

bool AdmissionService::request_crosses_shards(const Request& request) const {
  if (request.edges.size() <= 1) return false;
  const std::size_t first = shard_of_edge(request.edges.front());
  for (std::size_t i = 1; i < request.edges.size(); ++i) {
    if (shard_of_edge(request.edges[i]) != first) return true;
  }
  return false;
}

void AdmissionService::reconcile_lca_pending(std::span<const Request> batch,
                                             std::size_t base) {
  // Runs on the routing thread with the shard workers quiescent, so the
  // speculative would_overflow probes read a stable (and worker-count
  // independent) per-shard state: the one after this batch's shard-local
  // traffic.  The reconcile engine is authoritative; the speculation is
  // only scored, never trusted.
  for (const std::size_t idx : lca_pending_) {
    const Request& request = batch[idx];
    const std::size_t owner = shard_of_request(request);
    const bool speculative =
        !shards_[owner].algorithm->would_overflow(request);
    const auto local = static_cast<RequestId>(lca_algorithm_->arrivals());
    const ArrivalResult result = lca_algorithm_->process(request);
    decisions_[idx] = result.accepted ? 1 : 0;
    placement_[base + idx] = {kLcaShardMarker, local};
    if (speculative == result.accepted) ++lca_speculation_hits_;
  }
}

bool AdmissionService::request_routable(
    const Request& request) const noexcept {
  if (request.edges.empty()) return false;
  const std::size_t read = lca_algorithm_ ? request.edges.size() : 1;
  for (std::size_t i = 0; i < read; ++i) {
    if (request.edges[i] >= graph_.edge_count()) return false;
  }
  return true;
}

bool AdmissionService::request_well_formed(
    const Request& request) const noexcept {
  if (request.edges.empty()) return false;
  if (!(request.cost > 0.0) || !std::isfinite(request.cost)) return false;
  EdgeId prev = 0;
  for (std::size_t i = 0; i < request.edges.size(); ++i) {
    const EdgeId e = request.edges[i];
    if (e >= graph_.edge_count()) return false;
    if (i > 0 && e <= prev) return false;  // sorted + unique contract
    prev = e;
  }
  return true;
}

void AdmissionService::rebuild_shard(std::size_t shard_index) {
  Shard& shard = shards_[shard_index];
  std::unique_ptr<OnlineAdmissionAlgorithm> fresh =
      factory_(graph_, shard_index);
  MINREJ_CHECK(fresh != nullptr, "factory returned a null algorithm");
  std::size_t replay_from = 0;
  bool degraded = false;
  if (!shard.checkpoint_blob.empty() && fresh->snapshot_supported()) {
    SnapshotReader r(shard.checkpoint_blob, kAlgorithmSnapshotKind);
    fresh->load_snapshot(r);
    r.expect_end();
    replay_from = shard.checkpoint_log_len;
    degraded = shard.checkpoint_degraded;
  }
  const OverloadPolicy& overload = config_.fault_tolerance.overload;
  for (std::size_t j = replay_from; j < shard.log.size(); ++j) {
    const LogEntry& entry = shard.log[j];
    // The logged mode is authoritative: replay calls exactly what the
    // live pump called, so the trajectory (weights, RNG draws, ids) is
    // reproduced bit-for-bit.
    if (entry.mode == static_cast<std::uint8_t>(DecisionMode::kShed)) {
      fresh->process_shed(entry.request);
    } else {
      fresh->process(entry.request);
    }
    // Re-derive the budget latch with the same per-arrival check the live
    // pump applies — deterministic in (steps, arrivals), both replayed.
    if (overload.shed_on_budget && !degraded) {
      const std::uint64_t budget = augmentation_step_budget(
          fresh->arrivals(), graph_.edge_count(), graph_.max_capacity());
      if (fresh->augmentation_steps() > budget) degraded = true;
    }
  }
  shard.algorithm = std::move(fresh);
  shard.degraded = degraded;
  ++shard.restores;
}

DecisionMode AdmissionService::decision_mode(
    std::size_t arrival_index) const {
  MINREJ_REQUIRE(arrival_index < placement_.size(),
                 "arrival index out of range");
  if (arrival_index >= modes_.size()) return DecisionMode::kEngine;
  return static_cast<DecisionMode>(modes_[arrival_index]);
}

bool AdmissionService::shard_quarantined(std::size_t shard) const {
  MINREJ_REQUIRE(shard < shards_.size(), "shard index out of range");
  return shards_[shard].quarantined;
}

bool AdmissionService::shard_degraded(std::size_t shard) const {
  MINREJ_REQUIRE(shard < shards_.size(), "shard index out of range");
  return shards_[shard].degraded;
}

void AdmissionService::checkpoint() {
  MINREJ_REQUIRE(config_.fault_tolerance.enabled,
                 "checkpoint() needs fault tolerance enabled (the recovery "
                 "replay consumes the per-shard arrival log)");
  for (Shard& shard : shards_) {
    if (!shard.algorithm->snapshot_supported()) {
      // Recovery falls back to full log replay for this shard.
      shard.checkpoint_blob.clear();
      shard.checkpoint_log_len = 0;
      shard.checkpoint_degraded = false;
      continue;
    }
    SnapshotWriter w(std::string(kAlgorithmSnapshotKind),
                     kAlgorithmSnapshotVersion);
    shard.algorithm->save_snapshot(w);
    shard.checkpoint_blob = w.finish();
    shard.checkpoint_log_len = shard.log.size();
    shard.checkpoint_degraded = shard.degraded;
  }
}

void AdmissionService::restore_shard(std::size_t shard) {
  MINREJ_REQUIRE(config_.fault_tolerance.enabled,
                 "restore_shard() needs fault tolerance enabled");
  MINREJ_REQUIRE(shard < shards_.size(), "shard index out of range");
  rebuild_shard(shard);
  shards_[shard].quarantined = false;
}

std::vector<std::uint8_t> AdmissionService::snapshot() const {
  MINREJ_REQUIRE(!config_.lca_reconcile,
                 "snapshot() does not cover the LCA reconcile lane");
  for (const Shard& shard : shards_) {
    MINREJ_REQUIRE(shard.algorithm->snapshot_supported(),
                   "snapshot() requires every shard algorithm to support "
                   "snapshots (docs/API.md)");
  }
  SnapshotWriter w(std::string(kServiceSnapshotKind), kServiceSnapshotVersion);
  w.tag("SRVC");
  w.u64(shards_.size());
  w.u64(graph_.edge_count());
  w.u64(capacity_fingerprint(graph_));
  const bool has_log = config_.fault_tolerance.enabled;
  w.boolean(has_log);
  w.u64(placement_.size());
  for (const auto& [shard, local] : placement_) {
    w.u32(shard);
    w.u32(local);
  }
  w.vec(modes_);
  for (const Shard& shard : shards_) {
    w.tag("SHRD");
    w.u64(shard.arrivals);
    w.u64(shard.task_failures);
    w.u64(shard.retries);
    w.u64(shard.restores);
    w.u64(shard.shed);
    w.u64(shard.malformed);
    w.u64(shard.injected_delays);
    w.boolean(shard.quarantined);
    w.boolean(shard.degraded);
    w.u64(shard.log.size());
    for (const LogEntry& entry : shard.log) {
      w.vec(entry.request.edges);
      w.f64(entry.request.cost);
      w.boolean(entry.request.must_accept);
      w.u8(entry.mode);
    }
    SnapshotWriter algo(std::string(kAlgorithmSnapshotKind),
                        kAlgorithmSnapshotVersion);
    shard.algorithm->save_snapshot(algo);
    w.blob(algo.finish());
  }
  return w.finish();
}

void AdmissionService::restore(std::span<const std::uint8_t> blob) {
  MINREJ_REQUIRE(placement_.empty(),
                 "restore() requires a freshly constructed service");
  MINREJ_REQUIRE(!config_.lca_reconcile,
                 "restore() does not cover the LCA reconcile lane");
  SnapshotReader r(blob, kServiceSnapshotKind);
  MINREJ_REQUIRE(r.version() == kServiceSnapshotVersion,
                 "unsupported service snapshot version");
  r.expect_tag("SRVC");
  const std::uint64_t source_shards = r.u64();
  MINREJ_REQUIRE(r.u64() == graph_.edge_count(),
                 "snapshot was taken on a graph with a different edge count");
  MINREJ_REQUIRE(r.u64() == capacity_fingerprint(graph_),
                 "snapshot was taken on a graph with different capacities");
  const bool has_log = r.boolean();
  const std::uint64_t arrival_count = r.u64();
  std::vector<std::pair<std::uint32_t, RequestId>> placements;
  placements.reserve(static_cast<std::size_t>(arrival_count));
  for (std::uint64_t i = 0; i < arrival_count; ++i) {
    const std::uint32_t shard = r.u32();
    const RequestId local = r.u32();
    placements.emplace_back(shard, local);
  }
  std::vector<std::uint8_t> modes = r.vec<std::uint8_t>();
  // Parse every shard record before touching this service, so a stream
  // that fails mid-way leaves it as constructed.
  std::vector<Shard> records;
  std::vector<std::vector<std::uint8_t>> algo_blobs;
  for (std::uint64_t s = 0; s < source_shards; ++s) {
    Shard& record = records.emplace_back();
    r.expect_tag("SHRD");
    record.arrivals = static_cast<std::size_t>(r.u64());
    record.task_failures = static_cast<std::size_t>(r.u64());
    record.retries = static_cast<std::size_t>(r.u64());
    record.restores = static_cast<std::size_t>(r.u64());
    record.shed = static_cast<std::size_t>(r.u64());
    record.malformed = static_cast<std::size_t>(r.u64());
    record.injected_delays = static_cast<std::size_t>(r.u64());
    record.quarantined = r.boolean();
    record.degraded = r.boolean();
    const std::uint64_t log_size = r.u64();
    record.log.reserve(static_cast<std::size_t>(log_size));
    for (std::uint64_t j = 0; j < log_size; ++j) {
      LogEntry& entry = record.log.emplace_back();
      entry.request.edges = r.vec<EdgeId>();
      entry.request.cost = r.f64();
      entry.request.must_accept = r.boolean();
      entry.mode = r.u8();
    }
    algo_blobs.push_back(r.blob());
  }
  r.expect_end();

  if (records.size() == shards_.size()) {
    // Same shard count: load every shard's algorithm snapshot directly.
    // The continuation is bit-identical to the uninterrupted run.
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      std::unique_ptr<OnlineAdmissionAlgorithm> fresh = factory_(graph_, s);
      MINREJ_CHECK(fresh != nullptr, "factory returned a null algorithm");
      SnapshotReader algo(algo_blobs[s], kAlgorithmSnapshotKind);
      MINREJ_REQUIRE(algo.version() == kAlgorithmSnapshotVersion,
                     "unsupported algorithm snapshot version");
      fresh->load_snapshot(algo);
      algo.expect_end();
      records[s].algorithm = std::move(fresh);
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s] = std::move(records[s]);
    }
    placement_ = std::move(placements);
    modes_ = std::move(modes);
    return;
  }

  // Reshard-on-restore: replay the committed global arrival sequence
  // through this service's own routing.  Exact only when the source kept
  // logs, shed/voided nothing, and processed everything in engine mode —
  // i.e. the deterministic shard-disjoint regime DESIGN.md §6.1 pins down.
  MINREJ_REQUIRE(has_log,
                 "reshard-on-restore needs the source service's arrival log "
                 "(fault tolerance was disabled when the snapshot was taken)");
  std::vector<Request> sequence;
  sequence.reserve(placements.size());
  for (const auto& [shard, local] : placements) {
    MINREJ_REQUIRE(local != kInvalidId,
                   "reshard-on-restore cannot replay shed or malformed "
                   "arrivals — their requests were never logged");
    MINREJ_REQUIRE(shard < records.size() && local < records[shard].log.size(),
                   "snapshot placement points outside the shard log");
    const LogEntry& entry = records[shard].log[local];
    MINREJ_REQUIRE(
        entry.mode == static_cast<std::uint8_t>(DecisionMode::kEngine),
        "reshard-on-restore requires an engine-mode-only trajectory (the "
        "source load-shed arrivals)");
    sequence.push_back(entry.request);
  }
  pump_all(sequence);
}

void AdmissionService::pump_all(std::span<const Request> requests) {
  for (std::size_t offset = 0; offset < requests.size();
       offset += config_.batch) {
    submit_batch(requests.subspan(
        offset, std::min(config_.batch, requests.size() - offset)));
  }
}

ServiceStats AdmissionService::run(const AdmissionInstance& instance) {
  MINREJ_REQUIRE(instance.graph().edge_count() == graph_.edge_count(),
                 "instance graph does not match the service graph");
  Timer wall;
  pump_all(instance.requests());
  ServiceStats stats = aggregate();
  stats.seconds = wall.elapsed_s();
  return stats;
}

bool AdmissionService::is_accepted(std::size_t arrival_index) const {
  const auto [shard, local] = placement(arrival_index);
  MINREJ_REQUIRE(local != kInvalidId,
                 "arrival was never processed (its shard failed mid-batch)");
  if (shard == kLcaLane) return lca_algorithm_->is_accepted(local);
  return shards_[shard].algorithm->is_accepted(local);
}

std::pair<std::size_t, RequestId> AdmissionService::placement(
    std::size_t arrival_index) const {
  MINREJ_REQUIRE(arrival_index < placement_.size(),
                 "arrival index out of range");
  const auto& [shard, local] = placement_[arrival_index];
  if (shard == kLcaShardMarker) return {kLcaLane, local};
  return {static_cast<std::size_t>(shard), local};
}

const OnlineAdmissionAlgorithm& AdmissionService::lca_algorithm() const {
  MINREJ_REQUIRE(lca_algorithm_ != nullptr,
                 "lca_algorithm() requires ServiceConfig::lca_reconcile");
  return *lca_algorithm_;
}

std::size_t AdmissionService::lca_arrivals() const noexcept {
  return lca_algorithm_ ? lca_algorithm_->arrivals() : 0;
}

std::size_t AdmissionService::lca_speculation_hits() const noexcept {
  return lca_speculation_hits_;
}

const OnlineAdmissionAlgorithm& AdmissionService::shard_algorithm(
    std::size_t shard) const {
  MINREJ_REQUIRE(shard < shards_.size(), "shard index out of range");
  return *shards_[shard].algorithm;
}

ShardStats AdmissionService::shard_stats(std::size_t shard) const {
  MINREJ_REQUIRE(shard < shards_.size(), "shard index out of range");
  const Shard& s = shards_[shard];
  ShardStats stats;
  stats.shard = shard;
  stats.arrivals = s.arrivals;
  stats.rejected = s.algorithm->rejected_count();
  stats.accepted = s.arrivals - stats.rejected;
  stats.rejected_cost = s.algorithm->rejected_cost();
  stats.augmentation_steps = s.algorithm->augmentation_steps();
  stats.busy_seconds = s.busy_seconds;
  stats.latencies_s = s.latencies_s;
  stats.augmentation_budget = augmentation_step_budget(
      s.arrivals, graph_.edge_count(), graph_.max_capacity());
  stats.augmentation_budget_exceeded =
      stats.augmentation_steps > stats.augmentation_budget;
  stats.task_failures = s.task_failures;
  stats.retries = s.retries;
  stats.restores = s.restores;
  stats.shed = s.shed;
  stats.malformed = s.malformed;
  stats.injected_delays = s.injected_delays;
  stats.quarantined = s.quarantined;
  stats.degraded = s.degraded;
  return stats;
}

ServiceStats AdmissionService::aggregate() const {
  ServiceStats stats;
  stats.shards = shards_.size();
  stats.seconds = pumped_seconds_;
  std::vector<double> latencies;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const ShardStats shard = shard_stats(s);
    stats.arrivals += shard.arrivals;
    stats.accepted += shard.accepted;
    stats.rejected += shard.rejected;
    stats.rejected_cost += shard.rejected_cost;
    stats.augmentation_steps += shard.augmentation_steps;
    stats.max_shard_busy_s =
        std::max(stats.max_shard_busy_s, shard.busy_seconds);
    stats.total_busy_s += shard.busy_seconds;
    latencies.insert(latencies.end(), shard.latencies_s.begin(),
                     shard.latencies_s.end());
    if (shard.augmentation_budget_exceeded) ++stats.budget_exceeded_shards;
    stats.task_failures += shard.task_failures;
    stats.retries += shard.retries;
    stats.restores += shard.restores;
    stats.shed += shard.shed;
    stats.malformed += shard.malformed;
    stats.injected_delays += shard.injected_delays;
    if (shard.quarantined) ++stats.quarantined_shards;
    if (shard.degraded) ++stats.degraded_shards;
  }
  if (lca_algorithm_) {
    // Fold the reconcile lane into the totals (it owns real arrivals) and
    // report it separately too.
    const std::size_t lane_arrivals = lca_algorithm_->arrivals();
    const std::size_t lane_rejected = lca_algorithm_->rejected_count();
    stats.arrivals += lane_arrivals;
    stats.rejected += lane_rejected;
    stats.accepted += lane_arrivals - lane_rejected;
    stats.rejected_cost += lca_algorithm_->rejected_cost();
    stats.augmentation_steps += lca_algorithm_->augmentation_steps();
    stats.lca_arrivals = lane_arrivals;
    stats.lca_speculation_hits = lca_speculation_hits_;
  }
  if (!latencies.empty()) {
    // Sorting the merged samples before taking quantiles makes the result
    // invariant to shard merge order (§11.2).
    std::sort(latencies.begin(), latencies.end());
    stats.p50_arrival_s = quantile_sorted(latencies, 0.50);
    stats.p95_arrival_s = quantile_sorted(latencies, 0.95);
    stats.max_arrival_s = latencies.back();
  }
  return stats;
}

}  // namespace minrej
