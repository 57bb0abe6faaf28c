// admission_service.h — sharded batch-arrival service over the online
// admission algorithms (docs/API.md "AdmissionService"; DESIGN.md §6).
//
// The algorithms in core/ are strictly sequential: one arrival at a time
// through OnlineAdmissionAlgorithm::process.  AdmissionService scales them
// out the way the MPC/local-computation literature decomposes online
// allocation (PAPERS.md: Łącki et al. arXiv:2506.04524, Mansour et al.
// arXiv:1205.1312): the edge set is partitioned into K *shards*, each
// shard owns a full, independent algorithm instance over the same graph,
// and every arriving request is routed to the shard of its first (lowest)
// edge.  One pump serves every batch (DESIGN.md §11): the caller routes
// arrivals in order and streams them into per-shard lock-free rings, and
// persistent workers (shard s → worker s mod W) consume them — so shard
// trajectories are deterministic regardless of scheduling: shard s always
// sees exactly the subsequence of arrivals routed to it, in arrival order.
//
// Partitioning invariant (DESIGN.md §6.1): when every request's edges lie
// in a single shard ("shard-disjoint" traffic — single-edge requests under
// any partition, or multi-tenant traffic under a tenant-aligned
// partition), the sharded system is *exactly* the unsharded one: per-shard
// capacity enforcement equals global enforcement, and each shard's
// competitive guarantee holds verbatim on its sub-instance.  For
// deterministic algorithm configurations the sharded and unsharded runs
// are bit-identical (tests/service_test.cpp pins this down).  For traffic
// that does cross shards, the owning shard enforces capacities against its
// own view only — admission decisions remain safe per shard but edges
// shared across shards may be oversubscribed globally; see DESIGN.md §6.1
// for why this is the documented relaxation rather than an error.
//
// Fault tolerance (DESIGN.md §9) is a per-shard policy on the same pump:
// with ServiceConfig::fault_tolerance enabled the router validates
// arrivals and sheds for quarantine and queue caps, the owning worker
// probes the injector, latches deadline/budget shedding and appends the
// shard's committed arrival log as it goes, and after the batch barrier a
// failed shard is rolled back, rebuilt and retried with exponential
// backoff or quarantined.  The log — together with the snapshot layer
// (io/snapshot.h) — supports snapshot(), restore(), checkpoint() and
// restore_shard().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/online_admission.h"
#include "graph/request.h"
#include "util/spsc_ring.h"
#include "util/timer.h"

namespace minrej {

class FaultInjector;

/// How the pump resolved one arrival (decision_mode()).  Only tracked
/// under fault tolerance; without it every arrival is kEngine.
enum class DecisionMode : std::uint8_t {
  /// Processed by the shard algorithm's full engine (process()).
  kEngine = 0,
  /// Load-shed: either dropped at routing by backpressure (never reached
  /// the algorithm) or processed by the degraded threshold rule
  /// (process_shed()) — the shard log tells them apart.
  kShed = 1,
  /// Rejected at validation (empty/out-of-range/unsorted edges or a
  /// non-finite/non-positive cost); never reached an algorithm.
  kMalformed = 2,
  /// Dropped because the owning shard was quarantined at arrival time.
  kQuarantineShed = 3,
};

/// Retry/backoff knobs for failed shard tasks (DESIGN.md §9).
struct RetryPolicy {
  /// Retries after the first failed attempt before quarantine.
  std::size_t max_retries = 2;
  /// Backoff before retry r is min(backoff_base_s * 2^r, backoff_max_s),
  /// jittered by ±jitter (fraction).  Jitter perturbs only sleep times,
  /// never decisions, so fault-tolerant runs stay deterministic.
  double backoff_base_s = 0.0005;
  double backoff_max_s = 0.01;
  double jitter = 0.2;
  std::uint64_t jitter_seed = 0x5EEDBA5Eu;
};

/// Overload / graceful-degradation knobs (DESIGN.md §9).
struct OverloadPolicy {
  /// Max arrivals queued per shard per batch; overflow is shed at routing
  /// (backpressure — the closed-loop clients re-arrive them).  0 = off.
  std::size_t max_shard_queue = 0;
  /// Per-batch processing deadline per shard; once a shard's worker has
  /// spent longer than this on the batch, the rest of its sub-batch runs through the degraded threshold
  /// rule (process_shed).  Timing-dependent, hence opt-in and excluded
  /// from the determinism contract.  0 = off.
  double shard_deadline_s = 0.0;
  /// Latch a shard into degraded mode once its augmentation steps exceed
  /// the core/run_budget.h budget.  Deterministic.
  bool shed_on_budget = false;
};

/// Master switch plus policies.  Disabled (the default) costs a few
/// predictable branches per arrival; no log, modes or retries are kept.
struct FaultToleranceConfig {
  bool enabled = false;
  RetryPolicy retry;
  OverloadPolicy overload;
  /// Optional deterministic fault source (util/fault_injector.h) consulted
  /// by the pump: task exceptions, slow shards, corrupted arrivals.
  std::shared_ptr<const FaultInjector> injector;
};

/// Builds the algorithm instance owned by one shard.  Must construct on
/// the graph it is given (the service's graph — shards share the topology;
/// only the traffic is partitioned).  The shard index lets factories
/// derive per-shard seeds.
///
/// The factory must be thread-safe: besides the caller's thread it runs on
/// the pump workers (parallel committed-log rebuild after a shard
/// failure), possibly for several shards at once.  The stock factories
/// (randomized_shard_factory and the test factories) are: they capture
/// only values and construct fresh objects.
using ShardAlgorithmFactory =
    std::function<std::unique_ptr<OnlineAdmissionAlgorithm>(
        const Graph& graph, std::size_t shard)>;

/// Service knobs.
struct ServiceConfig {
  /// Number of shards K (>= 1).  K == 1 is the unsharded reference.
  std::size_t shards = 1;
  /// Arrivals per pump in run(); submit_batch takes what it is given.
  std::size_t batch = 256;
  /// Persistent pump workers; 0 selects one per shard (capped at
  /// hardware).  Decisions are identical for every worker count.
  std::size_t threads = 0;
  /// Record per-arrival processing latency (two clock reads per arrival
  /// on the shard's worker).  Off by default, same rationale as
  /// RunOptions::collect_latencies.
  bool collect_latencies = false;
  /// Optional edge → shard override (must return values < shards; checked
  /// over every edge at construction).  The default is the splitmix64 hash
  /// partition; a tenant-aligned override makes multi-tenant traffic
  /// shard-disjoint (DESIGN.md §6.1).
  std::function<std::size_t(EdgeId)> partition;
  /// Fault-tolerance layer (DESIGN.md §9).  Off by default.
  FaultToleranceConfig fault_tolerance;
  /// Divert requests whose edges span multiple shards to a sequential
  /// reconcile lane instead of their first-edge owner (DESIGN.md §11.5):
  /// the owning shard answers speculatively from its local view
  /// (would_overflow on the request's edges), then a dedicated reconcile
  /// engine decides authoritatively in arrival order.  Removes the §6.1
  /// cross-shard oversubscription relaxation at the price of serializing
  /// cross-shard traffic.  Incompatible with fault_tolerance and
  /// snapshot/restore (checked).
  bool lca_reconcile = false;
};

/// Counters for one shard.  accepted/rejected/rejected_cost/augmentations
/// are read from the shard's algorithm at query time; arrivals, busy time
/// and latencies are tracked by the pump.
struct ShardStats {
  std::size_t shard = 0;
  std::size_t arrivals = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  double rejected_cost = 0.0;
  std::uint64_t augmentation_steps = 0;
  /// Time this shard's worker spent processing (sums over batches; the
  /// max over shards is the critical path of the pump).
  double busy_seconds = 0.0;
  /// Per-arrival latencies in seconds, arrival order (empty unless
  /// ServiceConfig::collect_latencies).
  std::vector<double> latencies_s;
  /// The shard's core/run_budget.h augmentation-step budget at its current
  /// arrival count, and whether its steps exceed it — the per-shard
  /// blow-up verdict (same guard the sim runner reports per run).
  std::uint64_t augmentation_budget = 0;
  bool augmentation_budget_exceeded = false;
  /// Fault-tolerance counters (all 0 when the layer is disabled).
  std::size_t task_failures = 0;   ///< failed task attempts (incl. injected)
  std::size_t retries = 0;         ///< attempts re-run after backoff
  std::size_t restores = 0;        ///< algorithm rebuilds (retry/quarantine/heal)
  std::size_t shed = 0;            ///< arrivals shed at routing (backpressure/quarantine)
  std::size_t malformed = 0;       ///< arrivals rejected at validation
  std::size_t injected_delays = 0; ///< injector kDelay probes observed
  bool quarantined = false;        ///< currently refusing traffic
  bool degraded = false;           ///< load-shed latch active (process_shed)
};

/// Merged view across all shards (util/stats quantile merge).
struct ServiceStats {
  std::size_t shards = 0;
  std::size_t arrivals = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  double rejected_cost = 0.0;
  std::uint64_t augmentation_steps = 0;
  /// Wall-clock seconds: run() reports its own wall time; aggregate()
  /// reports the summed wall time of all submit_batch calls.
  double seconds = 0.0;
  /// Largest per-shard busy_seconds — the pump's critical path.
  double max_shard_busy_s = 0.0;
  /// Summed per-shard busy_seconds (the serialized work).
  double total_busy_s = 0.0;
  /// Per-arrival latency quantiles over the merged shard samples, in
  /// seconds (0 when latencies were not collected).
  double p50_arrival_s = 0.0;
  double p95_arrival_s = 0.0;
  double max_arrival_s = 0.0;
  /// Shards whose augmentation steps exceed their budget (satellite of
  /// the per-shard ShardStats verdict).
  std::size_t budget_exceeded_shards = 0;
  /// Summed fault-tolerance counters (see ShardStats).
  std::size_t task_failures = 0;
  std::size_t retries = 0;
  std::size_t restores = 0;
  std::size_t shed = 0;
  std::size_t malformed = 0;
  std::size_t injected_delays = 0;
  std::size_t quarantined_shards = 0;
  std::size_t degraded_shards = 0;
  /// LCA reconcile lane (ServiceConfig::lca_reconcile): cross-shard
  /// arrivals diverted to the sequential reconcile engine, and how many of
  /// them the owning shard's speculative local answer agreed with.  The
  /// lane's arrivals/accepted/rejected/rejected_cost are already folded
  /// into the totals above.
  std::size_t lca_arrivals = 0;
  std::size_t lca_speculation_hits = 0;

  double arrivals_per_sec() const noexcept {
    return seconds > 0.0 ? static_cast<double>(arrivals) / seconds : 0.0;
  }

  /// Throughput of the pump's critical path: arrivals / max shard busy
  /// time.  This is what the sharded system sustains when every shard has
  /// its own core — on a machine with fewer cores than shards the wall
  /// clock serializes the shards and arrivals_per_sec() cannot show the
  /// sharding gain, while this number still does (DESIGN.md §6.2).
  double critical_path_arrivals_per_sec() const noexcept {
    return max_shard_busy_s > 0.0
               ? static_cast<double>(arrivals) / max_shard_busy_s
               : 0.0;
  }
};

/// Convenience factory shared by the service driver and benches: one §3
/// RandomizedAdmission per shard in the given cost mode, seeded
/// `seed + shard` so shard trajectories draw independent random streams.
ShardAlgorithmFactory randomized_shard_factory(bool unit_costs,
                                               std::uint64_t seed);

/// The sharded batch-arrival admission service.
class AdmissionService {
 public:
  /// Builds `config.shards` algorithm instances via `factory` (each must
  /// be constructed on `graph` — checked) and starts the pump workers.
  AdmissionService(const Graph& graph, ShardAlgorithmFactory factory,
                   ServiceConfig config = {});

  /// Joins the pump workers.  Legal only between batches — like every
  /// other member, submit_batch must not be in flight.
  ~AdmissionService();

  AdmissionService(const AdmissionService&) = delete;
  AdmissionService& operator=(const AdmissionService&) = delete;

  /// Persistent workers actually pumping shards.
  std::size_t worker_count() const noexcept { return workers_.size(); }

  /// placement().first for arrivals handled by the LCA reconcile lane.
  static constexpr std::size_t kLcaLane = static_cast<std::size_t>(-1);

  /// The default partition: splitmix64 hash of the edge id, mod K.
  static std::size_t hash_edge_to_shard(EdgeId e,
                                        std::size_t shard_count) noexcept;

  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::size_t shard_of_edge(EdgeId e) const;
  /// Shard of the request's first (lowest — edge lists are sorted) edge.
  std::size_t shard_of_request(const Request& request) const;

  /// Pumps one batch through the shards: requests are routed by shard in
  /// input order, each shard's owning worker processes its arrivals in
  /// that order, and the per-request admission decisions come back in
  /// input order.  Without fault tolerance, a request that cannot be
  /// routed (no edges, or any edge the router reads out of range) rejects
  /// the whole batch with InvalidArgument before anything is recorded; on
  /// a shard failure the batch drains first, the failing shard's
  /// unprocessed arrivals get their placements voided (their is_accepted
  /// throws instead of aliasing a later request), and the first failure
  /// (by shard index) is rethrown; healthy shards keep their results and
  /// the service remains usable.
  std::vector<bool> submit_batch(std::span<const Request> batch);

  /// Pumps the whole instance through submit_batch in config.batch slices
  /// and returns the merged stats with run()'s wall time.  The instance
  /// must live on a graph with the service's edge count.
  ServiceStats run(const AdmissionInstance& instance);

  /// Total arrivals submitted so far.
  std::size_t arrivals() const noexcept { return placement_.size(); }

  /// Current acceptance state of the i-th submitted arrival (queried from
  /// the owning shard, so later preemptions are reflected).
  bool is_accepted(std::size_t arrival_index) const;

  /// The owning (shard, shard-local request id) of the i-th arrival.
  /// The local id is kInvalidId for an arrival voided by a shard failure.
  std::pair<std::size_t, RequestId> placement(std::size_t arrival_index) const;

  const OnlineAdmissionAlgorithm& shard_algorithm(std::size_t shard) const;

  // --- LCA reconcile lane (ServiceConfig::lca_reconcile; DESIGN.md §11.5) ---

  /// The reconcile-lane engine (requires lca_reconcile).
  const OnlineAdmissionAlgorithm& lca_algorithm() const;
  /// Cross-shard arrivals diverted to the reconcile lane so far.
  std::size_t lca_arrivals() const noexcept;
  /// How many diverted arrivals the owning shard's speculative local
  /// answer (would_overflow on its own view) agreed with.
  std::size_t lca_speculation_hits() const noexcept;

  /// Snapshot of one shard's counters.
  ShardStats shard_stats(std::size_t shard) const;

  /// Merged counters; seconds is the accumulated submit_batch wall time.
  ServiceStats aggregate() const;

  // --- fault tolerance / recovery (DESIGN.md §9; docs/API.md) ---

  /// How the pump resolved the i-th arrival.  kEngine for everything when
  /// fault tolerance is disabled (modes are not tracked then).
  DecisionMode decision_mode(std::size_t arrival_index) const;

  bool shard_quarantined(std::size_t shard) const;
  /// True while the shard's load-shed latch routes arrivals through the
  /// degraded threshold rule (process_shed).
  bool shard_degraded(std::size_t shard) const;

  /// Serializes the full service state — placements, decision modes,
  /// per-shard counters/logs, and one embedded algorithm snapshot per
  /// shard — into a sealed io/snapshot.h stream.  Requires every shard
  /// algorithm to support snapshots.  Legal only between batches.
  std::vector<std::uint8_t> snapshot() const;

  /// Rebuilds the state captured by snapshot() into this service, which
  /// must be freshly constructed (no arrivals) with the same graph and
  /// factory.  Same shard count: algorithm snapshots load directly and
  /// the continuation is bit-identical to the uninterrupted run.
  /// Different shard count (reshard-on-restore): the committed global
  /// arrival sequence is replayed through this service's own routing —
  /// requires the source to have kept logs (fault tolerance enabled),
  /// no shed/malformed arrivals, and engine-mode-only trajectories; the
  /// decisions match the source for shard-disjoint deterministic traffic
  /// (DESIGN.md §6.1/§9).
  void restore(std::span<const std::uint8_t> blob);

  /// Captures an in-memory per-shard recovery point (algorithm snapshot +
  /// log position): quarantine recovery and restore_shard() rebuild from
  /// here and replay only the log suffix.  Requires fault tolerance.
  void checkpoint();

  /// Rebuilds one shard to its last committed state (from its checkpoint
  /// when one exists, else by full log replay) and lifts its quarantine.
  /// The soak harness's kill-and-recover primitive.
  void restore_shard(std::size_t shard);

 private:
  /// One committed arrival of a shard: the request plus the mode it was
  /// actually processed under.  Log index == shard-local request id, so
  /// replaying the log reproduces the algorithm trajectory exactly.
  struct LogEntry {
    Request request;
    std::uint8_t mode = 0;  // DecisionMode::kEngine or kShed
  };

  /// alignas: a shard's fields (arrivals, busy time, latencies, log,
  /// error) are written by its owning worker while sibling workers write
  /// the neighbouring shards — cache-line alignment keeps those writes
  /// from false-sharing one line (§11.4 audit).
  struct alignas(kCacheLineBytes) Shard {
    std::unique_ptr<OnlineAdmissionAlgorithm> algorithm;
    std::size_t arrivals = 0;
    double busy_seconds = 0.0;
    std::vector<double> latencies_s;
    std::exception_ptr error;
    // Per-batch state, reset by the router before the first ring push.
    std::size_t batch_arrivals = 0;    // arrivals at batch start
    double batch_busy_s = 0.0;         // deadline clock of this attempt
    bool deadline_shed = false;        // OverloadPolicy::shard_deadline_s
    // Fault-tolerance state (untouched when the layer is disabled).
    std::vector<LogEntry> log;         // committed arrivals, id order
    std::vector<std::uint8_t> checkpoint_blob; // last checkpoint() snapshot
    std::size_t checkpoint_log_len = 0;
    bool checkpoint_degraded = false;
    bool quarantined = false;
    bool degraded = false;  // load-shed latch (OverloadPolicy::shed_on_budget)
    std::size_t task_failures = 0;
    std::size_t retries = 0;
    std::size_t restores = 0;
    std::size_t shed = 0;
    std::size_t malformed = 0;
    std::size_t injected_delays = 0;
  };

  /// Per-shard ingest lane (DESIGN.md §11.1).  The hot cross-thread
  /// state: the routing thread produces batch indices into `ring`, the
  /// owning worker consumes them and publishes progress through
  /// `consumed`.  alignas on the struct plus per-field alignas keeps
  /// producer-written, consumer-written, job and router-only state on
  /// disjoint cache lines (§11.4).
  struct alignas(kCacheLineBytes) Lane {
    /// Batch indices of this shard's arrivals, produced in arrival order.
    SpscRing<std::uint32_t> ring;
    /// Cumulative arrivals consumed by the owning worker.  One release
    /// fetch_add per processed chunk; the routing thread's acquire load is
    /// the batch-completion barrier that publishes every shard field the
    /// worker wrote (decisions, log, latencies, busy time, errors).
    alignas(kCacheLineBytes) std::atomic<std::uint64_t> consumed{0};
    /// Job slot for post-barrier recovery: the routing thread publishes
    /// `job_attempt` with the release store into `job` (a JobKind); the
    /// worker acquires, runs, and release-stores kNone when done.
    alignas(kCacheLineBytes) std::atomic<std::uint8_t> job{0};
    std::size_t job_attempt = 0;
    /// Router-side state of the current batch, written per routed arrival
    /// by the routing thread only (workers read `pending` in post-barrier
    /// jobs): the batch indices routed here, the next shard-local id, and
    /// the cumulative push count the barrier waits for `consumed` to
    /// reach.
    alignas(kCacheLineBytes) std::vector<std::size_t> pending;
    RequestId next_local = 0;
    std::uint64_t pushed = 0;

    explicit Lane(std::size_t capacity) : ring(capacity) {}
  };

  enum class JobKind : std::uint8_t { kNone = 0, kRetry = 1, kRebuild = 2 };

  // --- the pump (DESIGN.md §11) ---
  void worker_loop(std::size_t worker, std::size_t worker_total);
  /// Consumes up to one chunk from shard s's ring; returns true if it did
  /// any work.  Runs on the owning worker only.
  bool drain_lane(std::size_t s);
  /// Runs shard s's posted job slot if any; returns true if it did.
  bool run_lane_job(std::size_t s);
  /// The per-arrival step, shared by ring consumption and retry jobs:
  /// under fault tolerance the injector probe and the deadline/budget
  /// latches, then process or process_shed, then the decision, latency,
  /// mode and log writes.  An exception parks in shard.error and the
  /// shard discards the rest of its batch.  `busy` times the current
  /// chunk (the deadline clock).
  void process_arrival(std::size_t s, std::size_t idx, std::size_t attempt,
                       const Timer& busy);
  /// Posts `kind` to every listed shard's job slot and waits until the
  /// owning workers have run them.
  void run_jobs(const std::vector<std::size_t>& shards, JobKind kind,
                std::size_t attempt);
  /// Bumps the wake epoch under the pump mutex so sleeping workers
  /// re-poll.  The only lock the pump takes, and only when a worker may
  /// be asleep.
  void kick_workers();
  /// Blocks the routing thread until pred() holds: bounded spin-yield,
  /// then timed condvar waits (workers notify cv_done_ after progress).
  void wait_for_workers(const std::function<bool()>& pred);

  /// submit_batch over `requests` in config.batch slices.
  void pump_all(std::span<const Request> requests);

  // --- fault-tolerance policy (DESIGN.md §9) ---
  /// Post-barrier recovery of the shards whose batch failed: roll their
  /// log and latency suffix back to the batch-start length, rebuild them,
  /// then retry with backoff or quarantine once retries are exhausted.
  void recover_failed_shards(std::vector<std::size_t> failed,
                             std::size_t base);
  /// Rebuilds the shard's algorithm to its last committed state: fresh
  /// factory instance, checkpoint load when available, log replay for the
  /// rest (re-deriving the budget latch deterministically).
  void rebuild_shard(std::size_t shard);
  bool request_well_formed(const Request& request) const noexcept;
  /// True when the router can place the request: it has edges and every
  /// edge routing reads (the first; all of them under lca_reconcile) is
  /// in range.
  bool request_routable(const Request& request) const noexcept;

  // --- LCA reconcile lane (DESIGN.md §11.5) ---
  /// True when the request's edges span more than one shard.
  bool request_crosses_shards(const Request& request) const;
  /// Drains lca_pending_ through the reconcile engine in arrival order,
  /// scoring each owning shard's speculative local answer.  Runs on the
  /// routing thread after the batch's shard work has completed.
  void reconcile_lca_pending(std::span<const Request> batch,
                             std::size_t base);

  const Graph& graph_;
  ShardAlgorithmFactory factory_;
  ServiceConfig config_;
  std::vector<Shard> shards_;
  /// One lane per shard (unique_ptr — lanes hold atomics and a ring,
  /// neither movable) and the persistent workers.  Shard s is owned by
  /// worker s mod workers_.size().
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> workers_;
  /// The batch currently being pumped and the arrival index of its first
  /// request.  Written by the routing thread before any ring push / job
  /// post of the batch; workers read them only after a successful pop /
  /// job acquire, so the ring's release/acquire edge publishes them
  /// (§11.3 memory-order contract).
  std::span<const Request> live_batch_;
  std::size_t live_base_ = 0;
  /// Sleep/wake plumbing.  Workers spin-poll between batches for a
  /// bounded grace period, then wait on cv_wake_ with a short timeout;
  /// wake_epoch_ bumps (kick_workers) cut the latency of the common case.
  /// The timeout makes a lost wakeup cost microseconds, never a deadlock.
  std::mutex pump_mu_;
  std::condition_variable cv_wake_;
  std::condition_variable cv_done_;
  std::uint64_t wake_epoch_ = 0;  // guarded by pump_mu_
  bool stop_workers_ = false;     // guarded by pump_mu_
  /// LCA reconcile lane (lca_reconcile only).
  std::unique_ptr<OnlineAdmissionAlgorithm> lca_algorithm_;
  std::vector<std::size_t> lca_pending_;  // batch indices, reused per batch
  std::size_t lca_speculation_hits_ = 0;
  /// arrival index → (shard, shard-local request id).  kLcaShardMarker in
  /// the shard slot flags reconcile-lane arrivals (placement() maps it to
  /// kLcaLane).
  static constexpr std::uint32_t kLcaShardMarker = 0xFFFFFFFFu;
  std::vector<std::pair<std::uint32_t, RequestId>> placement_;
  /// arrival index → DecisionMode (only under fault tolerance).  Sized for
  /// the batch before the first ring push; workers write their arrivals'
  /// entries by index.
  std::vector<std::uint8_t> modes_;
  /// Per-batch decision scratch (uint8_t, not vector<bool>: workers write
  /// disjoint elements concurrently and vector<bool> packs bits).
  std::vector<std::uint8_t> decisions_;
  double pumped_seconds_ = 0.0;
};

}  // namespace minrej
