// fractional_engine.h — the weight-augmentation engine of paper §2.
//
// This is the primal-dual core everything else builds on.  It maintains a
// monotone non-decreasing weight f_i per request (the *rejected fraction*,
// capped at 1), and on each arrival restores, for every edge e of the new
// request, the covering invariant
//
//     Σ_{i ∈ ALIVE_e} f_i  ≥  n_e  :=  |ALIVE_e| − c_e
//
// by weight augmentations (paper steps 2a–2c):
//   (a) every alive zero-weight request on e jumps to the floor 1/(g·c);
//   (b) every alive request on e is multiplied by (1 + 1/(n_e · p_i));
//   (c) requests crossing f_i ≥ 1 become fully rejected and leave every
//       ALIVE list (which lowers n_e).
//
// Two deviations from the paper's bare setting, both needed by the layers
// above and both analysed in DESIGN.md §4:
//   * pinned requests (paper §2's "completely accept requests of cost
//     exceeding 2α" and §4's must-accept phase-2 element requests): they
//     occupy capacity and count toward |ALIVE_e| but carry no weight and
//     are never augmented;
//   * if every augmentable request on an edge is already fully rejected the
//     augmentation loop stops (the invariant is unsatisfiable; the α-
//     doubling wrapper detects the blow-up through the cost guard).
//
// Costs come in two flavours per request: `update_cost` (the normalized
// p_i the multiplicative step uses — the §2 analysis assumes these lie in
// [1, g]) and `report_cost` (raw units for the objective Σ min(f_i,1)·p_i).
//
// FlatFractionalEngine is the production implementation (DESIGN.md §3):
// structure-of-arrays request storage over a CSR-style request→edge
// incidence arena (one flat EdgeId pool plus per-request offsets — no
// per-request heap vector), with the per-edge covering sums and dead
// counts maintained *incrementally* so the augmentation-loop termination
// check, constraint_satisfied(), alive_weight_sum(), and saturated() are
// all O(1) and the paper's three per-step passes fuse into a single
// cache-friendly sweep.  The sweep and the cache-refresh rescan run on the
// data-parallel kernel layer of core/simd_sweep.h (scalar / AVX2 / AVX-512,
// selected once per process; DESIGN.md §8).  Member lists are compacted
// only when their dead fraction crosses a threshold (amortized O(1) per
// death).  Edges whose member lists are tiny (≤ the small-list threshold)
// opt out of the incremental-sum machinery entirely and run naive-style
// inline scans — the small-degree fast path of DESIGN.md §7.3, which
// removes the flat engine's bookkeeping overhead in the tiny-list regime
// §5 documents.
//
// Covering-sum upkeep is *lazy across arrivals* (the delta journal of
// DESIGN.md §8): a touched request with a narrow incidence row patches its
// edges' caches eagerly at arrival end, while a wide row appends one
// (id, Δ) journal entry instead of walking its whole row; an edge's cache
// is reconciled with the pending journal suffix only when it is actually
// read, choosing between a segment scan and a fresh kernel rescan by an
// integer cost estimate.  On overlap-shaped workloads (many wide rows,
// rare augmentation) this replaces the old per-arrival O(row degree)
// fix-up walk — the §7.5 regression — with work proportional to what is
// read.
//
// The engine binds to its substrate — the per-edge capacity array — at
// compile time through CoveringSubstrateTraits (substrate_traits.h):
// construct it from a Graph (admission control) or from a CoveringInstance
// (set cover, where capacity = element degree per the §4 reduction) and
// the hot loop indexes the same flat span either way.  It is the only
// engine the library ships (the FractionalEngine alias at the bottom of
// this header); the pre-rewrite reference implementation survives as the
// test suites' differential oracle (tests/naive_engine.h), and
// engine_differential_test holds the two to identical outputs.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <vector>

#include "core/engine_types.h"
#include "core/simd_sweep.h"
#include "core/substrate_traits.h"
#include "graph/types.h"
#include "util/spsc_ring.h"  // CacheAlignedAllocator for the hot-row arena

namespace minrej {

class SnapshotWriter;
class SnapshotReader;

/// Flat-storage weight-augmentation engine (one instance per α-phase).
class FlatFractionalEngine {
 public:
  using Delta = WeightDelta;

  static constexpr double kWeightClamp = kEngineWeightClamp;

  /// Default small-list threshold: member lists at or below this length
  /// take the small-degree fast path (inline exact scans, no
  /// incremental-sum or compaction bookkeeping — DESIGN.md §7.3).  An
  /// edge's covering-sum cache is trusted only while its list is longer
  /// than this; crossing the threshold resynchronizes it exactly.  The
  /// per-engine value is constructor-tunable (the §7.3 calibration note
  /// records how 48 was chosen); tests may pass extreme values to force
  /// either regime everywhere.
  static constexpr std::size_t kSmallListThreshold = 48;

  /// Binds the engine to its substrate view.  `zero_init` is the paper's
  /// 1/(g·c) floor for step (a); must be in (0, 1].
  /// `small_list_threshold` tunes the §7.3 fast-path boundary (0 pushes
  /// every non-empty list into the incremental regime).
  FlatFractionalEngine(EngineSubstrate substrate, double zero_init,
                       std::size_t small_list_threshold = kSmallListThreshold);

  /// Compile-time substrate binding: anything with CoveringSubstrateTraits
  /// (a Graph, a CoveringInstance) constructs the engine directly.
  template <typename S>
  FlatFractionalEngine(const S& substrate, double zero_init,
                       std::size_t small_list_threshold = kSmallListThreshold)
      : FlatFractionalEngine(CoveringSubstrateTraits<S>::bind(substrate),
                             zero_init, small_list_threshold) {}

  /// Registers a permanently-accepted request occupying capacity on
  /// `edges` (no weight, never rejected).  Returns its id.
  RequestId pin(std::span<const EdgeId> edges);
  RequestId pin(std::initializer_list<EdgeId> edges) {
    return pin(std::span<const EdgeId>(edges.begin(), edges.size()));
  }

  /// Registers an augmentable request WITHOUT running the augmentation
  /// loop.  Used by the α-doubling wrapper when a new phase re-admits the
  /// surviving requests of the previous phase under the new normalization.
  /// `initial_weight` carries the request's weight forward — §2 states the
  /// weights are monotone over the whole run, so a phase change must not
  /// reset them (only the phase's *cost accounting* restarts; the carried
  /// weight is already paid for).  Must be in [0, 1).
  RequestId admit_existing(std::span<const EdgeId> edges, double update_cost,
                           double report_cost, double initial_weight = 0.0);
  RequestId admit_existing(std::initializer_list<EdgeId> edges,
                           double update_cost, double report_cost,
                           double initial_weight = 0.0) {
    return admit_existing(std::span<const EdgeId>(edges.begin(), edges.size()),
                          update_cost, report_cost, initial_weight);
  }

  /// Processes the arrival of an augmentable request.  Runs the
  /// augmentation loop on each of its edges (in the given order) and
  /// returns the per-request weight increases of this arrival (in
  /// increasing request id), including the arriving request itself.  The
  /// returned reference is valid until the next arrive()/pin()/
  /// restore_edges() call.
  const std::vector<Delta>& arrive(std::span<const EdgeId> edges,
                                   double update_cost, double report_cost);
  const std::vector<Delta>& arrive(std::initializer_list<EdgeId> edges,
                                   double update_cost, double report_cost) {
    return arrive(std::span<const EdgeId>(edges.begin(), edges.size()),
                  update_cost, report_cost);
  }

  /// Runs the augmentation loop on the given edges without a new arrival
  /// (used right after a phase rebuild, when the triggering request was
  /// admitted passively).  Returns the weight increases, same contract as
  /// arrive().
  const std::vector<Delta>& restore_edges(std::span<const EdgeId> edges);
  const std::vector<Delta>& restore_edges(std::initializer_list<EdgeId> edges) {
    return restore_edges(std::span<const EdgeId>(edges.begin(), edges.size()));
  }

  std::size_t request_count() const noexcept { return hot_.size(); }

  double weight(RequestId id) const;
  bool is_pinned(RequestId id) const;
  /// f_i >= 1: the fractional solution rejects this request completely.
  bool fully_rejected(RequestId id) const;

  /// Σ_i min(f_i, 1) · report_cost_i — the fractional objective (§2).
  double fractional_cost() const noexcept { return fractional_cost_; }

  /// Total number of weight-augmentation steps so far (Lemma 1 bounds
  /// this by O(α log(g·c))).
  std::uint64_t augmentations() const noexcept { return augmentations_; }

  /// Member-list compaction passes.  Gated on the incrementally-tracked
  /// per-edge dead count crossing half the list, so an augmentation loop
  /// in which nothing died performs none (DESIGN.md §3.2; the
  /// EngineCompaction tests in engine_differential_test.cpp pin this
  /// down).  Small lists never trigger the gate (DESIGN.md §7.3): their
  /// dead entries are dropped by the edge's own sweeps.
  std::uint64_t compactions() const noexcept { return compactions_; }

  /// The §7.3 fast-path boundary this engine runs with.
  std::size_t small_list_threshold() const noexcept {
    return small_threshold_;
  }

  /// The sweep-kernel tier this engine dispatches to (snapshotted from
  /// simd::active_sweep_isa() at construction, so a test override applies
  /// to engines constructed after it).
  simd::SweepIsa sweep_kernel() const noexcept { return kernel_; }

  /// Serializes the complete engine state into `w` (DESIGN.md §9).  Legal
  /// only between arrivals (the per-arrival scratch must be empty).
  void save_state(SnapshotWriter& w) const;

  /// Restores a save_state stream into this engine, which must be freshly
  /// constructed on a substrate with the same column count.  Every field
  /// that feeds the arithmetic is restored bit-exactly, so the continued
  /// trajectory equals the uninterrupted one.
  void load_state(SnapshotReader& r);

  /// Test hook: invoked after every single augmentation step with the
  /// edge that was augmented.  The Lemma-1 white-box test uses this to
  /// verify the paper's potential Φ = Π max(f_i, 1/gc)^{f*_i·p_i} at
  /// least doubles per step.  Null by default; keep the callback cheap.
  void set_augmentation_observer(std::function<void(EdgeId)> observer) {
    observer_ = std::move(observer);
  }

  // -- introspection for tests and the randomized layer ---------------------

  /// n_e = |ALIVE_e| − c_e (alive = not fully rejected, incl. pinned).
  /// O(1).
  std::int64_t excess(EdgeId e) const;
  /// Σ of weights of alive augmentable requests on e.  O(1) for long
  /// member lists (maintained incrementally; resynchronized exactly on
  /// compaction, so drift stays below the covering-check tolerance);
  /// small lists are rescanned exactly — a bounded O(kSmallListThreshold)
  /// walk.
  double alive_weight_sum(EdgeId e) const;
  /// Invariant of §2: true iff alive_weight_sum(e) >= excess(e), or the
  /// edge has no augmentable alive request left.  O(1) (same small-list
  /// bound as alive_weight_sum).
  bool constraint_satisfied(EdgeId e) const;
  /// True iff the edge has positive excess but no augmentable alive
  /// request — the covering constraint is unsatisfiable at the current
  /// classification.  In auto-α mode this is proof that α is too small
  /// (only pinned cost->2α requests remain, and OPT must reject fractions
  /// of them), so the wrapper doubles α on this signal.  O(1).
  bool saturated(EdgeId e) const;
  /// Alive augmentable request ids on edge e (compacted view).
  std::vector<RequestId> alive_requests(EdgeId e) const;
  /// Raw member-list length of edge e, dead entries included (tests: the
  /// in-place sweep keeps this equal to the alive count on swept edges).
  std::size_t member_list_size(EdgeId e) const;

 private:
  /// Runs the §2 augmentation loop for one edge.  `sum_maybe_stale` is set
  /// when an earlier edge of the same arrival already ran steps, in which
  /// case the loop seeds its covering sum with one exact rescan instead of
  /// the reconciled incremental cache.
  void augment_edge(EdgeId e, bool sum_maybe_stale);

  /// One fused (a)+(b)+(c) sweep over e's member list with in-place
  /// compaction (dispatched to the simd_sweep.h kernel; death-count
  /// bookkeeping happens here, after the kernel returns its death
  /// stream).  Returns the net change of the covering sum (dead members
  /// contribute −old_weight).
  double sweep_step(EdgeId e, double ne);

  /// Exact Σ of alive member weights on e, in member-list order — the same
  /// addition sequence the naive engine performs, scalar on every build.
  /// This is the §3.2 decision path: augmentation-loop boundary calls
  /// (band fallback, stale seeds) route here and nowhere else.
  double exact_alive_sum(EdgeId e) const;

  /// Returns e's covering sum with every pending journal entry folded in,
  /// committing the reconciled value to the cache (cheap: O(1) when
  /// nothing is pending).  Mid-arrival (weights changed but the journal
  /// not yet appended) it degrades to a non-committing exact rescan so an
  /// observer-time read can never double-count this arrival's deltas.
  /// Only meaningful for lists above the small-list threshold.
  double reconciled_sum(EdgeId e) const;

  /// Applies the whole journal to every large edge and truncates it —
  /// runs when the journal outgrows the incidence arena, which keeps the
  /// amortized cost per appended entry constant.
  void fold_journal();

  /// True when e's member list takes the small-degree fast path: the
  /// incremental covering-sum cache is not maintained (and not trusted)
  /// for it.
  bool small_list(EdgeId e) const {
    return members_[e].size() <= small_threshold_;
  }

  /// Removes dead entries from an edge's member list and resynchronizes
  /// alive_sum_[e].  Swept edges self-compact inside augment_edge; this
  /// handles lists that only ever receive *cross-edge* deaths, and is
  /// gated on the tracked dead count crossing half the list.
  void compact(EdgeId e);

  /// Request i's edge set in the incidence arena.
  std::span<const EdgeId> edges_of(RequestId i) const {
    return {edge_pool_.data() + edge_begin_[i],
            edge_begin_[i + 1] - edge_begin_[i]};
  }

  /// Appends a request's SoA row + arena slice (shared by pin and
  /// admit_existing; edges are pre-validated by the callers).
  RequestId append_request(std::span<const EdgeId> edges, double update_cost,
                           double report_cost, double initial_weight,
                           bool pinned);

  /// Hot rows live in engine_types.h now (the sweep kernels address their
  /// fields by fixed offsets); `update_cost` is stored as its reciprocal —
  /// see EngineHotRow.
  using HotRow = EngineHotRow;

  /// One deferred covering-sum update: request `id`'s alive-contribution
  /// changed by `delta` during some past arrival, and edges with a
  /// journal cursor before this entry have not folded it in yet.
  struct JournalEntry {
    RequestId id = 0;
    double delta = 0.0;
  };

  EngineSubstrate substrate_;
  double zero_init_;
  std::size_t small_threshold_;
  simd::SweepIsa kernel_;

  // -- request store: hot rows + cold SoA + CSR incidence arena -------------
  /// Cache-line-aligned arena: with one engine per service shard, the 32-
  /// byte hot rows of different shards must never straddle a shared line
  /// (the DESIGN.md §11.3 false-sharing audit), and an aligned base also
  /// keeps the AVX-512 contiguous-8-block fast path on full-line loads.
  std::vector<HotRow, CacheAlignedAllocator<HotRow>> hot_;
  std::vector<std::size_t> edge_begin_;  ///< per-request offset; size n+1
  std::vector<EdgeId> edge_pool_;        ///< flat arena of all edge lists
  std::vector<double> report_cost_;
  /// weight < 1 (pinned: always 1).  Maintained for the O(1) public
  /// queries; the sweep itself infers death from weight ≥ 1 (equivalent
  /// for the non-pinned requests member lists hold) to stay off this
  /// array.
  std::vector<std::uint8_t> alive_;
  std::vector<std::uint8_t> pinned_;

  // -- per-edge state --------------------------------------------------------
  /// Augmentable members per edge (alive and dead; compacted when the dead
  /// fraction crosses 1/2).
  std::vector<std::vector<RequestId>> members_;
  std::vector<std::int64_t> alive_count_;   ///< augmentable alive per edge
  std::vector<std::int64_t> pinned_count_;  ///< pinned per edge
  std::vector<std::int64_t> dead_count_;    ///< dead entries in members_[e]
  /// Incremental Σ alive member weights — trusted only for lists longer
  /// than the small-list threshold, and only modulo the pending journal
  /// suffix past journal_pos_ (DESIGN.md §7.3, §8).  Mutable with
  /// journal_pos_: reconciliation is a cache commit, logically const.
  mutable std::vector<double> alive_sum_;
  /// Per-edge cursor into journal_: entries before it are folded into
  /// alive_sum_[e], entries at/after it are pending for this edge.
  mutable std::vector<std::size_t> journal_pos_;
  /// Deferred covering-sum updates from wide-row touched requests
  /// (DESIGN.md §8), in touch order; folded per edge on read, truncated
  /// globally by fold_journal().
  std::vector<JournalEntry> journal_;

  /// Number of edges currently above the small-list threshold.  When zero
  /// the arrival-end fix-up pass is skipped outright — on tiny-list
  /// traffic there is no covering-sum cache to maintain anywhere (§7.3).
  std::size_t large_edges_ = 0;

  /// True from the first sweep step of the current arrival until its
  /// fix-up appended the journal entries: cache commits are unsafe in
  /// that window (reconciled_sum degrades to a plain rescan).
  bool mid_arrival_dirty_ = false;

  double fractional_cost_ = 0.0;
  std::uint64_t augmentations_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t epoch_ = 0;
  std::vector<RequestId> touched_;  // requests touched this arrival
  std::vector<RequestId> deaths_;   // scratch: kernel death stream
  std::vector<Delta> deltas_;       // output buffer
  std::function<void(EdgeId)> observer_;
};

/// Engine every consumer layer builds against.
using FractionalEngine = FlatFractionalEngine;

}  // namespace minrej
