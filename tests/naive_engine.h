// naive_engine.h — the straightforward reference implementation of the §2
// weight-augmentation engine, retained verbatim from before the flat-storage
// rewrite (DESIGN.md §3.3) as the test suite's differential oracle.
//
// It stores one heap-allocated edge vector per request (AoS), rescans the
// edge's member list on every augmentation-loop iteration (compact, sum,
// floor, multiply, reject are five separate passes), and recomputes the
// covering sum from scratch each time.  That makes it slow — and trivially
// auditable against the paper's pseudocode, which is exactly its job: the
// differential test suite (engine_differential_test.cpp) drives this engine
// and FlatFractionalEngine through identical randomized workloads and
// asserts bit-identical weights, costs, augmentation counts, and rejection
// sets.  Correctness of the fast engine is established by this comparison,
// not by faith.
//
// Differential contract (the parts of the arithmetic that are pinned so the
// bit-identity assertions hold; DESIGN.md §8 spells out the reasoning):
//   * Step (b)'s multiplier is computed as 1.0 + (1/n_e)·(1/p_i) — two
//     reciprocals taken once (1/n_e per step, 1/p_i at admission) and a
//     mul-then-add, never 1.0 + 1.0/(n_e·p_i) and never an FMA.  Both
//     engines use this exact operation sequence; for unit costs it reduces
//     bit-for-bit to the classic hoisted 1 + 1/n_e.
//   * Covering-sum *decisions* compare sums accumulated in member-list
//     order with scalar adds.  The flat engine's vector kernels only ever
//     feed its incremental caches, whose drift is absorbed by the §3.2
//     band check before any decision is taken.
//
// It lives in the tests' support library (minrej_naive_engine), not in the
// shipped library: nothing outside the test suites builds against it.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <vector>

#include "core/engine_types.h"
#include "core/substrate_traits.h"
#include "graph/types.h"

namespace minrej {

/// Reference weight-augmentation engine (one instance per α-phase).
class NaiveFractionalEngine {
 public:
  using Delta = WeightDelta;

  static constexpr double kWeightClamp = kEngineWeightClamp;

  /// Binds the engine to its substrate view.  `zero_init` is the paper's
  /// 1/(g·c) floor for step (a); must be in (0, 1].
  NaiveFractionalEngine(EngineSubstrate substrate, double zero_init);

  /// Compile-time substrate binding, mirroring FlatFractionalEngine: a
  /// Graph or a CoveringInstance constructs the engine via its traits.
  template <typename S>
  NaiveFractionalEngine(const S& substrate, double zero_init)
      : NaiveFractionalEngine(CoveringSubstrateTraits<S>::bind(substrate),
                              zero_init) {}

  /// Registers a permanently-accepted request occupying capacity on
  /// `edges` (no weight, never rejected).  Returns its id.
  RequestId pin(std::span<const EdgeId> edges);
  RequestId pin(std::initializer_list<EdgeId> edges) {
    return pin(std::span<const EdgeId>(edges.begin(), edges.size()));
  }

  /// Registers an augmentable request WITHOUT running the augmentation
  /// loop.  `initial_weight` carries the request's weight forward across a
  /// phase change; must be in [0, 1).
  RequestId admit_existing(std::span<const EdgeId> edges, double update_cost,
                           double report_cost, double initial_weight = 0.0);
  RequestId admit_existing(std::initializer_list<EdgeId> edges,
                           double update_cost, double report_cost,
                           double initial_weight = 0.0) {
    return admit_existing(std::span<const EdgeId>(edges.begin(), edges.size()),
                          update_cost, report_cost, initial_weight);
  }

  /// Processes the arrival of an augmentable request; returns this
  /// arrival's weight increases (valid until the next mutating call).
  const std::vector<Delta>& arrive(std::span<const EdgeId> edges,
                                   double update_cost, double report_cost);
  const std::vector<Delta>& arrive(std::initializer_list<EdgeId> edges,
                                   double update_cost, double report_cost) {
    return arrive(std::span<const EdgeId>(edges.begin(), edges.size()),
                  update_cost, report_cost);
  }

  /// Runs the augmentation loop on the given edges without a new arrival.
  const std::vector<Delta>& restore_edges(std::span<const EdgeId> edges);
  const std::vector<Delta>& restore_edges(std::initializer_list<EdgeId> edges) {
    return restore_edges(std::span<const EdgeId>(edges.begin(), edges.size()));
  }

  std::size_t request_count() const noexcept { return requests_.size(); }

  double weight(RequestId id) const;
  bool is_pinned(RequestId id) const;
  bool fully_rejected(RequestId id) const;

  /// Σ_i min(f_i, 1) · report_cost_i — the fractional objective (§2).
  double fractional_cost() const noexcept { return fractional_cost_; }

  /// Total number of weight-augmentation steps so far.
  std::uint64_t augmentations() const noexcept { return augmentations_; }

  /// Member-list compaction passes.  The naive engine compacts on every
  /// augmentation-loop iteration, so this counter grows even when no
  /// request died — the behaviour the flat engine's threshold gating
  /// removes (the EngineCompaction tests in engine_differential_test.cpp
  /// pin down the difference).
  std::uint64_t compactions() const noexcept { return compactions_; }

  /// Test hook: invoked after every single augmentation step.
  void set_augmentation_observer(std::function<void(EdgeId)> observer) {
    observer_ = std::move(observer);
  }

  // -- introspection for tests and the randomized layer ---------------------

  /// n_e = |ALIVE_e| − c_e (alive = not fully rejected, incl. pinned).
  std::int64_t excess(EdgeId e) const;
  /// Σ of weights of alive augmentable requests on e (O(deg) rescan).
  double alive_weight_sum(EdgeId e) const;
  /// Invariant of §2: true iff alive_weight_sum(e) >= excess(e), or the
  /// edge has no augmentable alive request left.
  bool constraint_satisfied(EdgeId e) const;
  /// True iff the edge has positive excess but no augmentable alive
  /// request left (the α-doubling wrapper's blow-up signal).
  bool saturated(EdgeId e) const;
  /// Alive augmentable request ids on edge e (compacted view).
  std::vector<RequestId> alive_requests(EdgeId e) const;
  /// Raw member-list length of edge e, dead entries included.
  std::size_t member_list_size(EdgeId e) const;

 private:
  struct RequestRecord {
    std::vector<EdgeId> edges;
    double weight = 0.0;
    double update_cost = 1.0;
    /// 1 / update_cost, taken once at admission — step (b) multiplies by
    /// it instead of dividing, in lockstep with the flat engine's hot row
    /// (see the differential contract in the header comment).
    double inv_update_cost = 1.0;
    double report_cost = 1.0;
    bool pinned = false;
    bool alive = true;  ///< weight < 1 (pinned requests stay alive forever)
    // Delta bookkeeping for the current arrival.
    std::uint64_t touch_epoch = 0;
    double weight_at_touch = 0.0;
  };

  /// Runs the §2 augmentation loop for one edge.
  void augment_edge(EdgeId e);

  /// Removes dead entries from an edge's member list (lazy deletion).
  void compact(EdgeId e);

  void touch(RequestId id);
  void mark_fully_rejected(RequestId id);

  EngineSubstrate substrate_;
  double zero_init_;
  std::vector<RequestRecord> requests_;
  // Augmentable members per edge (alive and dead; compacted lazily).
  std::vector<std::vector<RequestId>> members_;
  std::vector<std::int64_t> alive_count_;   // augmentable alive per edge
  std::vector<std::int64_t> pinned_count_;  // pinned per edge
  double fractional_cost_ = 0.0;
  std::uint64_t augmentations_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t epoch_ = 0;
  std::vector<RequestId> touched_;  // requests touched this arrival
  std::vector<Delta> deltas_;       // output buffer
  std::function<void(EdgeId)> observer_;
};

}  // namespace minrej
