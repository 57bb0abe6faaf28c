// Differential property suite for the weight-augmentation engine: drives
// FlatFractionalEngine (production, flat-storage, incremental sums) and
// NaiveFractionalEngine (retained reference, five-pass rescans) through
// identical operation sequences and asserts identical observable state
// after every step.  The two implementations perform the same floating-
// point operations in the same order by construction (DESIGN.md §3.3), so
// weights, deltas, and objectives are compared for exact equality — any
// divergence, however small, means one of them took a different
// augmentation decision and is a real bug, not noise.
#include <gtest/gtest.h>

#include <vector>

#include "core/fractional_engine.h"
#include "core/simd_sweep.h"
#include "graph/generators.h"
#include "naive_engine.h"
#include "sim/workloads.h"
#include "test_util.h"
#include "util/rng.h"

namespace minrej {
namespace {

/// Asserts every piece of observable engine state matches.
void expect_engines_equal(const FlatFractionalEngine& flat,
                          const NaiveFractionalEngine& naive,
                          const Graph& graph, const char* where) {
  ASSERT_EQ(flat.request_count(), naive.request_count()) << where;
  for (RequestId i = 0; i < flat.request_count(); ++i) {
    EXPECT_DOUBLE_EQ(flat.weight(i), naive.weight(i))
        << where << " weight of request " << i;
    EXPECT_EQ(flat.is_pinned(i), naive.is_pinned(i)) << where << " " << i;
    EXPECT_EQ(flat.fully_rejected(i), naive.fully_rejected(i))
        << where << " rejection of request " << i;
  }
  EXPECT_DOUBLE_EQ(flat.fractional_cost(), naive.fractional_cost()) << where;
  EXPECT_EQ(flat.augmentations(), naive.augmentations()) << where;
  for (EdgeId e = 0; e < graph.edge_count(); ++e) {
    EXPECT_EQ(flat.excess(e), naive.excess(e)) << where << " edge " << e;
    EXPECT_EQ(flat.saturated(e), naive.saturated(e)) << where << " " << e;
    EXPECT_EQ(flat.constraint_satisfied(e), naive.constraint_satisfied(e))
        << where << " edge " << e;
    // The flat sum is incremental; agreement within the covering-check
    // tolerance is the contract (exact agreement is not).
    EXPECT_NEAR(flat.alive_weight_sum(e), naive.alive_weight_sum(e), 1e-9)
        << where << " edge " << e;
    EXPECT_EQ(flat.alive_requests(e), naive.alive_requests(e))
        << where << " edge " << e;
  }
}

void expect_deltas_equal(const std::vector<WeightDelta>& a,
                         const std::vector<WeightDelta>& b,
                         const char* where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].id, b[k].id) << where << " delta " << k;
    EXPECT_DOUBLE_EQ(a[k].delta, b[k].delta) << where << " delta " << k;
  }
}

/// Replays an instance into both engines.  `pin_probability` interleaves
/// pinned (must-accept-style) registrations; `carry_probability` admits
/// some requests passively with a carried weight and restores their edges
/// afterwards, the α-phase-rebuild call pattern.  `small_list_threshold`
/// feeds the flat engine's tunable small-list cutoff — the naive engine
/// has no such knob, so equality at any setting proves the cutoff only
/// selects a strategy, never a decision.
void run_differential(const AdmissionInstance& inst, double zero_init,
                      double pin_probability, double carry_probability,
                      std::uint64_t seed,
                      std::size_t small_list_threshold =
                          FlatFractionalEngine::kSmallListThreshold) {
  FlatFractionalEngine flat(inst.graph(), zero_init, small_list_threshold);
  NaiveFractionalEngine naive(inst.graph(), zero_init);
  Rng choices(seed);
  for (RequestId i = 0; i < inst.request_count(); ++i) {
    const Request& r = inst.request(i);
    const double roll = choices.uniform();
    if (roll < pin_probability) {
      EXPECT_EQ(flat.pin(r.edges), naive.pin(r.edges));
      expect_deltas_equal(flat.restore_edges(r.edges),
                          naive.restore_edges(r.edges), "pin+restore");
    } else if (roll < pin_probability + carry_probability) {
      const double carried = choices.uniform() * 0.9;
      EXPECT_EQ(flat.admit_existing(r.edges, r.cost, r.cost, carried),
                naive.admit_existing(r.edges, r.cost, r.cost, carried));
      expect_deltas_equal(flat.restore_edges(r.edges),
                          naive.restore_edges(r.edges), "carry+restore");
    } else {
      expect_deltas_equal(flat.arrive(r.edges, r.cost, r.cost),
                          naive.arrive(r.edges, r.cost, r.cost), "arrive");
    }
    expect_engines_equal(flat, naive, inst.graph(), "after arrival");
    if (::testing::Test::HasFailure()) {
      FAIL() << "engines diverged at arrival " << i << " (seed " << seed
             << ")";
    }
  }
}

class DifferentialSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialSeeds, UnweightedLineWorkload) {
  Rng rng(GetParam());
  AdmissionInstance inst = make_line_workload(
      6, 2, 60, 1, 4, CostModel::unit_costs(), rng);
  run_differential(inst, 0.25, 0.0, 0.0, GetParam());
}

TEST_P(DifferentialSeeds, WeightedStarWorkloadWithPins) {
  Rng rng(GetParam() + 100);
  AdmissionInstance inst = make_star_workload(
      5, 2, 60, 3, CostModel::spread(1.0, 16.0), rng);
  run_differential(inst, 0.1, 0.15, 0.0, GetParam());
}

TEST_P(DifferentialSeeds, DenseSingleEdgeBurst) {
  Rng rng(GetParam() + 200);
  AdmissionInstance inst = make_single_edge_burst(
      4, 80, CostModel::unit_costs(), rng);
  run_differential(inst, 0.25, 0.0, 0.0, GetParam());
}

TEST_P(DifferentialSeeds, WeightedBurstWithCarriedWeights) {
  Rng rng(GetParam() + 300);
  AdmissionInstance inst = make_single_edge_burst(
      3, 60, CostModel::spread(1.0, 8.0), rng);
  run_differential(inst, 0.05, 0.1, 0.2, GetParam());
}

TEST_P(DifferentialSeeds, PowerLawWorkload) {
  Rng rng(GetParam() + 400);
  AdmissionInstance inst = make_power_law_workload(
      12, 2, 80, 3, 1.2, CostModel::spread(1.0, 4.0), rng);
  run_differential(inst, 0.2, 0.05, 0.05, GetParam());
}

TEST_P(DifferentialSeeds, InstantRejectionZeroInitOne) {
  // zero_init 1.0 makes step (a) fully reject instantly: the death-heavy
  // extreme that stresses dead-count tracking and compaction gating.
  Rng rng(GetParam() + 500);
  AdmissionInstance inst = make_single_edge_burst(
      2, 30, CostModel::unit_costs(), rng);
  run_differential(inst, 1.0, 0.1, 0.0, GetParam());
}

TEST_P(DifferentialSeeds, SharedSetsOverlapScenario) {
  // The scenario every request row of which is wide and heavily shared —
  // the shape that exercises the cross-arrival fix-up journal (large
  // incident row degrees, many edges touched per arrival).  Phase-2
  // reduction arrivals ride along as ordinary weighted arrivals; the
  // engines only see identical operation sequences.
  Rng rng(GetParam() + 600);
  ScenarioParams params;
  params.requests = 260;
  AdmissionInstance inst = make_scenario("shared_sets_overlap", params, rng);
  run_differential(inst, 0.1, 0.05, 0.0, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSeeds,
                         ::testing::Range<std::uint64_t>(0, 10));

// ---------------------------------------------------------------------------
// Small-list threshold band (the ctor-tunable eager/journal cutoff)
// ---------------------------------------------------------------------------

TEST(ThresholdBand, DifferentialHoldsAtBoundaryThresholds) {
  // Thresholds straddling the default band (47/48/49 around the default
  // 48) and the degenerate extremes: 0 routes every edge through the
  // journal/rescan machinery, 1<<30 keeps every edge on the eager exact
  // path.  All must be decision-identical to the naive engine — the
  // threshold may only change *how* sums are maintained.
  const std::size_t thresholds[] = {0, 1, 47, 48, 49, std::size_t{1} << 30};
  for (std::size_t threshold : thresholds) {
    {
      // Single edge whose member list grows straight through the band.
      Rng rng(33);
      AdmissionInstance inst =
          make_single_edge_burst(4, 120, CostModel::spread(1.0, 8.0), rng);
      run_differential(inst, 0.05, 0.1, 0.1, 33, threshold);
    }
    {
      // Multi-edge rows: fix-up strategy differs per incident edge.
      Rng rng(34);
      AdmissionInstance inst = make_power_law_workload(
          10, 2, 150, 3, 1.2, CostModel::spread(1.0, 4.0), rng);
      run_differential(inst, 0.1, 0.05, 0.05, 34, threshold);
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "diverged at small_list_threshold " << threshold;
    }
  }
}

// ---------------------------------------------------------------------------
// Sweep-kernel tiers (core/simd_sweep.h): scalar vs SIMD bit-identity
// ---------------------------------------------------------------------------

TEST(KernelEquivalence, EveryTierMatchesNaiveBitForBit) {
  // Each engine snapshots the active kernel at construction, so forcing
  // the override before constructing pins the flat engine to one tier.
  // set_sweep_isa_for_tests clamps to what the CPU supports (and to
  // scalar under MINREJ_NO_SIMD), so this passes — vacuously narrower —
  // everywhere.  Weighted costs matter: they are what an FMA-contraction
  // or reassociation bug in a vector tier would corrupt first.
  const simd::SweepIsa tiers[] = {simd::SweepIsa::kScalar,
                                  simd::SweepIsa::kAvx2,
                                  simd::SweepIsa::kAvx512};
  for (simd::SweepIsa isa : tiers) {
    simd::set_sweep_isa_for_tests(isa);
    {
      Rng rng(55);
      AdmissionInstance inst = make_power_law_workload(
          12, 2, 200, 3, 1.2, CostModel::spread(1.0, 8.0), rng);
      run_differential(inst, 0.1, 0.05, 0.05, 55);
    }
    {
      // Dense burst: long member lists keep the vector main loop (not
      // just the scalar tail) on the hot path.
      Rng rng(56);
      AdmissionInstance inst =
          make_single_edge_burst(8, 160, CostModel::spread(1.0, 16.0), rng);
      run_differential(inst, 0.05, 0.0, 0.1, 56);
    }
    simd::clear_sweep_isa_override();
    if (::testing::Test::HasFailure()) {
      FAIL() << "tier " << simd::sweep_isa_name(isa)
             << " diverged from the naive engine";
    }
  }
}

// ---------------------------------------------------------------------------
// Compaction gating (the flat engine's threshold-based lazy deletion)
// ---------------------------------------------------------------------------

TEST(EngineCompaction, NoDeathsMeansNoCompactions) {
  // Three unit arrivals on a capacity-2 edge: one augmentation step, no
  // request dies.  The flat engine must not have compacted (nothing was
  // dead), while the naive engine rescans on every loop iteration.
  Graph g = make_single_edge_graph(2);
  FlatFractionalEngine flat(g, 0.3);
  NaiveFractionalEngine naive(g, 0.3);
  for (int i = 0; i < 3; ++i) {
    flat.arrive({0}, 1.0, 1.0);
    naive.arrive({0}, 1.0, 1.0);
  }
  ASSERT_GT(flat.augmentations(), 0u);
  for (RequestId i = 0; i < 3; ++i) {
    ASSERT_FALSE(flat.fully_rejected(i));
  }
  EXPECT_EQ(flat.compactions(), 0u);
  EXPECT_GT(naive.compactions(), 0u);
}

TEST(EngineCompaction, SweptEdgeSelfCompactsForFree) {
  // On a single-edge burst every death happens during a sweep of that
  // edge, so the in-place sweep removes the entries as part of the work it
  // was doing anyway: the member list stays fully compacted and the
  // explicit compaction pass never runs.
  Rng rng(7);
  AdmissionInstance inst = make_single_edge_burst(
      8, 200, CostModel::unit_costs(), rng);
  FlatFractionalEngine flat(inst.graph(), 1.0 / 8.0);
  for (const Request& r : inst.requests()) flat.arrive(r.edges, 1.0, 1.0);
  std::uint64_t deaths = 0;
  for (RequestId i = 0; i < flat.request_count(); ++i) {
    deaths += flat.fully_rejected(i) ? 1 : 0;
  }
  ASSERT_GT(deaths, 0u);
  EXPECT_EQ(flat.member_list_size(0), flat.alive_requests(0).size());
  EXPECT_EQ(flat.compactions(), 0u);
}

TEST(EngineCompaction, CrossEdgeDeathsAreChargedToDeaths) {
  // Multi-edge requests leave dead entries on the edges that were NOT
  // being swept when they died; those are reclaimed by the threshold-gated
  // compaction.  Every such pass needs the dead fraction to reach 1/2, so
  // the count is bounded by the deaths (times the request degree) — while
  // the naive engine pays a compaction scan on every loop iteration.
  Rng rng(8);
  AdmissionInstance inst = make_power_law_workload(
      10, 2, 300, 3, 1.2, CostModel::spread(1.0, 8.0), rng);
  FlatFractionalEngine flat(inst.graph(), 0.05);
  NaiveFractionalEngine naive(inst.graph(), 0.05);
  for (const Request& r : inst.requests()) {
    flat.arrive(r.edges, r.cost, r.cost);
    naive.arrive(r.edges, r.cost, r.cost);
  }
  std::uint64_t deaths = 0;
  for (RequestId i = 0; i < flat.request_count(); ++i) {
    deaths += flat.fully_rejected(i) ? 1 : 0;
  }
  ASSERT_GT(deaths, 0u);
  EXPECT_LE(flat.compactions(), 3 * deaths);  // max request degree is 3
  EXPECT_GE(naive.compactions(), naive.augmentations());
  EXPECT_LT(flat.compactions(), naive.compactions() / 4);
}

TEST(EngineCompaction, CompactedViewStaysConsistent) {
  // After heavy churn the lazily-maintained member list must still produce
  // the exact alive set and a covering sum in agreement with a fresh
  // rescan (the incremental-sum drift contract).
  Rng rng(11);
  AdmissionInstance inst = make_single_edge_burst(
      4, 120, CostModel::spread(1.0, 8.0), rng);
  FlatFractionalEngine flat(inst.graph(), 0.05);
  for (const Request& r : inst.requests()) flat.arrive(r.edges, r.cost, r.cost);
  double rescan = 0.0;
  std::vector<RequestId> alive;
  for (RequestId i = 0; i < flat.request_count(); ++i) {
    if (!flat.fully_rejected(i) && !flat.is_pinned(i)) {
      alive.push_back(i);
      rescan += flat.weight(i);
    }
  }
  EXPECT_EQ(flat.alive_requests(0), alive);
  EXPECT_NEAR(flat.alive_weight_sum(0), rescan, 1e-9);
}

}  // namespace
}  // namespace minrej
