// Tests for src/service: shard routing, the batch pump, sharded-vs-
// unsharded identity on shard-disjoint instances (DESIGN.md §6.1), and
// stat aggregation.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/baselines.h"
#include "core/randomized_admission.h"
#include "service/admission_service.h"
#include "sim/workloads.h"
#include "test_util.h"
#include "util/rng.h"

namespace minrej {
namespace {

/// Deterministic engine-backed configuration: the §3 algorithm with the
/// random rejection step disabled.  Every decision is then a function of
/// the fractional weights alone, which evolve per-edge-locally, so on a
/// shard-disjoint instance the sharded and unsharded trajectories must be
/// bit-identical (the §6.1 partitioning invariant).  The weighted form
/// also fixes α, so the doubling schedule cannot couple disjoint edges.
ShardAlgorithmFactory deterministic_factory(bool unit_costs) {
  return [unit_costs](const Graph& graph, std::size_t) {
    RandomizedConfig cfg;
    cfg.unit_costs = unit_costs;
    cfg.step3_random = false;
    cfg.seed = 7;
    if (!unit_costs) cfg.fractional.fixed_alpha = 8.0;
    return std::make_unique<RandomizedAdmission>(graph, cfg);
  };
}

ShardAlgorithmFactory greedy_factory() {
  return [](const Graph& graph, std::size_t) {
    return std::make_unique<GreedyNoPreempt>(graph);
  };
}

ShardAlgorithmFactory preempt_cheapest_factory() {
  return [](const Graph& graph, std::size_t) {
    return std::make_unique<PreemptCheapest>(graph);
  };
}

/// Runs the instance through a service and returns the final per-arrival
/// acceptance states.
std::vector<bool> final_decisions(AdmissionService& service,
                                  const AdmissionInstance& instance) {
  service.run(instance);
  std::vector<bool> accepted(instance.request_count());
  for (std::size_t i = 0; i < instance.request_count(); ++i) {
    accepted[i] = service.is_accepted(i);
  }
  return accepted;
}

void expect_identical_runs(const AdmissionInstance& instance,
                           const ShardAlgorithmFactory& factory,
                           const ServiceConfig& sharded_cfg) {
  AdmissionService sharded(instance.graph(), factory, sharded_cfg);
  ServiceConfig unsharded_cfg = sharded_cfg;
  unsharded_cfg.shards = 1;
  unsharded_cfg.partition = nullptr;
  AdmissionService unsharded(instance.graph(), factory, unsharded_cfg);
  const std::vector<bool> a = final_decisions(sharded, instance);
  const std::vector<bool> b = final_decisions(unsharded, instance);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "arrival " << i;
  }
  const ServiceStats sa = sharded.aggregate();
  const ServiceStats sb = unsharded.aggregate();
  EXPECT_EQ(sa.accepted, sb.accepted);
  EXPECT_EQ(sa.rejected, sb.rejected);
  // Decisions are bitwise identical; the aggregate cost is the same
  // multiset of request costs summed in per-shard instead of arrival
  // order, so it matches up to floating-point reassociation (DESIGN.md
  // §6.2) — exactly equal in the unit-cost scenarios.
  EXPECT_NEAR(sa.rejected_cost, sb.rejected_cost,
              test::COST_TOLERANCE * std::max(1.0, sb.rejected_cost));
  EXPECT_EQ(sa.augmentation_steps, sb.augmentation_steps);
}

// ---------------------------------------------------------------------------
// Shard routing
// ---------------------------------------------------------------------------

TEST(ShardRouting, HashPartitionIsStableAndInRange) {
  for (const std::size_t shards : {1u, 2u, 4u, 7u}) {
    for (EdgeId e = 0; e < 100; ++e) {
      const std::size_t s = AdmissionService::hash_edge_to_shard(e, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, AdmissionService::hash_edge_to_shard(e, shards));
    }
  }
}

TEST(ShardRouting, HashPartitionSpreadsConsecutiveEdges) {
  // The Zipf head lives at low edge ids; a partition that clusters them in
  // one shard defeats the point of sharding skewed traffic.
  const std::size_t shards = 4;
  std::vector<std::size_t> hits(shards, 0);
  for (EdgeId e = 0; e < 64; ++e) {
    ++hits[AdmissionService::hash_edge_to_shard(e, shards)];
  }
  for (const std::size_t h : hits) {
    EXPECT_GT(h, 4u);   // no shard starves...
    EXPECT_LT(h, 40u);  // ...and none hoards.
  }
}

TEST(ShardRouting, PartitionOverrideIsRespected) {
  Rng rng(3);
  const AdmissionInstance inst = make_multi_tenant_workload(
      4, 4, 2, 40, 2, 1.0, CostModel::unit_costs(), rng);
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.partition = [](EdgeId e) { return static_cast<std::size_t>(e) / 4; };
  AdmissionService service(inst.graph(), greedy_factory(), cfg);
  for (EdgeId e = 0; e < inst.graph().edge_count(); ++e) {
    EXPECT_EQ(service.shard_of_edge(e), e / 4);
  }
  // Requests route to the shard of their first (lowest) edge.
  for (const Request& r : inst.requests()) {
    EXPECT_EQ(service.shard_of_request(r), r.edges.front() / 4);
  }
}

TEST(ShardRouting, OutOfRangePartitionThrows) {
  Rng rng(4);
  const AdmissionInstance inst =
      make_dense_burst_workload(8, 2, 16, CostModel::unit_costs(), rng);
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.partition = [](EdgeId) { return std::size_t{7}; };
  // The out-of-range mapping is now caught at construction (the partition
  // is validated over every edge), not lazily on the first routed request.
  EXPECT_THROW(AdmissionService(inst.graph(), greedy_factory(), cfg),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Construction contracts
// ---------------------------------------------------------------------------

TEST(ServiceContracts, RejectsBadConfigAndFactories) {
  Rng rng(5);
  const AdmissionInstance inst =
      make_dense_burst_workload(8, 2, 16, CostModel::unit_costs(), rng);
  ServiceConfig zero_shards;
  zero_shards.shards = 0;
  EXPECT_THROW(
      AdmissionService(inst.graph(), greedy_factory(), zero_shards),
      InvalidArgument);
  // The factory must build on the service graph, not a private copy: the
  // shards share the topology so per-shard guarantees refer to the same
  // m and c.
  const auto rogue_graph =
      std::make_shared<Graph>(make_star_graph(8, 2));
  EXPECT_THROW(AdmissionService(
                   inst.graph(),
                   [rogue_graph](const Graph&, std::size_t) {
                     return std::make_unique<GreedyNoPreempt>(*rogue_graph);
                   },
                   ServiceConfig{}),
               InvalidArgument);
}

TEST(ServiceContracts, ShardTaskExceptionsPropagate) {
  Rng rng(6);
  const AdmissionInstance inst =
      make_dense_burst_workload(8, 2, 16, CostModel::unit_costs(), rng);
  ServiceConfig cfg;
  cfg.shards = 2;
  AdmissionService service(inst.graph(), greedy_factory(), cfg);
  // An out-of-range edge id passes routing (any id hashes somewhere) but
  // fails validation inside the shard's process(); the pump must surface
  // that error, not swallow it in a worker.
  const std::vector<Request> poison{Request({3, 200}, 1.0)};
  EXPECT_THROW(service.submit_batch(poison), InvalidArgument);
  // The unprocessed arrival's placement is voided — is_accepted refuses
  // to answer for it instead of aliasing a later request...
  ASSERT_EQ(service.arrivals(), 1u);
  EXPECT_EQ(service.placement(0).second, kInvalidId);
  EXPECT_THROW(service.is_accepted(0), InvalidArgument);
  // ...and the service stays usable: a healthy follow-up batch processes
  // normally and maps to fresh, non-aliased local ids.
  const std::vector<Request> good{Request({3}, 1.0), Request({5}, 1.0)};
  const std::vector<bool> accepted = service.submit_batch(good);
  EXPECT_EQ(accepted, (std::vector<bool>{true, true}));
  EXPECT_TRUE(service.is_accepted(1));
  EXPECT_TRUE(service.is_accepted(2));
  EXPECT_THROW(service.is_accepted(0), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Sharded ≡ unsharded on shard-disjoint instances (DESIGN.md §6.1)
// ---------------------------------------------------------------------------

class ShardIdentity : public test::SeededTest {};

TEST_F(ShardIdentity, EngineBackedDeterministicOnDenseBurst) {
  // Single-edge requests: disjoint under any partition.  The deterministic
  // engine-backed configuration must be bit-identical sharded/unsharded.
  ScenarioParams params;
  params.requests = 3000;
  params.edges = 16;
  const AdmissionInstance inst = make_scenario("dense_burst", params, rng);
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.batch = 128;
  expect_identical_runs(inst, deterministic_factory(true), cfg);
}

TEST_F(ShardIdentity, EngineBackedDeterministicOnDiurnal) {
  const AdmissionInstance inst = make_diurnal_workload(
      16, 20, 2000, 2.0, 2, CostModel::unit_costs(), rng);
  ServiceConfig cfg;
  cfg.shards = 3;
  cfg.batch = 64;
  expect_identical_runs(inst, deterministic_factory(true), cfg);

  // The catalog scenario at its default capacity, on four shards.
  ScenarioParams params;
  params.requests = 3000;
  params.edges = 32;
  const AdmissionInstance catalog = make_scenario("diurnal", params, rng);
  cfg.shards = 4;
  cfg.batch = 256;
  expect_identical_runs(catalog, deterministic_factory(true), cfg);
}

TEST_F(ShardIdentity, EngineBackedWeightedOnAdversarialSingleEdge) {
  // One edge: everything lands on one shard of two, and the escalating
  // costs drive the weighted engine through maximal preemption churn.
  ScenarioParams params;
  params.requests = 3000;
  const AdmissionInstance inst =
      make_scenario("adversarial_single_edge", params, rng);
  ASSERT_FALSE(all_unit_costs(inst));
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.batch = 256;
  expect_identical_runs(inst, deterministic_factory(false), cfg);
}

TEST_F(ShardIdentity, GreedyBaselineOnDenseBurst) {
  ScenarioParams params;
  params.requests = 2000;
  params.edges = 8;
  const AdmissionInstance inst = make_scenario("dense_burst", params, rng);
  ServiceConfig cfg;
  cfg.shards = 4;
  expect_identical_runs(inst, greedy_factory(), cfg);
}

TEST_F(ShardIdentity, PreemptCheapestOnTenantAlignedMultiTenant) {
  // Multi-edge requests, but confined to tenant blocks: disjoint under the
  // tenant-aligned partition even though the hash partition would split
  // them.
  const std::size_t tenants = 4;
  const std::size_t block = 4;
  const AdmissionInstance inst = make_multi_tenant_workload(
      tenants, block, 3, 2000, 3, 1.0, CostModel::spread(1.0, 8.0), rng);
  ServiceConfig cfg;
  cfg.shards = tenants;
  cfg.batch = 100;
  cfg.partition = [block, tenants](EdgeId e) {
    return (static_cast<std::size_t>(e) / block) % tenants;
  };
  expect_identical_runs(inst, preempt_cheapest_factory(), cfg);
}

TEST_F(ShardIdentity, EngineBackedWeightedOnTenantAlignedMultiTenant) {
  // The catalog scenario: 8 tenants on blocks of edges / 8, weighted
  // costs, folded onto 4 shards by tenant.
  ScenarioParams params;
  params.requests = 3000;
  params.edges = 32;
  const AdmissionInstance inst = make_scenario("multi_tenant", params, rng);
  ASSERT_FALSE(all_unit_costs(inst));
  const std::size_t block = params.edges / 8;
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.batch = 256;
  cfg.partition = [block](EdgeId e) {
    return (static_cast<std::size_t>(e) / block) % 4;
  };
  expect_identical_runs(inst, deterministic_factory(false), cfg);
}

// ---------------------------------------------------------------------------
// Batch-pump determinism
// ---------------------------------------------------------------------------

class PumpDeterminism : public test::SeededTest {};

TEST_F(PumpDeterminism, SameSeedSameDecisionsAcrossRuns) {
  ScenarioParams params;
  params.requests = 2000;
  params.edges = 16;
  const AdmissionInstance inst = make_scenario("power_law", params, rng);
  const auto factory = [](const Graph& graph, std::size_t shard) {
    RandomizedConfig cfg;
    cfg.seed = 11 + shard;
    return std::make_unique<RandomizedAdmission>(graph, cfg);
  };
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.batch = 96;
  AdmissionService first(inst.graph(), factory, cfg);
  AdmissionService second(inst.graph(), factory, cfg);
  const std::vector<bool> a = final_decisions(first, inst);
  const std::vector<bool> b = final_decisions(second, inst);
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(first.aggregate().rejected_cost,
                   second.aggregate().rejected_cost);
  EXPECT_EQ(first.aggregate().augmentation_steps,
            second.aggregate().augmentation_steps);
}

TEST_F(PumpDeterminism, DecisionsIndependentOfBatchSizeAndThreads) {
  // Batch boundaries and worker counts change scheduling, never the
  // per-shard arrival order — so final state must not move.
  ScenarioParams params;
  params.requests = 1500;
  params.edges = 16;
  const AdmissionInstance inst = make_scenario("diurnal", params, rng);
  const auto factory = [](const Graph& graph, std::size_t shard) {
    RandomizedConfig cfg;
    cfg.seed = 3 + shard;
    return std::make_unique<RandomizedAdmission>(graph, cfg);
  };
  std::vector<std::vector<bool>> outcomes;
  for (const auto& [batch, threads] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {64, 2}, {512, 4}, {5000, 1}}) {
    ServiceConfig cfg;
    cfg.shards = 4;
    cfg.batch = batch;
    cfg.threads = threads;
    AdmissionService service(inst.graph(), factory, cfg);
    outcomes.push_back(final_decisions(service, inst));
  }
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i], outcomes.front()) << "variant " << i;
  }
}

// ---------------------------------------------------------------------------
// Stats aggregation
// ---------------------------------------------------------------------------

class ServiceStatsTest : public test::SeededTest {};

TEST_F(ServiceStatsTest, AggregateMatchesShardSums) {
  ScenarioParams params;
  params.requests = 2000;
  params.edges = 16;
  const AdmissionInstance inst = make_scenario("dense_burst", params, rng);
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.collect_latencies = true;
  AdmissionService service(inst.graph(), deterministic_factory(true), cfg);
  const ServiceStats total = service.run(inst);

  std::size_t arrivals = 0, accepted = 0, rejected = 0, latencies = 0;
  double rejected_cost = 0.0;
  std::uint64_t augmentations = 0;
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    const ShardStats shard = service.shard_stats(s);
    EXPECT_EQ(shard.shard, s);
    EXPECT_EQ(shard.accepted + shard.rejected, shard.arrivals);
    EXPECT_EQ(shard.latencies_s.size(), shard.arrivals);
    arrivals += shard.arrivals;
    accepted += shard.accepted;
    rejected += shard.rejected;
    rejected_cost += shard.rejected_cost;
    augmentations += shard.augmentation_steps;
    latencies += shard.latencies_s.size();
  }
  EXPECT_EQ(total.arrivals, inst.request_count());
  EXPECT_EQ(total.arrivals, arrivals);
  EXPECT_EQ(total.accepted, accepted);
  EXPECT_EQ(total.rejected, rejected);
  EXPECT_DOUBLE_EQ(total.rejected_cost, rejected_cost);
  EXPECT_EQ(total.augmentation_steps, augmentations);
  EXPECT_EQ(latencies, inst.request_count());
  // Latency quantiles come from real timings: ordered and positive.
  EXPECT_GT(total.p50_arrival_s, 0.0);
  EXPECT_LE(total.p50_arrival_s, total.p95_arrival_s);
  EXPECT_LE(total.p95_arrival_s, total.max_arrival_s);
  EXPECT_GT(total.seconds, 0.0);
  EXPECT_GT(total.max_shard_busy_s, 0.0);
}

TEST_F(ServiceStatsTest, PlacementTracksOwningShardAndLocalOrder) {
  ScenarioParams params;
  params.requests = 400;
  params.edges = 8;
  const AdmissionInstance inst = make_scenario("dense_burst", params, rng);
  ServiceConfig cfg;
  cfg.shards = 3;
  cfg.batch = 64;
  AdmissionService service(inst.graph(), greedy_factory(), cfg);
  service.run(inst);
  ASSERT_EQ(service.arrivals(), inst.request_count());
  std::vector<RequestId> next_local(3, 0);
  for (std::size_t i = 0; i < service.arrivals(); ++i) {
    const auto [shard, local] = service.placement(i);
    EXPECT_EQ(shard, service.shard_of_request(inst.requests()[i]));
    // Shard-local ids are assigned in global arrival order.
    EXPECT_EQ(local, next_local[shard]);
    ++next_local[shard];
  }
  EXPECT_THROW(service.placement(service.arrivals()), InvalidArgument);
  EXPECT_THROW(service.is_accepted(service.arrivals()), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Concurrent pump — DESIGN.md §11
// ---------------------------------------------------------------------------

class ConcurrentPump : public test::SeededTest {};

TEST_F(ConcurrentPump, BitIdenticalAcrossWorkerCountsSeedsAndScenarios) {
  // The §11.2 contract: for every worker count the pump's decision stream
  // equals the sequential per-shard replay, bit for bit — routing fixes
  // each shard's arrival subsequence before workers run, and each shard
  // is consumed by exactly one worker in ring order.
  for (const std::uint64_t seed : {5u, 11u, 23u}) {
    for (const char* scenario : {"dense_burst", "power_law", "diurnal"}) {
      ScenarioParams params;
      params.requests = 1200;
      params.edges = 16;
      Rng scenario_rng(seed);
      const AdmissionInstance inst =
          make_scenario(scenario, params, scenario_rng);
      const ShardAlgorithmFactory factory = [seed](const Graph& graph,
                                                   std::size_t shard) {
        RandomizedConfig cfg;
        cfg.seed = seed + shard;
        return std::make_unique<RandomizedAdmission>(graph, cfg);
      };
      ServiceConfig cfg;
      cfg.shards = 5;
      cfg.batch = 128;
      for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
        cfg.threads = workers;
        AdmissionService service(inst.graph(), factory, cfg);
        EXPECT_GE(service.worker_count(), 1u);
        EXPECT_LE(service.worker_count(), workers);
        const test::ShardReplay reference =
            test::replay_per_shard(service, factory, inst);
        const std::vector<bool> got = final_decisions(service, inst);
        ASSERT_EQ(got, reference.accepted()) << scenario << " seed " << seed
                                             << " workers " << workers;
        const ServiceStats stats = service.aggregate();
        EXPECT_EQ(stats.arrivals, inst.request_count());
        EXPECT_EQ(stats.rejected, reference.rejected());
        EXPECT_EQ(stats.accepted, inst.request_count() - reference.rejected());
        EXPECT_EQ(stats.augmentation_steps, reference.augmentation_steps());
      }
    }
  }
}

TEST_F(ConcurrentPump, SmallRingCapacityBackpressuresWithoutDeadlock) {
  // One span larger than the ring (1024 slots at the default batch) into
  // a single shard forces the routing thread through the full-ring spin
  // path; decisions must be unaffected.
  ScenarioParams params;
  params.requests = 3000;
  params.edges = 16;
  const AdmissionInstance inst = make_scenario("dense_burst", params, rng);
  ServiceConfig cfg;
  cfg.shards = 1;
  const ShardAlgorithmFactory factory = deterministic_factory(true);
  AdmissionService service(inst.graph(), factory, cfg);
  const std::vector<bool> accepted =
      service.submit_batch(std::span<const Request>(inst.requests()));
  const test::ShardReplay reference =
      test::replay_per_shard(service, factory, inst);
  EXPECT_EQ(accepted.size(), inst.request_count());
  std::vector<bool> final_state(inst.request_count());
  for (std::size_t i = 0; i < inst.request_count(); ++i) {
    final_state[i] = service.is_accepted(i);
  }
  EXPECT_EQ(final_state, reference.accepted());
}

TEST_F(ConcurrentPump, LatenciesAndPlacementsMatchSequential) {
  ScenarioParams params;
  params.requests = 600;
  params.edges = 8;
  const AdmissionInstance inst = make_scenario("dense_burst", params, rng);
  ServiceConfig cfg;
  cfg.shards = 3;
  cfg.batch = 100;
  cfg.collect_latencies = true;
  cfg.threads = 4;
  AdmissionService service(inst.graph(), deterministic_factory(true), cfg);
  service.run(inst);
  std::size_t latencies = 0;
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    const ShardStats shard = service.shard_stats(s);
    EXPECT_EQ(shard.latencies_s.size(), shard.arrivals);
    latencies += shard.latencies_s.size();
  }
  EXPECT_EQ(latencies, inst.request_count());
  std::vector<RequestId> next_local(3, 0);
  for (std::size_t i = 0; i < service.arrivals(); ++i) {
    const auto [shard, local] = service.placement(i);
    EXPECT_EQ(shard, service.shard_of_request(inst.requests()[i]));
    EXPECT_EQ(local, next_local[shard]);
    ++next_local[shard];
  }
}

/// Accepts everything until the configured arrival, then throws on every
/// process() call — exercises the pump's shard-failure semantics without
/// the fault-tolerance layer.
class FailsAtArrival : public OnlineAdmissionAlgorithm {
 public:
  FailsAtArrival(const Graph& graph, std::size_t fail_at)
      : OnlineAdmissionAlgorithm(graph), fail_at_(fail_at) {}
  std::string name() const override { return "fails_at"; }

 protected:
  ArrivalResult handle(RequestId id, const Request& request) override {
    if (id >= fail_at_) throw std::runtime_error("scripted shard failure");
    ArrivalResult result;
    result.accepted = !would_overflow(request);
    return result;
  }

 private:
  std::size_t fail_at_;
};

TEST_F(ConcurrentPump, ShardFailureVoidsPlacementsLikeSequential) {
  // Shard 1 dies at its 10th arrival at every worker count; the surviving
  // shards must keep their results, the dead shard's unprocessed arrivals
  // must be voided exactly where the sequential replay stops, and the
  // error must surface on the caller.
  ScenarioParams params;
  params.requests = 500;
  params.edges = 16;
  const AdmissionInstance inst = make_scenario("dense_burst", params, rng);
  const ShardAlgorithmFactory factory = [](const Graph& graph,
                                           std::size_t shard) {
    return std::make_unique<FailsAtArrival>(
        graph, shard == 1 ? 10 : std::numeric_limits<std::size_t>::max());
  };
  for (const std::size_t workers : {1u, 4u}) {
    ServiceConfig cfg;
    cfg.shards = 4;
    cfg.batch = 500;
    cfg.threads = workers;
    AdmissionService service(inst.graph(), factory, cfg);
    EXPECT_THROW(
        service.submit_batch(std::span<const Request>(inst.requests())),
        std::runtime_error);
    const test::ShardReplay reference =
        test::replay_per_shard(service, factory, inst);
    const std::vector<bool> expected = reference.accepted();
    ASSERT_EQ(service.arrivals(), inst.request_count());
    std::size_t voided = 0;
    for (std::size_t i = 0; i < service.arrivals(); ++i) {
      const auto [shard, local] = service.placement(i);
      ASSERT_EQ(service.placement(i), reference.placement[i]) << i;
      if (local == kInvalidId) {
        ++voided;
        EXPECT_EQ(shard, 1u);
        EXPECT_THROW(service.is_accepted(i), InvalidArgument);
      } else {
        EXPECT_EQ(service.is_accepted(i), expected[i]) << i;
      }
    }
    EXPECT_GT(voided, 0u);
    // Exactly shard 1's arrivals past its 10 processed ones are voided.
    EXPECT_EQ(service.shard_stats(1).arrivals, 10u);
  }
}

TEST_F(ConcurrentPump, UnroutableRequestRejectsTheWholeBatch) {
  // Routing is all-or-nothing: a request with no edges or an out-of-range
  // first edge rejects the batch before any placement is appended or any
  // index reaches a worker, so nothing is half-recorded and the next
  // batch cannot alias a never-processed arrival's (shard, local) id.
  ScenarioParams params;
  params.requests = 400;
  params.edges = 16;
  const AdmissionInstance inst = make_scenario("dense_burst", params, rng);
  const std::span<const Request> all(inst.requests());
  const ShardAlgorithmFactory factory = deterministic_factory(true);
  for (const std::size_t workers : {1u, 4u}) {
    for (const std::vector<EdgeId>& bad_edges :
         {std::vector<EdgeId>{}, std::vector<EdgeId>{999}}) {
      ServiceConfig cfg;
      cfg.shards = 4;
      cfg.threads = workers;
      AdmissionService service(inst.graph(), factory, cfg);
      service.submit_batch(all.subspan(0, 100));
      std::vector<ShardStats> before;
      for (std::size_t s = 0; s < service.shard_count(); ++s) {
        before.push_back(service.shard_stats(s));
      }

      std::vector<Request> poisoned(all.begin() + 100, all.begin() + 300);
      poisoned[100].edges = bad_edges;
      EXPECT_THROW(service.submit_batch(poisoned), InvalidArgument);
      EXPECT_EQ(service.arrivals(), 100u);
      EXPECT_EQ(service.aggregate().arrivals, 100u);
      for (std::size_t s = 0; s < service.shard_count(); ++s) {
        const ShardStats now = service.shard_stats(s);
        EXPECT_EQ(now.arrivals, before[s].arrivals) << s;
        EXPECT_EQ(now.accepted, before[s].accepted) << s;
        EXPECT_EQ(now.rejected, before[s].rejected) << s;
        EXPECT_EQ(service.shard_algorithm(s).arrivals(), before[s].arrivals)
            << s;
      }

      // The next batch lands exactly where a clean run would: placements
      // are unique (no aliasing) and match the sequential replay.
      service.submit_batch(all.subspan(100, 300));
      ASSERT_EQ(service.arrivals(), 400u);
      EXPECT_EQ(service.aggregate().arrivals, 400u);
      const test::ShardReplay reference =
          test::replay_per_shard(service, factory, inst);
      const std::vector<bool> expected = reference.accepted();
      std::set<std::pair<std::size_t, RequestId>> seen;
      for (std::size_t i = 0; i < service.arrivals(); ++i) {
        EXPECT_TRUE(seen.insert(service.placement(i)).second) << i;
        EXPECT_EQ(service.placement(i), reference.placement[i]) << i;
        EXPECT_EQ(service.is_accepted(i), expected[i]) << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// LCA cross-shard reconcile lane (ServiceConfig::lca_reconcile) — §11.5
// ---------------------------------------------------------------------------

class LcaReconcile : public test::SeededTest {};

/// Multi-tenant workload under the *hash* partition: tenant blocks do not
/// align with shards, so multi-edge requests regularly cross shards.
AdmissionInstance make_cross_shard_instance(Rng& rng) {
  return make_multi_tenant_workload(4, 4, 3, 1500, 3, 1.0,
                                    CostModel::unit_costs(), rng);
}

TEST_F(LcaReconcile, ReconciledDecisionsEqualSequentialEngine) {
  // The differential pin: the reconcile lane's decisions must equal a
  // bare sequential engine (same factory, lane index K) fed exactly the
  // diverted subsequence in arrival order, and every shard's must equal
  // its own sequential replay — for every worker count.  Final states
  // are compared: is_accepted reflects later preemptions, so the
  // comparison is only meaningful after the whole run on both sides.
  const AdmissionInstance inst = make_cross_shard_instance(rng);
  const ShardAlgorithmFactory factory = deterministic_factory(true);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ServiceConfig cfg;
    cfg.shards = 4;
    cfg.batch = 128;
    cfg.threads = workers;
    cfg.lca_reconcile = true;
    AdmissionService service(inst.graph(), factory, cfg);
    service.run(inst);
    ASSERT_EQ(service.arrivals(), inst.request_count());
    const test::ShardReplay reference =
        test::replay_per_shard(service, factory, inst, /*lca_lane=*/true);
    const std::vector<bool> expected = reference.accepted();
    std::size_t diverted = 0;
    for (std::size_t i = 0; i < service.arrivals(); ++i) {
      ASSERT_EQ(service.placement(i), reference.placement[i]) << i;
      EXPECT_EQ(service.is_accepted(i), expected[i]) << "arrival " << i;
      if (service.placement(i).first == AdmissionService::kLcaLane) {
        ++diverted;
      }
    }
    EXPECT_EQ(service.lca_algorithm().rejected_count(),
              reference.algorithms.back()->rejected_count());
    ASSERT_GT(diverted, 0u) << "instance never crossed shards";
    EXPECT_EQ(service.lca_arrivals(), diverted);
    EXPECT_LE(service.lca_speculation_hits(), diverted);
    const ServiceStats stats = service.aggregate();
    EXPECT_EQ(stats.lca_arrivals, diverted);
    EXPECT_EQ(stats.arrivals, inst.request_count());
  }
}

TEST_F(LcaReconcile, DecisionsInvariantAcrossWorkerCounts) {
  const AdmissionInstance inst = make_cross_shard_instance(rng);
  std::vector<std::vector<bool>> outcomes;
  std::vector<std::size_t> hits;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ServiceConfig cfg;
    cfg.shards = 4;
    cfg.batch = 96;
    cfg.threads = workers;
    cfg.lca_reconcile = true;
    AdmissionService service(inst.graph(), deterministic_factory(true),
                             cfg);
    outcomes.push_back(final_decisions(service, inst));
    hits.push_back(service.lca_speculation_hits());
  }
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i], outcomes.front()) << "worker variant " << i;
    EXPECT_EQ(hits[i], hits.front()) << "worker variant " << i;
  }
}

TEST_F(LcaReconcile, RejectsIncompatibleConfigurations) {
  Rng local(7);
  const AdmissionInstance inst = make_cross_shard_instance(local);
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.lca_reconcile = true;
  cfg.fault_tolerance.enabled = true;
  EXPECT_THROW(
      AdmissionService(inst.graph(), deterministic_factory(true), cfg),
      InvalidArgument);
  cfg.fault_tolerance.enabled = false;
  AdmissionService service(inst.graph(), deterministic_factory(true), cfg);
  EXPECT_THROW(service.snapshot(), InvalidArgument);
  EXPECT_NO_THROW(service.lca_algorithm());  // the lane exists here
  // …but not on a service without the flag.
  cfg.lca_reconcile = false;
  AdmissionService plain(inst.graph(), deterministic_factory(true), cfg);
  EXPECT_THROW(plain.lca_algorithm(), InvalidArgument);
}

}  // namespace
}  // namespace minrej
