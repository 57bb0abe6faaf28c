// workloads.cpp — the workload builders and the named scenario catalog
// (docs/SCENARIOS.md).
//
// No builder allocates more than the instance it returns: the set-system
// generators underneath sample sparsely and patch degrees against each
// set's own list, with no m × n side table (the density generator still
// spends one Bernoulli draw per (set, element) pair — that is its
// definition).  Every catalog scenario's instance at a
// fixed seed and size is hash-pinned in tests/sim_test.cpp — a rewrite of
// any generator must consume the same random draws in the same order.
#include "sim/workloads.h"

#include <algorithm>
#include <cmath>

#include "core/reduction.h"
#include "graph/generators.h"
#include "setcover/generators.h"
#include "util/check.h"

namespace minrej {

AdmissionInstance make_line_workload(std::size_t edge_count,
                                     std::int64_t capacity,
                                     std::size_t request_count,
                                     std::size_t min_len, std::size_t max_len,
                                     const CostModel& costs, Rng& rng) {
  Graph graph = make_line_graph(edge_count, capacity);
  std::vector<Request> requests;
  requests.reserve(request_count);
  for (std::size_t i = 0; i < request_count; ++i) {
    requests.push_back(
        random_line_request(graph, rng, min_len, max_len, costs.sample(rng)));
  }
  return AdmissionInstance(std::move(graph), std::move(requests));
}

AdmissionInstance make_star_workload(std::size_t leaves,
                                     std::int64_t capacity,
                                     std::size_t request_count,
                                     std::size_t max_spokes,
                                     const CostModel& costs, Rng& rng) {
  MINREJ_REQUIRE(max_spokes >= 1 && max_spokes <= leaves, "bad max_spokes");
  Graph graph = make_star_graph(leaves, capacity);
  std::vector<Request> requests;
  requests.reserve(request_count);
  for (std::size_t i = 0; i < request_count; ++i) {
    const std::size_t spokes = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(max_spokes)));
    std::vector<EdgeId> edges;
    for (std::size_t idx : rng.sample_indices(leaves, spokes)) {
      edges.push_back(static_cast<EdgeId>(idx));
    }
    requests.emplace_back(std::move(edges), costs.sample(rng));
  }
  return AdmissionInstance(std::move(graph), std::move(requests));
}

AdmissionInstance make_tree_workload(std::size_t depth, std::int64_t capacity,
                                     std::size_t request_count,
                                     const CostModel& costs, Rng& rng) {
  Graph graph = make_binary_tree(depth, capacity);
  std::vector<Request> requests;
  requests.reserve(request_count);
  for (std::size_t i = 0; i < request_count; ++i) {
    requests.push_back(random_tree_path_request(graph, rng, costs.sample(rng)));
  }
  return AdmissionInstance(std::move(graph), std::move(requests));
}

AdmissionInstance make_grid_workload(std::size_t rows, std::size_t cols,
                                     std::int64_t capacity,
                                     std::size_t request_count,
                                     const CostModel& costs, Rng& rng) {
  Graph graph = make_grid_graph(rows, cols, capacity);
  std::vector<Request> requests;
  requests.reserve(request_count);
  for (std::size_t i = 0; i < request_count; ++i) {
    requests.push_back(
        random_grid_path_request(graph, rows, cols, rng, costs.sample(rng)));
  }
  return AdmissionInstance(std::move(graph), std::move(requests));
}

AdmissionInstance make_single_edge_burst(std::int64_t capacity,
                                         std::size_t request_count,
                                         const CostModel& costs, Rng& rng) {
  Graph graph = make_single_edge_graph(capacity);
  std::vector<Request> requests;
  requests.reserve(request_count);
  for (std::size_t i = 0; i < request_count; ++i) {
    requests.emplace_back(std::vector<EdgeId>{0}, costs.sample(rng));
  }
  return AdmissionInstance(std::move(graph), std::move(requests));
}

AdmissionInstance make_power_law_workload(std::size_t edge_count,
                                          std::int64_t capacity,
                                          std::size_t request_count,
                                          std::size_t max_edges,
                                          double exponent,
                                          const CostModel& costs, Rng& rng) {
  MINREJ_REQUIRE(edge_count >= 1, "power-law workload needs edges");
  MINREJ_REQUIRE(max_edges >= 1 && max_edges <= edge_count, "bad max_edges");
  MINREJ_REQUIRE(exponent >= 0.0, "exponent must be non-negative");
  Graph graph = make_star_graph(edge_count, capacity);
  // Cumulative Zipf mass over the spokes; inverted per draw by binary
  // search (exponent 0 degenerates to the uniform star workload).
  std::vector<double> cumulative(edge_count, 0.0);
  double total = 0.0;
  for (std::size_t e = 0; e < edge_count; ++e) {
    total += 1.0 / std::pow(static_cast<double>(e + 1), exponent);
    cumulative[e] = total;
  }
  auto draw_edge = [&] {
    const double u = rng.uniform() * total;
    const auto it =
        std::upper_bound(cumulative.begin(), cumulative.end(), u);
    return static_cast<EdgeId>(
        std::min<std::size_t>(edge_count - 1,
                              static_cast<std::size_t>(
                                  it - cumulative.begin())));
  };
  std::vector<Request> requests;
  requests.reserve(request_count);
  std::vector<EdgeId> edges;
  for (std::size_t i = 0; i < request_count; ++i) {
    const std::size_t want = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(max_edges)));
    edges.clear();
    // Rejection-sample distinct edges; the duplicate rate is high only on
    // the hot spokes, so cap the attempts and settle for fewer edges.
    for (std::size_t attempt = 0;
         edges.size() < want && attempt < 8 * max_edges; ++attempt) {
      const EdgeId e = draw_edge();
      if (std::find(edges.begin(), edges.end(), e) == edges.end()) {
        edges.push_back(e);
      }
    }
    requests.emplace_back(edges, costs.sample(rng));
  }
  return AdmissionInstance(std::move(graph), std::move(requests));
}

AdmissionInstance make_dense_burst_workload(std::size_t edge_count,
                                            std::int64_t capacity,
                                            std::size_t request_count,
                                            const CostModel& costs, Rng& rng) {
  MINREJ_REQUIRE(edge_count >= 1, "dense burst needs edges");
  Graph graph = make_star_graph(edge_count, capacity);
  std::vector<Request> requests;
  requests.reserve(request_count);
  for (std::size_t i = 0; i < request_count; ++i) {
    requests.emplace_back(
        std::vector<EdgeId>{static_cast<EdgeId>(rng.index(edge_count))},
        costs.sample(rng));
  }
  return AdmissionInstance(std::move(graph), std::move(requests));
}

AdmissionInstance make_diurnal_workload(std::size_t edge_count,
                                        std::int64_t capacity,
                                        std::size_t request_count,
                                        double periods, std::size_t hot_edges,
                                        const CostModel& costs, Rng& rng) {
  MINREJ_REQUIRE(edge_count >= 1, "diurnal workload needs edges");
  MINREJ_REQUIRE(hot_edges >= 1 && hot_edges <= edge_count, "bad hot_edges");
  MINREJ_REQUIRE(periods > 0.0, "periods must be positive");
  Graph graph = make_star_graph(edge_count, capacity);
  std::vector<Request> requests;
  requests.reserve(request_count);
  constexpr double kTau = 6.283185307179586476925286766559;  // 2π
  for (std::size_t i = 0; i < request_count; ++i) {
    const double t = request_count > 1
                         ? static_cast<double>(i) /
                               static_cast<double>(request_count)
                         : 0.0;
    const double wave = 0.5 * (1.0 + std::sin(kTau * periods * t));
    const double p_hot = 0.15 + 0.7 * wave;
    const EdgeId e = rng.bernoulli(p_hot)
                         ? static_cast<EdgeId>(rng.index(hot_edges))
                         : static_cast<EdgeId>(rng.index(edge_count));
    requests.emplace_back(std::vector<EdgeId>{e}, costs.sample(rng));
  }
  return AdmissionInstance(std::move(graph), std::move(requests));
}

AdmissionInstance make_flash_crowd_workload(std::size_t edge_count,
                                            std::int64_t capacity,
                                            std::size_t request_count,
                                            double crowd_start,
                                            double crowd_end,
                                            std::size_t hot_edges,
                                            const CostModel& costs, Rng& rng) {
  MINREJ_REQUIRE(edge_count >= 1, "flash crowd needs edges");
  MINREJ_REQUIRE(hot_edges >= 1 && hot_edges <= edge_count, "bad hot_edges");
  MINREJ_REQUIRE(crowd_start >= 0.0 && crowd_end <= 1.0 &&
                     crowd_start < crowd_end,
                 "crowd window must satisfy 0 <= start < end <= 1");
  Graph graph = make_star_graph(edge_count, capacity);
  std::vector<Request> requests;
  requests.reserve(request_count);
  for (std::size_t i = 0; i < request_count; ++i) {
    const double t = request_count > 1
                         ? static_cast<double>(i) /
                               static_cast<double>(request_count)
                         : 0.0;
    const bool in_crowd = t >= crowd_start && t < crowd_end;
    const EdgeId e = (in_crowd && rng.bernoulli(0.9))
                         ? static_cast<EdgeId>(rng.index(hot_edges))
                         : static_cast<EdgeId>(rng.index(edge_count));
    requests.emplace_back(std::vector<EdgeId>{e}, costs.sample(rng));
  }
  return AdmissionInstance(std::move(graph), std::move(requests));
}

AdmissionInstance make_cascading_failure_workload(std::size_t edge_count,
                                                  std::int64_t capacity,
                                                  std::size_t request_count,
                                                  std::size_t groups,
                                                  const CostModel& costs,
                                                  Rng& rng) {
  MINREJ_REQUIRE(edge_count >= 1, "cascading failure needs edges");
  MINREJ_REQUIRE(groups >= 1 && groups <= edge_count,
                 "groups must be in [1, edge_count]");
  Graph graph = make_star_graph(edge_count, capacity);
  const std::size_t block = edge_count / groups;  // last block takes the rest
  std::vector<Request> requests;
  requests.reserve(request_count);
  for (std::size_t i = 0; i < request_count; ++i) {
    // Window g of the run aims the hotspot at block g.
    const std::size_t g =
        std::min(groups - 1, i * groups / std::max<std::size_t>(1,
                                                                request_count));
    EdgeId e;
    if (rng.bernoulli(0.8)) {
      const std::size_t begin = g * block;
      const std::size_t size =
          (g + 1 == groups) ? edge_count - begin : block;
      e = static_cast<EdgeId>(begin + rng.index(std::max<std::size_t>(1,
                                                                      size)));
    } else {
      e = static_cast<EdgeId>(rng.index(edge_count));
    }
    requests.emplace_back(std::vector<EdgeId>{e}, costs.sample(rng));
  }
  return AdmissionInstance(std::move(graph), std::move(requests));
}

AdmissionInstance make_adversarial_single_edge(std::int64_t capacity,
                                               std::size_t request_count,
                                               double cost_ratio) {
  MINREJ_REQUIRE(request_count >= 1, "adversary needs requests");
  MINREJ_REQUIRE(cost_ratio >= 1.0, "cost_ratio must be >= 1");
  Graph graph = make_single_edge_graph(capacity);
  std::vector<Request> requests;
  requests.reserve(request_count);
  const double denom =
      request_count > 1 ? static_cast<double>(request_count - 1) : 1.0;
  for (std::size_t i = 0; i < request_count; ++i) {
    const double cost =
        std::pow(cost_ratio, static_cast<double>(i) / denom);
    requests.emplace_back(std::vector<EdgeId>{0}, cost);
  }
  return AdmissionInstance(std::move(graph), std::move(requests));
}

AdmissionInstance make_multi_tenant_workload(std::size_t tenants,
                                             std::size_t edges_per_tenant,
                                             std::int64_t capacity,
                                             std::size_t request_count,
                                             std::size_t max_edges,
                                             double tenant_exponent,
                                             const CostModel& costs, Rng& rng) {
  MINREJ_REQUIRE(tenants >= 1, "need at least one tenant");
  MINREJ_REQUIRE(edges_per_tenant >= 1, "tenants need edges");
  MINREJ_REQUIRE(max_edges >= 1 && max_edges <= edges_per_tenant,
                 "bad max_edges");
  MINREJ_REQUIRE(tenant_exponent >= 0.0, "exponent must be non-negative");
  Graph graph = make_star_graph(tenants * edges_per_tenant, capacity);
  // Cumulative Zipf mass over the tenants (same inversion scheme as the
  // power-law workload, one level up the hierarchy).
  std::vector<double> cumulative(tenants, 0.0);
  double total = 0.0;
  for (std::size_t t = 0; t < tenants; ++t) {
    total += 1.0 / std::pow(static_cast<double>(t + 1), tenant_exponent);
    cumulative[t] = total;
  }
  std::vector<Request> requests;
  requests.reserve(request_count);
  for (std::size_t i = 0; i < request_count; ++i) {
    const double u = rng.uniform() * total;
    const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), u);
    const std::size_t tenant = std::min<std::size_t>(
        tenants - 1, static_cast<std::size_t>(it - cumulative.begin()));
    const std::size_t want = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(max_edges)));
    const auto base = static_cast<EdgeId>(tenant * edges_per_tenant);
    std::vector<EdgeId> edges;
    edges.reserve(want);
    for (std::size_t idx : rng.sample_indices(edges_per_tenant, want)) {
      edges.push_back(base + static_cast<EdgeId>(idx));
    }
    requests.emplace_back(std::move(edges), costs.sample(rng));
  }
  return AdmissionInstance(std::move(graph), std::move(requests));
}

AdmissionInstance make_adversarial_lower_bound(std::size_t blocks,
                                               std::size_t rounds,
                                               std::int64_t capacity,
                                               std::size_t request_count) {
  MINREJ_REQUIRE(capacity >= 1, "lower-bound construction needs capacity");
  MINREJ_REQUIRE(blocks == 0 || rounds >= 1,
                 "lower-bound blocks need at least one round");
  const std::size_t per_round = static_cast<std::size_t>(capacity);
  const std::size_t core = blocks * (1 + rounds * per_round);
  MINREJ_REQUIRE(request_count >= core,
                 "request budget below the block structure");
  const std::size_t pad = request_count - core;

  // blocks·rounds round edges at `capacity` plus one slack edge sized to
  // absorb the padding without overloading.
  std::vector<std::int64_t> capacities(blocks * rounds, capacity);
  capacities.push_back(std::max<std::int64_t>(1, static_cast<std::int64_t>(pad)));
  Graph graph = Graph::star(capacities);
  const auto slack = static_cast<EdgeId>(blocks * rounds);

  std::vector<Request> requests;
  requests.reserve(request_count);
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto base = static_cast<EdgeId>(b * rounds);
    // The special arrives first, spanning every round edge of its block…
    std::vector<EdgeId> span(rounds);
    for (std::size_t t = 0; t < rounds; ++t) {
      span[t] = base + static_cast<EdgeId>(t);
    }
    requests.emplace_back(std::move(span), 1.0);
    // …then round t floods round-edge t with `capacity` decoys, pushing
    // its load to capacity + 1 (excess exactly 1, round after round).
    for (std::size_t t = 0; t < rounds; ++t) {
      for (std::size_t k = 0; k < per_round; ++k) {
        requests.emplace_back(
            std::vector<EdgeId>{base + static_cast<EdgeId>(t)}, 1.0);
      }
    }
  }
  for (std::size_t k = 0; k < pad; ++k) {
    requests.emplace_back(std::vector<EdgeId>{slack}, 1.0);
  }
  return AdmissionInstance(std::move(graph), std::move(requests));
}

// ---------------------------------------------------------------------------
// Scenario catalog
// ---------------------------------------------------------------------------

namespace {

constexpr ScenarioInfo kCatalog[] = {
    {"dense_burst",
     "uniform single-edge bursts over a star; every edge ~3x overloaded"},
    {"power_law",
     "Zipf(1.1) multi-edge requests, log-uniform costs in [1, 32]"},
    {"diurnal",
     "sinusoidal hot-set wave (3 periods); peaks overload the hot edges"},
    {"flash_crowd",
     "uniform traffic with a [40%, 55%) crowd window concentrating 90% of "
     "load on a small hot set"},
    {"cascading_failure",
     "rolling hotspot: 8 edge blocks take turns absorbing 80% of traffic"},
    {"adversarial_single_edge",
     "one edge, strictly escalating costs; maximal preemption churn"},
    {"adversarial_lower_bound",
     "Ω-style blocks: one spanning special vs ⌈log₂ n⌉-capacity decoy "
     "rounds; measured ratio grows with n"},
    {"multi_tenant",
     "8 Zipf-popular tenants on disjoint edge blocks, multi-edge requests"},
    {"setcover_powerlaw",
     "§4 reduction of a power-law set system under Zipf element arrivals"},
    {"setcover_reduction_replay",
     "uniform set system replayed through the §4 reduction (phase 1 + "
     "repeated element demands)"},
    {"shared_sets_overlap",
     "§4 reduction of a 25%-density random system, half-degree round-robin "
     "demands; every request row is wide and heavily shared"},
};

/// capacity == 0 picks the scenario default; any other value is taken
/// verbatim.
std::int64_t pick_capacity(std::int64_t requested, std::int64_t fallback) {
  return requested > 0 ? requested : std::max<std::int64_t>(1, fallback);
}

/// Pads a reduction arrival sequence up to `budget` arrivals by cycling
/// elements that still have spare degree (demand < |S_j|), so the
/// setcover_* scenarios hit the requested instance size exactly whenever
/// the system has enough feasible demand left.  Deterministic tail — the
/// interesting arrival structure is in the prefix the generator produced.
void pad_reduction_arrivals(const SetSystem& sys, std::size_t budget,
                            std::vector<ElementId>& arrivals) {
  std::vector<std::int64_t> demand(sys.element_count(), 0);
  for (ElementId j : arrivals) ++demand[j];
  bool progress = true;
  while (arrivals.size() < budget && progress) {
    progress = false;
    for (std::size_t j = 0;
         j < sys.element_count() && arrivals.size() < budget; ++j) {
      const auto elem = static_cast<ElementId>(j);
      if (demand[j] < static_cast<std::int64_t>(sys.degree(elem))) {
        arrivals.push_back(elem);
        ++demand[j];
        progress = true;
      }
    }
  }
}

}  // namespace

std::span<const ScenarioInfo> scenario_catalog() { return kCatalog; }

bool is_scenario(const std::string& name) {
  for (const ScenarioInfo& s : kCatalog) {
    if (name == s.name) return true;
  }
  return false;
}

AdmissionInstance make_scenario(const std::string& name,
                                const ScenarioParams& params, Rng& rng) {
  const std::size_t requests = std::max<std::size_t>(1, params.requests);
  const std::size_t edges = std::max<std::size_t>(1, params.edges);
  const auto per_edge =
      static_cast<std::int64_t>(requests / std::max<std::size_t>(1, edges));
  if (name == "dense_burst") {
    // Default capacity a third of the per-edge load: every spoke plays the
    // dense overloaded burst of E10, scaled out to `edges` resources.
    const std::int64_t cap = pick_capacity(params.capacity, per_edge / 3);
    return make_dense_burst_workload(edges, cap, requests,
                                     CostModel::unit_costs(), rng);
  }
  if (name == "power_law") {
    const std::int64_t cap = pick_capacity(params.capacity, 8);
    return make_power_law_workload(edges, cap, requests,
                                   std::min<std::size_t>(4, edges), 1.1,
                                   CostModel::spread(1.0, 32.0), rng);
  }
  if (name == "diurnal") {
    // Hot set = an eighth of the spokes; capacity = the uniform per-edge
    // load, so the hot edges overload only around the wave peaks.  Unit
    // costs: the weighted engine's augmentation count explodes on deeply
    // overloaded instances (normalized costs up to 2mc make each step's
    // multiplicative gain microscopic), which is paper-faithful but wrong
    // for a service-rate scenario.
    const std::int64_t cap = pick_capacity(params.capacity, per_edge);
    const std::size_t hot = std::max<std::size_t>(1, edges / 8);
    return make_diurnal_workload(edges, cap, requests, 3.0, hot,
                                 CostModel::unit_costs(), rng);
  }
  if (name == "flash_crowd") {
    // Capacity = the uniform per-edge load: outside the crowd window every
    // spoke runs at its capacity, inside it the hot set (a sixteenth of
    // the spokes) takes ~90% of the offered load and overloads an order
    // of magnitude deep.  Unit costs, same service-rate rationale as
    // diurnal.
    const std::int64_t cap = pick_capacity(params.capacity, per_edge);
    const std::size_t hot = std::max<std::size_t>(1, edges / 16);
    return make_flash_crowd_workload(edges, cap, requests, 0.40, 0.55, hot,
                                     CostModel::unit_costs(), rng);
  }
  if (name == "cascading_failure") {
    // Eight blocks, each overloaded ~2.5x while the hotspot sits on it
    // (80% of traffic into an eighth of the edges at capacity ≈ double
    // the uniform per-edge load).  Unit costs, service-rate rationale.
    const std::int64_t cap = pick_capacity(params.capacity, 2 * per_edge);
    const std::size_t groups = std::min<std::size_t>(8, edges);
    return make_cascading_failure_workload(edges, cap, requests, groups,
                                           CostModel::unit_costs(), rng);
  }
  if (name == "adversarial_single_edge") {
    // Capacity well below requests/4: the preemption-churn cost grows
    // super-linearly with c (victim scans + augmentation sweeps over
    // Θ(c)-long member lists), and the §3 edge-request cap 4mc² must stay
    // above the request count or the guard rejects the whole edge.
    const std::int64_t cap = pick_capacity(
        params.capacity,
        std::max<std::int64_t>(4, static_cast<std::int64_t>(requests) / 64));
    return make_adversarial_single_edge(cap, requests, 1024.0);
  }
  if (name == "adversarial_lower_bound") {
    // Deterministic (rng unused).  Capacity grows ⌈log₂ n⌉ with the
    // request budget: the online algorithm pays Θ(c·log c) per block
    // before each special's weight saturates (workloads.h), so the knob
    // that makes the measured ratio grow with the instance is capacity —
    // rounds only needs to cover the ≈ log₂ c saturation horizon, with a
    // little slack so the free tail is visible too.  OPT stays one
    // rejection per block throughout — the shape the paper's lower bound
    // is built from.
    // `edges` is ignored: the construction dictates its own star
    // (blocks·rounds round edges + a slack edge absorbing the padding).
    const auto log_n = static_cast<std::int64_t>(
        std::ceil(std::log2(std::max<double>(2.0, requests))));
    const std::int64_t cap =
        pick_capacity(params.capacity, std::clamp<std::int64_t>(log_n, 3, 31));
    const auto per_round = static_cast<std::size_t>(cap);
    auto rounds = static_cast<std::size_t>(
        2 * std::ceil(std::log2(static_cast<double>(cap))) + 2);
    while (rounds > 1 && 1 + rounds * per_round > requests) --rounds;
    const std::size_t block = 1 + rounds * per_round;
    const std::size_t blocks = requests / block;  // 0 → slack-edge only
    return make_adversarial_lower_bound(blocks, rounds, cap, requests);
  }
  if (name == "setcover_powerlaw") {
    // Online set cover as service traffic, realized through the §4
    // reduction: n = m elements/sets sized from the request budget
    // (phase-1 presents one request per set; Zipf(1.1) element arrivals
    // spend the rest, padded by spare-degree demand to land on the budget
    // exactly).  Power-law set sizes — a few hub sets plus a long tail,
    // the shape of real coverage catalogs.  Every reduction edge's
    // capacity is the element's degree, so the instance is exactly as
    // overloaded as the demands make it.  Unit set costs on purpose:
    // demands run to the degree bound, and weighted mode's α machinery in
    // that deeply overloaded regime is the superlinear augmentation
    // blow-up PR 3 cautions about —
    // AdmissionRun::augmentation_budget_exceeded is the tripwire if a
    // variant of this scenario reintroduces it.
    const std::size_t n = std::max<std::size_t>(
        std::max<std::size_t>(2, edges), requests / 4);
    SetSystem sys = power_law_system(n, n, 1.3, /*min_degree=*/2, rng);
    const std::size_t phase1 = sys.set_count();
    const std::size_t want = requests > phase1 ? requests - phase1 : 0;
    std::vector<ElementId> arrivals = arrivals_zipf(sys, want, 1.1, rng);
    pad_reduction_arrivals(sys, want, arrivals);
    return reduced_admission_instance(sys, arrivals);
  }
  if (name == "setcover_reduction_replay") {
    // The §4 reduction end-to-end, replayable through minrej_serve: a
    // uniform random system (m = n sets of 8, degrees patched to >= 4)
    // whose every element is demanded k times, interleaved — the "with
    // repetitions" case the paper stresses.  `capacity` is reused as the
    // demand multiplicity k (default 2, clamped to [1, 3] so spare degree
    // remains for the exact-size padding).  n is sized so phase 1 (n
    // requests) plus n·k arrivals meets the request budget.
    auto k = static_cast<std::size_t>(std::clamp<std::int64_t>(
        params.capacity > 0 ? params.capacity : 2, 1, 3));
    const std::size_t n =
        std::max<std::size_t>(2, requests / (k + 1));
    const std::size_t min_degree = std::min<std::size_t>(4, n);
    // Tiny ground sets cannot absorb the requested multiplicity: demand
    // beyond the patched minimum degree would make the reduction's
    // must-accept phase 2 infeasible.
    k = std::min(k, min_degree);
    SetSystem sys = random_uniform_system(
        n, n, std::min<std::size_t>(8, n), min_degree, rng);
    std::vector<ElementId> arrivals =
        arrivals_each_k_times(n, k, /*interleave=*/true, rng);
    const std::size_t phase1 = sys.set_count();
    const std::size_t want = requests > phase1 ? requests - phase1 : 0;
    if (arrivals.size() > want) arrivals.resize(want);
    pad_reduction_arrivals(sys, want, arrivals);
    return reduced_admission_instance(sys, arrivals);
  }
  if (name == "shared_sets_overlap") {
    // Dense shared membership through the §4 reduction: a 25%-density
    // random system (any two sets overlap on ~n/16 elements), each element
    // demanded up to half its degree, round-robin.  Every reduction row is
    // wide (≈ n/4 incident edges) and every edge's member list is long and
    // heavily shared — the workload shape where per-arrival cross-edge
    // fix-up work dominates the engine (DESIGN.md §7.5/§8).  n is sized so phase 1 (n
    // requests) plus the half-degree demand mass (≈ n²/8 arrivals) meets
    // the request budget.  Unit set costs, same rationale as
    // setcover_powerlaw.
    const std::size_t n = std::max<std::size_t>(
        8, static_cast<std::size_t>(
               std::sqrt(8.0 * static_cast<double>(requests))));
    SetSystem sys = random_density_system(n, n, 0.25, /*min_degree=*/4, rng);
    const std::size_t phase1 = sys.set_count();
    const std::size_t want = requests > phase1 ? requests - phase1 : 0;
    std::vector<ElementId> arrivals;
    arrivals.reserve(want);
    std::vector<std::int64_t> demand(sys.element_count(), 0);
    bool progress = true;
    while (arrivals.size() < want && progress) {
      progress = false;
      for (std::size_t j = 0;
           j < sys.element_count() && arrivals.size() < want; ++j) {
        const auto elem = static_cast<ElementId>(j);
        if (demand[j] < static_cast<std::int64_t>(sys.degree(elem) / 2)) {
          arrivals.push_back(elem);
          ++demand[j];
          progress = true;
        }
      }
    }
    // Small request budgets can leave spare half-degree mass unused; large
    // ones spill past the half-degree cap up to full degree.
    pad_reduction_arrivals(sys, want, arrivals);
    return reduced_admission_instance(sys, arrivals);
  }
  if (name == "multi_tenant") {
    const std::size_t tenants = std::min<std::size_t>(8, edges);
    const std::size_t block = std::max<std::size_t>(1, edges / tenants);
    // Fixed small capacity, like power_law: the weighted engine's cost per
    // arrival grows with the member-list length ~c, so a service-rate
    // scenario keeps c modest and lets the Zipf head tenants overload
    // deeply instead of widely.
    const std::int64_t cap = pick_capacity(params.capacity, 16);
    return make_multi_tenant_workload(tenants, block, cap, requests,
                                      std::min<std::size_t>(3, block), 1.0,
                                      CostModel::spread(1.0, 16.0), rng);
  }
  std::string known;
  for (const ScenarioInfo& s : kCatalog) {
    if (!known.empty()) known += ", ";
    known += s.name;
  }
  throw InvalidArgument("unknown scenario '" + name + "' (catalog: " + known +
                        ")");
}

bool all_unit_costs(const AdmissionInstance& instance) {
  // Same tolerance FractionalAdmission enforces in unit_costs mode.
  constexpr double kUnitTolerance = 1e-9;
  for (const Request& r : instance.requests()) {
    if (std::abs(r.cost - 1.0) > kUnitTolerance) return false;
  }
  return true;
}

AdmissionInstance make_greedy_killer(std::size_t edge_count,
                                     std::int64_t capacity) {
  MINREJ_REQUIRE(edge_count >= 2, "killer needs at least two edges");
  Graph graph = make_line_graph(edge_count, capacity);
  std::vector<Request> requests;
  requests.reserve(static_cast<std::size_t>(capacity) * (edge_count + 1));
  // Spanning requests fill every edge to capacity...
  for (std::int64_t k = 0; k < capacity; ++k) {
    requests.push_back(make_line_request(graph, 0, edge_count, 1.0));
  }
  // ...then each edge is hit by `capacity` singletons.
  for (std::size_t e = 0; e < edge_count; ++e) {
    for (std::int64_t k = 0; k < capacity; ++k) {
      requests.push_back(make_line_request(graph, e, 1, 1.0));
    }
  }
  return AdmissionInstance(std::move(graph), std::move(requests));
}

}  // namespace minrej
