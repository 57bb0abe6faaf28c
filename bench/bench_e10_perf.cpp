// E10 — systems performance of the implementation (the "systems table" a
// SPAA-style implementation paper would include):
//
//   (b) full stack — RandomizedAdmission and ReductionSetCover driven
//       through sim::run_admission / run_setcover, reporting arrivals/sec,
//       p50/p95 per-arrival latency, and augmentation-step totals.
//   (c) Monte-Carlo sweep scaling — the same independent trials through
//       sim::parallel_trials at 1, 2, 4 and 8 threads.
//
// There is no part (a): the engine is checked against the naive oracle by
// engine_differential_test, and the service is measured by perfbench.
//
// `--json[=path]` additionally writes machine-readable BENCH_e10.json
// (CI smoke-runs this at small sizes so the perf trajectory accumulates).
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/bicriteria_setcover.h"
#include "core/online_setcover.h"
#include "core/randomized_admission.h"
#include "setcover/generators.h"
#include "sim/workloads.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/timer.h"

namespace minrej::bench {
namespace {

std::size_t positive(std::int64_t v, const char* what) {
  MINREJ_REQUIRE(v > 0, std::string(what) + " must be positive");
  return static_cast<std::size_t>(v);
}

double per_sec(std::size_t count, double seconds) {
  return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
}

/// The shared field block of AdmissionRun/CoverRun records; the caller
/// appends its objective field and dumps.
template <typename RunT>
JsonObject run_json(const std::string& workload, const RunT& run) {
  JsonObject o;
  o.field("workload", workload)
      .field("arrivals", run.arrivals)
      .field("arrivals_per_sec", run.arrivals_per_sec())
      .field("p50_arrival_us", run.p50_arrival_s * 1e6)
      .field("p95_arrival_us", run.p95_arrival_s * 1e6)
      .field("augmentation_steps", run.augmentation_steps);
  return o;
}

std::string admission_run_json(const std::string& workload,
                               const AdmissionRun& run) {
  return run_json(workload, run)
      .field("rejected_cost", run.rejected_cost)
      .dump();
}

std::string cover_run_json(const std::string& workload, const CoverRun& run) {
  return run_json(workload, run).field("cost", run.cost).dump();
}

}  // namespace
}  // namespace minrej::bench

int main(int argc, char** argv) {
  using namespace minrej;
  using namespace minrej::bench;
  const CliFlags flags = CliFlags::parse(
      argc, argv, {"requests", "edges", "csv_dir", "json"});
  const std::size_t requests =
      positive(flags.get_int("requests", 100000), "requests");
  const std::size_t edges = positive(flags.get_int("edges", 64), "edges");
  const std::string csv_dir = flags.get_string("csv_dir", "");

  std::cout << "=== E10: systems performance (full stack, parallel sweep) "
               "===\n\n";

  // -- (b) full stack --------------------------------------------------------
  // Smaller sizes: the full randomized algorithm carries the classification
  // and rounding layers, and the §3 edge-request cap rejects everything on
  // an edge past 4mc² arrivals, which a 10^5-request burst would trip.
  const std::size_t stack_requests = std::min<std::size_t>(requests, 20000);
  std::vector<std::string> stack_json;
  Table stack_table("E10b — full-stack per-arrival performance",
                    {"algorithm", "workload", "arrivals", "arr/s", "p50 us",
                     "p95 us", "aug steps"});
  {
    Rng rng(3);
    AdmissionInstance zipf = make_power_law_workload(
        edges, 8, stack_requests, 4, 1.1, CostModel::spread(1.0, 32.0), rng);
    RandomizedConfig cfg;
    cfg.seed = 4;
    RandomizedAdmission alg(zipf.graph(), cfg);
    const AdmissionRun run =
        run_admission(alg, zipf, RunOptions{.collect_latencies = true});
    stack_table.add_row({alg.name(), "power_law", run.arrivals,
                         Cell(run.arrivals_per_sec(), 0),
                         Cell(run.p50_arrival_s * 1e6, 2),
                         Cell(run.p95_arrival_s * 1e6, 2),
                         static_cast<long long>(run.augmentation_steps)});
    stack_json.push_back(
        admission_run_json("randomized_power_law", run));
  }
  {
    Rng rng(5);
    AdmissionInstance line = make_line_workload(
        edges, 4, stack_requests, 1, std::max<std::size_t>(2, edges / 8),
        CostModel::unit_costs(), rng);
    RandomizedConfig cfg;
    cfg.unit_costs = true;
    cfg.seed = 6;
    RandomizedAdmission alg(line.graph(), cfg);
    const AdmissionRun run =
        run_admission(alg, line, RunOptions{.collect_latencies = true});
    stack_table.add_row({alg.name(), "line", run.arrivals,
                         Cell(run.arrivals_per_sec(), 0),
                         Cell(run.p50_arrival_s * 1e6, 2),
                         Cell(run.p95_arrival_s * 1e6, 2),
                         static_cast<long long>(run.augmentation_steps)});
    stack_json.push_back(admission_run_json("randomized_line", run));
  }

  // Set cover through the §4 reduction, with the CoverRun counters.
  std::string setcover_json;
  {
    const std::size_t n = std::min<std::size_t>(256, stack_requests);
    Rng rng(7);
    SetSystem sys = random_uniform_system(n, n, 6, 3, rng);
    const auto arrivals = arrivals_each_k_times(n, 2, true, rng);
    RandomizedConfig cfg;
    cfg.seed = 8;
    ReductionSetCover alg(sys, cfg);
    const CoverRun run =
        run_setcover(alg, arrivals, RunOptions{.collect_latencies = true});
    stack_table.add_row({alg.name(), "uniform_system", run.arrivals,
                         Cell(run.arrivals_per_sec(), 0),
                         Cell(run.p50_arrival_s * 1e6, 2),
                         Cell(run.p95_arrival_s * 1e6, 2),
                         static_cast<long long>(run.augmentation_steps)});
    setcover_json = cover_run_json("setcover_uniform", run);
  }

  // The deterministic §5 bicriteria algorithm rides the same table so its
  // arrival throughput stays on the perf trajectory too.
  std::string bicriteria_json;
  {
    const std::size_t n = std::min<std::size_t>(256, stack_requests);
    Rng rng(11);
    SetSystem sys = random_uniform_system(n, n, 6, 3, rng);
    const auto arrivals = arrivals_each_k_times(n, 2, true, rng);
    BicriteriaSetCover alg(sys, BicriteriaConfig{0.5});
    const CoverRun run =
        run_setcover(alg, arrivals, RunOptions{.collect_latencies = true});
    stack_table.add_row({alg.name(), "uniform_system", run.arrivals,
                         Cell(run.arrivals_per_sec(), 0),
                         Cell(run.p50_arrival_s * 1e6, 2),
                         Cell(run.p95_arrival_s * 1e6, 2),
                         static_cast<long long>(run.augmentation_steps)});
    bicriteria_json = cover_run_json("bicriteria_uniform", run);
  }
  emit(stack_table, "e10b_full_stack", csv_dir);

  // -- (c) Monte-Carlo sweep scaling ----------------------------------------
  // The same 64 independent trials at 1, 2, 4, 8 threads; near-linear
  // scaling expected up to the core count (a parallel_trials regression
  // shows up here as a flat or inverted column).
  std::vector<std::string> sweep_json;
  Table sweep_table("E10c — parallel sweep: 64 randomized trials",
                    {"threads", "seconds", "trials/s"});
  {
    Rng rng(9);
    AdmissionInstance inst = make_line_workload(
        32, 4, 192, 1, 6, CostModel::unit_costs(), rng);
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
      Timer timer;
      const auto results = parallel_trials(
          64,
          [&](std::size_t s) {
            RandomizedConfig cfg;
            cfg.unit_costs = true;
            cfg.seed = s;
            RandomizedAdmission alg(inst.graph(), cfg);
            return run_admission(alg, inst).rejected_cost;
          },
          threads);
      const double seconds = timer.elapsed_s();
      MINREJ_CHECK(results.size() == 64, "sweep lost trials");
      sweep_table.add_row(
          {threads, Cell(seconds, 4), Cell(per_sec(64, seconds), 0)});
      JsonObject o;
      o.field("threads", threads)
          .field("seconds", seconds)
          .field("trials_per_sec", per_sec(64, seconds));
      sweep_json.push_back(o.dump());
    }
  }
  emit(sweep_table, "e10c_parallel_sweep", csv_dir);

  JsonObject root = bench_root("e10", "mixed");
  root.field("requests", requests)
      .raw("full_stack", json_array(stack_json))
      .raw("setcover", setcover_json)
      .raw("bicriteria", bicriteria_json)
      .raw("parallel_sweep", json_array(sweep_json));
  emit_json(flags, "e10", root.dump());
  return EXIT_SUCCESS;
}
