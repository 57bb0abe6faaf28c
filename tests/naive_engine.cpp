#include "naive_engine.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace minrej {

NaiveFractionalEngine::NaiveFractionalEngine(EngineSubstrate substrate,
                                             double zero_init)
    : substrate_(substrate), zero_init_(zero_init),
      members_(substrate.col_count), alive_count_(substrate.col_count, 0),
      pinned_count_(substrate.col_count, 0) {
  MINREJ_REQUIRE(substrate_.capacities.size() == substrate_.col_count,
                 "substrate capacity span size mismatch");
  // zero_init == 1 is legal: it is what the unweighted case degenerates to
  // when g·c == 1, and it simply means step (a) already fully rejects.
  MINREJ_REQUIRE(zero_init > 0.0 && zero_init <= 1.0,
                 "zero_init must be in (0, 1]");
}

RequestId NaiveFractionalEngine::pin(std::span<const EdgeId> edges) {
  MINREJ_REQUIRE(!edges.empty(), "pinned request needs edges");
  for (EdgeId e : edges) {
    MINREJ_REQUIRE(e < substrate_.col_count, "edge out of range");
  }
  const auto id = static_cast<RequestId>(requests_.size());
  RequestRecord rec;
  rec.edges.assign(edges.begin(), edges.end());
  rec.pinned = true;
  requests_.push_back(std::move(rec));
  for (EdgeId e : edges) ++pinned_count_[e];
  return id;
}

double NaiveFractionalEngine::weight(RequestId id) const {
  MINREJ_REQUIRE(id < requests_.size(), "unknown request id");
  return requests_[id].weight;
}

bool NaiveFractionalEngine::is_pinned(RequestId id) const {
  MINREJ_REQUIRE(id < requests_.size(), "unknown request id");
  return requests_[id].pinned;
}

bool NaiveFractionalEngine::fully_rejected(RequestId id) const {
  MINREJ_REQUIRE(id < requests_.size(), "unknown request id");
  return !requests_[id].pinned && !requests_[id].alive;
}

std::int64_t NaiveFractionalEngine::excess(EdgeId e) const {
  MINREJ_REQUIRE(e < substrate_.col_count, "edge out of range");
  return alive_count_[e] + pinned_count_[e] - substrate_.capacities[e];
}

double NaiveFractionalEngine::alive_weight_sum(EdgeId e) const {
  MINREJ_REQUIRE(e < substrate_.col_count, "edge out of range");
  double sum = 0.0;
  for (RequestId i : members_[e]) {
    if (requests_[i].alive) sum += requests_[i].weight;
  }
  return sum;
}

bool NaiveFractionalEngine::saturated(EdgeId e) const {
  MINREJ_REQUIRE(e < substrate_.col_count, "edge out of range");
  return excess(e) > 0 && alive_count_[e] == 0;
}

bool NaiveFractionalEngine::constraint_satisfied(EdgeId e) const {
  const std::int64_t n_e = excess(e);
  if (n_e <= 0) return true;
  if (alive_count_[e] == 0) return true;  // unsatisfiable => saturated
  // Tolerance: the multiplicative updates accumulate rounding error.
  return alive_weight_sum(e) >= static_cast<double>(n_e) - 1e-9;
}

std::size_t NaiveFractionalEngine::member_list_size(EdgeId e) const {
  MINREJ_REQUIRE(e < substrate_.col_count, "edge out of range");
  return members_[e].size();
}

std::vector<RequestId> NaiveFractionalEngine::alive_requests(EdgeId e) const {
  MINREJ_REQUIRE(e < substrate_.col_count, "edge out of range");
  std::vector<RequestId> result;
  for (RequestId i : members_[e]) {
    if (requests_[i].alive) result.push_back(i);
  }
  return result;
}

void NaiveFractionalEngine::touch(RequestId id) {
  RequestRecord& rec = requests_[id];
  if (rec.touch_epoch != epoch_) {
    rec.touch_epoch = epoch_;
    rec.weight_at_touch = std::min(rec.weight, 1.0);
    touched_.push_back(id);
  }
}

void NaiveFractionalEngine::mark_fully_rejected(RequestId id) {
  RequestRecord& rec = requests_[id];
  MINREJ_CHECK(!rec.pinned, "pinned request cannot be rejected");
  MINREJ_CHECK(rec.alive, "request already fully rejected");
  rec.alive = false;
  for (EdgeId e : rec.edges) --alive_count_[e];
  // Member lists are cleaned lazily in compact().
}

void NaiveFractionalEngine::compact(EdgeId e) {
  ++compactions_;
  auto& list = members_[e];
  list.erase(std::remove_if(list.begin(), list.end(),
                            [this](RequestId i) {
                              return !requests_[i].alive;
                            }),
             list.end());
}

void NaiveFractionalEngine::augment_edge(EdgeId e) {
  // Augmentation loop (§2 step 2): runs while the covering constraint is
  // unmet and there is still an augmentable alive request to raise.
  for (;;) {
    const std::int64_t n_e = excess(e);
    if (n_e <= 0) return;
    if (alive_count_[e] == 0) return;  // saturated; wrapper's cost guard acts
    compact(e);

    double sum = 0.0;
    for (RequestId i : members_[e]) sum += requests_[i].weight;
    if (sum >= static_cast<double>(n_e)) return;

    ++augmentations_;
    const double ne = static_cast<double>(n_e);

    // (a) zero weights jump to the floor 1/(g·c).
    for (RequestId i : members_[e]) {
      RequestRecord& rec = requests_[i];
      if (rec.weight == 0.0) {
        touch(static_cast<RequestId>(i));
        rec.weight = zero_init_;
      }
    }
    // (b) multiplicative step f_i *= (1 + 1/(n_e p_i)), computed as
    // 1 + (1/n_e)·(1/p_i) with both reciprocals hoisted — the divide-free
    // form the flat engine's kernels use (differential contract, header
    // comment), so the two engines round identically member by member.
    const double inv_ne = 1.0 / ne;
    for (RequestId i : members_[e]) {
      RequestRecord& rec = requests_[i];
      touch(static_cast<RequestId>(i));
      const double w = rec.weight * (1.0 + inv_ne * rec.inv_update_cost);
      // The macro expands to `if (!(w >= 0.0)) throw` — the double-negative
      // form that is true for NaN as well as genuine negatives, so a
      // poisoned weight fails loudly instead of corrupting invariant sums.
      MINREJ_CHECK(w >= 0.0, "fractional weight became NaN or negative");
      rec.weight = std::min(w, kWeightClamp);
    }
    // (c) requests crossing 1 leave every ALIVE list.
    for (RequestId i : members_[e]) {
      if (requests_[i].alive && requests_[i].weight >= 1.0) {
        mark_fully_rejected(i);
      }
    }
    if (observer_) observer_(e);
  }
}

RequestId NaiveFractionalEngine::admit_existing(std::span<const EdgeId> edges,
                                                double update_cost,
                                                double report_cost,
                                                double initial_weight) {
  MINREJ_REQUIRE(!edges.empty(), "request needs at least one edge");
  // isfinite rejects ±inf; the > 0 comparison rejects NaN (every ordered
  // comparison against NaN is false) as well as non-positive costs.
  MINREJ_REQUIRE(std::isfinite(update_cost) && update_cost > 0.0,
                 "update cost must be positive and finite");
  MINREJ_REQUIRE(std::isfinite(report_cost) && report_cost > 0.0,
                 "report cost must be positive and finite");
  MINREJ_REQUIRE(initial_weight >= 0.0 && initial_weight < 1.0,
                 "initial weight must be in [0, 1)");
  // Validate every edge before mutating anything: InvalidArgument is
  // recoverable, so a rejected arrival must not leave a half-registered
  // phantom request behind.
  for (EdgeId e : edges) {
    MINREJ_REQUIRE(e < substrate_.col_count, "edge out of range");
  }
  const auto id = static_cast<RequestId>(requests_.size());
  RequestRecord rec;
  rec.edges.assign(edges.begin(), edges.end());
  rec.update_cost = update_cost;
  rec.inv_update_cost = 1.0 / update_cost;
  rec.report_cost = report_cost;
  rec.weight = initial_weight;
  requests_.push_back(std::move(rec));
  for (EdgeId e : edges) {
    members_[e].push_back(id);
    ++alive_count_[e];
  }
  return id;
}

const std::vector<NaiveFractionalEngine::Delta>& NaiveFractionalEngine::arrive(
    std::span<const EdgeId> edges, double update_cost, double report_cost) {
  admit_existing(edges, update_cost, report_cost);
  return restore_edges(edges);
}

const std::vector<NaiveFractionalEngine::Delta>&
NaiveFractionalEngine::restore_edges(std::span<const EdgeId> edges) {
  // Validate before augmenting anything: a mid-loop throw would leave
  // weights raised but the objective never charged for them.
  for (EdgeId e : edges) {
    MINREJ_REQUIRE(e < substrate_.col_count, "edge out of range");
  }

  ++epoch_;
  touched_.clear();
  deltas_.clear();

  // Restore the invariant on each edge, in the given order ("in an
  // arbitrary order" per the paper).
  for (EdgeId e : edges) augment_edge(e);

  // Collect weight increases and update the fractional objective.  Sorting
  // by id makes the report order canonical across engine implementations.
  std::sort(touched_.begin(), touched_.end());
  for (RequestId i : touched_) {
    const RequestRecord& r = requests_[i];
    const double now = std::min(r.weight, 1.0);
    const double delta = now - r.weight_at_touch;
    if (delta > 0.0) {
      deltas_.push_back({i, delta});
      fractional_cost_ += delta * r.report_cost;
    }
  }
  return deltas_;
}

}  // namespace minrej
