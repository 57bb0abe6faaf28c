#include "setcover/generators.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace minrej {

namespace {

/// Adds element j to random sets it is not yet a member of until its degree
/// reaches min_degree.  Mutates the membership lists in place.  Membership
/// is checked against the probed set's own list, so the pass costs
/// O(input + probes · set size) with no m × n side table; the generators
/// never emit a duplicate member, so every listed element counts once.
void patch_min_degree(std::size_t n, std::size_t min_degree,
                      std::vector<std::vector<ElementId>>& sets, Rng& rng) {
  if (min_degree == 0) return;
  MINREJ_REQUIRE(min_degree <= sets.size(),
                 "min_degree exceeds number of sets");
  std::vector<std::size_t> degree(n, 0);
  for (const std::vector<ElementId>& members : sets) {
    for (ElementId j : members) ++degree[j];
  }
  for (std::size_t j = 0; j < n; ++j) {
    const auto elem = static_cast<ElementId>(j);
    while (degree[j] < min_degree) {
      std::vector<ElementId>& members = sets[rng.index(sets.size())];
      if (std::find(members.begin(), members.end(), elem) != members.end()) {
        continue;
      }
      members.push_back(elem);
      ++degree[j];
    }
  }
}

}  // namespace

SetSystem random_uniform_system(std::size_t n, std::size_t m,
                                std::size_t set_size, std::size_t min_degree,
                                Rng& rng) {
  MINREJ_REQUIRE(n >= 1 && m >= 1, "need positive n and m");
  MINREJ_REQUIRE(set_size >= 1 && set_size <= n, "bad set size");
  std::vector<std::vector<ElementId>> sets(m);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t idx : rng.sample_indices(n, set_size)) {
      sets[s].push_back(static_cast<ElementId>(idx));
    }
  }
  patch_min_degree(n, min_degree, sets, rng);
  return SetSystem(n, std::move(sets));
}

SetSystem random_density_system(std::size_t n, std::size_t m, double p,
                                std::size_t min_degree, Rng& rng) {
  MINREJ_REQUIRE(n >= 1 && m >= 1, "need positive n and m");
  MINREJ_REQUIRE(p > 0.0 && p <= 1.0, "density must be in (0, 1]");
  std::vector<std::vector<ElementId>> sets(m);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.bernoulli(p)) sets[s].push_back(static_cast<ElementId>(j));
    }
  }
  // Empty sets are invalid; give each at least one random element.
  for (auto& members : sets) {
    if (members.empty()) {
      members.push_back(static_cast<ElementId>(rng.index(n)));
    }
  }
  patch_min_degree(n, min_degree, sets, rng);
  return SetSystem(n, std::move(sets));
}

SetSystem planted_cover_system(std::size_t n, std::size_t m,
                               std::size_t k_opt, std::size_t copies,
                               std::size_t decoy_size, Rng& rng) {
  MINREJ_REQUIRE(k_opt >= 1 && k_opt <= n, "bad k_opt");
  MINREJ_REQUIRE(copies >= 1, "copies must be >= 1");
  MINREJ_REQUIRE(m >= k_opt * copies, "m too small for the planted cover");
  MINREJ_REQUIRE(decoy_size >= 1 && decoy_size <= n, "bad decoy size");

  // Partition a random permutation of X into k_opt near-equal blocks.
  std::vector<ElementId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  rng.shuffle(perm);

  std::vector<std::vector<ElementId>> sets;
  sets.reserve(m);
  const std::size_t block = (n + k_opt - 1) / k_opt;
  for (std::size_t b = 0; b < k_opt; ++b) {
    const std::size_t begin = b * block;
    const std::size_t end = std::min(n, begin + block);
    if (begin >= end) break;
    std::vector<ElementId> members(perm.begin() + static_cast<std::ptrdiff_t>(begin),
                                   perm.begin() + static_cast<std::ptrdiff_t>(end));
    for (std::size_t copy = 0; copy < copies; ++copy) sets.push_back(members);
  }
  while (sets.size() < m) {
    std::vector<ElementId> decoy;
    for (std::size_t idx : rng.sample_indices(n, decoy_size)) {
      decoy.push_back(static_cast<ElementId>(idx));
    }
    sets.push_back(std::move(decoy));
  }
  return SetSystem(n, std::move(sets));
}

SetSystem dyadic_interval_system(std::size_t n) {
  MINREJ_REQUIRE(n >= 2 && (n & (n - 1)) == 0, "n must be a power of two >= 2");
  std::vector<std::vector<ElementId>> sets;
  for (std::size_t width = 1; width <= n; width *= 2) {
    for (std::size_t start = 0; start < n; start += width) {
      std::vector<ElementId> members;
      members.reserve(width);
      for (std::size_t j = start; j < start + width; ++j) {
        members.push_back(static_cast<ElementId>(j));
      }
      sets.push_back(std::move(members));
    }
  }
  return SetSystem(n, std::move(sets));
}

SetSystem singletons_plus_block_system(std::size_t n,
                                       std::size_t block_size) {
  MINREJ_REQUIRE(n >= 1, "need positive n");
  MINREJ_REQUIRE(block_size >= 1 && block_size <= n, "bad block size");
  std::vector<std::vector<ElementId>> sets;
  sets.reserve(n + 1);
  for (std::size_t j = 0; j < n; ++j) {
    sets.push_back({static_cast<ElementId>(j)});
  }
  std::vector<ElementId> blockset;
  blockset.reserve(block_size);
  for (std::size_t j = 0; j < block_size; ++j) {
    blockset.push_back(static_cast<ElementId>(j));
  }
  sets.push_back(std::move(blockset));
  return SetSystem(n, std::move(sets));
}

SetSystem with_random_costs(const SetSystem& system, double cost_min,
                            double cost_max, Rng& rng) {
  MINREJ_REQUIRE(cost_min > 0.0 && cost_min <= cost_max, "bad cost range");
  std::vector<std::vector<ElementId>> sets(system.set_count());
  std::vector<double> costs(system.set_count());
  for (std::size_t s = 0; s < system.set_count(); ++s) {
    const auto members = system.elements_of(static_cast<SetId>(s));
    sets[s].assign(members.begin(), members.end());
    costs[s] = rng.log_uniform(cost_min, cost_max);
  }
  return SetSystem(system.element_count(), std::move(sets), std::move(costs));
}

SetSystem power_law_system(std::size_t n, std::size_t m, double skew,
                           std::size_t min_degree, Rng& rng) {
  MINREJ_REQUIRE(n >= 1 && m >= 1, "need positive n and m");
  MINREJ_REQUIRE(skew >= 0.0, "skew must be >= 0");
  std::vector<std::vector<ElementId>> sets(m);
  for (std::size_t s = 0; s < m; ++s) {
    const double raw =
        static_cast<double>(n) / std::pow(static_cast<double>(s + 1), skew);
    const std::size_t size = std::min<std::size_t>(
        n, std::max<std::size_t>(1, static_cast<std::size_t>(raw)));
    for (std::size_t idx : rng.sample_indices(n, size)) {
      sets[s].push_back(static_cast<ElementId>(idx));
    }
  }
  patch_min_degree(n, min_degree, sets, rng);
  return SetSystem(n, std::move(sets));
}

std::vector<ElementId> arrivals_each_once(std::size_t n, Rng& rng) {
  std::vector<ElementId> arrivals(n);
  std::iota(arrivals.begin(), arrivals.end(), 0);
  rng.shuffle(arrivals);
  return arrivals;
}

std::vector<ElementId> arrivals_each_k_times(std::size_t n, std::size_t k,
                                             bool interleave, Rng& rng) {
  MINREJ_REQUIRE(k >= 1, "k must be >= 1");
  std::vector<ElementId> arrivals;
  arrivals.reserve(n * k);
  if (interleave) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t rep = 0; rep < k; ++rep) {
        arrivals.push_back(static_cast<ElementId>(j));
      }
    }
    rng.shuffle(arrivals);
  } else {
    std::vector<ElementId> order(n);
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    for (ElementId j : order) {
      for (std::size_t rep = 0; rep < k; ++rep) arrivals.push_back(j);
    }
  }
  return arrivals;
}

std::vector<ElementId> arrivals_zipf(const SetSystem& system,
                                     std::size_t count, double s, Rng& rng) {
  MINREJ_REQUIRE(s >= 0.0, "zipf exponent must be >= 0");
  const std::size_t n = system.element_count();
  // Rank-to-element assignment is a random permutation.
  std::vector<ElementId> by_rank(n);
  std::iota(by_rank.begin(), by_rank.end(), 0);
  rng.shuffle(by_rank);

  // CDF of Zipf(s) over ranks 1..n.
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = total;
  }
  for (double& x : cdf) x /= total;

  std::vector<std::int64_t> demand(n, 0);
  std::vector<ElementId> arrivals;
  arrivals.reserve(count);
  std::size_t failures = 0;
  while (arrivals.size() < count && failures < 64 * count + 1024) {
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const std::size_t rank =
        std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                              n - 1);
    const ElementId j = by_rank[rank];
    // Cap demand at degree so the instance remains feasible.
    if (demand[j] + 1 >
        static_cast<std::int64_t>(system.degree(j))) {
      ++failures;
      continue;
    }
    ++demand[j];
    arrivals.push_back(j);
  }
  return arrivals;
}

}  // namespace minrej
