#include "util/rng.h"

#include <cmath>
#include <unordered_map>

namespace minrej {

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  MINREJ_REQUIRE(lo <= hi, "uniform_int: empty range");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>((*this)());
  }
  return lo + static_cast<std::int64_t>(index(span));
}

std::size_t Rng::index(std::size_t n) {
  MINREJ_REQUIRE(n > 0, "index: n must be positive");
  // Classic rejection sampling to remove modulo bias: values below the
  // threshold would make some residues over-represented, so redraw.
  const std::uint64_t bound = static_cast<std::uint64_t>(n);
  const std::uint64_t threshold = (~bound + 1) % bound;  // (2^64 − n) mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return static_cast<std::size_t>(r % bound);
  }
}

double Rng::exponential(double rate) {
  MINREJ_REQUIRE(rate > 0.0, "exponential: rate must be positive");
  // 1 - uniform() is in (0, 1], so the log is finite.
  return -std::log(1.0 - uniform()) / rate;
}

double Rng::log_uniform(double lo, double hi) {
  MINREJ_REQUIRE(lo > 0.0 && hi >= lo, "log_uniform: need 0 < lo <= hi");
  if (lo == hi) return lo;
  return lo * std::pow(hi / lo, uniform());
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  MINREJ_REQUIRE(k <= n, "sample_indices: k must be <= n");
  // Partial Fisher–Yates over the virtual pool [0, n): only the slots a
  // swap displaced are stored, so the cost is O(k) in time and memory for
  // any n.  Slot i is final once step i reads it (later steps draw from
  // [i', n) with i' > i), so only the drawn slot j needs remembering.
  std::vector<std::size_t> out(k);
  std::unordered_map<std::size_t, std::size_t> displaced;
  displaced.reserve(k);
  const auto slot = [&displaced](std::size_t i) {
    const auto it = displaced.find(i);
    return it == displaced.end() ? i : it->second;
  };
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + index(n - i);
    out[i] = slot(j);
    displaced[j] = slot(i);
  }
  return out;
}

}  // namespace minrej
