#include "common/rng.hpp"

#include <algorithm>
#include <cmath>

namespace opass {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // All-zero state is invalid for xoshiro; splitmix64 cannot produce four
  // zeros from any seed, but keep the guard for clarity.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  OPASS_REQUIRE(bound > 0, "uniform() bound must be positive");
  // Rejection sampling over the top of the range to avoid modulo bias.
  const std::uint64_t threshold = (~bound + 1) % bound;  // (2^64 - bound) mod bound
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::uniform_range(std::int64_t lo, std::int64_t hi) {
  OPASS_REQUIRE(lo <= hi, "uniform_range() requires lo <= hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(span == 0 ? next() : uniform(span));
}

double Rng::uniform01() {
  // 53-bit mantissa construction: uniform on [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::exponential(double mean) {
  OPASS_REQUIRE(mean > 0, "exponential() mean must be positive");
  double u;
  do {
    u = uniform01();
  } while (u == 0.0);
  return -mean * std::log(u);
}

double Rng::pareto(double xm, double alpha) {
  OPASS_REQUIRE(xm > 0 && alpha > 0, "pareto() parameters must be positive");
  double u;
  do {
    u = uniform01();
  } while (u == 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

InlineVector<std::uint32_t, 4> Rng::sample_without_replacement(std::uint32_t n,
                                                              std::uint32_t k) {
  OPASS_REQUIRE(k <= n, "cannot sample more elements than the population holds");
  InlineVector<std::uint32_t, 4> out;
  out.reserve(k);
  if (k == 0) return out;
  if (k * 3 >= n) {
    // Dense case: partial Fisher–Yates over the full index range.
    std::vector<std::uint32_t> idx(n);
    for (std::uint32_t i = 0; i < n; ++i) idx[i] = i;
    for (std::uint32_t i = 0; i < k; ++i) {
      const auto j = i + static_cast<std::uint32_t>(uniform(n - i));
      std::swap(idx[i], idx[j]);
      out.push_back(idx[i]);
    }
    return out;
  }
  // Sparse case: rejection sampling, redrawing any repeat of an earlier pick.
  while (out.size() < k) {
    const auto v = static_cast<std::uint32_t>(uniform(n));
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

Rng Rng::split() {
  Rng child(0);
  // Derive the child state from fresh draws so parent and child streams do
  // not overlap in practice.
  std::uint64_t seed = next() ^ rotl(next(), 13);
  child.reseed(seed);
  return child;
}

}  // namespace opass
