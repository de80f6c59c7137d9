// Deterministic pseudo-random number generation for all gdp components.
//
// Every source of randomness in the library flows through gdp::common::Rng so
// that experiments are reproducible bit-for-bit given a seed.  The generator
// is PCG64 (permuted congruential, 128-bit state), which passes BigCrush and
// is far cheaper than std::mt19937_64 while having a smaller state.
//
// NOTE ON DP AND PRNGS: a cryptographically secure generator is required for
// a hostile deployment; for reproducing the paper's experiments a statistical
// PRNG is sufficient (repro hint: "standard RNG suffices").  The Rng class is
// the single seam where a CSPRNG could later be substituted.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace gdp::common {

// splitmix64: used to expand a single 64-bit seed into PCG64's 128-bit state.
// Public because tests and generators use it for cheap per-item hashing.
[[nodiscard]] constexpr std::uint64_t SplitMix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// PCG64 (XSL-RR variant).  Satisfies std::uniform_random_bit_generator so it
// can be plugged into <random> distributions.
class Pcg64 {
 public:
  using result_type = std::uint64_t;

  Pcg64() : Pcg64(kDefaultSeed) {}
  explicit Pcg64(std::uint64_t seed) noexcept { Reseed(seed); }

  void Reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    const std::uint64_t hi = SplitMix64(sm);
    const std::uint64_t lo = SplitMix64(sm);
    state_ = (static_cast<unsigned __int128>(hi) << 64) | lo;
    // Any odd increment yields a full-period generator.
    const std::uint64_t inc_hi = SplitMix64(sm);
    const std::uint64_t inc_lo = SplitMix64(sm) | 1ULL;
    inc_ = (static_cast<unsigned __int128>(inc_hi) << 64) | inc_lo;
    (void)operator()();  // decorrelate from the seed
  }

  result_type operator()() noexcept {
    state_ = state_ * kMultiplier + inc_;
    const std::uint64_t xored =
        static_cast<std::uint64_t>(state_ >> 64) ^ static_cast<std::uint64_t>(state_);
    const int rot = static_cast<int>(state_ >> 122);
    return (xored >> rot) | (xored << ((-rot) & 63));
  }

  // Jump ahead: the state after `delta` calls of operator(), in O(log delta)
  // steps (Brown's LCG skip-ahead).
  void Advance(std::uint64_t delta) noexcept {
    unsigned __int128 acc_mult = 1;
    unsigned __int128 acc_plus = 0;
    unsigned __int128 cur_mult = kMultiplier;
    unsigned __int128 cur_plus = inc_;
    for (; delta > 0; delta >>= 1) {
      if ((delta & 1U) != 0) {
        acc_mult *= cur_mult;
        acc_plus = acc_plus * cur_mult + cur_plus;
      }
      cur_plus = (cur_mult + 1) * cur_plus;
      cur_mult *= cur_mult;
    }
    state_ = acc_mult * state_ + acc_plus;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  static constexpr std::uint64_t kDefaultSeed = 0x853c49e6748fea9bULL;

 private:
  static constexpr unsigned __int128 kMultiplier =
      (static_cast<unsigned __int128>(2549297995355413924ULL) << 64) |
      4865540595714422341ULL;
  unsigned __int128 state_{};
  unsigned __int128 inc_{};
};

// Rng: the library-facing handle.  Wraps Pcg64 and adds the conversions the
// library actually needs (uniform doubles, bounded integers, Bernoulli,
// subsidiary-stream forking).
class Rng {
 public:
  using result_type = Pcg64::result_type;

  Rng() = default;
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  result_type operator()() noexcept { return engine_(); }
  static constexpr result_type min() noexcept { return Pcg64::min(); }
  static constexpr result_type max() noexcept { return Pcg64::max(); }

  // The seed this Rng was constructed with (for experiment logging).
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  // Uniform double in [0, 1).  53 random mantissa bits.
  [[nodiscard]] double UniformUnit() noexcept {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }

  // Uniform double in (0, 1] — never returns 0, required by inverse-CDF
  // samplers that take log(u).
  [[nodiscard]] double UniformPositiveUnit() noexcept {
    return (static_cast<double>(engine_() >> 11) + 1.0) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).  Requires lo < hi and both finite.
  [[nodiscard]] double UniformDouble(double lo, double hi);

  // Unbiased uniform integer in [0, bound) via Lemire's method.
  // Requires bound > 0.
  [[nodiscard]] std::uint64_t UniformInt(std::uint64_t bound);

  // Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  [[nodiscard]] std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  // Bernoulli(p).  Requires p in [0, 1].
  [[nodiscard]] bool Bernoulli(double p);

  // Skip `n` draws: the state after n calls of operator(), in O(log n).
  void Advance(std::uint64_t n) noexcept { engine_.Advance(n); }

  // Derive an independent child stream.  Distinct (seed, salt) pairs give
  // decorrelated streams; used to give each trial / each worker its own RNG.
  [[nodiscard]] Rng Fork(std::uint64_t salt) noexcept;

  // Fork `count` child streams with salts 0..count-1, in that order.  The
  // result depends only on this Rng's state at the call (each fork advances
  // it), so parallel engines fork one substream per work unit BEFORE
  // dispatch and their output is independent of thread count and schedule
  // (see ThreadPool's determinism contract).
  [[nodiscard]] std::vector<Rng> ForkStreams(std::size_t count);

  // Fisher–Yates shuffle of a vector (helper used by generators and tests).
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[UniformInt(static_cast<std::uint64_t>(i))]);
    }
  }

 private:
  Pcg64 engine_{};
  std::uint64_t seed_{Pcg64::kDefaultSeed};
};

}  // namespace gdp::common
