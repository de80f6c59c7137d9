#include "core/group_dp_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/thread_pool.hpp"
#include "dp/discrete_gaussian.hpp"
#include "dp/gaussian.hpp"
#include "dp/geometric.hpp"
#include "dp/laplace.hpp"

namespace gdp::core {

const char* NoiseKindName(NoiseKind kind) noexcept {
  switch (kind) {
    case NoiseKind::kGaussian:
      return "gaussian";
    case NoiseKind::kAnalyticGaussian:
      return "analytic_gaussian";
    case NoiseKind::kLaplace:
      return "laplace";
    case NoiseKind::kDiscreteGaussian:
      return "discrete_gaussian";
    case NoiseKind::kGeometric:
      return "geometric";
  }
  return "?";
}

std::unique_ptr<gdp::dp::NumericMechanism> MakeMechanism(NoiseKind kind,
                                                         double epsilon,
                                                         double delta,
                                                         double sensitivity) {
  using namespace gdp::dp;
  const Epsilon eps(epsilon);
  switch (kind) {
    case NoiseKind::kGaussian: {
      // Classic calibration inside its validity range (Dwork–Roth Thm 3.22
      // requires ε ≤ 1 — the old `< 1.0001` cutoff admitted ε ∈ (1, 1.0001)
      // outside the theorem), analytic above.
      const GaussianCalibration calib = epsilon <= 1.0
                                            ? GaussianCalibration::kClassic
                                            : GaussianCalibration::kAnalytic;
      return std::make_unique<GaussianMechanism>(eps, Delta(delta),
                                                 L2Sensitivity(sensitivity), calib);
    }
    case NoiseKind::kAnalyticGaussian:
      return std::make_unique<GaussianMechanism>(eps, Delta(delta),
                                                 L2Sensitivity(sensitivity),
                                                 GaussianCalibration::kAnalytic);
    case NoiseKind::kLaplace:
      return std::make_unique<LaplaceMechanism>(eps, L1Sensitivity(sensitivity));
    case NoiseKind::kDiscreteGaussian:
      return std::make_unique<DiscreteGaussianMechanism>(
          eps, Delta(delta), L2Sensitivity(sensitivity));
    case NoiseKind::kGeometric:
      return std::make_unique<GeometricMechanism>(eps,
                                                  L1Sensitivity(sensitivity));
  }
  throw std::invalid_argument("MakeMechanism: unknown noise kind");
}

gdp::dp::MechanismEvent MechanismEventFor(NoiseKind kind, double epsilon,
                                          double delta, int parallel_width) {
  using namespace gdp::dp;
  const Epsilon eps(epsilon);  // validates
  switch (kind) {
    case NoiseKind::kGaussian: {
      // Same validity switch as MakeMechanism: classic calibration for
      // ε <= 1, analytic above.  σ at Δ = 1 IS the noise multiplier.
      const double m =
          epsilon <= 1.0
              ? ClassicGaussianSigma(eps, Delta(delta), L2Sensitivity(1.0))
              : AnalyticGaussianSigma(eps, Delta(delta), L2Sensitivity(1.0));
      return MechanismEvent::Gaussian(epsilon, delta, m, 1, parallel_width);
    }
    case NoiseKind::kAnalyticGaussian: {
      const double m =
          AnalyticGaussianSigma(eps, Delta(delta), L2Sensitivity(1.0));
      return MechanismEvent::Gaussian(epsilon, delta, m, 1, parallel_width);
    }
    case NoiseKind::kLaplace:
    case NoiseKind::kGeometric:
      return MechanismEvent::PureEps(epsilon, delta, 1, parallel_width);
    case NoiseKind::kDiscreteGaussian: {
      MechanismEvent event = MechanismEvent::Opaque(epsilon, delta);
      event.parallel_width = parallel_width;
      return event;
    }
  }
  throw std::invalid_argument("MechanismEventFor: unknown noise kind");
}

const gdp::dp::NumericMechanism& MechanismCache::Get(NoiseKind kind,
                                                     double epsilon,
                                                     double delta,
                                                     double sensitivity) {
  const Key key{static_cast<int>(kind), epsilon, delta, sensitivity};
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    it = cache_.emplace(key, MakeMechanism(kind, epsilon, delta, sensitivity))
             .first;
  }
  return *it->second;
}

std::size_t MechanismCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

GroupDpEngine::GroupDpEngine(ReleaseConfig config)
    : GroupDpEngine(config, nullptr) {}

GroupDpEngine::GroupDpEngine(ReleaseConfig config, MechanismCache* shared_cache)
    : config_(config), shared_cache_(shared_cache) {
  // Validate eagerly so a bad config fails at construction, not mid-release.
  (void)gdp::dp::Epsilon(config_.epsilon_g);
  (void)gdp::dp::Delta(config_.delta);
  if (config_.sensitivity_override && !(*config_.sensitivity_override > 0.0)) {
    throw std::invalid_argument(
        "GroupDpEngine: sensitivity_override must be > 0");
  }
  if (config_.noise_chunk_grain == 0) {
    throw std::invalid_argument(
        "GroupDpEngine: noise_chunk_grain must be > 0");
  }
}

double GroupDpEngine::NoiseStddevFor(double sensitivity) const {
  return cache()
      .Get(config_.noise, config_.epsilon_g, config_.delta, sensitivity)
      .NoiseStddev();
}

void GroupDpEngine::DrawLevelNoise(
    LevelRelease& out, const gdp::dp::NumericMechanism& scalar_mechanism,
    const gdp::dp::NumericMechanism* vector_mechanism,
    gdp::common::Rng& level_rng, gdp::common::ThreadPool* pool) const {
  out.noise_stddev = scalar_mechanism.NoiseStddev();
  out.noisy_total = scalar_mechanism.AddNoise(out.true_total, level_rng);

  if (vector_mechanism != nullptr) {
    out.group_noise_stddev = vector_mechanism->NoiseStddev();
    // Chunk layout depends only on (n, grain), and the substreams are forked
    // in chunk order before any chunk draws, so the values are the same with
    // or without a pool, for any thread count or schedule.
    const std::size_t grain = config_.noise_chunk_grain;
    const std::size_t n = out.true_group_counts.size();
    const std::size_t num_chunks = (n + grain - 1) / grain;
    std::vector<gdp::common::Rng> streams = level_rng.ForkStreams(num_chunks);
    out.noisy_group_counts.resize(n);
    const double* truth = out.true_group_counts.data();
    double* noisy = out.noisy_group_counts.data();
    const auto draw_chunk = [&](std::size_t chunk, std::size_t begin,
                                std::size_t end) {
      // A local copy: the streams sit next to each other in one vector, so
      // drawing through a reference would have every pool thread write
      // the same few cache lines.
      gdp::common::Rng chunk_rng = streams[chunk];
      for (std::size_t i = begin; i < end; ++i) {
        noisy[i] = vector_mechanism->AddNoise(truth[i], chunk_rng);
      }
    };
    if (pool != nullptr && num_chunks > 1) {
      pool->ParallelForChunked(n, grain, draw_chunk);
    } else {
      for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
        draw_chunk(chunk, chunk * grain, std::min(n, (chunk + 1) * grain));
      }
    }
  }

  if (config_.clamp_nonnegative) {
    out.noisy_total = std::max(0.0, out.noisy_total);
    for (double& c : out.noisy_group_counts) {
      c = std::max(0.0, c);
    }
  }
}

LevelRelease GroupDpEngine::ReleaseLevelFromPlan(
    const ReleasePlan& plan, int level_index, double epsilon,
    gdp::common::Rng& level_rng, gdp::common::ThreadPool* pool) const {
  LevelRelease out;
  out.level = level_index;
  out.true_total = static_cast<double>(plan.num_edges());

  const gdp::graph::EdgeCount computed = plan.CountSensitivity(level_index);
  out.sensitivity =
      config_.sensitivity_override.value_or(static_cast<double>(computed));

  const std::span<const gdp::graph::EdgeCount> sums =
      plan.GroupDegreeSums(level_index);

  if (computed == 0) {
    // Edgeless graph: nothing to protect, release exactly.  This holds even
    // under a sensitivity_override — a vector mechanism cannot be calibrated
    // for Δℓ = 0 (VectorSensitivity throws), and there is no association for
    // the override to bound, so the recorded sensitivity is the computed 0.
    out.sensitivity = 0.0;
    out.noisy_total = out.true_total;
    if (config_.include_group_counts) {
      out.true_group_counts.assign(sums.size(), 0.0);
      out.noisy_group_counts.assign(sums.size(), 0.0);
    }
    return out;
  }

  const auto& scalar_mechanism =
      cache().Get(config_.noise, epsilon, config_.delta, out.sensitivity);
  const gdp::dp::NumericMechanism* vector_mechanism = nullptr;
  if (config_.include_group_counts) {
    out.true_group_counts.assign(sums.begin(), sums.end());
    // Per-group vector: one group's change moves its own entry by up to Δℓ
    // and opposite-side entries by up to Δℓ in total, so calibrate with the
    // sqrt(2)·Δℓ L2 bound (see group_sensitivity.hpp).  Δℓ here is the
    // computed (not overridden) scalar.
    vector_mechanism = &cache().Get(config_.noise, epsilon, config_.delta,
                                    plan.VectorSensitivity(level_index));
  }
  DrawLevelNoise(out, scalar_mechanism, vector_mechanism, level_rng, pool);
  return out;
}

std::vector<LevelRelease> GroupDpEngine::ReleaseLevels(
    const ReleasePlan& plan, int first, int last, gdp::common::Rng& rng,
    gdp::common::ThreadPool* pool,
    std::span<const double> per_level_epsilon) const {
  const int num_levels = plan.num_levels();
  if (first < 0 || first > last || last >= num_levels) {
    throw std::out_of_range("GroupDpEngine::ReleaseLevels: levels [" +
                            std::to_string(first) + ", " +
                            std::to_string(last) + "] outside [0, " +
                            std::to_string(num_levels) + ")");
  }
  if (!per_level_epsilon.empty()) {
    if (per_level_epsilon.size() != static_cast<std::size_t>(num_levels)) {
      throw std::invalid_argument(
          "GroupDpEngine::ReleaseLevels: one epsilon required per level");
    }
    for (const double eps : per_level_epsilon) {
      (void)gdp::dp::Epsilon(eps);  // validates
    }
  }
  // Every level's stream is forked, drawn or not: the caller's stream
  // advances the same for any range, and level i always gets stream i.
  std::vector<gdp::common::Rng> streams =
      rng.ForkStreams(static_cast<std::size_t>(num_levels));
  const auto count = static_cast<std::size_t>(last - first + 1);
  std::vector<LevelRelease> levels(count);
  const auto release = [&](std::size_t i) {
    const int level = first + static_cast<int>(i);
    const double eps = per_level_epsilon.empty()
                           ? config_.epsilon_g
                           : per_level_epsilon[static_cast<std::size_t>(level)];
    // Drawn from a local copy of the level's stream (see DrawLevelNoise).
    gdp::common::Rng level_rng = streams[static_cast<std::size_t>(level)];
    levels[i] = ReleaseLevelFromPlan(plan, level, eps, level_rng, pool);
  };
  if (pool != nullptr && count > 1) {
    // Nested use of the same pool: each large level's vector draw is split
    // into chunks (caller participation in ParallelForChunked makes the
    // nesting deadlock-free).
    pool->ParallelFor(count, release);
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      release(i);
    }
  }
  return levels;
}

MultiLevelRelease GroupDpEngine::ReleaseAll(const ReleasePlan& plan,
                                            gdp::common::Rng& rng,
                                            gdp::common::ThreadPool* pool) const {
  return MultiLevelRelease(
      ReleaseLevels(plan, 0, plan.num_levels() - 1, rng, pool));
}

}  // namespace gdp::core
