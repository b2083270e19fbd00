#include "model/cost_model.hpp"

#include <cmath>

#include "common/check.hpp"

namespace hs::model {

namespace {

double log2d(double x) { return std::log2(x); }

}  // namespace

net::BcastCoefficients continuous_coefficients(net::BcastAlgo algo, double q,
                                               double elements) {
  HS_REQUIRE(q >= 1.0);
  if (q <= 1.0) return {0.0, 0.0};
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(elements * kElementBytes);
  switch (net::resolve_auto(algo, static_cast<int>(q), bytes)) {
    case net::BcastAlgo::Flat:
      return {q - 1.0, q - 1.0};
    case net::BcastAlgo::Binomial:
      return {log2d(q), log2d(q)};
    case net::BcastAlgo::ScatterRingAllgather:
      return {log2d(q) + q - 1.0, 2.0 * (1.0 - 1.0 / q)};
    case net::BcastAlgo::ScatterRecDblAllgather:
      return {2.0 * log2d(q), 2.0 * (1.0 - 1.0 / q)};
    case net::BcastAlgo::Pipelined: {
      const double segments = std::max(
          1.0, std::ceil(static_cast<double>(bytes) /
                         static_cast<double>(net::kPipelineSegmentBytes)));
      const double rounds = q - 2.0 + segments;
      return {rounds, elements > 0.0 ? rounds / segments : 0.0};
    }
    case net::BcastAlgo::MpichAuto:
      break;
  }
  HS_REQUIRE_MSG(false, "unreachable broadcast algorithm");
  return {};
}

CostBreakdown summa_cost(double n, double p, double b, net::BcastAlgo algo,
                         const PlatformModel& platform) {
  HS_REQUIRE(n > 0 && p >= 1 && b > 0);
  const double q = std::sqrt(p);
  const double steps = n / b;
  const double panel_elements = (n / q) * b;  // per-broadcast message
  const auto k = continuous_coefficients(algo, q, panel_elements);

  CostBreakdown cost;
  // Row broadcast of A and column broadcast of B per step: factor 2.
  cost.latency = 2.0 * steps * k.latency_factor * platform.alpha;
  cost.bandwidth = 2.0 * (n * n / q) * k.bandwidth_factor *
                   platform.beta_element();
  cost.compute = 2.0 * n * n * n / p * platform.gamma_flop;
  return cost;
}

CostBreakdown hsumma_cost(double n, double p, double groups, double b,
                          double outer_b, net::BcastAlgo algo,
                          const PlatformModel& platform) {
  HS_REQUIRE(n > 0 && p >= 1 && b > 0 && outer_b >= b);
  HS_REQUIRE_MSG(groups >= 1.0 && groups <= p,
                 "group count must lie in [1, p]");
  const double q = std::sqrt(p);
  const double sqrt_g = std::sqrt(groups);
  const double inner_q = q / sqrt_g;  // sqrt(p/G)

  // Outer phase: n/B steps of (n/sqrt p)*B-element broadcasts among sqrt(G)
  // group representatives.
  const double outer_elements = (n / q) * outer_b;
  const auto outer = continuous_coefficients(algo, sqrt_g, outer_elements);
  // Inner phase: n/b steps of (n/sqrt p)*b-element broadcasts among
  // sqrt(p/G) ranks.
  const double inner_elements = (n / q) * b;
  const auto inner = continuous_coefficients(algo, inner_q, inner_elements);

  CostBreakdown cost;
  cost.latency = 2.0 * platform.alpha *
                 ((n / outer_b) * outer.latency_factor +
                  (n / b) * inner.latency_factor);
  cost.bandwidth = 2.0 * (n * n / q) * platform.beta_element() *
                   (outer.bandwidth_factor + inner.bandwidth_factor);
  cost.compute = 2.0 * n * n * n / p * platform.gamma_flop;
  return cost;
}

MultilevelCost multilevel_cost(double n, double p,
                               const std::vector<int>& row_factors,
                               const std::vector<int>& col_factors, double b,
                               net::BcastAlgo algo,
                               const PlatformModel& platform) {
  HS_REQUIRE(n > 0 && p >= 1 && b > 0);
  const double q = std::sqrt(p);
  const double steps = n / b;
  const double elements = (n / q) * b;  // per-broadcast message, any level

  MultilevelCost out;
  // One dimension's phase chain, mirroring core::BcastChain: factors of 1
  // are skipped but keep their level slot, a factor equal to the remaining
  // extent flattens, and whatever remains broadcasts as the last phase.
  const auto add_chain = [&](const std::vector<int>& factors) {
    double remaining = q;
    int level = 0;
    const auto add_phase = [&](double participants) {
      if (participants <= 1.0) return;
      const auto k = continuous_coefficients(algo, participants, elements);
      const double latency = steps * k.latency_factor * platform.alpha;
      const double bandwidth =
          steps * elements * k.bandwidth_factor * platform.beta_element();
      out.cost.latency += latency;
      out.cost.bandwidth += bandwidth;
      if (out.level_comm.size() <= static_cast<std::size_t>(level))
        out.level_comm.resize(static_cast<std::size_t>(level) + 1);
      out.level_comm[static_cast<std::size_t>(level)] += latency + bandwidth;
    };
    for (const int factor : factors) {
      if (remaining <= 1.0) return;
      HS_REQUIRE_MSG(factor >= 1,
                     "chain factor " << factor << " must be >= 1");
      if (factor > 1) {
        add_phase(static_cast<double>(factor));
        remaining /= static_cast<double>(factor);
        if (remaining <= 1.0) return;
      }
      ++level;
    }
    add_phase(remaining);
  };
  add_chain(row_factors);
  add_chain(col_factors);
  out.cost.compute = 2.0 * n * n * n / p * platform.gamma_flop;
  return out;
}

bool has_interior_minimum(double n, double p, double b,
                          const PlatformModel& platform) {
  // eq. 10: alpha / beta > 2 n b / p, with beta per element.
  return platform.alpha / platform.beta_element() > 2.0 * n * b / p;
}

double hsumma_vdg_derivative(double n, double p, double groups, double b,
                             const PlatformModel& platform) {
  // eq. 9: dT/dG = (G - sqrt p) / (G sqrt G) * (n alpha / b - 2 n^2 beta / p).
  const double lead = (groups - std::sqrt(p)) / (groups * std::sqrt(groups));
  return lead * (n * platform.alpha / b -
                 2.0 * n * n * platform.beta_element() / p);
}

double predicted_optimal_groups(double n, double p, double b,
                                const PlatformModel& platform) {
  return has_interior_minimum(n, p, b, platform) ? std::sqrt(p) : 1.0;
}

std::vector<SweepPoint> group_sweep(double n, double p, double b,
                                    double outer_b, net::BcastAlgo algo,
                                    const PlatformModel& platform,
                                    const std::vector<double>& group_counts) {
  std::vector<SweepPoint> points;
  points.reserve(group_counts.size());
  for (double groups : group_counts)
    points.push_back(
        {groups, hsumma_cost(n, p, groups, b, outer_b, algo, platform)});
  return points;
}

std::vector<double> pow2_group_counts(double p) {
  std::vector<double> counts;
  for (double g = 1.0; g <= p; g *= 2.0) counts.push_back(g);
  if (counts.empty() || counts.back() != p) counts.push_back(p);
  return counts;
}

}  // namespace hs::model
