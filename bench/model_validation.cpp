// Sections V-A.1 and V-B.1: validation of the analytical model on the
// paper's platform parameters — checks the alpha/beta > 2nb/p condition
// (eq. 10), the location of the extremum, and compares the model's G-sweep
// against the discrete-event simulator at a reduced scale.
#include "bench_util.hpp"

#include <cmath>
#include <cstdio>
#include <iostream>

namespace {

void validate_platform(const hs::net::Platform& platform, long long n,
                       long long p, long long b) {
  const auto model = hs::model::PlatformModel::from(platform);
  const double nd = static_cast<double>(n);
  const double pd = static_cast<double>(p);
  const double bd = static_cast<double>(b);

  const double lhs = model.alpha / model.beta_element();
  const double rhs = 2.0 * nd * bd / pd;
  const bool interior = hs::model::has_interior_minimum(nd, pd, bd, model);

  std::printf("%s: n=%lld p=%lld b=%lld\n", platform.name.c_str(), n, p, b);
  std::printf("  alpha/beta = %.4g  vs  2nb/p = %.4g  ->  %s\n", lhs, rhs,
              interior ? "interior minimum at G = sqrt(p) (eq. 10 holds)"
                       : "no interior minimum: G in {1, p} optimal");
  std::printf("  predicted optimal G = %.0f\n",
              hs::model::predicted_optimal_groups(nd, pd, bd, model));
  std::printf("  d(T_HSUMMA)/dG at G=sqrt(p)/2: %+.3e, at 2*sqrt(p): %+.3e\n",
              hs::model::hsumma_vdg_derivative(nd, pd, std::sqrt(pd) / 2.0,
                                               bd, model),
              hs::model::hsumma_vdg_derivative(nd, pd, std::sqrt(pd) * 2.0,
                                               bd, model));
  std::printf("\n");
}

int bench_main(int argc, char** argv) {
  hs::CliParser cli(
      "Validate the Section IV analytical model on the paper's platform "
      "parameters (Sections V-A.1, V-B.1, V-C)");
  long long sim_ranks = 256;
  cli.add_int("sim-p", "rank count for the model-vs-simulator cross-check",
              &sim_ranks);
  if (!cli.parse(argc, argv)) return 1;

  hs::bench::print_banner("Analytical model validation",
                          "eq. 10 condition per platform + model vs "
                          "simulator cross-check");

  // The paper's own validation parameters.
  validate_platform(hs::net::Platform::grid5000(), 8192, 128, 64);
  validate_platform(hs::net::Platform::bluegene_p(), 65536, 16384, 256);
  validate_platform(hs::net::Platform::exascale(), 1ll << 22, 1 << 20, 256);

  // Cross-check: simulated G-sweep vs the model at a reduced scale.
  const auto platform = hs::net::Platform::bluegene_p_calibrated();
  const auto platform_model = hs::model::PlatformModel::from(platform);
  const long long n = 8192, block = 64;
  std::printf(
      "model vs simulator, %s, p=%lld, n=%lld, b=%lld (van de Geijn):\n",
      platform.name.c_str(), sim_ranks, n, block);
  hs::Table table({"G", "simulated comm", "model comm", "ratio"});
  for (int g : hs::bench::pow2_group_counts(static_cast<int>(sim_ranks))) {
    hs::bench::Config config;
    config.platform = platform;
    config.ranks = static_cast<int>(sim_ranks);
    config.groups = g;
    config.problem = hs::core::ProblemSpec::square(n, block);
    config.algo = hs::net::BcastAlgo::ScatterRingAllgather;
    const double simulated =
        hs::bench::run_config(config).timing.max_comm_time;
    const double modeled =
        hs::model::hsumma_cost(static_cast<double>(n),
                               static_cast<double>(sim_ranks),
                               static_cast<double>(g),
                               static_cast<double>(block),
                               static_cast<double>(block),
                               hs::net::BcastAlgo::ScatterRingAllgather,
                               platform_model)
            .comm();
    table.add_row({std::to_string(g), hs::format_seconds(simulated),
                   hs::format_seconds(modeled),
                   hs::format_double(simulated / modeled, 4)});
  }
  table.print(std::cout);
  std::printf(
      "\n(Exact agreement at perfect-square G; small deviations elsewhere "
      "come from the model's sqrt(G) x sqrt(G) idealization.)\n\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
