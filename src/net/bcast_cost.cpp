#include "net/bcast_cost.hpp"

#include <cmath>

namespace hs::net {

namespace {

int log2_ceil(int p) {
  HS_REQUIRE(p >= 1);
  int bits = 0;
  int value = 1;
  while (value < p) {
    value *= 2;
    ++bits;
  }
  return bits;
}

bool is_power_of_two(int p) { return p > 0 && (p & (p - 1)) == 0; }

}  // namespace

BcastAlgo resolve_auto(BcastAlgo algo, int ranks, std::uint64_t bytes) {
  if (algo != BcastAlgo::MpichAuto) return algo;
  if (bytes < kMpichShortMessageBytes || ranks < kMpichMinScatterRanks)
    return BcastAlgo::Binomial;
  if (is_power_of_two(ranks)) return BcastAlgo::ScatterRecDblAllgather;
  return BcastAlgo::ScatterRingAllgather;
}

BcastCoefficients bcast_coefficients(BcastAlgo algo, int ranks,
                                     std::uint64_t bytes) {
  HS_REQUIRE(ranks >= 1);
  if (ranks == 1) return {0.0, 0.0};
  algo = resolve_auto(algo, ranks, bytes);
  const double p = static_cast<double>(ranks);
  const double lg = static_cast<double>(log2_ceil(ranks));
  switch (algo) {
    case BcastAlgo::Flat:
      return {p - 1.0, p - 1.0};
    case BcastAlgo::Binomial:
      return {lg, lg};
    case BcastAlgo::ScatterRingAllgather:
      // van de Geijn: binomial scatter (log2 p rounds, halving sizes) then
      // ring allgather (p-1 rounds of m/p).
      return {lg + p - 1.0, 2.0 * (1.0 - 1.0 / p)};
    case BcastAlgo::ScatterRecDblAllgather:
      return {2.0 * lg, 2.0 * (1.0 - 1.0 / p)};
    case BcastAlgo::Pipelined: {
      const auto segments = bytes == 0
                                ? std::uint64_t{1}
                                : (bytes + kPipelineSegmentBytes - 1) /
                                      kPipelineSegmentBytes;
      const double s = static_cast<double>(segments);
      // Chain of p ranks forwarding s segments of bytes/s each:
      // (p - 2 + s) rounds of (alpha + (bytes/s) beta).
      const double rounds = p - 2.0 + s;
      return {rounds, bytes == 0 ? 0.0 : rounds / s};
    }
    case BcastAlgo::MpichAuto:
      break;  // resolved above
  }
  HS_REQUIRE_MSG(false, "unreachable broadcast algorithm");
  return {};
}

double bcast_time(BcastAlgo algo, int ranks, std::uint64_t bytes, double alpha,
                  double beta) {
  const auto k = bcast_coefficients(algo, ranks, bytes);
  return k.latency_factor * alpha +
         static_cast<double>(bytes) * k.bandwidth_factor * beta;
}

double reduce_time(int ranks, std::uint64_t bytes, double alpha, double beta) {
  if (ranks <= 1) return 0.0;
  const double lg = static_cast<double>(log2_ceil(ranks));
  return lg * (alpha + static_cast<double>(bytes) * beta);
}

std::string_view to_string(BcastAlgo algo) {
  switch (algo) {
    case BcastAlgo::Flat: return "flat";
    case BcastAlgo::Binomial: return "binomial";
    case BcastAlgo::ScatterRingAllgather: return "vandegeijn";
    case BcastAlgo::ScatterRecDblAllgather: return "scatter-recdbl";
    case BcastAlgo::Pipelined: return "pipelined";
    case BcastAlgo::MpichAuto: return "mpich-auto";
  }
  return "?";
}

BcastAlgo bcast_algo_from_string(std::string_view name) {
  if (name == "flat") return BcastAlgo::Flat;
  if (name == "binomial") return BcastAlgo::Binomial;
  if (name == "vandegeijn" || name == "scatter-ring")
    return BcastAlgo::ScatterRingAllgather;
  if (name == "scatter-recdbl") return BcastAlgo::ScatterRecDblAllgather;
  if (name == "pipelined") return BcastAlgo::Pipelined;
  if (name == "mpich-auto" || name == "auto") return BcastAlgo::MpichAuto;
  HS_REQUIRE_MSG(false, "unknown broadcast algorithm '" << name
                        << "' (expected flat|binomial|vandegeijn|scatter-recdbl|pipelined|mpich-auto)");
  return BcastAlgo::Binomial;
}

}  // namespace hs::net
