// Closed-form broadcast cost functions under the Hockney model.
//
// These serve two purposes:
//  1. The "fast" collective mode of the simulator charges one of these per
//     collective instead of routing every tree message individually —
//     mandatory at BlueGene/P scale (16384 ranks).
//  2. The analytic model module (Section IV of the paper) plugs the same
//     L(p)/W(p) coefficient pairs into the SUMMA/HSUMMA cost formulas.
//
// Every function returns the completion time of a broadcast of `bytes`
// among `ranks` participants, measured from the instant all participants
// have entered, on a homogeneous Hockney network (alpha, beta). The p2p
// implementations in hs::mpc reproduce these numbers exactly for
// power-of-two rank counts on a flat topology (asserted by tests).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/check.hpp"

namespace hs::net {

enum class BcastAlgo {
  Flat,                    // root sends p-1 sequential messages
  Binomial,                // binomial tree, ceil(log2 p) rounds
  ScatterRingAllgather,    // van de Geijn: binomial scatter + ring allgather
  ScatterRecDblAllgather,  // scatter + recursive-doubling allgather
  Pipelined,               // segmented linear chain
  MpichAuto,               // MPICH-style dispatch on (bytes, ranks)
};

/// Broadcast coefficient pair: T = latency_factor*alpha + bytes*bw_factor*beta.
/// This is exactly the paper's general model T = L(p)*alpha + m*W(p)*beta.
struct BcastCoefficients {
  double latency_factor = 0.0;    // L(p)
  double bandwidth_factor = 0.0;  // W(p)
};

/// Segment size used by the pipelined chain broadcast (bytes).
inline constexpr std::uint64_t kPipelineSegmentBytes = 8192;

/// MPICH-style eager/tree threshold: below this, binomial is used.
inline constexpr std::uint64_t kMpichShortMessageBytes = 12288;
inline constexpr int kMpichMinScatterRanks = 8;

/// Resolve MpichAuto to the concrete algorithm MPICH would pick.
BcastAlgo resolve_auto(BcastAlgo algo, int ranks, std::uint64_t bytes);

/// L(p), W(p) for a concrete (non-auto) algorithm. For Pipelined the
/// coefficients depend on the segment count, which depends on bytes; use
/// bcast_time for exact values. `ranks >= 1`.
BcastCoefficients bcast_coefficients(BcastAlgo algo, int ranks,
                                     std::uint64_t bytes);

/// Completion time of one broadcast.
double bcast_time(BcastAlgo algo, int ranks, std::uint64_t bytes, double alpha,
                  double beta);

/// Closed-form cost of the binomial-tree reduce (the fast collective mode's
/// charge; matched by the p2p implementation on power-of-two rank counts).
double reduce_time(int ranks, std::uint64_t bytes, double alpha, double beta);

std::string_view to_string(BcastAlgo algo);
/// Parses the names produced by to_string; throws PreconditionError on
/// unknown names (CLI surfaces the error).
BcastAlgo bcast_algo_from_string(std::string_view name);

}  // namespace hs::net
