#include "core/hier_bcast.hpp"

#include <cmath>

namespace hs::core {

void check_level_factors(int size, const std::vector<int>& factors) {
  int remaining = size;
  for (const int factor : factors) {
    if (remaining == 1) return;
    HS_REQUIRE_MSG(factor >= 1 && remaining % factor == 0,
                   "hier_bcast level factor "
                       << factor << " must divide group size " << remaining);
    if (factor == remaining) return;
    remaining /= factor;
  }
}

BcastChain::BcastChain(const mpc::Comm& comm, const std::vector<int>& factors)
    : rank_(comm.rank()), size_(comm.size()) {
  check_level_factors(size_, factors);
  if (size_ == 1) return;
  mpc::Comm current = comm;
  int level = 0;
  for (const int factor : factors) {
    const int p = current.size();
    if (factor == p) break;
    if (factor > 1) {
      const int block = p / factor;
      const int rank = current.rank();
      // The representatives at my offset within my block, one per block.
      std::vector<int> members;
      members.reserve(static_cast<std::size_t>(factor));
      for (int g = 0; g < factor; ++g)
        members.push_back(g * block + rank % block);
      splits_.push_back({current.sub(members), block, level});
      // Descend into my block for the next level.
      members.clear();
      for (int r = 0; r < block; ++r)
        members.push_back(rank / block * block + r);
      current = current.sub(members);
    }
    ++level;  // a factor of 1 is skipped but keeps its level slot
  }
  last_ = {current, 1, level};
}

desim::Task<void> hier_bcast(const BcastChain& chain, int root, mpc::Buf buf,
                             std::optional<net::BcastAlgo> algo) {
  for (BcastChain::Stage stage = chain.stages(root); stage; ++stage)
    co_await mpc::bcast(stage.comm(), stage.root(), buf, algo);
}

std::vector<int> balanced_levels(int extent, int levels) {
  HS_REQUIRE(extent >= 1 && levels >= 1);
  std::vector<int> factors;
  int remaining = extent;
  for (int level = 1; level < levels && remaining > 1; ++level) {
    const int want = static_cast<int>(std::round(
        std::pow(static_cast<double>(remaining),
                 1.0 / static_cast<double>(levels - level + 1))));
    // Nearest divisor of `remaining` to the ideal balanced factor.
    int best = remaining;
    for (int d = 2; d <= remaining; ++d) {
      if (remaining % d != 0) continue;
      if (std::abs(d - want) < std::abs(best - want)) best = d;
    }
    factors.push_back(best);
    remaining /= best;
  }
  return factors;
}

}  // namespace hs::core
