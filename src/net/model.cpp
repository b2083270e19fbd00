#include "net/model.hpp"

#include <cstdio>

#include "common/rng.hpp"

namespace hs::net {

std::string describe_double(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

std::string HockneyModel::describe() const {
  return "hockney(" + describe_double(alpha_) + "," + describe_double(beta_) +
         ")";
}

std::string NoisyModel::describe() const {
  std::string base = base_->describe();
  if (base.empty()) return {};
  return "noisy(" + base + "," + describe_double(sigma_) + "," +
         std::to_string(seed_) + ")";
}

double NoisyModel::transfer_time(int src, int dst,
                                 std::uint64_t bytes) const {
  const double base_time = base_->transfer_time(src, dst, bytes);
  // Hash (seed, src, dst, bytes) into a stable perturbation. Two transfers
  // with identical parameters perturb identically within one run, which is
  // the determinism the engine requires; across runs the seed changes.
  std::uint64_t h = seed_;
  h ^= splitmix64(h) + static_cast<std::uint64_t>(static_cast<std::uint32_t>(src));
  std::uint64_t state = h + (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 32) + bytes;
  const std::uint64_t mixed = splitmix64(state);
  const double u = 2.0 * (static_cast<double>(mixed >> 11) * 0x1.0p-53) - 1.0;
  return base_time * (1.0 + sigma_ * u);
}

}  // namespace hs::net
