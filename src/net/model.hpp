// Point-to-point network cost models.
//
// A NetworkModel answers one question: how long does a message of `bytes`
// take from rank `src` to rank `dst` once both endpoints' ports are free.
// The paper uses Hockney's model T(m) = alpha + m*beta with homogeneous
// links; we also provide a LogGP-flavoured affine model, topology-aware
// models (3-D torus as on BlueGene/P, two-level fat-tree/cluster), and a
// deterministic multiplicative-noise decorator for statistics plumbing.
//
// All models are required to be deterministic functions of (src, dst,
// bytes) — NoisyModel keeps determinism by hashing (src, dst, sequence
// number) through a counter-free per-pair key.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/check.hpp"

namespace hs::net {

class NetworkModel {
 public:
  virtual ~NetworkModel() = default;

  /// Transfer time (seconds) of `bytes` from `src` to `dst`, excluding any
  /// queueing on busy ports (the simulator accounts for that separately).
  /// Must be a pure function of its arguments and safe to call concurrently
  /// from several threads (exec::ParallelExecutor shares one model instance
  /// across worker simulations).
  virtual double transfer_time(int src, int dst, std::uint64_t bytes) const = 0;

  /// Canonical parameter description used as the network component of the
  /// sweep-executor result-cache key (see exec::SimJob::cache_key). Two
  /// models returning the same non-empty string must charge identical
  /// transfer times for every (src, dst, bytes). Doubles are rendered as
  /// hexfloats so the identity is bit-exact. The default returns "" —
  /// "not describable" — which makes jobs using the model uncacheable but
  /// never wrong.
  virtual std::string describe() const { return {}; }
};

/// Hockney: T = alpha + bytes * beta, uniform across all pairs.
class HockneyModel final : public NetworkModel {
 public:
  HockneyModel(double alpha, double beta_per_byte)
      : alpha_(alpha), beta_(beta_per_byte) {
    HS_REQUIRE(alpha >= 0.0 && beta_per_byte >= 0.0);
  }

  double transfer_time(int /*src*/, int /*dst*/,
                       std::uint64_t bytes) const override {
    return alpha_ + static_cast<double>(bytes) * beta_;
  }

  std::string describe() const override;

  double alpha() const noexcept { return alpha_; }
  double beta() const noexcept { return beta_; }

 private:
  double alpha_;
  double beta_;
};

/// LogGP-flavoured affine model: T = L + 2*o + (bytes - 1) * G for long
/// messages (g is folded into port serialization, which the simulator
/// already enforces). Kept affine so the paper's L(p)/W(p) analysis applies.
class LogGPModel final : public NetworkModel {
 public:
  LogGPModel(double latency, double overhead, double gap_per_byte)
      : latency_(latency), overhead_(overhead), gap_(gap_per_byte) {
    HS_REQUIRE(latency >= 0.0 && overhead >= 0.0 && gap_per_byte >= 0.0);
  }

  double transfer_time(int /*src*/, int /*dst*/,
                       std::uint64_t bytes) const override {
    const double payload =
        bytes == 0 ? 0.0 : static_cast<double>(bytes - 1) * gap_;
    return latency_ + 2.0 * overhead_ + payload;
  }

  std::string describe() const override;

 private:
  double latency_;
  double overhead_;
  double gap_;
};

/// Multiplicative deterministic noise: T' = T * (1 + sigma * u(src,dst))
/// where u is a hash-derived value in [-1, 1). Used by benches that report
/// mean/stddev over "repetitions" (each repetition re-seeds).
///
/// Determinism contract: transfer_time is a pure function of
/// (seed, src, dst, bytes) — no mutable generator state — so a given seed
/// produces byte-identical simulations in any call order, on any thread,
/// and for any `--jobs` count. The seed participates in describe() (and
/// through it in exec::SimJob::cache_key), so runs with different seeds
/// never collide in the sweep result cache. The scripted counterpart for
/// structured perturbations (straggler windows) is fault::FaultPlan, which
/// is pure data and so deterministic by construction.
class NoisyModel final : public NetworkModel {
 public:
  NoisyModel(std::shared_ptr<const NetworkModel> base, double sigma,
             std::uint64_t seed)
      : base_(std::move(base)), sigma_(sigma), seed_(seed) {
    HS_REQUIRE(base_ != nullptr);
    HS_REQUIRE(sigma >= 0.0 && sigma < 1.0);
  }

  double transfer_time(int src, int dst, std::uint64_t bytes) const override;

  /// Composes the base model's description; "" if the base is indescribable.
  std::string describe() const override;

 private:
  std::shared_ptr<const NetworkModel> base_;
  double sigma_;
  std::uint64_t seed_;
};

/// Hexfloat rendering shared by every describe() implementation (and by
/// exec::SimJob::cache_key): bit-exact, locale-independent.
std::string describe_double(double value);

}  // namespace hs::net
