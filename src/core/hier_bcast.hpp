// Multilevel hierarchical broadcast: the broadcast every SUMMA-shaped
// kernel (SUMMA at any chain depth, LU, Cholesky) issues along a grid axis.
//
// A factor chain f1 x f2 x ... x fL splits a broadcast over p ranks into
// phases: first among f1 representatives (one per block of p/f1 ranks, at
// the root's offset within its block), then recursively inside each block,
// with a trailing "whatever remains" phase over the innermost block. The
// empty chain is a plain broadcast (flat SUMMA); a single factor {J} on
// SUMMA's row broadcast is exactly HSUMMA's two-phase structure with
// b = B; deeper chains give 3-level, 4-level, ... HSUMMA (the paper's
// "more than two levels of hierarchy" future work).
#pragma once

#include <optional>
#include <vector>

#include "desim/task.hpp"
#include "mpc/collectives.hpp"

namespace hs::core {

/// Throws PreconditionError unless every factor of the chain divides the
/// group size remaining at its level over `size` ranks. Factors after one
/// equal to the remaining size are never reached, and a single rank has
/// nothing to split, so neither is checked.
void check_level_factors(int size, const std::vector<int>& factors);

/// The calling rank's hierarchical broadcast along one communicator (a grid
/// axis), for every root. Factors of 1 are skipped but keep their level
/// slot, a factor equal to the remaining size ends the chain with one phase
/// over the whole block, and a single-rank communicator has no phase.
///
/// A rank takes part in a representatives phase only when its offset within
/// its block equals the root's, and from that phase on it is the root of
/// every deeper one. So each level needs one communicator per rank (the
/// representatives at the rank's own offset), none of which depends on the
/// root: the constructor builds them all once, and stages(root) is
/// arithmetic only (no Comm::sub, no allocation).
class BcastChain {
 public:
  /// Throws like check_level_factors(comm.size(), factors).
  BcastChain(const mpc::Comm& comm, const std::vector<int>& factors);

  /// The calling rank's position in the chain's communicator.
  int rank() const noexcept { return rank_; }

  class Stage;
  /// The first of the calling rank's phases of a broadcast rooted at
  /// `root` (a rank of the chain's communicator). Awaiting mpc::bcast on
  /// each phase in turn is the hierarchical broadcast:
  ///   for (BcastChain::Stage stage = chain.stages(root); stage; ++stage)
  ///     co_await mpc::bcast(stage.comm(), stage.root(), buf, algo);
  Stage stages(int root) const;

 private:
  struct Phase {
    mpc::Comm comm;
    int block = 1;  // ranks per block below this phase
    int level = 0;
  };
  /// The phase after `phase`; nullptr after the last.
  const Phase* next(const Phase* phase) const {
    if (phase == &last_) return nullptr;
    ++phase;
    return phase == splits_.data() + splits_.size() ? &last_ : phase;
  }

  std::vector<Phase> splits_;  // the representatives phases, outermost first
  // Whatever remains: the innermost block (block 1). Kept out of splits_
  // so the empty chain allocates nothing and its one phase sits beside the
  // rest of the rank's state.
  Phase last_;
  int rank_ = 0;
  int size_ = 1;
};

/// A cursor over one root's phases on the calling rank (see stages()):
/// false once past the last phase.
class BcastChain::Stage {
 public:
  explicit operator bool() const noexcept { return phase_ != nullptr; }
  const mpc::Comm& comm() const noexcept { return phase_->comm; }
  /// The broadcast root within comm().
  int root() const noexcept {
    return root_ >= 0 ? root_ : phase_->comm.rank();
  }
  /// Position in the factor chain (0 = outermost); the trailing "whatever
  /// remains" phase carries the number of factors consumed before it.
  int level() const noexcept { return phase_->level; }
  Stage& operator++() noexcept {
    phase_ = chain_->next(phase_);
    root_ = -1;  // deeper phases are rooted at the calling rank
    return *this;
  }

 private:
  friend class BcastChain;
  Stage(const BcastChain* chain, const Phase* phase, int root)
      : chain_(chain), phase_(phase), root_(root) {}
  const BcastChain* chain_;
  const Phase* phase_;
  int root_;
};

inline BcastChain::Stage BcastChain::stages(int root) const {
  HS_REQUIRE(root >= 0 && root < size_);
  if (size_ == 1) return {this, nullptr, root};  // no phase
  // Walk down the levels until the root's offset within its block is mine;
  // the last phase (block 1) always matches.
  int rank = rank_;
  for (const Phase& split : splits_) {
    if (rank % split.block == root % split.block)
      return {this, &split, root / split.block};
    rank %= split.block;
    root %= split.block;
  }
  return {this, &last_, root};
}

/// Hierarchical broadcast of `buf` from `root` over `chain`, which must
/// outlive the returned task.
desim::Task<void> hier_bcast(const BcastChain& chain, int root, mpc::Buf buf,
                             std::optional<net::BcastAlgo> algo);

/// Balanced factor chain for a multilevel hierarchy over `extent` ranks
/// with `levels` levels. Contract (pinned by tests/core/test_multilevel.cpp):
///   * returns at most levels-1 factors, each >= 2 and dividing the
///     remaining extent; their product divides `extent` and the implied
///     trailing factor is extent / product (>= 1);
///   * extent = 1 (or levels = 1) -> empty chain (nothing to split);
///   * each factor is the divisor of the remaining extent nearest the
///     balanced ideal remaining^(1/levels_left) — for prime extents that
///     is the extent itself, so the chain collapses to {extent} and the
///     deeper levels degenerate;
///   * once the remaining extent reaches 1 the chain stops, so levels >
///     log2(extent) never produces factors of 1.
/// (e.g. extent=64, levels=3 -> {4, 4} leaving blocks of 4.)
std::vector<int> balanced_levels(int extent, int levels);

}  // namespace hs::core
