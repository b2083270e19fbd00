// 2.5D-style replicated SUMMA (Solomonik & Demmel, 2011) — the
// memory-for-communication baseline the paper contrasts HSUMMA against.
//
// The p = q*q*c ranks form c layers of q x q grids. Inputs live on layer 0;
// they are replicated to all layers along the depth communicators, each
// layer then runs SUMMA over its contiguous 1/c share of the pivot steps,
// and the partial C contributions are summed back to layer 0 with a
// depth reduction. This simplified formulation keeps the defining 2.5D
// trade-off — c-fold memory for ~1/c of the broadcast communication plus
// replication/reduction cost — without the full 2.5D shifting schedule
// (documented in DESIGN.md).
#pragma once

#include "core/spec.hpp"
#include "desim/task.hpp"
#include "mpc/comm.hpp"
#include "trace/phase.hpp"

namespace hs::core {

struct Summa25DArgs {
  mpc::Comm comm;         // size q*q*c; rank layout: layer-major
  grid::GridShape shape;  // q x q (per layer)
  int layers = 1;         // c
  ProblemSpec problem;
  LocalBlocks* local = nullptr;  // inputs significant on layer 0 only
  trace::RankStats* stats = nullptr;
  std::optional<net::BcastAlgo> bcast_algo;
};

/// Per-rank program. On return, layer 0 holds C (other layers hold their
/// partial contribution only). Precondition (checked by the registry before
/// any rank spawns, not here): the layer count divides the pivot step count
/// k/b.
desim::Task<void> summa25d_rank(Summa25DArgs args);

}  // namespace hs::core
