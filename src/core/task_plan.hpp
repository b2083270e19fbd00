// Task-plan lowerings: each kernel's per-rank program expressed as a
// desim::TaskGraph instead of a hand-written loop.
//
// The plan is the kernel's step structure made explicit: every broadcast /
// rotation / panel solve / local update becomes a task with declared in/out
// regions (buffer slots, column strips), and desim::run_task_graph schedules
// them. The look-ahead depth D controls the *plan*, not the scheduler:
//
//   D = 0  — one buffer slot per panel; the graph is executed inline in
//            program order, reproducing the classic blocking loop
//            bit-identically (locked by tests/core/test_taskplan_goldens.cpp
//            against goldens captured from the pre-task-runtime kernels).
//   D = 1  — two slots plus pipeline-coupling edges that pin the fork
//            points to the instants the old hand-rolled double-buffered
//            pipelines used, reproducing them bit-identically (same golden
//            file). The hand-rolled pipelines are deleted.
//   D >= 2 — D+1 slots and no coupling edges: the scheduler is free to run
//            communication as far ahead as the slot ring's write-after-read
//            edges allow. This is what the double buffer could not express:
//            HSUMMA prefetches up to D outer panels across big-step
//            boundaries, Cannon overlaps rotations with multiplies, and LU
//            factors panel k+1 while trailing update k streams (the update
//            is split into the next pivot column strip, which unblocks the
//            factor, and the remainder).
//
// summa_task_plan serves flat SUMMA and every broadcast factor chain: each
// phase of a chain's hierarchical broadcast is its own comm task, and the
// empty chain is one task per panel. It and hsumma_task_plan serve both
// operand layouts (core/panel.hpp's panel_layout): the block-cyclic one
// only changes which rank roots each panel. The kernels keep their
// blocking loops for the production D = 0 path (a graph materializes
// O(steps) task records per rank — fine for any D >= 1 window, wasteful
// for a million-rank blocking run); *_task_plan with lookahead 0 exists so
// tests can drive the inline scheduler directly.
#pragma once

#include "core/cannon.hpp"
#include "core/hsumma.hpp"
#include "core/lu.hpp"
#include "core/summa.hpp"
#include "desim/taskgraph.hpp"

namespace hs::core {

/// Phase encoding used in TaskSpec::phase / TaskStepMark::phase: flat, or
/// kPhaseLevelBase + the chain level of a hierarchical broadcast stage
/// (level 0 = outermost; scalar HSUMMA's outer and inner phases are levels
/// 0 and 1). Observers accrue level phases into RankStats::level_comm_time;
/// traces show level 0 as Phase::Outer and deeper levels as Phase::Inner.
inline constexpr int kPhaseFlat = 0;
inline constexpr int kPhaseLevelBase = 1;

/// TaskObserver wired to the kernels' stats/trace conventions: exposed
/// communication (task_waited) accrues comm_time plus the per-level split
/// by task phase, finished computes accrue comp_time, step marks replay
/// through the RankTracer at issue points, and every task lands in the
/// recorder as a trace::TaskSpan. Reads the clock only — attaching a
/// recorder never perturbs virtual time.
class PlanObserver final : public desim::TaskObserver {
 public:
  PlanObserver(desim::Engine& engine, trace::RankStats& stats,
               trace::RankTracer tracer)
      : engine_(engine), stats_(stats), tracer_(tracer) {}

  void task_issued(const desim::TaskGraph& graph, int id) override;
  void task_finished(const desim::TaskGraph& graph, int id, desim::SimTime t0,
                     desim::SimTime t1) override;
  void task_waited(const desim::TaskGraph& graph, int id, desim::SimTime t0,
                   desim::SimTime t1) override;

  /// Accrue any pending fused wait interval (see TaskSpec::wait_group).
  /// Must be called once after run_task_graph returns.
  void flush();

 private:
  void accrue_wait(double t0, double t1, int phase);

  desim::Engine& engine_;
  trace::RankStats& stats_;
  trace::RankTracer tracer_;
  // Pending fused wait interval (contiguous joins of one wait_group).
  int pending_group_ = -1;
  int pending_phase_ = kPhaseFlat;
  double pending_start_ = 0.0;
  double pending_end_ = 0.0;
};

/// The per-rank task-plan programs. args.lookahead selects the plan depth
/// as described above; the kernel entry points (summa_rank, ...) return
/// these whenever args.lookahead >= 1. Like their kernels, they leave shape
/// checks to the registry's validation hooks.
desim::Task<void> summa_task_plan(SummaArgs args);
desim::Task<void> hsumma_task_plan(HsummaArgs args);
desim::Task<void> cannon_task_plan(CannonArgs args);
desim::Task<void> lu_task_plan(LuArgs args);

}  // namespace hs::core
