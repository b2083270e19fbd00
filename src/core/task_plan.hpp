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
// only changes which rank roots each panel. Every task carries its chain
// level (desim::TaskSpec::level: 0 = outermost, -1 = flat; scalar HSUMMA's
// outer and inner phases are levels 0 and 1).
//
// Each builder is a step source (desim::TaskGraph::Source): one call adds
// one step's tasks — a SUMMA pivot step with all its chain stages, an
// HSUMMA big step with its outer broadcasts and every inner step, a Cannon
// step (the skews ride step 0), an LU panel step. The panels, chains and
// slot rings stay in the plan's coroutine frame, where the task bodies
// reference them, and the runner keeps D + 1 steps live (D = 0 pulls one
// step at a time), so a rank holds O(D) task records, not one per task of
// the whole plan.
//
// The kernels keep their blocking loops for the production D = 0 path
// because a task costs far more host time than a loop iteration. Routing
// D = 0 through these plans (inline, one step live) took the perfbench
// bgp_figures workload from 2.3 s and 80 MB to 13.0 s and 271 MB, and
// p2p_exascale from 7.5 s and 76 MB to 26.4 s and 251 MB (Release, a
// 4-core host, three interleaved pairs each), and at D >= 1 a simulated
// event costs 5-11x its host time at D = 0. So the window alone does not
// let the loops go: the cost per task has to fall first. *_task_plan with
// lookahead 0 exists so tests can drive the inline scheduler directly.
#pragma once

#include "core/cannon.hpp"
#include "core/hsumma.hpp"
#include "core/lu.hpp"
#include "core/summa.hpp"
#include "desim/taskgraph.hpp"

namespace hs::core {

/// TaskObserver wired to the kernels' stats/trace conventions: exposed
/// communication (task_waited) accrues comm_time plus the per-level split
/// by task level, finished computes accrue comp_time, step marks replay
/// through the RankTracer at issue points, a starting task moves the rank's
/// trace position to its (step, level) so the spans its body records carry
/// them, and every task lands in the recorder as a trace::TaskSpan. Reads
/// the clock only — attaching a recorder never perturbs virtual time.
class PlanObserver final : public desim::TaskObserver {
 public:
  PlanObserver(desim::Engine& engine, trace::RankStats& stats,
               trace::RankTracer tracer)
      : engine_(engine), stats_(stats), tracer_(tracer) {}

  void task_issued(const desim::TaskGraph& graph, int id) override;
  void task_started(const desim::TaskGraph& graph, int id) override;
  void task_finished(const desim::TaskGraph& graph, int id, desim::SimTime t0,
                     desim::SimTime t1) override;
  void task_waited(const desim::TaskGraph& graph, int id, desim::SimTime t0,
                   desim::SimTime t1) override;

  /// Accrue any pending fused wait interval (see TaskSpec::wait_group).
  /// Must be called once after run_task_graph returns.
  void flush();

 private:
  void accrue_wait(double t0, double t1, int level);

  desim::Engine& engine_;
  trace::RankStats& stats_;
  trace::RankTracer tracer_;
  // Pending fused wait interval (contiguous joins of one wait_group).
  int pending_group_ = -1;
  int pending_level_ = -1;
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
