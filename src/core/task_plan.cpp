#include "core/task_plan.hpp"

#include <algorithm>
#include <vector>

#include "core/hier_bcast.hpp"
#include "core/panel.hpp"
#include "grid/hier_grid.hpp"
#include "grid/process_grid.hpp"
#include "la/factor.hpp"
#include "la/gemm.hpp"
#include "mpc/collectives.hpp"

namespace hs::core {

namespace {

/// One Machine::compute charge wrapped in the kernels' usual trace span.
desim::Task<void> compute_charge(mpc::Machine& machine, int self, double flops,
                                 trace::RankTracer tracer) {
  trace::ComputeSpanGuard span(tracer, machine.engine(), flops);
  co_await machine.compute(self, flops);
}

/// Cannon's step rotation: shift A left along the row, then B up along the
/// column (sequential, like the classic loop body — each sendrecv already
/// overlaps its own two transfers).
desim::Task<void> cannon_rotate_pair(mpc::Comm row, int a_dst, int a_src,
                                     mpc::ConstBuf a_send, mpc::Buf a_recv,
                                     mpc::Comm col, int b_dst, int b_src,
                                     mpc::ConstBuf b_send, mpc::Buf b_recv) {
  co_await row.sendrecv(a_dst, a_send, a_src, a_recv, /*send_tag=*/3,
                        /*recv_tag=*/3);
  co_await col.sendrecv(b_dst, b_send, b_src, b_recv, /*send_tag=*/4,
                        /*recv_tag=*/4);
}

}  // namespace

void PlanObserver::task_issued(const desim::TaskGraph& graph, int id) {
  for (const desim::TaskStepMark& mark : graph.spec(id).marks)
    tracer_.begin_step(engine_, mark.step, mark.level);
}

void PlanObserver::task_started(const desim::TaskGraph& graph, int id) {
  const desim::TaskSpec& spec = graph.spec(id);
  tracer_.set_position(spec.step, spec.level);
}

void PlanObserver::accrue_wait(double t0, double t1, int level) {
  stats_.comm_time += t1 - t0;
  if (level >= 0)
    stats_.add_level_comm(static_cast<std::size_t>(level), t1 - t0);
}

void PlanObserver::flush() {
  if (pending_group_ < 0) return;
  accrue_wait(pending_start_, pending_end_, pending_level_);
  pending_group_ = -1;
}

void PlanObserver::task_finished(const desim::TaskGraph& graph, int id,
                                 desim::SimTime t0, desim::SimTime t1) {
  const desim::TaskSpec& spec = graph.spec(id);
  if (spec.kind == desim::TaskKind::Compute) {
    flush();
    stats_.comp_time += t1 - t0;
  }
  if (trace::Recorder* recorder = tracer_.recorder(); recorder != nullptr)
    recorder->add_task({t0, t1, tracer_.rank(),
                        spec.kind == desim::TaskKind::Compute
                            ? trace::TaskSpanKind::Compute
                            : trace::TaskSpanKind::Comm,
                        spec.step, spec.level, spec.label});
}

void PlanObserver::task_waited(const desim::TaskGraph& graph, int id,
                               desim::SimTime t0, desim::SimTime t1) {
  const desim::TaskSpec& spec = graph.spec(id);
  if (spec.wait_group >= 0 && spec.wait_group == pending_group_) {
    pending_end_ = t1;  // contiguous join of the same fused timer scope
  } else {
    flush();
    if (spec.wait_group >= 0) {
      pending_group_ = spec.wait_group;
      pending_level_ = spec.level;
      pending_start_ = t0;
      pending_end_ = t1;
    } else {
      accrue_wait(t0, t1, spec.level);
    }
  }
  if (trace::Recorder* recorder = tracer_.recorder(); recorder != nullptr)
    recorder->add_task({t0, t1, tracer_.rank(), trace::TaskSpanKind::Wait,
                        spec.step, spec.level, spec.label});
}

// ---------------------------------------------------------------------------
// SUMMA over broadcast factor chains (flat SUMMA is the empty chain)
// ---------------------------------------------------------------------------

namespace {

/// Static trace labels per chain level (TaskSpec::label must outlive the
/// graph). Depths past the table collapse onto the last entry.
const char* stage_label(bool is_a, int level) {
  static constexpr const char* kA[] = {"bcast A L0", "bcast A L1",
                                       "bcast A L2", "bcast A L3",
                                       "bcast A L4", "bcast A L5",
                                       "bcast A L6", "bcast A L7+"};
  static constexpr const char* kB[] = {"bcast B L0", "bcast B L1",
                                       "bcast B L2", "bcast B L3",
                                       "bcast B L4", "bcast B L5",
                                       "bcast B L6", "bcast B L7+"};
  const int i = std::min(level, 7);
  return is_a ? kA[i] : kB[i];
}

}  // namespace

desim::Task<void> summa_task_plan(SummaArgs args) {
  const auto [a_chain, b_chain] = summa_chains(args);
  mpc::Machine& machine = args.comm.machine();
  const int self = args.comm.my_world_rank();
  desim::Engine& engine = machine.engine();

  const ProblemSpec& prob = args.problem;
  const index_t b = prob.block;
  const auto [local_m, local_n, a_kb, b_kb] = panel_layout(
      prob, args.shape, args.comm.rank(), args.cyclic ? b : 0);
  const PayloadMode mode =
      args.local == nullptr ? PayloadMode::Phantom : PayloadMode::Real;
  const bool split_levels =
      !args.row_levels.empty() || !args.col_levels.empty();

  trace::RankStats scratch_stats;
  trace::RankStats& stats = args.stats ? *args.stats : scratch_stats;

  const index_t steps = prob.k / b;
  const int D = args.lookahead;
  const int slots = D + 1;
  std::vector<PanelBuffer> a_panels;
  std::vector<PanelBuffer> b_panels;
  a_panels.reserve(static_cast<std::size_t>(slots));
  b_panels.reserve(static_cast<std::size_t>(slots));
  for (int s = 0; s < slots; ++s) {
    a_panels.emplace_back(local_m, b, mode);
    b_panels.emplace_back(b, local_n, mode);
  }

  std::vector<int> prev_comm;  // previous step's comm ids (D<=1 coupling)
  index_t q = 0;
  // One pivot step per pull.
  desim::TaskGraph graph([&](desim::TaskGraph& plan) {
    if (q == steps) return false;
    const int slot = static_cast<int>(q % slots);
    const index_t pivot = q * b;
    const PanelOwner a_owner = panel_owner(pivot, a_kb, args.shape.cols);
    const PanelOwner b_owner = panel_owner(pivot, b_kb, args.shape.rows);
    const desim::RegionId a_region =
        desim::region_id("summa.a", static_cast<std::uint64_t>(slot));
    const desim::RegionId b_region =
        desim::region_id("summa.b", static_cast<std::uint64_t>(slot));

    std::vector<int> step_comm;
    bool mark_pending = true;  // step mark rides this rank's first task
    const auto take_mark = [&](desim::TaskSpec& spec) {
      if (mark_pending)
        spec.marks.push_back({static_cast<long long>(q), -1});
      mark_pending = false;
    };

    // Every broadcast phase of this step becomes its own comm task writing
    // the panel's slot region: the WAW chain keeps phases of one panel in
    // order, and the slot ring's write-after-read edge (the compute of step
    // q - D reads the region) caps prefetch at D panels. Fused wait groups
    // are per (step, level) for real chains so D >= 1 runs still report a
    // per-level wait split; flat chains fuse one group per step.
    const auto add_stage = [&](const BcastChain::Stage& stage, bool is_a,
                               desim::TaskGraph::Hook before) {
      desim::TaskSpec spec;
      spec.kind = desim::TaskKind::Comm;
      spec.level = split_levels ? stage.level() : -1;
      spec.channel = stage.comm().context();
      spec.step = q;
      spec.label = stage_label(is_a, stage.level());
      if (!split_levels) spec.label = is_a ? "bcast A" : "bcast B";
      spec.wait_group =
          D >= 1 ? static_cast<int>(split_levels ? q * 16 + stage.level() : q)
                 : -1;
      spec.out = {is_a ? a_region : b_region};
      take_mark(spec);
      if (D <= 1) spec.after = prev_comm;
      PanelBuffer& panel = is_a ? a_panels[static_cast<std::size_t>(slot)]
                                : b_panels[static_cast<std::size_t>(slot)];
      // The chains outlive the graph: they live in this frame.
      const int id = plan.add(
          std::move(spec),
          [&comm = stage.comm(), root = stage.root(), &panel, &args] {
            return mpc::bcast(comm, root, panel.buf(), args.bcast_algo);
          },
          std::move(before));
      step_comm.push_back(id);
    };

    desim::TaskGraph::Hook a_copy;
    if (mode == PayloadMode::Real && a_chain.rank() == a_owner.root)
      a_copy = [&args, &panel = a_panels[static_cast<std::size_t>(slot)],
                col0 = a_owner.offset, local_m, b] {
        panel.view().copy_from(args.local->a.block(0, col0, local_m, b));
      };
    desim::TaskGraph::Hook b_copy;
    if (mode == PayloadMode::Real && b_chain.rank() == b_owner.root)
      b_copy = [&args, &panel = b_panels[static_cast<std::size_t>(slot)],
                row0 = b_owner.offset, b, local_n] {
        panel.view().copy_from(args.local->b.block(row0, 0, b, local_n));
      };

    // The root copy rides the panel's first stage.
    for (BcastChain::Stage stage = a_chain.stages(a_owner.root); stage;
         ++stage)
      add_stage(stage, /*is_a=*/true, std::exchange(a_copy, {}));
    for (BcastChain::Stage stage = b_chain.stages(b_owner.root); stage;
         ++stage)
      add_stage(stage, /*is_a=*/false, std::exchange(b_copy, {}));

    desim::TaskSpec c_spec;
    c_spec.kind = desim::TaskKind::Compute;
    c_spec.step = q;
    c_spec.label = "rank-b update";
    c_spec.in = {a_region, b_region};
    take_mark(c_spec);
    const double flops = la::gemm_flops(local_m, local_n, b);
    // Size-1 comms have no broadcast stage, so a root copy that found no
    // comm task to ride runs here instead.
    desim::TaskGraph::Hook c_before;
    if (a_copy) c_before = std::move(a_copy);
    if (b_copy) {
      if (c_before)
        c_before = [first = std::move(c_before), second = std::move(b_copy)] {
          first();
          second();
        };
      else
        c_before = std::move(b_copy);
    }
    plan.add(
        std::move(c_spec),
        [&machine, self, flops, tracer = args.tracer] {
          return compute_charge(machine, self, flops, tracer);
        },
        std::move(c_before),
        [mode, &args, &stats, flops,
         &a_panel = a_panels[static_cast<std::size_t>(slot)],
         &b_panel = b_panels[static_cast<std::size_t>(slot)]] {
          if (mode == PayloadMode::Real)
            la::gemm(a_panel.view(), b_panel.view(), args.local->c.view());
          stats.flops += static_cast<std::uint64_t>(flops);
        });
    prev_comm = std::move(step_comm);
    ++q;
    return true;
  });

  PlanObserver observer(engine, stats, args.tracer);
  co_await desim::run_task_graph(engine, graph, D, &observer);
  observer.flush();
}

// ---------------------------------------------------------------------------
// HSUMMA
// ---------------------------------------------------------------------------

desim::Task<void> hsumma_task_plan(HsummaArgs args) {
  const grid::HierGrid hg(args.comm, args.shape, args.groups);
  mpc::Machine& machine = args.comm.machine();
  const int self = args.comm.my_world_rank();
  desim::Engine& engine = machine.engine();

  const ProblemSpec& prob = args.problem;
  const index_t b = prob.block;
  const index_t outer = prob.effective_outer_block();
  const auto [local_m, local_n, a_kb, b_kb] = panel_layout(
      prob, args.shape, args.comm.rank(), args.cyclic ? outer : 0);
  const grid::GridShape local_shape = hg.local_shape();
  const PayloadMode mode =
      args.local == nullptr ? PayloadMode::Phantom : PayloadMode::Real;

  trace::RankStats scratch_stats;
  trace::RankStats& stats = args.stats ? *args.stats : scratch_stats;

  const index_t outer_steps = prob.k / outer;
  const index_t inner_steps = outer / b;
  const int D = args.lookahead;
  // Outer panels: D >= 2 keeps D in flight (the cross-big-step prefetch the
  // double buffer could not express); D <= 1 keeps one, exactly like the
  // blocking outer phase the legacy overlap branch retained.
  const int outer_slots = std::max(1, D);
  const int inner_slots = D + 1;

  std::vector<PanelBuffer> a_outers;
  std::vector<PanelBuffer> b_outers;
  std::vector<PanelBuffer> a_inners;
  std::vector<PanelBuffer> b_inners;
  a_outers.reserve(static_cast<std::size_t>(outer_slots));
  b_outers.reserve(static_cast<std::size_t>(outer_slots));
  a_inners.reserve(static_cast<std::size_t>(inner_slots));
  b_inners.reserve(static_cast<std::size_t>(inner_slots));
  for (int s = 0; s < outer_slots; ++s) {
    a_outers.emplace_back(local_m, outer, mode);
    b_outers.emplace_back(outer, local_n, mode);
  }
  for (int s = 0; s < inner_slots; ++s) {
    a_inners.emplace_back(local_m, b, mode);
    b_inners.emplace_back(b, local_n, mode);
  }

  int last_compute = -1;  // C(s-1, last): the D<=1 big-step drain barrier
  index_t s = 0;
  // One big step (its outer broadcasts and all its inner steps) per pull.
  desim::TaskGraph graph([&](desim::TaskGraph& plan) {
    if (s == outer_steps) return false;
    const index_t pivot = s * outer;
    const PanelOwner a_owner = panel_owner(pivot, a_kb, args.shape.cols);
    const int a_group_col = a_owner.root / local_shape.cols;
    const int a_local_col = a_owner.root % local_shape.cols;
    const PanelOwner b_owner = panel_owner(pivot, b_kb, args.shape.rows);
    const int b_group_row = b_owner.root / local_shape.rows;
    const int b_local_row = b_owner.root % local_shape.rows;
    const int oslot = static_cast<int>(s % outer_slots);
    const desim::RegionId ao_region =
        desim::region_id("hsumma.ao", static_cast<std::uint64_t>(oslot));
    const desim::RegionId bo_region =
        desim::region_id("hsumma.bo", static_cast<std::uint64_t>(oslot));

    // The outer step mark rides on this rank's first task of the big step
    // (OA where present, else OB, else the first inner broadcast), so D=0
    // inline execution stamps it at exactly the blocking loop's program
    // point. The outer phase is chain level 0, the inner phase level 1.
    bool outer_mark_pending = true;
    const auto take_marks = [&](desim::TaskSpec& spec, long long inner_step) {
      if (outer_mark_pending)
        spec.marks.push_back({static_cast<long long>(s), 0});
      outer_mark_pending = false;
      if (inner_step >= 0) spec.marks.push_back({inner_step, 1});
    };

    int oa_id = -1;
    int ob_id = -1;
    if (hg.local_col() == a_local_col) {
      desim::TaskSpec spec;
      spec.kind = desim::TaskKind::Comm;
      spec.level = 0;
      spec.channel = hg.group_row_comm().context();
      spec.step = s;
      spec.label = "outer bcast A";
      spec.out = {ao_region};
      take_marks(spec, -1);
      if (D <= 1 && last_compute >= 0) spec.after = {last_compute};
      desim::TaskGraph::Hook before;
      if (mode == PayloadMode::Real && hg.flat().my_col() == a_owner.root)
        before = [&args, &panel = a_outers[static_cast<std::size_t>(oslot)],
                  col0 = a_owner.offset, local_m, outer] {
          panel.view().copy_from(args.local->a.block(0, col0, local_m, outer));
        };
      oa_id = plan.add(
          std::move(spec),
          [&hg, &args, &panel = a_outers[static_cast<std::size_t>(oslot)],
           a_group_col] {
            return mpc::bcast(hg.group_row_comm(), a_group_col, panel.buf(),
                              args.bcast_algo);
          },
          std::move(before));
    }
    if (hg.local_row() == b_local_row) {
      desim::TaskSpec spec;
      spec.kind = desim::TaskKind::Comm;
      spec.level = 0;
      spec.channel = hg.group_col_comm().context();
      spec.step = s;
      spec.label = "outer bcast B";
      spec.out = {bo_region};
      take_marks(spec, -1);
      // D <= 1: the legacy path issued the B outer broadcast only after the
      // A outer broadcast returned; D >= 2 lets them fly concurrently
      // (independent communicators).
      if (D <= 1) {
        if (last_compute >= 0) spec.after.push_back(last_compute);
        if (oa_id >= 0) spec.after.push_back(oa_id);
      }
      desim::TaskGraph::Hook before;
      if (mode == PayloadMode::Real && hg.flat().my_row() == b_owner.root)
        before = [&args, &panel = b_outers[static_cast<std::size_t>(oslot)],
                  row0 = b_owner.offset, outer, local_n] {
          panel.view().copy_from(args.local->b.block(row0, 0, outer, local_n));
        };
      ob_id = plan.add(
          std::move(spec),
          [&hg, &args, &panel = b_outers[static_cast<std::size_t>(oslot)],
           b_group_row] {
            return mpc::bcast(hg.group_col_comm(), b_group_row, panel.buf(),
                              args.bcast_algo);
          },
          std::move(before));
    }

    int prev_ia = -1;
    int prev_ib = -1;
    for (index_t w = 0; w < inner_steps; ++w) {
      const index_t g = s * inner_steps + w;
      const int islot = static_cast<int>(g % inner_slots);
      const index_t offset = w * b;
      const desim::RegionId ai_region =
          desim::region_id("hsumma.ai", static_cast<std::uint64_t>(islot));
      const desim::RegionId bi_region =
          desim::region_id("hsumma.bi", static_cast<std::uint64_t>(islot));
      // D <= 1 pipeline-coupling: first inner pair waits for the outer
      // phase and the previous big step's last update (the legacy code
      // never forked across those boundaries); pair w waits for pair w-1.
      std::vector<int> coupling;
      if (D <= 1) {
        if (w == 0) {
          if (oa_id >= 0) coupling.push_back(oa_id);
          if (ob_id >= 0) coupling.push_back(ob_id);
          if (last_compute >= 0) coupling.push_back(last_compute);
        } else {
          coupling = {prev_ia, prev_ib};
        }
      }

      desim::TaskSpec ia_spec;
      ia_spec.kind = desim::TaskKind::Comm;
      ia_spec.level = 1;
      ia_spec.channel = hg.row_comm().context();
      ia_spec.step = g;
      ia_spec.label = "bcast A";
      ia_spec.wait_group = D >= 1 ? static_cast<int>(g) : -1;
      ia_spec.in = {ao_region};
      ia_spec.out = {ai_region};
      take_marks(ia_spec, static_cast<long long>(g));
      ia_spec.after = coupling;
      desim::TaskGraph::Hook ia_before;
      if (mode == PayloadMode::Real && hg.local_col() == a_local_col)
        ia_before = [&panel = a_inners[static_cast<std::size_t>(islot)],
                     &outer_panel = a_outers[static_cast<std::size_t>(oslot)],
                     offset, local_m, b] {
          panel.view().copy_from(
              outer_panel.view().block(0, offset, local_m, b));
        };
      const int ia_id = plan.add(
          std::move(ia_spec),
          [&hg, &args, &panel = a_inners[static_cast<std::size_t>(islot)],
           a_local_col] {
            return mpc::bcast(hg.row_comm(), a_local_col, panel.buf(),
                              args.bcast_algo);
          },
          std::move(ia_before));

      desim::TaskSpec ib_spec;
      ib_spec.kind = desim::TaskKind::Comm;
      ib_spec.level = 1;
      ib_spec.channel = hg.col_comm().context();
      ib_spec.step = g;
      ib_spec.label = "bcast B";
      ib_spec.wait_group = D >= 1 ? static_cast<int>(g) : -1;
      ib_spec.in = {bo_region};
      ib_spec.out = {bi_region};
      ib_spec.after = coupling;
      desim::TaskGraph::Hook ib_before;
      if (mode == PayloadMode::Real && hg.local_row() == b_local_row)
        ib_before = [&panel = b_inners[static_cast<std::size_t>(islot)],
                     &outer_panel = b_outers[static_cast<std::size_t>(oslot)],
                     offset, b, local_n] {
          panel.view().copy_from(
              outer_panel.view().block(offset, 0, b, local_n));
        };
      const int ib_id = plan.add(
          std::move(ib_spec),
          [&hg, &args, &panel = b_inners[static_cast<std::size_t>(islot)],
           b_local_row] {
            return mpc::bcast(hg.col_comm(), b_local_row, panel.buf(),
                              args.bcast_algo);
          },
          std::move(ib_before));

      desim::TaskSpec c_spec;
      c_spec.kind = desim::TaskKind::Compute;
      c_spec.level = 1;
      c_spec.step = g;
      c_spec.label = "rank-b update";
      // Reading the outer slots is what strands the next outer broadcast
      // behind this big step's updates (write-after-read on the slot ring).
      c_spec.in = {ai_region, bi_region, ao_region, bo_region};
      const double flops = la::gemm_flops(local_m, local_n, b);
      last_compute = plan.add(
          std::move(c_spec),
          [&machine, self, flops, tracer = args.tracer] {
            return compute_charge(machine, self, flops, tracer);
          },
          {},
          [mode, &args, &stats, flops,
           &a_panel = a_inners[static_cast<std::size_t>(islot)],
           &b_panel = b_inners[static_cast<std::size_t>(islot)]] {
            if (mode == PayloadMode::Real)
              la::gemm(a_panel.view(), b_panel.view(), args.local->c.view());
            stats.flops += static_cast<std::uint64_t>(flops);
          });
      prev_ia = ia_id;
      prev_ib = ib_id;
    }
    ++s;
    return true;
  });

  PlanObserver observer(engine, stats, args.tracer);
  co_await desim::run_task_graph(engine, graph, D, &observer);
  observer.flush();
}

// ---------------------------------------------------------------------------
// Cannon
// ---------------------------------------------------------------------------

desim::Task<void> cannon_task_plan(CannonArgs args) {
  const ProblemSpec& prob = args.problem;
  const int q = args.shape.rows;

  const grid::ProcessGrid pg(args.comm, args.shape);
  mpc::Machine& machine = args.comm.machine();
  const int self = args.comm.my_world_rank();
  desim::Engine& engine = machine.engine();
  const index_t nb = prob.n / q;
  const auto count = static_cast<std::size_t>(nb * nb);
  const bool real = args.local != nullptr;

  trace::RankStats scratch_stats;
  trace::RankStats& stats = args.stats ? *args.stats : scratch_stats;

  const int i = pg.my_row();
  const int j = pg.my_col();
  const int D = args.lookahead;
  // Slot ring: step st's blocks live in slot st % S. S >= 2 keeps the send
  // (slot st-1) and receive (slot st) of a rotation disjoint.
  const int S = std::max(2, D + 1);

  std::vector<std::vector<double>> a_slots(static_cast<std::size_t>(S));
  std::vector<std::vector<double>> b_slots(static_cast<std::size_t>(S));
  std::vector<double> a_init;
  std::vector<double> b_init;
  if (real) {
    a_init.assign(args.local->a.data(), args.local->a.data() + count);
    b_init.assign(args.local->b.data(), args.local->b.data() + count);
    for (auto& slot : a_slots) slot.resize(count);
    for (auto& slot : b_slots) slot.resize(count);
  }
  // Step st's physical A block: the skew (or, skew-less, the initial copy)
  // feeds step 0; rotations feed the ring slots.
  const auto a_data = [&](int st) -> std::vector<double>& {
    return st == 0 && i == 0 ? a_init
                             : a_slots[static_cast<std::size_t>(st % S)];
  };
  const auto b_data = [&](int st) -> std::vector<double>& {
    return st == 0 && j == 0 ? b_init
                             : b_slots[static_cast<std::size_t>(st % S)];
  };
  const auto send_buf = [&](std::vector<double>& storage) {
    return real ? mpc::ConstBuf(std::span<const double>(storage))
                : mpc::ConstBuf::phantom(count);
  };
  const auto recv_buf = [&](std::vector<double>& storage) {
    return real ? mpc::Buf(std::span<double>(storage))
                : mpc::Buf::phantom(count);
  };
  const auto a_region = [](int st) {
    return desim::region_id("cannon.a", static_cast<std::uint64_t>(st));
  };
  const auto b_region = [](int st) {
    return desim::region_id("cannon.b", static_cast<std::uint64_t>(st));
  };

  const desim::RegionId a_init_region = desim::region_id("cannon.ainit", 0);
  const desim::RegionId b_init_region = desim::region_id("cannon.binit", 0);

  int st = 0;
  // One step per pull; the skews ride step 0.
  desim::TaskGraph graph([&](desim::TaskGraph& plan) {
    if (st == q) return false;
    // Skew alignment: A(i,j) -> (i, j-i), B(i,j) -> (i-j, j), as single
    // distance-i/j rotations (tags 1 and 2, matching the classic loop).
    if (st == 0 && i > 0) {
      desim::TaskSpec spec;
      spec.kind = desim::TaskKind::Comm;
      spec.label = "skew A";
      spec.in = {a_init_region};
      spec.out = {a_region(0)};
      const int left = (j - i + q) % q;
      const int right = (j + i) % q;
      plan.add(std::move(spec), [&pg, &a_init, &send_buf, &recv_buf,
                                 &a_data, left, right]() -> desim::Task<void> {
        return pg.row_comm().sendrecv(left, send_buf(a_init), right,
                                      recv_buf(a_data(0)), /*send_tag=*/1,
                                      /*recv_tag=*/1);
      });
    }
    if (st == 0 && j > 0) {
      desim::TaskSpec spec;
      spec.kind = desim::TaskKind::Comm;
      spec.label = "skew B";
      spec.in = {b_init_region};
      spec.out = {b_region(0)};
      const int up = (i - j + q) % q;
      const int down = (i + j) % q;
      plan.add(std::move(spec), [&pg, &b_init, &send_buf, &recv_buf,
                                 &b_data, up, down]() -> desim::Task<void> {
        return pg.col_comm().sendrecv(up, send_buf(b_init), down,
                                      recv_buf(b_data(0)), /*send_tag=*/2,
                                      /*recv_tag=*/2);
      });
    }

    if (st > 0) {
      desim::TaskSpec spec;
      spec.kind = desim::TaskKind::Comm;
      spec.step = st;
      spec.label = "rotate A/B";
      spec.in = {a_region((st - 1) % S), b_region((st - 1) % S)};
      spec.out = {a_region(st % S), b_region(st % S)};
      plan.add(std::move(spec),
               [&pg, &send_buf, &recv_buf, &a_data, &b_data, st, i, j, q] {
                 return cannon_rotate_pair(
                     pg.row_comm(), (j - 1 + q) % q, (j + 1) % q,
                     send_buf(a_data(st - 1)), recv_buf(a_data(st)),
                     pg.col_comm(), (i - 1 + q) % q, (i + 1) % q,
                     send_buf(b_data(st - 1)), recv_buf(b_data(st)));
               });
    }

    desim::TaskSpec c_spec;
    c_spec.kind = desim::TaskKind::Compute;
    c_spec.step = st;
    c_spec.label = "block multiply";
    c_spec.in = {a_region(st % S), b_region(st % S)};
    c_spec.marks = {{static_cast<long long>(st), -1}};
    const double flops = la::gemm_flops(nb, nb, nb);
    plan.add(
        std::move(c_spec),
        [&machine, self, flops, tracer = args.tracer] {
          return compute_charge(machine, self, flops, tracer);
        },
        {},
        [real, &args, &stats, flops, &a_data, &b_data, st, nb] {
          if (real) {
            la::ConstMatrixView a_view(a_data(st).data(), nb, nb, nb);
            la::ConstMatrixView b_view(b_data(st).data(), nb, nb, nb);
            la::gemm(a_view, b_view, args.local->c.view());
          }
          stats.flops += static_cast<std::uint64_t>(flops);
        });
    ++st;
    return true;
  });

  PlanObserver observer(engine, stats, args.tracer);
  co_await desim::run_task_graph(engine, graph, D, &observer);
  observer.flush();
}

// ---------------------------------------------------------------------------
// LU
// ---------------------------------------------------------------------------

desim::Task<void> lu_task_plan(LuArgs args) {
  const grid::ProcessGrid pg(args.comm, args.shape);
  const BcastChain row_chain(pg.row_comm(), args.row_levels);
  const BcastChain col_chain(pg.col_comm(), args.col_levels);
  mpc::Machine& machine = args.comm.machine();
  const int self = args.comm.my_world_rank();
  desim::Engine& engine = machine.engine();

  const index_t b = args.block;
  const index_t local_rows = args.n / pg.rows();
  const index_t local_cols = args.n / pg.cols();
  const PayloadMode mode =
      args.local_a == nullptr ? PayloadMode::Phantom : PayloadMode::Real;

  trace::RankStats scratch_stats;
  trace::RankStats& stats = args.stats ? *args.stats : scratch_stats;

  const int D = args.lookahead;
  // Look-ahead LU is depth-1 (factor k+1 during update k); D only needs to
  // widen the slot rings from one to two.
  const int ring = D >= 1 ? 2 : 1;
  std::vector<PanelBuffer> diag_slots;
  std::vector<PanelBuffer> l_slots;
  std::vector<PanelBuffer> u_slots;
  diag_slots.reserve(static_cast<std::size_t>(ring));
  l_slots.reserve(static_cast<std::size_t>(ring));
  u_slots.reserve(static_cast<std::size_t>(ring));
  for (int s = 0; s < ring; ++s) {
    diag_slots.emplace_back(b, b, mode);
    l_slots.emplace_back(local_rows, b, mode);  // sized for the worst case
    u_slots.emplace_back(b, local_cols, mode);
  }

  // Region granularity along the columns: one region per global column
  // block this rank owns ("lu.acol", global block index). The factor of
  // step k+1 depends only on its own column strip, which is what lets the
  // split trailing update unblock it early.
  const auto acol = [](index_t global_block) {
    return desim::region_id("lu.acol",
                            static_cast<std::uint64_t>(global_block));
  };
  const index_t col_blocks = local_cols / b;
  const index_t my_first_block =
      static_cast<index_t>(pg.my_col()) * local_cols / b;

  const index_t steps = args.n / b;
  index_t k = 0;
  // One panel step per pull.
  desim::TaskGraph graph([&](desim::TaskGraph& plan) {
    if (k == steps) return false;
    const index_t pivot = k * b;
    const int owner_row = static_cast<int>(pivot / local_rows);
    const int owner_col = static_cast<int>(pivot / local_cols);
    const index_t local_r0 =
        pivot - static_cast<index_t>(owner_row) * local_rows;
    const index_t local_c0 =
        pivot - static_cast<index_t>(owner_col) * local_cols;
    const index_t row_start = std::clamp<index_t>(
        pivot + b - static_cast<index_t>(pg.my_row()) * local_rows, 0,
        local_rows);
    const index_t col_start = std::clamp<index_t>(
        pivot + b - static_cast<index_t>(pg.my_col()) * local_cols, 0,
        local_cols);
    const index_t trailing_rows = local_rows - row_start;
    const index_t trailing_cols = local_cols - col_start;
    const int ks = static_cast<int>(k % ring);
    const desim::RegionId diag_region =
        desim::region_id("lu.diag", static_cast<std::uint64_t>(ks));
    const desim::RegionId l_region =
        desim::region_id("lu.l", static_cast<std::uint64_t>(ks));
    const desim::RegionId u_region =
        desim::region_id("lu.u", static_cast<std::uint64_t>(ks));

    // My trailing column regions (global block indices > k that I own).
    std::vector<desim::RegionId> trailing_regions;
    for (index_t lc = col_start / b; lc < col_blocks; ++lc)
      trailing_regions.push_back(acol(my_first_block + lc));

    bool step_mark_pending = true;
    const auto take_mark = [&](desim::TaskSpec& spec) {
      if (step_mark_pending)
        spec.marks.push_back({static_cast<long long>(k), -1});
      step_mark_pending = false;
    };

    // 1. Factor the diagonal block (owner), then share it down the pivot
    //    column and across the pivot row.
    if (pg.my_row() == owner_row && pg.my_col() == owner_col) {
      desim::TaskSpec spec;
      spec.kind = desim::TaskKind::Compute;
      spec.priority = 1;
      spec.step = k;
      spec.label = "factor";
      spec.in = {acol(k)};
      spec.out = {acol(k), diag_region};
      take_mark(spec);
      const double flops = 2.0 / 3.0 * static_cast<double>(b) *
                           static_cast<double>(b) * static_cast<double>(b);
      plan.add(
          std::move(spec),
          [&machine, self, flops, tracer = args.tracer] {
            return compute_charge(machine, self, flops, tracer);
          },
          {},
          [mode, &args, &diag = diag_slots[static_cast<std::size_t>(ks)],
           local_r0, local_c0, b] {
            if (mode != PayloadMode::Real) return;
            la::MatrixView block_kk =
                args.local_a->block(local_r0, local_c0, b, b);
            la::lu_factor_inplace(block_kk);
            diag.view().copy_from(block_kk);
          });
    }
    if (pg.my_col() == owner_col) {
      desim::TaskSpec spec;
      spec.kind = desim::TaskKind::Comm;
      spec.channel = pg.col_comm().context();
      spec.step = k;
      spec.label = "diag bcast col";
      spec.in = {diag_region};
      spec.out = {diag_region};
      take_mark(spec);
      plan.add(std::move(spec),
                [&pg, &args, &diag = diag_slots[static_cast<std::size_t>(ks)],
                 owner_row] {
                  return mpc::bcast(pg.col_comm(), owner_row, diag.buf(),
                                    args.bcast_algo);
                });
    }
    if (pg.my_row() == owner_row) {
      desim::TaskSpec spec;
      spec.kind = desim::TaskKind::Comm;
      spec.channel = pg.row_comm().context();
      spec.step = k;
      spec.label = "diag bcast row";
      spec.in = {diag_region};
      spec.out = {diag_region};
      take_mark(spec);
      plan.add(std::move(spec),
                [&pg, &args, &diag = diag_slots[static_cast<std::size_t>(ks)],
                 owner_col] {
                  return mpc::bcast(pg.row_comm(), owner_col, diag.buf(),
                                    args.bcast_algo);
                });
    }

    // 2 + 3a. Pivot-column ranks form the L panel; everyone joins its
    //         (hierarchical) row broadcast.
    if (trailing_rows > 0) {
      if (pg.my_col() == owner_col) {
        desim::TaskSpec spec;
        spec.kind = desim::TaskKind::Compute;
        spec.priority = 1;
        spec.step = k;
        spec.label = "L solve";
        spec.in = {diag_region, acol(k)};
        spec.out = {acol(k), l_region};
        const double flops = static_cast<double>(trailing_rows) *
                             static_cast<double>(b) * static_cast<double>(b);
        plan.add(
            std::move(spec),
            [&machine, self, flops, tracer = args.tracer] {
              return compute_charge(machine, self, flops, tracer);
            },
            {},
            [mode, &args, &diag = diag_slots[static_cast<std::size_t>(ks)],
             &l_panel = l_slots[static_cast<std::size_t>(ks)], row_start,
             local_c0, trailing_rows, b] {
              if (mode != PayloadMode::Real) return;
              la::MatrixView a_panel =
                  args.local_a->block(row_start, local_c0, trailing_rows, b);
              la::trsm_right_upper(diag.view(), a_panel);
              l_panel.view().block(0, 0, trailing_rows, b).copy_from(a_panel);
            });
      }
      desim::TaskSpec spec;
      spec.kind = desim::TaskKind::Comm;
      spec.channel = pg.row_comm().context();
      spec.step = k;
      spec.label = "L bcast";
      spec.in = {l_region};
      spec.out = {l_region};
      take_mark(spec);
      plan.add(std::move(spec),
                [&row_chain, &args,
                 &l_panel = l_slots[static_cast<std::size_t>(ks)], owner_col,
                 trailing_rows] {
                  return hier_bcast(row_chain, owner_col,
                                    l_panel.row_slice(0, trailing_rows),
                                    args.bcast_algo);
                });
    }

    // 2 + 3b. Pivot-row ranks form the U panel; everyone joins its
    //         (hierarchical) column broadcast.
    if (trailing_cols > 0) {
      if (pg.my_row() == owner_row) {
        desim::TaskSpec spec;
        spec.kind = desim::TaskKind::Compute;
        spec.priority = 1;
        spec.step = k;
        spec.label = "U solve";
        spec.in = {diag_region};
        spec.out = trailing_regions;
        spec.out.push_back(u_region);
        const double flops = static_cast<double>(trailing_cols) *
                             static_cast<double>(b) * static_cast<double>(b);
        plan.add(
            std::move(spec),
            [&machine, self, flops, tracer = args.tracer] {
              return compute_charge(machine, self, flops, tracer);
            },
            {},
            [mode, &args, &diag = diag_slots[static_cast<std::size_t>(ks)],
             &u_panel = u_slots[static_cast<std::size_t>(ks)], local_r0,
             col_start, trailing_cols, b] {
              if (mode != PayloadMode::Real) return;
              la::MatrixView a_panel =
                  args.local_a->block(local_r0, col_start, b, trailing_cols);
              la::trsm_left_lower_unit(diag.view(), a_panel);
              // Pack the strided panel into contiguous storage for the wire.
              la::MatrixView packed(u_panel.view().data(), b, trailing_cols,
                                    trailing_cols);
              packed.copy_from(a_panel);
            });
      }
      desim::TaskSpec spec;
      spec.kind = desim::TaskKind::Comm;
      spec.channel = pg.col_comm().context();
      spec.step = k;
      spec.label = "U bcast";
      spec.in = {u_region};
      spec.out = {u_region};
      take_mark(spec);
      plan.add(std::move(spec),
                [&col_chain, &args, mode,
                 &u_panel = u_slots[static_cast<std::size_t>(ks)], owner_row,
                 trailing_cols, b] {
                  mpc::Buf u_buf =
                      mode == PayloadMode::Real
                          ? mpc::Buf(std::span<double>(
                                u_panel.view().data(),
                                static_cast<std::size_t>(b * trailing_cols)))
                          : mpc::Buf::phantom(
                                static_cast<std::size_t>(b * trailing_cols));
                  return hier_bcast(col_chain, owner_row, u_buf,
                                    args.bcast_algo);
                });
    }

    // 4. Trailing update. With look-ahead the next pivot column's strip is
    //    updated first (its own task), so F(k+1) and the step-k+1
    //    broadcasts can proceed while the bulk of the update streams.
    if (trailing_rows > 0 && trailing_cols > 0) {
      const bool own_next =
          D >= 1 && k + 1 < steps &&
          pg.my_col() == static_cast<int>((pivot + b) / local_cols);
      const auto add_update = [&](index_t c0, index_t cols,
                                  std::vector<desim::RegionId> out,
                                  const char* label) {
        desim::TaskSpec spec;
        spec.kind = desim::TaskKind::Compute;
        spec.step = k;
        spec.label = label;
        spec.in = {l_region, u_region};
        spec.out = std::move(out);
        const double flops = la::gemm_flops(trailing_rows, cols, b);
        plan.add(
            std::move(spec),
            [&machine, self, flops, tracer = args.tracer] {
              return compute_charge(machine, self, flops, tracer);
            },
            {},
            [mode, &args, &stats, flops,
             &l_panel = l_slots[static_cast<std::size_t>(ks)],
             &u_panel = u_slots[static_cast<std::size_t>(ks)], row_start,
             trailing_rows, trailing_cols, c0, cols, col_start, b] {
              if (mode == PayloadMode::Real) {
                la::ConstMatrixView l_view(l_panel.view().data(),
                                           trailing_rows, b, b);
                la::ConstMatrixView u_view(
                    u_panel.view().data() + (c0 - col_start), b, cols,
                    trailing_cols);
                la::gemm_subtract(
                    l_view, u_view,
                    args.local_a->block(row_start, c0, trailing_rows, cols));
              }
              stats.flops += static_cast<std::uint64_t>(flops);
            });
      };
      if (own_next) {
        // col_start == local offset of global block k+1 on this rank.
        add_update(col_start, b, {acol(k + 1)}, "update next strip");
        if (trailing_cols > b) {
          std::vector<desim::RegionId> rest(trailing_regions.begin() + 1,
                                            trailing_regions.end());
          add_update(col_start + b, trailing_cols - b, std::move(rest),
                     "trailing update");
        }
      } else {
        add_update(col_start, trailing_cols, trailing_regions,
                   "trailing update");
      }
    }
    ++k;
    return true;
  });

  PlanObserver observer(engine, stats, args.tracer);
  co_await desim::run_task_graph(engine, graph, D, &observer);
  observer.flush();
}

}  // namespace hs::core
