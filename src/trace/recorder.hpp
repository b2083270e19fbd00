// Structured event recording for simulation runs.
//
// A Recorder is an optional sink attachable to mpc::Machine: it captures
// per-rank *spans* for every collective call (operation, broadcast
// algorithm, communicator context, collective sequence number, root,
// payload bytes, virtual start/end), per-rank compute charges,
// pivot-step/phase markers emitted by the kernels, every committed wire
// transfer, and — in ClosedForm mode — one synthetic site span per
// collective, so timelines cover both CollectiveModes.
//
// Hard invariant: recording must not perturb the simulation. Every hook
// only *reads* the engine clock (desim::Engine::now()) and appends to a
// vector; no virtual time is ever charged, so RunResults are bit-identical
// with a recorder attached or detached (locked by
// tests/trace/test_zero_perturbation.cpp). Detached cost is one
// null-pointer branch per hook.
//
// The RAII guards are coroutine-safe the same way trace::PhaseTimer is:
// their destructors run when the enclosing scope of the coroutine frame
// exits, even across co_await suspensions, so a guard wrapping
// `co_await bcast(...)` brackets exactly the virtual interval of the call.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "desim/engine.hpp"
#include "trace/sample.hpp"

namespace hs::trace {

class SpanChunkWriter;

/// The collectives the kernels issue; mpc::Machine keys its closed-form
/// sites and counters by it too. It lives here so the trace layer needs no
/// mpc dependency — hs_mpc links hs_trace, not vice versa. The values are
/// the op bytes of span chunk files (trace/stream_sink.hpp): the gap keeps
/// the byte of a collective this library no longer offers from decoding
/// as a different op.
enum class CollectiveOp {
  Bcast = 0,
  Reduce = 2,
};
std::string_view to_string(CollectiveOp op);

/// Which algorithmic phase a rank is in, as reported by the kernels: flat
/// algorithms stay in Flat; HSUMMA alternates between the inter-group
/// (Outer) and intra-group (Inner) broadcast phases of the paper's
/// Tables I/II.
enum class Phase { Flat, Outer, Inner };
std::string_view to_string(Phase phase);

/// One collective call on one rank: entry to gate-fire, in virtual time.
struct CollectiveSpan {
  double start = 0.0;
  double end = 0.0;
  int rank = -1;        // world rank of the caller
  CollectiveOp op = CollectiveOp::Bcast;
  int algo = -1;        // resolved net::BcastAlgo index; -1 = not a bcast
  int ctx = 0;          // communicator context id
  std::uint64_t seq = 0;  // collective sequence number on that context
  int root = -1;        // world rank of the root
  std::uint64_t bytes = 0;  // per-member payload bytes
  long long step = -1;  // kernel pivot step at call time; -1 = unmarked
  Phase phase = Phase::Flat;
  /// Hierarchy chain level of the enclosing broadcast stage (0 =
  /// outermost), stamped from the rank's current level state; -1 when the
  /// kernel reports no level (flat runs, scalar HSUMMA and task plans).
  int level = -1;
  bool closed_form = false;
};

/// One Machine::compute charge on one rank.
struct ComputeSpan {
  double start = 0.0;
  double end = 0.0;
  int rank = -1;
  double flops = 0.0;
  long long step = -1;
  Phase phase = Phase::Flat;
  int level = -1;  // see CollectiveSpan::level
};

/// A kernel's "pivot step k begins" marker.
struct StepMark {
  double time = 0.0;
  int rank = -1;
  long long step = -1;
  Phase phase = Phase::Flat;
};

/// One committed point-to-point wire transfer.
struct WireSpan {
  double start = 0.0;
  double end = 0.0;
  int src = -1;
  int dst = -1;
  std::uint64_t bytes = 0;
  int ctx = 0;
  int tag = 0;
};

/// One ClosedForm collective site: from the last participant's entry to the
/// shared completion instant. wire_bytes is the (p-1)*bytes convention the
/// closed-form mode charges (see DESIGN.md "Observability").
struct SiteSpan {
  double start = 0.0;  // max over participant entry times
  double end = 0.0;
  CollectiveOp op = CollectiveOp::Bcast;
  int ctx = 0;
  std::uint64_t seq = 0;
  int root = -1;       // world rank of the root
  std::uint64_t wire_bytes = 0;
  int members = 0;
};

/// Task-runtime span kinds (core/task_plan.hpp): a communication task's
/// transfer span, a compute task's charge, or the scheduler's exposed wait
/// on a communication task (the non-hidden remainder the critical-path
/// analyzer treats as reclaimable idle).
enum class TaskSpanKind { Comm, Compute, Wait };
std::string_view to_string(TaskSpanKind kind);

/// One task-runtime event on one rank. Comm/Compute spans cover the task
/// body's virtual interval; Wait spans cover the scheduler's join waits
/// (inline D=0 execution waits for the full comm span, overlapped execution
/// only for the exposed remainder — comparing the two is exactly the
/// "idle reclaimed" number).
struct TaskSpan {
  double start = 0.0;
  double end = 0.0;
  int rank = -1;
  TaskSpanKind kind = TaskSpanKind::Comm;
  long long step = -1;
  Phase phase = Phase::Flat;
  /// Hierarchy chain level of the task's broadcast stage (exact — derived
  /// from the task plan's phase encoding); -1 for flat/legacy tasks.
  int level = -1;
  const char* label = "";  // static storage (TaskSpec::label)
};

/// Fault-event taxonomy (mirrors fault::FaultPlan's window kind, kept
/// mpc/fault-independent here for the same layering reason as
/// CollectiveOp), rendered as a dedicated Perfetto track by
/// write_chrome_trace. One kind today; the enum keeps the span-chunk
/// record layout.
enum class FaultKind { RankSlowdown };
std::string_view to_string(FaultKind kind);

/// One fault window over [start, end) with `factor` as the multiplier
/// (start == end renders as an instant). `a` is the slowed rank; `b` is a
/// second rank, -1 when absent.
struct FaultSpan {
  double start = 0.0;
  double end = 0.0;
  FaultKind kind = FaultKind::RankSlowdown;
  int a = -1;
  int b = -1;
  double factor = 0.0;
};

/// Append-only event store for one simulation. Single-threaded like the
/// engine that feeds it: attach one recorder per machine, one machine per
/// thread (parallel sweeps give every job its own recorder).
///
/// Two scale features, both off by default:
///
///   * a rank sample (set_sample): spans of unsampled ranks are dropped at
///     the door (wire spans survive when either endpoint is sampled; sites
///     and fault events are global and always kept), so a p = 2^20 trace
///     stores O(sampled ranks) spans. The exposed-wait histogram keeps
///     accumulating over *every* rank — filtering affects storage only.
///   * a streaming sink (set_stream): whenever the buffered span estimate
///     exceeds the budget, everything buffered is spilled to the sink's
///     on-disk chunk file and the vectors are cleared, bounding recorder
///     RSS for arbitrarily long runs (see trace/stream_sink.hpp for the
///     format, loader and Chrome-trace converter).
class Recorder {
 public:
  /// Update rank `rank`'s current (step, phase) and record a marker.
  /// Subsequent collective/compute spans on that rank are stamped with the
  /// new state.
  void begin_step(double now, int rank, long long step, Phase phase) {
    RankState& state = state_of(rank);
    state.step = step;
    state.phase = phase;
    if (!rank_sampled(rank)) return;
    steps_.push_back({now, rank, step, phase});
    note_span(sizeof(StepMark));
  }

  /// Update rank `rank`'s current hierarchy chain level (-1 = none);
  /// subsequent collective/compute spans on that rank carry it.
  void set_level(int rank, int level) { state_of(rank).level = level; }

  /// Record a finished collective span; step/phase/level are stamped from
  /// the caller rank's current state.
  void add_collective(CollectiveSpan span) {
    const RankState& state = state_of(span.rank);
    span.step = state.step;
    span.phase = state.phase;
    span.level = state.level;
    if (!rank_sampled(span.rank)) return;
    collectives_.push_back(span);
    note_span(sizeof(CollectiveSpan));
  }

  /// Record a finished compute span; stamped like add_collective.
  void add_compute(ComputeSpan span) {
    const RankState& state = state_of(span.rank);
    span.step = state.step;
    span.phase = state.phase;
    span.level = state.level;
    if (!rank_sampled(span.rank)) return;
    computes_.push_back(span);
    note_span(sizeof(ComputeSpan));
  }

  void add_transfer(const WireSpan& span) {
    if (!rank_sampled(span.src) && !rank_sampled(span.dst)) return;
    wires_.push_back(span);
    note_span(sizeof(WireSpan));
  }
  void add_site(const SiteSpan& span) {
    sites_.push_back(span);
    note_span(sizeof(SiteSpan));
  }
  void add_fault(const FaultSpan& span) {
    faults_.push_back(span);
    note_span(sizeof(FaultSpan));
  }
  void add_task(const TaskSpan& span) {
    if (span.kind == TaskSpanKind::Wait)
      exposed_wait_hist_.add(span.end - span.start);
    if (!rank_sampled(span.rank)) return;
    tasks_.push_back(span);
    note_span(sizeof(TaskSpan));
  }

  // --- rank sampling -------------------------------------------------------

  /// Restrict storage to `sample`'s ranks. The default (and an empty
  /// TraceSample resolution) keeps every rank.
  void set_sample(RankSampleSet sample) { sample_ = std::move(sample); }
  const RankSampleSet& sample() const noexcept { return sample_; }
  bool rank_sampled(int rank) const noexcept {
    return sample_.contains(rank);
  }

  // --- streaming sink ------------------------------------------------------

  /// Attach a chunk sink: once the buffered span estimate exceeds
  /// `budget_bytes`, buffered spans are appended to the sink and the
  /// in-memory vectors are cleared (rank state and histograms persist).
  /// The sink must outlive the recorder's recording phase; detach with
  /// nullptr. Call flush_stream() after the run to push the remainder.
  void set_stream(SpanChunkWriter* sink, std::size_t budget_bytes) {
    stream_ = sink;
    stream_budget_bytes_ = budget_bytes;
  }
  SpanChunkWriter* stream() const noexcept { return stream_; }
  /// Spill everything still buffered to the sink (no-op without one).
  void flush_stream();
  /// Estimated bytes of buffered (not yet spilled) span storage.
  std::size_t buffered_bytes() const noexcept { return buffered_bytes_; }
  /// Spans pushed to the sink so far.
  std::uint64_t spilled_spans() const noexcept { return spilled_spans_; }

  // --- always-on distributions --------------------------------------------

  /// Exposed scheduler waits (TaskSpanKind::Wait durations) over all
  /// ranks, sampled or not. Feeds trace.task.exposed_wait_s.
  const hs::Histogram& exposed_wait_histogram() const noexcept {
    return exposed_wait_hist_;
  }

  // --- raw restore (chunk loader) -----------------------------------------

  /// Append a span verbatim: no state stamping, no sampling, no spill
  /// accounting. Used by load_span_chunks to reconstruct a recorder from a
  /// chunk file; not meant for recording hooks.
  void restore(const CollectiveSpan& span) { collectives_.push_back(span); }
  void restore(const ComputeSpan& span) { computes_.push_back(span); }
  void restore(const StepMark& mark) { steps_.push_back(mark); }
  void restore(const WireSpan& span) { wires_.push_back(span); }
  void restore(const SiteSpan& span) { sites_.push_back(span); }
  void restore(const FaultSpan& span) { faults_.push_back(span); }
  void restore(const TaskSpan& span) { tasks_.push_back(span); }

  const std::vector<CollectiveSpan>& collectives() const noexcept {
    return collectives_;
  }
  const std::vector<ComputeSpan>& computes() const noexcept {
    return computes_;
  }
  const std::vector<StepMark>& steps() const noexcept { return steps_; }
  const std::vector<WireSpan>& wires() const noexcept { return wires_; }
  const std::vector<SiteSpan>& sites() const noexcept { return sites_; }
  const std::vector<FaultSpan>& faults() const noexcept { return faults_; }
  const std::vector<TaskSpan>& tasks() const noexcept { return tasks_; }

  bool empty() const noexcept {
    return collectives_.empty() && computes_.empty() && steps_.empty() &&
           wires_.empty() && sites_.empty() && faults_.empty() &&
           tasks_.empty();
  }

  /// Highest rank index seen across all recorded events, plus one.
  int rank_count() const;

  void clear() {
    collectives_.clear();
    computes_.clear();
    steps_.clear();
    wires_.clear();
    sites_.clear();
    faults_.clear();
    tasks_.clear();
    states_.clear();
    buffered_bytes_ = 0;
  }

 private:
  struct RankState {
    long long step = -1;
    Phase phase = Phase::Flat;
    int level = -1;
  };
  RankState& state_of(int rank) {
    const auto index =
        static_cast<std::size_t>(rank < 0 ? 0 : rank);
    if (index >= states_.size()) states_.resize(index + 1);
    return states_[index];
  }

  /// Account one stored span and spill when a sink is attached and the
  /// budget is exceeded.
  void note_span(std::size_t bytes) {
    buffered_bytes_ += bytes;
    if (stream_ != nullptr && buffered_bytes_ > stream_budget_bytes_)
      spill_now();
  }
  void spill_now();  // recorder.cpp: writes buffered spans, clears vectors

  std::vector<CollectiveSpan> collectives_;
  std::vector<ComputeSpan> computes_;
  std::vector<StepMark> steps_;
  std::vector<WireSpan> wires_;
  std::vector<SiteSpan> sites_;
  std::vector<FaultSpan> faults_;
  std::vector<TaskSpan> tasks_;
  std::vector<RankState> states_;
  RankSampleSet sample_;
  hs::Histogram exposed_wait_hist_;
  SpanChunkWriter* stream_ = nullptr;
  std::size_t stream_budget_bytes_ = 0;
  std::size_t buffered_bytes_ = 0;
  std::uint64_t spilled_spans_ = 0;
};

/// A rank's handle on the (possibly absent) recorder: what the kernel arg
/// structs carry. Default-constructed = detached; every operation is then a
/// single null check.
class RankTracer {
 public:
  RankTracer() = default;
  RankTracer(Recorder* recorder, int rank)
      : recorder_(recorder), rank_(rank) {}

  Recorder* recorder() const noexcept { return recorder_; }
  int rank() const noexcept { return rank_; }

  /// Mark the start of pivot step `step` in `phase` at the current virtual
  /// time.
  void begin_step(desim::Engine& engine, long long step, Phase phase) const {
    if (recorder_ != nullptr)
      recorder_->begin_step(engine.now(), rank_, step, phase);
  }

  /// Set this rank's current hierarchy chain level (-1 = none); spans
  /// recorded afterwards carry it. Pure state, no event is stored.
  void set_level(int level) const {
    if (recorder_ != nullptr) recorder_->set_level(rank_, level);
  }

 private:
  Recorder* recorder_ = nullptr;
  int rank_ = -1;
};

/// RAII span over one collective call. Construct with the span's identity
/// fields filled in (start/end are stamped here); the destructor records it.
class CollectiveSpanGuard {
 public:
  CollectiveSpanGuard(Recorder* recorder, desim::Engine& engine,
                      const CollectiveSpan& span)
      : recorder_(recorder), engine_(&engine), span_(span) {
    if (recorder_ != nullptr) span_.start = engine.now();
  }
  CollectiveSpanGuard(const CollectiveSpanGuard&) = delete;
  CollectiveSpanGuard& operator=(const CollectiveSpanGuard&) = delete;
  ~CollectiveSpanGuard() {
    if (recorder_ == nullptr) return;
    span_.end = engine_->now();
    recorder_->add_collective(span_);
  }

 private:
  Recorder* recorder_;
  desim::Engine* engine_;
  CollectiveSpan span_;
};

/// RAII span over one Machine::compute charge.
class ComputeSpanGuard {
 public:
  ComputeSpanGuard(const RankTracer& tracer, desim::Engine& engine,
                   double flops)
      : recorder_(tracer.recorder()), engine_(&engine) {
    if (recorder_ == nullptr) return;
    span_.rank = tracer.rank();
    span_.flops = flops;
    span_.start = engine.now();
  }
  ComputeSpanGuard(const ComputeSpanGuard&) = delete;
  ComputeSpanGuard& operator=(const ComputeSpanGuard&) = delete;
  ~ComputeSpanGuard() {
    if (recorder_ == nullptr) return;
    span_.end = engine_->now();
    recorder_->add_compute(span_);
  }

 private:
  Recorder* recorder_;
  desim::Engine* engine_;
  ComputeSpan span_;
};

}  // namespace hs::trace
