#include "trace/chrome_trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <vector>

#include "common/check.hpp"

namespace hs::trace {

namespace {

// Per-rank cumulative port-busy counters are emitted only for runs small
// enough that one counter track per rank stays readable.
constexpr int kMaxBusyCounterRanks = 128;

std::string fmt_us(double seconds) {
  // Microseconds with nanosecond resolution: plenty for Hockney-scale
  // virtual times, and rounding is monotone so span containment survives.
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e6);
  return buf;
}

std::string fmt_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Comma-separated event emission into the traceEvents array.
class EventSink {
 public:
  explicit EventSink(std::ostream& out) : out_(&out) {}
  void emit(const std::string& event) {
    if (!first_) *out_ << ",\n";
    first_ = false;
    *out_ << event;
  }

 private:
  std::ostream* out_;
  bool first_ = true;
};

std::string metadata_event(int pid, int tid, std::string_view kind,
                           std::string_view name) {
  std::string event = "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
                      ",\"tid\":" + std::to_string(tid) + ",\"name\":\"";
  event += kind;
  event += "\",\"args\":{\"name\":\"" + json_escape(name) + "\"}}";
  return event;
}

/// An interval to be placed on a nesting-safe sub-lane.
struct TimedItem {
  double start = 0.0;
  double end = 0.0;
  bool compute = false;
  std::size_t index = 0;  // into the source vector
};

/// Greedy lane assignment: sorts `items` by (start asc, end desc) and
/// places each on the first lane where it either follows every open span or
/// nests inside the innermost one, so spans sharing a lane never partially
/// overlap. Returns one lane id per (sorted) item; lane count is
/// max(lane) + 1, unbounded (overlap pipelines fork a handful of
/// concurrent spans, not hundreds).
std::vector<int> assign_lanes(std::vector<TimedItem>& items) {
  std::sort(items.begin(), items.end(),
            [](const TimedItem& a, const TimedItem& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.end != b.end) return a.end > b.end;
              return a.index < b.index;
            });
  std::vector<std::vector<double>> open_ends;  // per lane, stack of open ends
  std::vector<int> lanes(items.size(), 0);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const TimedItem& item = items[i];
    int lane = -1;
    for (std::size_t l = 0; l < open_ends.size(); ++l) {
      auto& stack = open_ends[l];
      while (!stack.empty() && stack.back() <= item.start) stack.pop_back();
      if (stack.empty() || item.end <= stack.back()) {
        lane = static_cast<int>(l);
        break;
      }
    }
    if (lane < 0) {
      open_ends.emplace_back();
      lane = static_cast<int>(open_ends.size()) - 1;
    }
    open_ends[static_cast<std::size_t>(lane)].push_back(item.end);
    lanes[i] = lane;
  }
  return lanes;
}

std::string complete_event(int pid, int tid, double start, double end,
                           std::string_view name, std::string_view category,
                           const std::string& args) {
  std::string event = "{\"ph\":\"X\",\"pid\":" + std::to_string(pid) +
                      ",\"tid\":" + std::to_string(tid) + ",\"ts\":" +
                      fmt_us(start) + ",\"dur\":" + fmt_us(end - start) +
                      ",\"name\":\"" + json_escape(name) + "\",\"cat\":\"";
  event += category;
  event += "\",\"args\":{" + args + "}}";
  return event;
}

std::string collective_args(const CollectiveSpan& span) {
  std::string args = "\"ctx\":" + std::to_string(span.ctx) +
                     ",\"seq\":" + std::to_string(span.seq) +
                     ",\"root\":" + std::to_string(span.root) +
                     ",\"bytes\":" + std::to_string(span.bytes) +
                     ",\"step\":" + std::to_string(span.step) +
                     ",\"level\":" + std::to_string(span.level) +
                     ",\"closed_form\":";
  args += span.closed_form ? "true" : "false";
  if (span.algo >= 0) args += ",\"algo_id\":" + std::to_string(span.algo);
  return args;
}

void write_session(EventSink& sink, const TraceSession& session,
                   std::size_t session_index) {
  HS_REQUIRE(session.recorder != nullptr);
  const Recorder& recorder = *session.recorder;
  const int pid_ranks = static_cast<int>(3 * session_index);
  const int pid_wire = pid_ranks + 1;
  const int pid_tasks = pid_ranks + 2;  // only emitted when tasks exist
  const int ranks = recorder.rank_count();

  sink.emit(metadata_event(pid_ranks, 0, "process_name",
                           session.label + " ranks"));
  sink.emit(metadata_event(pid_wire, 0, "process_name",
                           session.label + " wire"));

  // --- per-rank span tracks (collectives + computes, lane-spilled) ------
  std::vector<std::vector<TimedItem>> per_rank(
      static_cast<std::size_t>(std::max(ranks, 0)));
  auto rank_slot = [&per_rank](int rank) -> std::vector<TimedItem>* {
    if (rank < 0 || static_cast<std::size_t>(rank) >= per_rank.size())
      return nullptr;
    return &per_rank[static_cast<std::size_t>(rank)];
  };
  for (std::size_t i = 0; i < recorder.collectives().size(); ++i) {
    const CollectiveSpan& span = recorder.collectives()[i];
    if (auto* slot = rank_slot(span.rank))
      slot->push_back({span.start, span.end, false, i});
  }
  for (std::size_t i = 0; i < recorder.computes().size(); ++i) {
    const ComputeSpan& span = recorder.computes()[i];
    if (auto* slot = rank_slot(span.rank))
      slot->push_back({span.start, span.end, true, i});
  }

  // Dense tids: every rank owns [tid_base[r], tid_base[r] + lanes(r)).
  std::vector<int> tid_base(per_rank.size() + 1, 0);
  std::vector<std::vector<int>> rank_lanes(per_rank.size());
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    rank_lanes[r] = assign_lanes(per_rank[r]);
    int lane_count = 1;
    for (int lane : rank_lanes[r]) lane_count = std::max(lane_count, lane + 1);
    tid_base[r + 1] = tid_base[r] + lane_count;
  }

  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    const int lanes_here = tid_base[r + 1] - tid_base[r];
    for (int lane = 0; lane < lanes_here; ++lane) {
      std::string name = "rank " + std::to_string(r);
      if (lane > 0) name += " ~" + std::to_string(lane);
      sink.emit(metadata_event(pid_ranks, tid_base[r] + lane, "thread_name",
                               name));
    }
    for (std::size_t i = 0; i < per_rank[r].size(); ++i) {
      const TimedItem& item = per_rank[r][i];
      const int tid = tid_base[r] + rank_lanes[r][i];
      if (item.compute) {
        const ComputeSpan& span = recorder.computes()[item.index];
        sink.emit(complete_event(
            pid_ranks, tid, span.start, span.end, "compute", "compute",
            "\"flops\":" + fmt_double(span.flops) +
                ",\"step\":" + std::to_string(span.step) +
                ",\"level\":" + std::to_string(span.level)));
      } else {
        const CollectiveSpan& span = recorder.collectives()[item.index];
        sink.emit(complete_event(pid_ranks, tid, span.start, span.end,
                                 to_string(span.op), "collective",
                                 collective_args(span)));
      }
    }
  }

  // --- step markers ------------------------------------------------------
  for (const StepMark& mark : recorder.steps()) {
    if (mark.rank < 0 || static_cast<std::size_t>(mark.rank) >= per_rank.size())
      continue;
    std::string name = "step " + std::to_string(mark.step) + " (level " +
                       std::to_string(mark.level) + ")";
    sink.emit("{\"ph\":\"i\",\"s\":\"t\",\"pid\":" +
              std::to_string(pid_ranks) + ",\"tid\":" +
              std::to_string(tid_base[static_cast<std::size_t>(mark.rank)]) +
              ",\"ts\":" + fmt_us(mark.time) + ",\"name\":\"" +
              json_escape(name) + "\"}");
  }

  // --- wire tracks: one lane per sending rank (the single-port model
  // serializes a rank's sends, so these never overlap), sites spilled onto
  // lanes above the rank range.
  for (const WireSpan& wire : recorder.wires()) {
    const int tid = std::max(wire.src, 0);
    sink.emit(complete_event(
        pid_wire, tid, wire.start, wire.end,
        "send \xE2\x86\x92 " + std::to_string(wire.dst), "wire",
        "\"src\":" + std::to_string(wire.src) +
            ",\"dst\":" + std::to_string(wire.dst) +
            ",\"bytes\":" + std::to_string(wire.bytes) +
            ",\"ctx\":" + std::to_string(wire.ctx) +
            ",\"tag\":" + std::to_string(wire.tag)));
  }
  if (!recorder.wires().empty())
    for (int r = 0; r < ranks; ++r)
      sink.emit(metadata_event(pid_wire, r, "thread_name",
                               "send port rank " + std::to_string(r)));

  std::vector<TimedItem> site_items;
  site_items.reserve(recorder.sites().size());
  for (std::size_t i = 0; i < recorder.sites().size(); ++i) {
    const SiteSpan& site = recorder.sites()[i];
    site_items.push_back({site.start, site.end, false, i});
  }
  const std::vector<int> site_lanes = assign_lanes(site_items);
  int site_lane_count = 0;
  for (int lane : site_lanes) site_lane_count = std::max(site_lane_count, lane + 1);
  for (int lane = 0; lane < site_lane_count; ++lane)
    sink.emit(metadata_event(pid_wire, ranks + lane, "thread_name",
                             "collective sites ~" + std::to_string(lane)));
  for (std::size_t i = 0; i < site_items.size(); ++i) {
    const SiteSpan& site = recorder.sites()[site_items[i].index];
    sink.emit(complete_event(
        pid_wire, ranks + site_lanes[i], site.start, site.end,
        "site:" + std::string(to_string(site.op)), "site",
        "\"ctx\":" + std::to_string(site.ctx) +
            ",\"seq\":" + std::to_string(site.seq) +
            ",\"root\":" + std::to_string(site.root) +
            ",\"wire_bytes\":" + std::to_string(site.wire_bytes) +
            ",\"members\":" + std::to_string(site.members)));
  }

  // --- fault track: the plan's slowdown windows, spilled onto lanes above
  // the collective-site range. Open-ended windows (end = inf) are clamped
  // to the latest finite time the recorder saw, so Perfetto's viewport
  // stays finite.
  if (!recorder.faults().empty()) {
    double horizon = 0.0;
    auto stretch_horizon = [&horizon](double t) {
      if (std::isfinite(t)) horizon = std::max(horizon, t);
    };
    for (const CollectiveSpan& span : recorder.collectives())
      stretch_horizon(span.end);
    for (const ComputeSpan& span : recorder.computes())
      stretch_horizon(span.end);
    for (const WireSpan& span : recorder.wires()) stretch_horizon(span.end);
    for (const SiteSpan& span : recorder.sites()) stretch_horizon(span.end);
    for (const FaultSpan& span : recorder.faults()) {
      stretch_horizon(span.start);
      stretch_horizon(span.end);
    }

    const int fault_tid_base = ranks + site_lane_count;
    std::vector<TimedItem> fault_items;
    fault_items.reserve(recorder.faults().size());
    for (std::size_t i = 0; i < recorder.faults().size(); ++i) {
      const FaultSpan& span = recorder.faults()[i];
      const double end = std::isfinite(span.end) ? span.end : horizon;
      fault_items.push_back({span.start, std::max(end, span.start), false, i});
    }
    const std::vector<int> fault_lanes = assign_lanes(fault_items);
    int fault_lane_count = 0;
    for (int lane : fault_lanes)
      fault_lane_count = std::max(fault_lane_count, lane + 1);
    for (int lane = 0; lane < fault_lane_count; ++lane)
      sink.emit(metadata_event(pid_wire, fault_tid_base + lane, "thread_name",
                               "faults ~" + std::to_string(lane)));
    for (std::size_t i = 0; i < fault_items.size(); ++i) {
      const FaultSpan& span = recorder.faults()[fault_items[i].index];
      const int tid = fault_tid_base + fault_lanes[i];
      std::string name = "rank-slowdown";
      if (span.a >= 0) {
        name += span.b >= 0 ? " " + std::to_string(span.a) + "\xE2\x86\x92" +
                                  std::to_string(span.b)
                            : " rank " + std::to_string(span.a);
      }
      std::string args = "\"kind\":\"rank-slowdown\",\"a\":" +
                         std::to_string(span.a) +
                         ",\"b\":" + std::to_string(span.b) +
                         ",\"factor\":" + fmt_double(span.factor);
      if (span.start < span.end) {
        sink.emit(complete_event(pid_wire, tid, fault_items[i].start,
                                 fault_items[i].end, name, "fault", args));
      } else {
        sink.emit("{\"ph\":\"i\",\"s\":\"t\",\"pid\":" +
                  std::to_string(pid_wire) + ",\"tid\":" + std::to_string(tid) +
                  ",\"ts\":" + fmt_us(span.start) + ",\"name\":\"" +
                  json_escape(name) + "\",\"cat\":\"fault\",\"args\":{" + args +
                  "}}");
      }
    }
  }

  // --- task-runtime tracks: the scheduler's view of each rank — comm
  // transfer spans, compute charges and *exposed* join waits (what the
  // critical-path analyzer counts as reclaimable idle). Forked comm runs
  // concurrently with compute on the same rank, so lanes spill like the
  // collective tracks above.
  if (!recorder.tasks().empty()) {
    sink.emit(metadata_event(pid_tasks, 0, "process_name",
                             session.label + " tasks"));
    int task_ranks = 0;
    for (const TaskSpan& span : recorder.tasks())
      task_ranks = std::max(task_ranks, span.rank + 1);
    std::vector<std::vector<TimedItem>> per_rank_tasks(
        static_cast<std::size_t>(task_ranks));
    for (std::size_t i = 0; i < recorder.tasks().size(); ++i) {
      const TaskSpan& span = recorder.tasks()[i];
      if (span.rank < 0) continue;
      per_rank_tasks[static_cast<std::size_t>(span.rank)].push_back(
          {span.start, std::max(span.end, span.start), false, i});
    }
    int task_tid = 0;
    for (std::size_t r = 0; r < per_rank_tasks.size(); ++r) {
      const std::vector<int> lanes = assign_lanes(per_rank_tasks[r]);
      int lane_count = 1;
      for (int lane : lanes) lane_count = std::max(lane_count, lane + 1);
      for (int lane = 0; lane < lane_count; ++lane) {
        std::string name = "rank " + std::to_string(r) + " tasks";
        if (lane > 0) name += " ~" + std::to_string(lane);
        sink.emit(metadata_event(pid_tasks, task_tid + lane, "thread_name",
                                 name));
      }
      for (std::size_t i = 0; i < per_rank_tasks[r].size(); ++i) {
        const TimedItem& item = per_rank_tasks[r][i];
        const TaskSpan& span = recorder.tasks()[item.index];
        const std::string_view kind = to_string(span.kind);
        std::string name(span.label);
        if (name.empty()) name = kind;
        if (span.kind == TaskSpanKind::Wait) name = "wait: " + name;
        sink.emit(complete_event(
            pid_tasks, task_tid + lanes[i], item.start, item.end, name,
            std::string("task-") + std::string(kind),
            "\"kind\":\"" + std::string(kind) +
                "\",\"step\":" + std::to_string(span.step) +
                ",\"level\":" + std::to_string(span.level)));
      }
      task_tid += lane_count;
    }
  }

  // --- counters ----------------------------------------------------------
  // Cumulative wire bytes over virtual time, sampled at each completion
  // (point-to-point transfers plus ClosedForm site charges).
  std::vector<std::pair<double, std::uint64_t>> charges;
  charges.reserve(recorder.wires().size() + recorder.sites().size());
  for (const WireSpan& wire : recorder.wires())
    charges.emplace_back(wire.end, wire.bytes);
  for (const SiteSpan& site : recorder.sites())
    charges.emplace_back(site.end, site.wire_bytes);
  std::stable_sort(charges.begin(), charges.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::uint64_t cumulative = 0;
  for (const auto& [end, bytes] : charges) {
    cumulative += bytes;
    sink.emit("{\"ph\":\"C\",\"pid\":" + std::to_string(pid_wire) +
              ",\"tid\":0,\"ts\":" + fmt_us(end) +
              ",\"name\":\"cumulative wire bytes\",\"args\":{\"bytes\":" +
              std::to_string(cumulative) + "}}");
  }

  // Per-rank cumulative port busy time (send and receive series).
  if (ranks > 0 && ranks <= kMaxBusyCounterRanks && !recorder.wires().empty()) {
    std::vector<const WireSpan*> by_end;
    by_end.reserve(recorder.wires().size());
    for (const WireSpan& wire : recorder.wires()) by_end.push_back(&wire);
    std::stable_sort(by_end.begin(), by_end.end(),
                     [](const WireSpan* a, const WireSpan* b) {
                       return a->end < b->end;
                     });
    std::vector<double> send_busy(static_cast<std::size_t>(ranks), 0.0);
    std::vector<double> recv_busy(static_cast<std::size_t>(ranks), 0.0);
    auto emit_busy = [&](int rank, double ts) {
      sink.emit("{\"ph\":\"C\",\"pid\":" + std::to_string(pid_ranks) +
                ",\"tid\":0,\"ts\":" + fmt_us(ts) +
                ",\"name\":\"port busy s (rank " + std::to_string(rank) +
                ")\",\"args\":{\"send\":" +
                fmt_double(send_busy[static_cast<std::size_t>(rank)]) +
                ",\"recv\":" +
                fmt_double(recv_busy[static_cast<std::size_t>(rank)]) + "}}");
    };
    for (const WireSpan* wire : by_end) {
      const double busy = wire->end - wire->start;
      if (wire->src >= 0 && wire->src < ranks) {
        send_busy[static_cast<std::size_t>(wire->src)] += busy;
        emit_busy(wire->src, wire->end);
      }
      if (wire->dst >= 0 && wire->dst < ranks) {
        recv_busy[static_cast<std::size_t>(wire->dst)] += busy;
        emit_busy(wire->dst, wire->end);
      }
    }
  }
}

}  // namespace

void write_chrome_trace(std::ostream& out,
                        std::span<const TraceSession> sessions) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  EventSink sink(out);
  for (std::size_t s = 0; s < sessions.size(); ++s)
    write_session(sink, sessions[s], s);
  out << "\n]}\n";
}

void write_chrome_trace(std::ostream& out, const Recorder& recorder,
                        std::string_view label) {
  const TraceSession session{&recorder, std::string(label)};
  write_chrome_trace(out, std::span<const TraceSession>(&session, 1));
}

}  // namespace hs::trace
