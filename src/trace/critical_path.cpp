#include "trace/critical_path.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "trace/recorder.hpp"

namespace hs::trace {

namespace {

/// Unified view over compute and collective spans for the backward walk.
struct WorkSpan {
  double start = 0.0;
  double end = 0.0;
  int rank = -1;
  bool compute = false;
  std::size_t index = 0;  // into the recorder's computes()/collectives()
};

/// The paper's two-level names for a split: level 0 ("outer") and the sum
/// of every deeper level ("inner").
double outer_of(const CriticalPathSplit& split) {
  return split.level_comm.empty() ? 0.0 : split.level_comm.front();
}

double inner_of(const CriticalPathSplit& split) {
  double sum = 0.0;
  for (std::size_t l = 1; l < split.level_comm.size(); ++l)
    sum += split.level_comm[l];
  return sum;
}

}  // namespace

double CriticalPathSplit::comm() const {
  double sum = 0.0;
  for (const double level : level_comm) sum += level;
  return sum + flat_comm;
}

std::string CriticalPathSplit::summary() const {
  std::ostringstream os;
  os << "critical path " << hs::format_seconds(total()) << " = comp "
     << hs::format_seconds(comp) << " + outer "
     << hs::format_seconds(outer_of(*this)) << " + inner "
     << hs::format_seconds(inner_of(*this)) << " + flat "
     << hs::format_seconds(flat_comm) << " + idle "
     << hs::format_seconds(idle) << " (" << segments.size() << " segments)";
  // Two levels are fully described by the outer/inner head line (kept
  // byte-identical for existing goldens); deeper chains get the full
  // per-level split underneath.
  if (depth() > 2) {
    for (int l = 0; l < depth(); ++l)
      os << "\n  level " << l << ": "
         << hs::format_seconds(level_comm[static_cast<std::size_t>(l)]);
  }
  return os.str();
}

Table CriticalPathSplit::breakdown_table() const {
  Table table({"category", "time", "share"});
  const double denom = total();
  const auto add = [&table, denom](const std::string& name, double value) {
    table.add_row({name, hs::format_seconds(value),
                   denom > 0.0 ? hs::format_ratio(value / denom) : "-"});
  };
  add("comp", comp);
  add("outer-comm", outer_of(*this));
  add("inner-comm", inner_of(*this));
  add("flat-comm", flat_comm);
  add("idle", idle);
  if (depth() > 2)
    for (int l = 0; l < depth(); ++l)
      add("level-" + std::to_string(l) + "-comm",
          level_comm[static_cast<std::size_t>(l)]);
  return table;
}

CriticalPathSplit analyze_critical_path(const Recorder& recorder) {
  CriticalPathSplit report;

  // Flatten the recorder's work spans and index collective participants by
  // (ctx, seq) so the walk can hop to the latest-arriving rank.
  std::vector<WorkSpan> spans;
  spans.reserve(recorder.computes().size() + recorder.collectives().size());
  for (std::size_t i = 0; i < recorder.computes().size(); ++i) {
    const ComputeSpan& span = recorder.computes()[i];
    spans.push_back({span.start, span.end, span.rank, true, i});
  }
  std::map<std::pair<int, std::uint64_t>, std::vector<std::size_t>> sites;
  for (std::size_t i = 0; i < recorder.collectives().size(); ++i) {
    const CollectiveSpan& span = recorder.collectives()[i];
    spans.push_back({span.start, span.end, span.rank, false, i});
    sites[{span.ctx, span.seq}].push_back(i);
  }
  if (spans.empty()) return report;

  // Per-rank lists sorted by end; the walk consumes each rank's list from
  // the back, which both finds "the work that just finished here" and
  // guarantees termination.
  int max_rank = 0;
  for (const WorkSpan& span : spans) max_rank = std::max(max_rank, span.rank);
  std::vector<std::vector<const WorkSpan*>> per_rank(
      static_cast<std::size_t>(max_rank) + 1);
  for (const WorkSpan& span : spans)
    if (span.rank >= 0) per_rank[static_cast<std::size_t>(span.rank)].push_back(&span);
  for (auto& list : per_rank)
    std::sort(list.begin(), list.end(),
              [](const WorkSpan* a, const WorkSpan* b) {
                if (a->end != b->end) return a->end < b->end;
                return a->start < b->start;
              });
  std::vector<std::size_t> cursor(per_rank.size());
  for (std::size_t r = 0; r < per_rank.size(); ++r)
    cursor[r] = per_rank[r].size();

  double min_start = spans.front().start;
  const WorkSpan* last = &spans.front();
  for (const WorkSpan& span : spans) {
    min_start = std::min(min_start, span.start);
    if (span.end > last->end) last = &span;
  }
  report.end_time = last->end;
  const double eps = 1e-12 * std::max(1.0, report.end_time);

  double t = report.end_time;
  int rank = last->rank;
  auto push = [&report](double start, double end, PathCategory category,
                        int rank_, long long step, int level,
                        std::string label) {
    if (end <= start) return;
    report.segments.push_back(
        {start, end, category, rank_, step, level, std::move(label)});
  };

  // Backward walk. Each iteration either consumes one span off the current
  // rank's list or closes an idle gap down to that span's end, so the loop
  // runs at most 2 * |spans| + |ranks| times; the cap is a safety net.
  const std::size_t iteration_cap = 4 * spans.size() + 64;
  std::size_t iterations = 0;
  while (t > min_start + eps && iterations++ < iteration_cap) {
    if (rank < 0 || static_cast<std::size_t>(rank) >= per_rank.size()) break;
    auto& list = per_rank[static_cast<std::size_t>(rank)];
    auto& cur = cursor[static_cast<std::size_t>(rank)];
    while (cur > 0 && list[cur - 1]->end > t + eps) --cur;
    if (cur == 0) break;  // this rank was idle since the run began
    const WorkSpan* span = list[cur - 1];
    if (span->end < t - eps) {
      // Nothing was running on this rank right before t: it was waiting.
      push(span->end, t, PathCategory::Idle, rank, -1, -1, "idle");
      t = span->end;
      continue;
    }
    --cur;
    if (span->compute) {
      const ComputeSpan& comp = recorder.computes()[span->index];
      push(comp.start, t, PathCategory::Comp, rank, comp.step, -1, "compute");
      t = comp.start;
      continue;
    }
    const CollectiveSpan& coll = recorder.collectives()[span->index];
    // A collective completes when its last participant arrives: continue on
    // the latest-entering rank. Falls back to this rank's own entry when
    // the hop would not move backward in time (possible in point-to-point
    // mode, where completion times differ per rank).
    double hop_start = coll.start;
    int hop_rank = rank;
    const auto site = sites.find({coll.ctx, coll.seq});
    if (site != sites.end()) {
      for (std::size_t participant : site->second) {
        const CollectiveSpan& other = recorder.collectives()[participant];
        if (other.start > hop_start && other.start < t - eps) {
          hop_start = other.start;
          hop_rank = other.rank;
        }
      }
    }
    push(hop_start, t, PathCategory::Comm, rank, coll.step, coll.level,
         std::string(to_string(coll.op)));
    t = hop_start;
    rank = hop_rank;
  }
  // Whatever is left below t is startup idle on the path's earliest rank
  // (it had not recorded any work yet).
  push(min_start, t, PathCategory::Idle, rank, -1, -1, "idle");
  report.start_time = min_start;

  std::reverse(report.segments.begin(), report.segments.end());
  for (const PathSegment& segment : report.segments) {
    const double duration = segment.duration();
    switch (segment.category) {
      case PathCategory::Comp: report.comp += duration; break;
      case PathCategory::Idle: report.idle += duration; break;
      case PathCategory::Comm:
        if (segment.level < 0) {
          report.flat_comm += duration;
          break;
        }
        if (static_cast<std::size_t>(segment.level) >= report.level_comm.size())
          report.level_comm.resize(static_cast<std::size_t>(segment.level) + 1,
                                   0.0);
        report.level_comm[static_cast<std::size_t>(segment.level)] += duration;
        break;
    }
  }
  return report;
}

}  // namespace hs::trace
