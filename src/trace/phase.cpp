#include "trace/phase.hpp"

#include <algorithm>
#include <sstream>

#include "common/table.hpp"
#include "common/units.hpp"

namespace hs::trace {

TimingReport TimingReport::aggregate(double total_time,
                                     std::span<const RankStats> per_rank) {
  TimingReport report;
  report.total_time = total_time;
  if (per_rank.empty()) return report;
  double comm_sum = 0.0;
  double comp_sum = 0.0;
  for (const auto& stats : per_rank) {
    report.max_comm_time = std::max(report.max_comm_time, stats.comm_time);
    report.max_comp_time = std::max(report.max_comp_time, stats.comp_time);
    if (report.max_level_comm_time.size() < stats.level_comm_time.size())
      report.max_level_comm_time.resize(stats.level_comm_time.size());
    for (std::size_t i = 0; i < stats.level_comm_time.size(); ++i)
      report.max_level_comm_time[i] =
          std::max(report.max_level_comm_time[i], stats.level_comm_time[i]);
    comm_sum += stats.comm_time;
    comp_sum += stats.comp_time;
    report.total_flops += stats.flops;
  }
  report.mean_comm_time = comm_sum / static_cast<double>(per_rank.size());
  report.mean_comp_time = comp_sum / static_cast<double>(per_rank.size());
  return report;
}

std::string TimingReport::summary() const {
  std::ostringstream os;
  os << "total " << hs::format_seconds(total_time) << ", comm(max) "
     << hs::format_seconds(max_comm_time) << ", comp(max) "
     << hs::format_seconds(max_comp_time);
  // Achieved aggregate flop rate over the whole run (all ranks together).
  if (total_flops > 0 && total_time > 0.0)
    os << ", "
       << hs::format_flops(static_cast<double>(total_flops) / total_time);
  // Runs with three or more level slots get per-level continuation lines;
  // flat and two-level runs keep the single head line byte-identical to the
  // historical format.
  if (max_level_comm_time.size() >= 3)
    for (std::size_t l = 0; l < max_level_comm_time.size(); ++l)
      os << "\n  level " << l << " comm(max) "
         << hs::format_seconds(max_level_comm_time[l]);
  return os.str();
}

}  // namespace hs::trace
