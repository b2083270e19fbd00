#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "trace/recorder.hpp"

namespace hs::fault {

namespace {

// Hexfloat rendering (same convention as net::describe_double): byte-exact
// and locale-independent.
std::string hex_double(double value) {
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

bool window_matches_rank(const RankSlowdown& w, int src, int dst) {
  return w.rank == src || (dst >= 0 && w.rank == dst);
}

/// max over the windows active at time `t` on either endpoint (dst < 0:
/// just `src`'s windows).
double slowdown_factor(const std::vector<RankSlowdown>& slowdowns, int src,
                       int dst, double t) {
  double factor = 1.0;
  for (const RankSlowdown& w : slowdowns)
    if (window_matches_rank(w, src, dst) && t >= w.start && t < w.end)
      factor = std::max(factor, w.factor);
  return factor;
}

}  // namespace

FaultPlan FaultPlan::stragglers(int ranks, int k, double factor,
                                std::uint64_t seed) {
  HS_REQUIRE(ranks >= 1);
  HS_REQUIRE(k >= 0 && k <= ranks);
  HS_REQUIRE(factor >= 1.0);
  FaultPlan plan;
  plan.seed = seed;
  // Deterministic k-subset: partial Fisher-Yates over the rank ids.
  std::vector<int> ids(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) ids[static_cast<std::size_t>(r)] = r;
  Rng rng(seed);
  for (int i = 0; i < k; ++i) {
    const auto j = i + static_cast<int>(rng.uniform_int(
                           static_cast<std::uint64_t>(ranks - i)));
    std::swap(ids[static_cast<std::size_t>(i)],
              ids[static_cast<std::size_t>(j)]);
    plan.slowdowns.push_back(
        {ids[static_cast<std::size_t>(i)], 0.0, kForever, factor});
  }
  // Sorted by rank so the plan (and its canonical string) is independent
  // of the sampling order.
  std::sort(plan.slowdowns.begin(), plan.slowdowns.end(),
            [](const RankSlowdown& a, const RankSlowdown& b) {
              return a.rank < b.rank;
            });
  return plan;
}

std::string FaultPlan::canonical() const {
  if (empty()) return {};
  std::ostringstream out;
  out << "seed=" << seed << ";retry:max=16,base=0x1p+0,cap=0x1p+6";
  for (const RankSlowdown& s : slowdowns)
    out << ";slow:rank=" << s.rank << ",start=" << hex_double(s.start)
        << ",end=" << hex_double(s.end) << ",factor=" << hex_double(s.factor);
  return out.str();
}

double FaultPlan::stretch(int src, int dst, double t0, double base) const {
  if (base <= 0.0) return base;
  // Fast path: no relevant window can intersect [t0, ∞) — return the base
  // untouched (bit-identical, not merely numerically equal).
  bool relevant = false;
  for (const RankSlowdown& w : slowdowns)
    if (window_matches_rank(w, src, dst) && w.factor > 1.0 && w.end > t0) {
      relevant = true;
      break;
    }
  if (!relevant) return base;

  // Piecewise integration: within a segment of constant factor f, `dt`
  // virtual seconds accomplish dt/f of the base duration. Segment
  // boundaries are the window starts/ends ahead of the clock.
  double t = t0;
  double remaining = base;
  for (;;) {
    const double factor = slowdown_factor(slowdowns, src, dst, t);
    double boundary = kForever;
    for (const RankSlowdown& w : slowdowns) {
      if (!window_matches_rank(w, src, dst)) continue;
      if (w.start > t) boundary = std::min(boundary, w.start);
      if (w.end > t) boundary = std::min(boundary, w.end);
    }
    if (boundary == kForever) return (t - t0) + remaining * factor;
    const double segment = boundary - t;
    const double progress = segment / factor;
    if (progress >= remaining) return (t - t0) + remaining * factor;
    remaining -= progress;
    t = boundary;
  }
}

void FaultPlan::emit_plan_spans(trace::Recorder& recorder) const {
  for (const RankSlowdown& w : slowdowns)
    recorder.add_fault({w.start, w.end, w.rank, -1, w.factor});
}

}  // namespace hs::fault
