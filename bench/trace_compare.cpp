// trace_compare: regression verdict between two observability captures.
//
// Feeds on the artifacts the traced benches already emit — the streamed
// span-chunk files (<trace>.spans, --trace-buffer-mb) and the metrics JSON
// (--metrics-json) — and diffs the two runs along the axes that matter for
// performance work:
//
//   * the critical-path split (total, comp, per-level comm, flat, idle),
//     recomputed from each run's span chunks by the same analyzer the
//     benches print; and
//   * every histogram quantile (count, p50, p90, p99, max) present in both
//     metrics JSONs — transfer latency, exposed task waits, per-level
//     broadcast time, engine queue depth.
//
// A time-like quantity regresses when the candidate exceeds the baseline by
// more than --tolerance (relative) plus --floor (absolute slack, so zero or
// nanosecond-scale baselines don't flag on noise). The verdict table marks
// each regressed row; the exit status is 1 when anything regressed, 0
// otherwise — ready for CI gating:
//
//   trace_compare --baseline-spans a.spans --candidate-spans b.spans
//                 --baseline-metrics a.json --candidate-metrics b.json
#include "bench_util.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "trace/stream_sink.hpp"

namespace {

struct Comparison {
  hs::Table table{{"quantity", "baseline", "candidate", "delta", "verdict"}};
  double tolerance = 0.05;
  double floor = 1e-9;
  int regressions = 0;
  int improvements = 0;

  // Candidate must beat baseline * (1 + tolerance) + floor to regress:
  // relative slack for real times, absolute slack for near-zero baselines.
  void check(const std::string& name, double baseline, double candidate) {
    const double limit = baseline * (1.0 + tolerance) + floor;
    const bool regressed = candidate > limit;
    const double delta = candidate - baseline;
    if (regressed) ++regressions;
    if (candidate < baseline - floor) ++improvements;
    char delta_repr[64];
    std::snprintf(delta_repr, sizeof delta_repr, "%+.3g", delta);
    table.add_row({name, hs::format_double(baseline, 6),
                   hs::format_double(candidate, 6), delta_repr,
                   regressed ? "REGRESSED" : "ok"});
  }
};

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

hs::trace::CriticalPathSplit load_split(const std::string& path) {
  hs::trace::Recorder recorder;
  hs::trace::load_span_chunks(path, recorder);
  return hs::trace::analyze_critical_path(recorder);
}

void compare_splits(Comparison& cmp, const std::string& baseline_path,
                    const std::string& candidate_path) {
  const hs::trace::CriticalPathSplit base = load_split(baseline_path);
  const hs::trace::CriticalPathSplit cand = load_split(candidate_path);
  std::printf("critical path [baseline]: %s\n", base.summary().c_str());
  std::printf("critical path [candidate]: %s\n\n", cand.summary().c_str());
  cmp.check("path.total_s", base.total(), cand.total());
  cmp.check("path.comp_s", base.comp, cand.comp);
  cmp.check("path.flat_comm_s", base.flat_comm, cand.flat_comm);
  cmp.check("path.idle_s", base.idle, cand.idle);
  const int depth = std::max(base.depth(), cand.depth());
  for (int level = 0; level < depth; ++level) {
    const auto at = [level](const hs::trace::CriticalPathSplit& split) {
      return level < split.depth()
                 ? split.level_comm[static_cast<std::size_t>(level)]
                 : 0.0;
    };
    cmp.check("path.level" + std::to_string(level) + "_comm_s", at(base),
              at(cand));
  }
}

bool compare_metrics(Comparison& cmp, const std::string& baseline_path,
                     const std::string& candidate_path) {
  std::string base_text, cand_text, error;
  if (!read_file(baseline_path, &base_text)) {
    std::fprintf(stderr, "error: cannot read '%s'\n", baseline_path.c_str());
    return false;
  }
  if (!read_file(candidate_path, &cand_text)) {
    std::fprintf(stderr, "error: cannot read '%s'\n", candidate_path.c_str());
    return false;
  }
  const hs::JsonValue base = hs::parse_json(base_text, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s: %s\n", baseline_path.c_str(),
                 error.c_str());
    return false;
  }
  const hs::JsonValue cand = hs::parse_json(cand_text, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s: %s\n", candidate_path.c_str(),
                 error.c_str());
    return false;
  }
  if (!base.has("histograms") || !cand.has("histograms")) {
    std::fprintf(stderr,
                 "error: metrics JSON lacks a \"histograms\" section (need "
                 "files written by --metrics-json)\n");
    return false;
  }
  const hs::JsonObject& base_hists = base.at("histograms").object();
  const hs::JsonObject& cand_hists = cand.at("histograms").object();
  int shared = 0;
  for (const auto& [name, base_entry] : base_hists) {
    const auto cand_it = cand_hists.find(name);
    if (cand_it == cand_hists.end()) {
      std::printf("note: histogram '%s' only in baseline, skipped\n",
                  name.c_str());
      continue;
    }
    ++shared;
    for (const char* quantile : {"p50", "p90", "p99", "max"}) {
      if (!base_entry.has(quantile) || !cand_it->second.has(quantile))
        continue;  // empty histograms render count-only
      cmp.check(name + "." + quantile, base_entry.at(quantile).number(),
                cand_it->second.at(quantile).number());
    }
  }
  for (const auto& [name, entry] : cand_hists) {
    (void)entry;
    if (base_hists.find(name) == base_hists.end())
      std::printf("note: histogram '%s' only in candidate, skipped\n",
                  name.c_str());
  }
  if (shared == 0)
    std::printf("note: no histogram appears in both metrics files\n");
  return true;
}

int bench_main(int argc, char** argv) {
  std::string baseline_spans, candidate_spans;
  std::string baseline_metrics, candidate_metrics;
  double tolerance = 0.05;
  double floor = 1e-9;

  hs::CliParser cli(
      "Diff two traced runs (span chunks + metrics JSON) into a regression "
      "verdict; exits 1 when the candidate regressed");
  cli.add_string("baseline-spans",
                 "baseline span-chunk file (<trace>.spans, written when "
                 "--trace-buffer-mb is set)",
                 &baseline_spans);
  cli.add_string("candidate-spans", "candidate span-chunk file",
                 &candidate_spans);
  cli.add_string("baseline-metrics",
                 "baseline metrics JSON (written by --metrics-json)",
                 &baseline_metrics);
  cli.add_string("candidate-metrics", "candidate metrics JSON",
                 &candidate_metrics);
  cli.add_double("tolerance",
                 "relative slack before a larger candidate value counts as a "
                 "regression",
                 &tolerance);
  cli.add_double("floor",
                 "absolute slack added on top of the relative tolerance "
                 "(keeps zero baselines from flagging on noise)",
                 &floor);
  if (!cli.parse(argc, argv)) return 1;

  const bool have_spans = !baseline_spans.empty() || !candidate_spans.empty();
  const bool have_metrics =
      !baseline_metrics.empty() || !candidate_metrics.empty();
  if (!have_spans && !have_metrics) {
    std::fprintf(stderr,
                 "error: nothing to compare; pass --baseline-spans/"
                 "--candidate-spans and/or --baseline-metrics/"
                 "--candidate-metrics\n");
    return 1;
  }
  if (have_spans && (baseline_spans.empty() || candidate_spans.empty())) {
    std::fprintf(stderr,
                 "error: span comparison needs both --baseline-spans and "
                 "--candidate-spans\n");
    return 1;
  }
  if (have_metrics &&
      (baseline_metrics.empty() || candidate_metrics.empty())) {
    std::fprintf(stderr,
                 "error: metrics comparison needs both --baseline-metrics "
                 "and --candidate-metrics\n");
    return 1;
  }

  Comparison cmp;
  cmp.tolerance = tolerance;
  cmp.floor = floor;
  if (have_spans) compare_splits(cmp, baseline_spans, candidate_spans);
  if (have_metrics &&
      !compare_metrics(cmp, baseline_metrics, candidate_metrics))
    return 1;

  cmp.table.print(std::cout);
  std::printf("\nverdict: %s (%d regressed, %d improved, tolerance %.3g "
              "+ %.3g s)\n",
              cmp.regressions > 0 ? "REGRESSION" : "OK", cmp.regressions,
              cmp.improvements, tolerance, floor);
  return cmp.regressions > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
