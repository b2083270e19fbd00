// Scaling frontier: true point-to-point SUMMA and HSUMMA simulations from
// p = 2^14 up to p = 2^20 on one core, measuring simulator throughput
// (events/sec, messages/sec) and memory (peak RSS, materialized rank
// pages) at each point.
//
// Every point is the fig10 exascale shape (m = n = 2^22, b = 256, Hockney
// alpha = 500 ns / 100 GB/s) with k truncated to the minimum legal panel
// count — the grid side — so the message count grows with p rather than
// with the full figure's 16384 panels; `fig10_exascale --mode p2p` runs
// the same ScalePoint. Broadcasts are binomial trees routed message by
// message through the network (CollectiveMode::PointToPoint); nothing is
// closed-form.
//
// The largest p is simulated twice per algorithm and the runs' digests
// (hexfloat virtual time + event/message/byte counters) must match bit for
// bit — the process exits nonzero on any mismatch, so the JSON doubles as
// a determinism certificate. Results land in BENCH_scale.json (see --out);
// --smoke shrinks the sweep to p <= 1024 for CI and arms a 256 MB peak-RSS
// budget (--rss-budget-mb), so memory regressions fail the smoke ctest.
#include "bench_util.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

namespace {

struct PointRecord {
  hs::bench::ScalePoint point;
  hs::bench::ScaleRunResult run;
  int runs = 1;
  bool bit_identical = true;
  std::string digest;
};

void write_json(const std::string& path,
                const std::vector<PointRecord>& records) {
  std::ofstream out(path);
  HS_REQUIRE_MSG(out.good(), "cannot open JSON output path " << path);
  out << "{\n  \"bench\": \"scale_frontier\",\n"
      << "  \"shape\": \"fig10 exascale (m=n=2^22, b=256), k truncated to "
         "grid-side panels, binomial p2p broadcasts\",\n"
      << "  \"points\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& rec = records[i];
    const auto& run = rec.run;
    char buffer[768];
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"ranks\": %d, \"algorithm\": \"%s\", \"groups\": %d, "
        "\"steps\": %lld, \"virtual_time\": %.17e, \"events\": %llu, "
        "\"messages\": %llu, \"wire_bytes\": %llu, \"wall_seconds\": %.3f, "
        "\"events_per_sec\": %.0f, \"msgs_per_sec\": %.0f, "
        "\"peak_rss_kb\": %lld, \"rank_pages_materialized\": %zu, "
        "\"rank_page_count\": %zu, \"runs\": %d, \"bit_identical\": %s, "
        "\"digest\": \"%s\"}%s\n",
        rec.point.ranks, rec.point.groups == 1 ? "summa" : "hsumma",
        rec.point.groups, run.steps, run.virtual_time,
        static_cast<unsigned long long>(run.events),
        static_cast<unsigned long long>(run.messages),
        static_cast<unsigned long long>(run.wire_bytes), run.wall_seconds,
        run.wall_seconds > 0.0
            ? static_cast<double>(run.events) / run.wall_seconds
            : 0.0,
        run.wall_seconds > 0.0
            ? static_cast<double>(run.messages) / run.wall_seconds
            : 0.0,
        run.peak_rss_kb, run.rank_pages_materialized, run.rank_page_count,
        rec.runs, rec.bit_identical ? "true" : "false", rec.digest.c_str(),
        i + 1 < records.size() ? "," : "");
    out << buffer;
  }
  out << "  ]\n}\n";
  std::cout << "JSON written to " << path << "\n";
}

int bench_main(int argc, char** argv) {
  long long min_p = 1ll << 14, max_p = 1ll << 20;
  long long n = 1ll << 22, block = 256, steps = 0;
  long long rss_budget_mb = 0;
  bool smoke = false;
  std::string mode_name = "p2p";
  std::string bcast_name = "binomial";
  std::string out = "BENCH_scale.json";

  hs::CliParser cli(
      "Scaling frontier: true point-to-point SUMMA/HSUMMA simulations up "
      "to p = 2^20, reporting events/sec and peak RSS per point");
  cli.add_int("min-p", "smallest rank count (power of four)", &min_p);
  cli.add_int("max-p", "largest rank count (power of four; doubled-run "
              "determinism check happens here)", &max_p);
  cli.add_int("n", "matrix dimension (m = n)", &n);
  cli.add_int("block", "block size b = B", &block);
  cli.add_int("steps", "panel count per run (0 = minimum legal, the grid "
              "side)", &steps);
  cli.add_string("mode", "collective physics: p2p (default) or closed "
                 "(auto is not meaningful here)", &mode_name);
  cli.add_string("bcast", "broadcast algorithm", &bcast_name);
  cli.add_flag("smoke", "tiny sweep (p <= 1024) for CI smoke runs", &smoke);
  cli.add_int("rss-budget-mb", "fail (exit 1) if process peak RSS exceeds "
              "this many MB after the sweep (0 = no budget; --smoke sets "
              "256 unless overridden)", &rss_budget_mb);
  cli.add_string("out", "JSON output path", &out);
  if (!cli.parse(argc, argv)) return 1;

  const auto mode = hs::bench::parse_sim_mode(mode_name);
  HS_REQUIRE_MSG(mode.has_value(),
                 "scale_frontier needs an explicit physics: --mode p2p or "
                 "--mode closed");
  if (smoke) {
    min_p = 256;
    max_p = 1024;
    n = 1ll << 14;
    // The memory regression gate for CI: the whole smoke sweep fits well
    // under 256 MB on the lazy/pooled machine paths; a blow-up fails the
    // bench_smoke ctest.
    if (rss_budget_mb == 0) rss_budget_mb = 256;
  }
  HS_REQUIRE(min_p >= 4 && min_p <= max_p);

  hs::bench::print_banner(
      "Scaling frontier — true " + mode_name + " simulation",
      "p=" + std::to_string(min_p) + ".." + std::to_string(max_p) +
          " (x4 per step)  m=n=" + std::to_string(n) +
          "  b=" + std::to_string(block) + "  bcast=" + bcast_name +
          "  double-run determinism check at p=" + std::to_string(max_p));

  std::vector<PointRecord> records;
  bool all_identical = true;
  for (long long p = min_p; p <= max_p; p *= 4) {
    int sqrt_p = 1;
    while (static_cast<long long>(sqrt_p) * sqrt_p < p) sqrt_p *= 2;
    for (const int groups : {1, sqrt_p}) {
      PointRecord rec;
      rec.point.ranks = static_cast<int>(p);
      rec.point.groups = groups;
      rec.point.steps = steps;
      rec.point.n = n;
      rec.point.block = block;
      rec.point.mode = *mode;
      rec.point.algo = hs::net::bcast_algo_from_string(bcast_name);

      const char* name = groups == 1 ? "SUMMA" : "HSUMMA";
      std::printf("running %-6s p=%-8lld G=%-5d ... ", name, p, groups);
      std::fflush(stdout);
      rec.run = hs::bench::run_scale_point(rec.point);
      rec.digest = rec.run.digest();

      if (p == max_p) {
        // Determinism certificate: the same point again, bit for bit.
        const hs::bench::ScaleRunResult rerun =
            hs::bench::run_scale_point(rec.point);
        rec.runs = 2;
        rec.bit_identical = rerun.digest() == rec.digest;
        if (!rec.bit_identical) {
          all_identical = false;
          std::fprintf(stderr,
                       "DETERMINISM FAILURE %s p=%lld G=%d:\n  run 1: %s\n"
                       "  run 2: %s\n",
                       name, p, groups, rec.digest.c_str(),
                       rerun.digest().c_str());
        }
      }
      std::printf("vt=%.6e  %llu msgs  %.2fM events/s  rss %lld MB%s\n",
                  rec.run.virtual_time,
                  static_cast<unsigned long long>(rec.run.messages),
                  rec.run.wall_seconds > 0.0
                      ? static_cast<double>(rec.run.events) /
                            rec.run.wall_seconds / 1e6
                      : 0.0,
                  rec.run.peak_rss_kb / 1024,
                  rec.runs == 2
                      ? (rec.bit_identical ? "  [2 runs, bit-identical]"
                                           : "  [2 runs, MISMATCH]")
                      : "");
      records.push_back(std::move(rec));
    }
  }

  hs::Table table({"p", "algorithm", "G", "steps", "virtual time", "messages",
                   "events/sec", "msgs/sec", "wall s", "peak RSS MB",
                   "pages"});
  for (const auto& rec : records) {
    const auto& run = rec.run;
    table.add_row(
        {std::to_string(rec.point.ranks),
         rec.point.groups == 1 ? "SUMMA" : "HSUMMA",
         std::to_string(rec.point.groups), std::to_string(run.steps),
         hs::format_seconds(run.virtual_time), std::to_string(run.messages),
         hs::format_double(run.wall_seconds > 0.0
                               ? static_cast<double>(run.events) /
                                     run.wall_seconds
                               : 0.0,
                           0),
         hs::format_double(run.wall_seconds > 0.0
                               ? static_cast<double>(run.messages) /
                                     run.wall_seconds
                               : 0.0,
                           0),
         hs::format_double(run.wall_seconds, 1),
         hs::format_double(static_cast<double>(run.peak_rss_kb) / 1024.0, 1),
         std::to_string(run.rank_pages_materialized) + "/" +
             std::to_string(run.rank_page_count)});
  }
  table.print(std::cout);
  write_json(out, records);
  if (!all_identical) {
    std::fprintf(stderr, "error: double-run digests diverged (see above)\n");
    return 1;
  }
  if (rss_budget_mb > 0) {
    const long long peak_kb = hs::bench::peak_rss_kb();
    std::printf("peak RSS %lld MB (budget %lld MB)\n", peak_kb / 1024,
                rss_budget_mb);
    if (peak_kb > rss_budget_mb * 1024) {
      std::fprintf(stderr,
                   "error: peak RSS %lld kB exceeds the %lld MB budget\n",
                   peak_kb, rss_budget_mb);
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
