// Hierarchy frontier: where does the paper's G = sqrt(p) optimum move when
// the group hierarchy grows past two levels?
//
// The paper tunes one scalar G (two broadcast phases per dimension); its
// future work asks for more levels. This bench runs the head-to-head the
// paper never did, across three sections (all land in BENCH_hierarchy.json,
// see --out):
//   1. the simulated frontier: flat SUMMA vs 2-level HSUMMA (G = sqrt(p))
//      vs L = 3, 4 chains on the calibrated Grid5000 and BlueGene/P
//      presets, at look-ahead D = 0 and 1, with the per-level comm split
//      (trace::RankStats::level_comm_time) reported per chain;
//   2. the exascale headline (p = 2^20, closed-form model path): the
//      Section IV cost model generalized to chains (model::multilevel_cost)
//      over every scalar G and every tuner candidate chain
//      (core::candidate_hierarchies — the same generator tune_groups
//      searches). The run exits nonzero unless some L >= 3 chain strictly
//      beats the best scalar G in modeled comm time AND the candidate
//      search picks such a chain, so the JSON doubles as an acceptance
//      certificate;
//   3. the simulated tuner: tune::tune_groups with max_levels = 3 sampling
//      scalar G and candidate chains jointly with D on a real simulated
//      machine, reporting every sample and the winning hierarchy.
//
// --smoke shrinks the simulated sections for CI (p <= 256) and keeps the
// exascale model headline assertion live (it is closed-form, so full scale
// costs nothing).
#include "bench_util.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/hier_bcast.hpp"
#include "core/kernel_registry.hpp"
#include "tune/group_tuner.hpp"

namespace {

using hs::core::GroupHierarchy;

// The L-phase-per-dimension chain for a side x side grid: per-dimension
// factors from balanced_levels(side, L) (the remainder supplies the last
// phase), squared into per-level group counts. L = 2 is the paper's
// G = sqrt(p) two-phase split.
GroupHierarchy phase_chain(int side, int phases) {
  if (phases <= 1) return {};
  if (phases == 2) return GroupHierarchy::from_scalar(side);
  std::vector<int> groups;
  for (int f : hs::core::balanced_levels(side, phases))
    groups.push_back(f * f);
  return GroupHierarchy(groups);
}

std::string join_seconds(const std::vector<double>& values) {
  if (values.empty()) return "-";
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += " / ";
    out += hs::format_seconds(values[i]);
  }
  return out;
}

std::string json_double_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%s%.17e", i ? ", " : "", values[i]);
    out += buffer;
  }
  return out + "]";
}

struct FrontierRow {
  std::string preset;
  int ranks = 0;
  int phases = 1;  // broadcast phases per dimension (L)
  GroupHierarchy hierarchy;
  int lookahead = 0;
  hs::core::RunResult run;
};

struct ModelRow {
  GroupHierarchy hierarchy;  // flat/from_scalar for the scalar sweep
  double comm = 0.0;
  std::vector<double> level_comm;
};

int bench_main(int argc, char** argv) {
  long long jobs = 0;
  std::string cache_dir;
  bool smoke = false;
  std::string out = "BENCH_hierarchy.json";

  hs::CliParser cli(
      "Hierarchy frontier: flat SUMMA vs 2-level HSUMMA vs L = 3, 4 group "
      "chains on the Grid5000 / BlueGene/P / exascale presets");
  hs::bench::add_jobs_option(cli, &jobs);
  hs::bench::add_cache_dir_option(cli, &cache_dir);
  cli.add_flag("smoke", "tiny simulated sections (p <= 256) for CI; the "
               "exascale model headline stays at full scale", &smoke);
  cli.add_string("out", "JSON output path", &out);
  if (!cli.parse(argc, argv)) return 1;

  hs::exec::ParallelExecutor executor(
      hs::bench::executor_options(jobs, cache_dir));

  // --- section 1: the simulated frontier ----------------------------------
  struct Preset {
    std::string name;
    int ranks;
    long long n;
    long long block;
  };
  const std::vector<Preset> presets = {
      {"grid5000-calibrated", smoke ? 64 : 256, smoke ? 1024 : 4096, 64},
      {"bluegene-p-calibrated", smoke ? 256 : 4096, smoke ? 2048 : 8192, 64},
  };
  hs::bench::print_banner(
      "Hierarchy frontier — recursive multi-level HSUMMA head-to-head",
      "presets=grid5000-calibrated,bluegene-p-calibrated (simulated) + "
      "exascale (closed-form model)  levels L=1..4  depths D=0,1");

  std::vector<FrontierRow> rows;
  {
    struct Pending {
      FrontierRow row;
      std::size_t index;
    };
    std::vector<Pending> pending;
    for (const Preset& preset : presets) {
      const auto platform = hs::net::Platform::by_name(preset.name);
      int side = 1;
      while (side * side < preset.ranks) side *= 2;
      for (int phases = 1; phases <= 4; ++phases) {
        const GroupHierarchy chain = phase_chain(side, phases);
        if (phases >= 3 && chain.depth() < 2) continue;  // grid too small
        for (int depth : {0, 1}) {
          hs::bench::Config config;
          config.platform = platform;
          config.ranks = preset.ranks;
          config.hierarchy = chain;
          config.problem = hs::core::ProblemSpec::square(preset.n,
                                                         preset.block);
          config.lookahead = depth;
          Pending p;
          p.row = {preset.name, preset.ranks, phases, chain, depth, {}};
          p.index = executor.submit(hs::bench::to_sim_job(config));
          pending.push_back(std::move(p));
        }
      }
    }
    for (Pending& p : pending) {
      p.row.run = executor.result(p.index);
      rows.push_back(std::move(p.row));
    }

    hs::Table table({"preset", "p", "L", "hierarchy", "D", "comm time",
                     "vs flat", "per-level comm"});
    for (const FrontierRow& row : rows) {
      double flat = 0.0;
      for (const FrontierRow& other : rows)
        if (other.preset == row.preset && other.phases == 1 &&
            other.lookahead == row.lookahead)
          flat = other.run.timing.max_comm_time;
      table.add_row(
          {row.preset, std::to_string(row.ranks), std::to_string(row.phases),
           row.hierarchy.to_string(), std::to_string(row.lookahead),
           hs::format_seconds(row.run.timing.max_comm_time),
           flat > 0.0
               ? hs::format_ratio(flat / row.run.timing.max_comm_time)
               : "-",
           join_seconds(row.run.timing.max_level_comm_time)});
    }
    table.print(std::cout);
    std::printf("\n");
  }

  // --- section 2: the exascale model headline -----------------------------
  // p = 2^20 with a latency-exposing block: many small per-step broadcasts
  // is exactly the regime where splitting the sqrt(p)-rank broadcast into
  // more than two phases pays (larger blocks are bandwidth-bound and the
  // extra phases only add volume).
  const double ex_p = 1048576.0;  // 2^20
  const double ex_n = 4194304.0;  // 2^22
  const double ex_b = 16.0;
  const hs::grid::GridShape ex_grid{1024, 1024};
  const auto ex_algo = hs::net::BcastAlgo::ScatterRingAllgather;
  const auto ex_model = hs::model::PlatformModel::from(
      hs::net::Platform::exascale());

  std::vector<ModelRow> scalar_rows;
  for (double g : hs::model::pow2_group_counts(ex_p)) {
    ModelRow row;
    row.hierarchy = GroupHierarchy::from_scalar(static_cast<int>(g));
    row.comm = hs::model::hsumma_cost(ex_n, ex_p, g, ex_b, ex_b, ex_algo,
                                      ex_model)
                   .comm();
    scalar_rows.push_back(std::move(row));
  }
  std::vector<ModelRow> chain_rows;
  for (const GroupHierarchy& chain :
       hs::core::candidate_hierarchies(ex_grid, 4)) {
    const auto arrangement = hs::core::arrange_hierarchy(chain, ex_grid);
    const auto cost = hs::model::multilevel_cost(
        ex_n, ex_p, arrangement.row_levels, arrangement.col_levels, ex_b,
        ex_algo, ex_model);
    chain_rows.push_back({chain, cost.cost.comm(), cost.level_comm});
  }

  const auto best_of = [](const std::vector<ModelRow>& rows_in) {
    return *std::min_element(rows_in.begin(), rows_in.end(),
                             [](const ModelRow& a, const ModelRow& b) {
                               return a.comm < b.comm;
                             });
  };
  const ModelRow best_scalar = best_of(scalar_rows);
  const ModelRow best_chain = best_of(chain_rows);
  // The model-path tuner: argmin over the joint candidate set the tuner
  // searches (every scalar G + every candidate chain).
  const ModelRow pick =
      best_chain.comm < best_scalar.comm ? best_chain : best_scalar;

  {
    hs::bench::print_banner(
        "Exascale headline — Section IV model generalized to chains",
        "p=2^20 (1024x1024)  n=2^22  b=B=16  bcast=scatter-ring-allgather  "
        "candidates: every scalar G + candidate_hierarchies(grid, 4)");
    hs::Table table({"candidate", "modeled comm", "vs best scalar",
                     "per-level comm"});
    std::vector<ModelRow> shown = {best_scalar};
    std::vector<ModelRow> sorted_chains = chain_rows;
    std::sort(sorted_chains.begin(), sorted_chains.end(),
              [](const ModelRow& a, const ModelRow& b) {
                return a.comm < b.comm;
              });
    for (std::size_t i = 0; i < sorted_chains.size() && i < 8; ++i)
      shown.push_back(sorted_chains[i]);
    for (const ModelRow& row : shown)
      table.add_row({row.hierarchy.is_scalar()
                         ? "G=" + std::to_string(row.hierarchy.is_flat()
                                                     ? 1
                                                     : row.hierarchy.scalar())
                         : row.hierarchy.to_string(),
                     hs::format_seconds(row.comm),
                     hs::format_ratio(best_scalar.comm / row.comm),
                     join_seconds(row.level_comm)});
    table.print(std::cout);
    std::printf(
        "\nbest scalar G: %s (%s); best chain: %s (%s); model-path tuner "
        "pick: %s\n\n",
        best_scalar.hierarchy.to_string().c_str(),
        hs::format_seconds(best_scalar.comm).c_str(),
        best_chain.hierarchy.to_string().c_str(),
        hs::format_seconds(best_chain.comm).c_str(),
        pick.hierarchy.to_string().c_str());
  }

  // --- section 3: the simulated tuner -------------------------------------
  hs::tune::TuneResult tuned;
  const Preset tuner_preset = {"bluegene-p-calibrated", smoke ? 64 : 1024,
                               smoke ? 1024 : 4096, 64};
  {
    const auto platform = hs::net::Platform::by_name(tuner_preset.name);
    hs::tune::TuneOptions options;
    options.kernel = hs::core::Algorithm::Summa;
    options.executor = &executor;
    options.grid = hs::grid::near_square_shape(tuner_preset.ranks);
    options.problem =
        hs::core::ProblemSpec::square(tuner_preset.n, tuner_preset.block);
    options.network = platform.make_network();
    options.machine_config = {.ranks = tuner_preset.ranks,
                              .collective_mode =
                                  hs::mpc::CollectiveMode::ClosedForm,
                              .bcast_algo =
                                  hs::net::BcastAlgo::ScatterRingAllgather,
                              .gamma_flop = platform.gamma_flop};
    options.bcast_algo = hs::net::BcastAlgo::ScatterRingAllgather;
    options.max_candidates = 6;
    options.max_levels = 3;
    options.lookaheads = {0, 1};
    tuned = hs::tune::tune_groups(options);

    hs::bench::print_banner(
        "Simulated tuner — joint (hierarchy, D) search",
        "preset=" + tuner_preset.name + "  p=" +
            std::to_string(tuner_preset.ranks) + "  n=" +
            std::to_string(tuner_preset.n) + "  b=" +
            std::to_string(tuner_preset.block) + "  max_levels=3  D=0,1");
    hs::Table table({"hierarchy", "D", "projected comm", "projected total"});
    for (const auto& sample : tuned.samples)
      table.add_row({sample.hierarchy.to_string(),
                     std::to_string(sample.lookahead),
                     hs::format_seconds(sample.comm_time),
                     hs::format_seconds(sample.total_time)});
    table.print(std::cout);
    std::printf("\ntuner pick: hierarchy=%s D=%d, projected comm %s\n\n",
                tuned.best_hierarchy.to_string().c_str(),
                tuned.best_lookahead,
                hs::format_seconds(tuned.best_comm_time).c_str());
  }

  // --- JSON ---------------------------------------------------------------
  {
    std::ofstream json(out);
    HS_REQUIRE_MSG(json.good(), "cannot open JSON output path " << out);
    json << "{\n  \"bench\": \"hierarchy_frontier\",\n  \"frontier\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const FrontierRow& row = rows[i];
      char buffer[512];
      std::snprintf(
          buffer, sizeof buffer,
          "    {\"preset\": \"%s\", \"ranks\": %d, \"levels\": %d, "
          "\"hierarchy\": \"%s\", \"lookahead\": %d, "
          "\"comm_seconds\": %.17e, \"total_seconds\": %.17e, "
          "\"level_comm_seconds\": ",
          row.preset.c_str(), row.ranks, row.phases,
          row.hierarchy.to_string().c_str(), row.lookahead,
          row.run.timing.max_comm_time, row.run.timing.total_time);
      json << buffer
           << json_double_array(row.run.timing.max_level_comm_time) << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"exascale_model\": {\n";
    const auto model_json = [&](const char* key, const ModelRow& row,
                                const char* tail) {
      char buffer[256];
      std::snprintf(buffer, sizeof buffer,
                    "    \"%s\": {\"hierarchy\": \"%s\", "
                    "\"comm_seconds\": %.17e, \"level_comm_seconds\": ",
                    key, row.hierarchy.to_string().c_str(), row.comm);
      json << buffer << json_double_array(row.level_comm) << "}" << tail
           << "\n";
    };
    model_json("best_scalar", best_scalar, ",");
    model_json("best_chain", best_chain, ",");
    model_json("tuner_pick", pick, "");
    json << "  },\n  \"simulated_tuner\": {\"preset\": \""
         << tuner_preset.name << "\", \"ranks\": " << tuner_preset.ranks
         << ", \"best_hierarchy\": \"" << tuned.best_hierarchy.to_string()
         << "\", \"best_lookahead\": " << tuned.best_lookahead << "}\n}\n";
    std::printf("JSON written to %s\n", out.c_str());
  }

  // Acceptance gates. #1: on the exascale closed-form path some L >= 3
  // chain (>= 2 applied factors per dimension) must strictly beat the best
  // scalar G in modeled comm time. #2: the candidate search must pick it.
  if (!(best_chain.hierarchy.depth() >= 2 &&
        best_chain.comm < best_scalar.comm)) {
    std::fprintf(stderr,
                 "error: no L >= 3 chain beat the best scalar G on the "
                 "exascale model path (best chain %s: %.6e vs scalar %s: "
                 "%.6e)\n",
                 best_chain.hierarchy.to_string().c_str(), best_chain.comm,
                 best_scalar.hierarchy.to_string().c_str(),
                 best_scalar.comm);
    return 1;
  }
  if (pick.hierarchy.depth() < 2) {
    std::fprintf(stderr,
                 "error: the model-path tuner did not pick a multi-level "
                 "chain\n");
    return 1;
  }
  std::printf(
      "headline: chain %s beats the best scalar G=%s by %s in modeled comm "
      "(%.1f%%), and the candidate search picks it\n",
      best_chain.hierarchy.to_string().c_str(),
      best_scalar.hierarchy.to_string().c_str(),
      hs::format_seconds(best_scalar.comm - best_chain.comm).c_str(),
      100.0 * (1.0 - best_chain.comm / best_scalar.comm));

  // The simulated tuner must have sampled multi-level chains (its pick is
  // physics-dependent and intentionally unasserted).
  bool sampled_chain = false;
  for (const auto& sample : tuned.samples)
    sampled_chain = sampled_chain || sample.hierarchy.depth() >= 2;
  if (!sampled_chain) {
    std::fprintf(stderr,
                 "error: the simulated tuner sampled no multi-level "
                 "chains\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hs::bench::run_main(argc, argv, bench_main);
}
