// The one translation unit that knows every kernel: name tables, validation
// policies, per-rank program factories, Real-mode input materialization and
// verification. No `switch (algorithm)` exists outside this file.
#include "core/kernel_registry.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/cannon.hpp"
#include "core/cholesky.hpp"
#include "core/fox.hpp"
#include "core/hier_bcast.hpp"
#include "core/hsumma.hpp"
#include "core/lu.hpp"
#include "core/summa.hpp"
#include "core/summa25d.hpp"
#include "core/verify.hpp"
#include "grid/distribution.hpp"
#include "grid/hier_grid.hpp"
#include "la/gemm.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"

namespace hs::core {

namespace {

// --- GEMM family (C = A * B) ----------------------------------------------

/// Shared run state for all multiplication kernels: block or block-cyclic
/// input distributions, per-rank local blocks (Real mode), and the
/// reference-based verification of C.
class GemmRun final : public KernelRun {
 public:
  explicit GemmRun(const RunOptions& options)
      : cyclic_(options.algorithm == Algorithm::SummaCyclic ||
                options.algorithm == Algorithm::HsummaCyclic),
        dist_block_(options.algorithm == Algorithm::HsummaCyclic
                        ? options.problem.effective_outer_block()
                        : options.problem.block),
        dist_a_(options.problem.m, options.problem.k, options.grid.rows,
                options.grid.cols),
        dist_b_(options.problem.k, options.problem.n, options.grid.rows,
                options.grid.cols),
        dist_c_(options.problem.m, options.problem.n, options.grid.rows,
                options.grid.cols),
        cyc_a_(options.problem.m, options.problem.k, dist_block_, dist_block_,
               options.grid.rows, options.grid.cols),
        cyc_b_(options.problem.k, options.problem.n, dist_block_, dist_block_,
               options.grid.rows, options.grid.cols),
        cyc_c_(options.problem.m, options.problem.n, dist_block_, dist_block_,
               options.grid.rows, options.grid.cols),
        gen_a_(la::uniform_elements(options.seed)),
        gen_b_(la::uniform_elements(options.seed + 1)) {
    const int grid_ranks = options.grid.size();
    const int total_ranks = grid_ranks * options.layers;
    if (options.mode != PayloadMode::Real) return;
    // For Summa25D only layer 0 gets inputs; other layers' inputs arrive by
    // replication, which the zero fill lets tests observe.
    locals_.resize(static_cast<std::size_t>(total_ranks));
    for (int rank = 0; rank < total_ranks; ++rank) {
      const int layer = rank / grid_ranks;
      const int within = rank % grid_ranks;
      const int grid_row = within / options.grid.cols;
      const int grid_col = within % options.grid.cols;
      auto& local = locals_[static_cast<std::size_t>(rank)];
      if (cyclic_) {
        local.a = cyc_a_.materialize_local(grid_row, grid_col, gen_a_);
        local.b = cyc_b_.materialize_local(grid_row, grid_col, gen_b_);
        local.c = la::Matrix(cyc_c_.local_rows(grid_row),
                             cyc_c_.local_cols(grid_col));
        continue;
      }
      if (layer == 0) {
        local.a = dist_a_.materialize_local(grid_row, grid_col, gen_a_);
        local.b = dist_b_.materialize_local(grid_row, grid_col, gen_b_);
      } else {
        local.a = la::Matrix(dist_a_.local_rows(grid_row),
                             dist_a_.local_cols(grid_col));
        local.b = la::Matrix(dist_b_.local_rows(grid_row),
                             dist_b_.local_cols(grid_col));
      }
      local.c = la::Matrix(dist_c_.local_rows(grid_row),
                           dist_c_.local_cols(grid_col));
    }
  }

  desim::Task<void> program(mpc::Machine& machine, const RunOptions& options,
                            int rank, trace::RankStats* stats) override {
    mpc::Comm world = machine.world(rank);
    const ProblemSpec& prob = options.problem;
    LocalBlocks* local = local_of(rank);
    switch (options.algorithm) {
      case Algorithm::Summa:  // the empty chain, whatever levels are set
      case Algorithm::SummaCyclic:
        return summa_rank({world, options.grid, prob, local, stats,
                           options.bcast_algo, options.lookahead,
                           trace::RankTracer(options.recorder, rank),
                           {}, {}, cyclic_});
      case Algorithm::HsummaMultilevel:
        return summa_rank({world, options.grid, prob, local, stats,
                           options.bcast_algo, options.lookahead,
                           trace::RankTracer(options.recorder, rank),
                           options.row_levels, options.col_levels});
      case Algorithm::Hsumma:
      case Algorithm::HsummaCyclic:
        return hsumma_rank({world, options.grid, options.groups, prob, local,
                            stats, options.bcast_algo, options.lookahead,
                            trace::RankTracer(options.recorder, rank),
                            cyclic_});
      case Algorithm::Cannon:
        return cannon_rank({world, options.grid, prob, local, stats,
                            options.lookahead,
                            trace::RankTracer(options.recorder, rank)});
      case Algorithm::Fox:
        return fox_rank({world, options.grid, prob, local, stats,
                         options.bcast_algo});
      case Algorithm::Summa25D:
        return summa25d_rank({world, options.grid, options.layers, prob,
                              local, stats, options.bcast_algo});
      case Algorithm::Lu:
      case Algorithm::Cholesky:
        break;
    }
    HS_REQUIRE_MSG(false, "kernel '" << to_string(options.algorithm)
                                     << "' is not a multiplication kernel");
    return {};
  }

  double verify(const RunOptions& options) override {
    // For Summa25D, C is summed back to layer 0; verify that layer only.
    const int grid_ranks = options.grid.size();
    const int total_ranks = grid_ranks * options.layers;
    const int verified_ranks =
        options.algorithm == Algorithm::Summa25D ? grid_ranks : total_ranks;
    const ProblemSpec& prob = options.problem;
    double max_error = 0.0;
    for (int rank = 0; rank < verified_ranks; ++rank) {
      const int within = rank % grid_ranks;
      const int grid_row = within / options.grid.cols;
      const int grid_col = within % options.grid.cols;
      const la::ConstMatrixView c =
          locals_[static_cast<std::size_t>(rank)].c.view();
      const double error =
          cyclic_ ? verify_c_cyclic(c, cyc_c_, grid_row, grid_col, gen_a_,
                                    gen_b_, prob.k)
                  : verify_c_block(c, gen_a_, gen_b_, prob.k,
                                   dist_c_.row_offset(grid_row),
                                   dist_c_.col_offset(grid_col));
      max_error = la::max_propagating_nan(max_error, error);
    }
    return max_error;
  }

 private:
  LocalBlocks* local_of(int rank) {
    return locals_.empty() ? nullptr
                           : &locals_[static_cast<std::size_t>(rank)];
  }

  const bool cyclic_;
  const la::index_t dist_block_;
  const grid::BlockDistribution dist_a_;
  const grid::BlockDistribution dist_b_;
  const grid::BlockDistribution dist_c_;
  const grid::BlockCyclicDistribution cyc_a_;
  const grid::BlockCyclicDistribution cyc_b_;
  const grid::BlockCyclicDistribution cyc_c_;
  const la::ElementFn gen_a_;
  const la::ElementFn gen_b_;
  std::vector<LocalBlocks> locals_;
};

std::unique_ptr<KernelRun> make_gemm_run(const RunOptions& options) {
  return std::make_unique<GemmRun>(options);
}

// --- one-sided factorizations (LU, Cholesky) ------------------------------

/// Shared state for the factorization kernels: block-distributed square A,
/// factored in place; verification reassembles the factors on the host.
class FactorRunBase : public KernelRun {
 protected:
  FactorRunBase(const RunOptions& options, la::ElementFn gen_a)
      : gen_a_(std::move(gen_a)),
        dist_(options.problem.n, options.problem.n, options.grid.rows,
              options.grid.cols) {
    if (options.mode != PayloadMode::Real) return;
    locals_.resize(static_cast<std::size_t>(options.grid.size()));
    for (int rank = 0; rank < options.grid.size(); ++rank)
      locals_[static_cast<std::size_t>(rank)] = dist_.materialize_local(
          rank / options.grid.cols, rank % options.grid.cols, gen_a_);
  }

  la::Matrix* local_of(int rank) {
    return locals_.empty() ? nullptr
                           : &locals_[static_cast<std::size_t>(rank)];
  }

  /// The factored matrix reassembled on the host (Real mode).
  la::Matrix assemble(const RunOptions& options) const {
    const index_t n = options.problem.n;
    la::Matrix factored(n, n);
    for (int rank = 0; rank < options.grid.size(); ++rank) {
      const int grid_row = rank / options.grid.cols;
      const int grid_col = rank % options.grid.cols;
      factored
          .block(dist_.row_offset(grid_row), dist_.col_offset(grid_col),
                 dist_.local_rows(grid_row), dist_.local_cols(grid_col))
          .copy_from(locals_[static_cast<std::size_t>(rank)].view());
    }
    return factored;
  }

  const la::ElementFn gen_a_;
  const grid::BlockDistribution dist_;
  std::vector<la::Matrix> locals_;
};

class LuRun final : public FactorRunBase {
 public:
  explicit LuRun(const RunOptions& options)
      : FactorRunBase(options,
                      lu_input_elements(options.seed, options.problem.n)) {}

  desim::Task<void> program(mpc::Machine& machine, const RunOptions& options,
                            int rank, trace::RankStats* stats) override {
    LuArgs args;
    args.comm = machine.world(rank);
    args.shape = options.grid;
    args.n = options.problem.n;
    args.block = options.problem.block;
    args.row_levels = options.row_levels;
    args.col_levels = options.col_levels;
    args.local_a = local_of(rank);
    args.stats = stats;
    args.bcast_algo = options.bcast_algo;
    args.lookahead = options.lookahead;
    args.tracer = trace::RankTracer(options.recorder, rank);
    return lu_rank(std::move(args));
  }

  double verify(const RunOptions& options) override {
    // Reassemble the factored matrix, split into L and U, and compare L*U
    // against the original A (host-side, small n only).
    const index_t n = options.problem.n;
    const la::Matrix factored = assemble(options);
    la::Matrix l(n, n), u(n, n);
    for (index_t i = 0; i < n; ++i) {
      l(i, i) = 1.0;
      for (index_t j = 0; j < i; ++j) l(i, j) = factored(i, j);
      for (index_t j = i; j < n; ++j) u(i, j) = factored(i, j);
    }
    la::Matrix product(n, n);
    la::gemm(l.view(), u.view(), product.view());
    const la::Matrix original = la::materialize(n, n, gen_a_);
    return la::max_abs_diff(product.view(), original.view());
  }
};

class CholeskyRun final : public FactorRunBase {
 public:
  explicit CholeskyRun(const RunOptions& options)
      : FactorRunBase(
            options,
            cholesky_input_elements(options.seed, options.problem.n)) {}

  desim::Task<void> program(mpc::Machine& machine, const RunOptions& options,
                            int rank, trace::RankStats* stats) override {
    CholeskyArgs args;
    args.comm = machine.world(rank);
    args.shape = options.grid;
    args.n = options.problem.n;
    args.block = options.problem.block;
    args.row_levels = options.row_levels;
    args.col_levels = options.col_levels;
    args.local_a = local_of(rank);
    args.stats = stats;
    args.bcast_algo = options.bcast_algo;
    return cholesky_rank(std::move(args));
  }

  double verify(const RunOptions& options) override {
    // max |(L L^T)(i,j) - A(i,j)| with L the lower triangle of the
    // reassembled factor: the sum runs over l <= min(i,j), where both
    // L(i,l) and L(j,l) lie in that triangle. A is generated a row at a
    // time, outside the j loop: a generator call inside it halves the
    // loop's speed.
    const index_t n = options.problem.n;
    const la::Matrix factored = assemble(options);
    la::Matrix a_row(1, n);
    double max_error = 0.0;
    for (index_t i = 0; i < n; ++i) {
      la::fill_from(a_row.view(), gen_a_, i, 0);
      const double* li = factored.view().row(i);
      for (index_t j = 0; j < n; ++j) {
        const double* lj = factored.view().row(j);
        double sum = 0.0;
        for (index_t l = 0; l <= std::min(i, j); ++l) sum += li[l] * lj[l];
        max_error = la::max_propagating_nan(max_error,
                                            std::fabs(sum - a_row(0, j)));
      }
    }
    return max_error;
  }
};

std::unique_ptr<KernelRun> make_lu_run(const RunOptions& options) {
  return std::make_unique<LuRun>(options);
}

std::unique_ptr<KernelRun> make_cholesky_run(const RunOptions& options) {
  return std::make_unique<CholeskyRun>(options);
}

// --- validation policies ---------------------------------------------------

void validate_summa(const RunOptions& options) {
  check_summa_divisibility(options.grid, options.problem);
}

void validate_hsumma(const RunOptions& options) {
  check_hsumma_divisibility(options.grid, options.groups, options.problem);
}

void validate_multilevel(const RunOptions& options) {
  check_summa_divisibility(options.grid, options.problem);
  check_level_factors(options.grid.cols, options.row_levels);
  check_level_factors(options.grid.rows, options.col_levels);
  if (options.row_levels.empty() && options.col_levels.empty()) return;
  // Every chain level moves panels of b, so a B != b would be reported
  // under a cache key naming B while the run used b.
  const ProblemSpec& prob = options.problem;
  HS_REQUIRE_MSG(prob.outer_block == 0 || prob.outer_block == prob.block,
                 "kernel 'hsumma-multilevel' broadcasts panels of b="
                     << prob.block << " at every chain level; outer block B="
                     << prob.outer_block
                     << " would be ignored (use B = 0 or B = b)");
}

void require_factorization_options(const RunOptions& options) {
  const ProblemSpec& prob = options.problem;
  const KernelDescriptor& kernel = kernel_descriptor(options.algorithm);
  HS_REQUIRE_MSG(prob.m == prob.n && prob.k == prob.n,
                 "kernel '" << kernel.name << "' factors a square matrix; "
                 "use ProblemSpec::factorization(n, block) (got m=" << prob.m
                 << " k=" << prob.k << " n=" << prob.n << ")");
  HS_REQUIRE_MSG(options.layers == 1,
                 "kernel '" << kernel.name << "' does not replicate layers");
  HS_REQUIRE_MSG(options.groups.size() == 1,
                 "factorization kernels take hierarchy level factors "
                 "(row_levels/col_levels), not an HSUMMA group arrangement");
}

/// Block-cyclic layouts: only k must be a multiple of the distribution
/// block (b for summa-cyclic, B for hsumma-cyclic).
void check_cyclic_k(const ProblemSpec& prob, index_t dist_block) {
  HS_REQUIRE_MSG(prob.k % dist_block == 0,
                 "k=" << prob.k << " must be a multiple of the distribution "
                      << "block " << dist_block);
}

void validate_summa_cyclic(const RunOptions& options) {
  check_cyclic_k(options.problem, options.problem.block);
}

void validate_hsumma_cyclic(const RunOptions& options) {
  const ProblemSpec& prob = options.problem;
  const index_t outer = prob.effective_outer_block();
  HS_REQUIRE_MSG(outer % prob.block == 0,
                 "outer block B=" << outer
                                  << " must be a multiple of inner block b="
                                  << prob.block);
  check_cyclic_k(prob, outer);
  check_group_arrangement(options.grid, options.groups);
}

void validate_cannon(const RunOptions& options) {
  const ProblemSpec& prob = options.problem;
  HS_REQUIRE_MSG(options.grid.rows == options.grid.cols,
                 "Cannon requires a square process grid, got "
                     << options.grid.rows << "x" << options.grid.cols);
  HS_REQUIRE_MSG(prob.m == prob.k && prob.k == prob.n,
                 "Cannon requires square matrices");
  HS_REQUIRE_MSG(prob.n % options.grid.rows == 0,
                 "n must be divisible by the grid dimension");
}

void validate_fox(const RunOptions& options) {
  const ProblemSpec& prob = options.problem;
  HS_REQUIRE_MSG(options.grid.rows == options.grid.cols,
                 "Fox requires a square process grid");
  HS_REQUIRE_MSG(prob.m == prob.k && prob.k == prob.n,
                 "Fox requires square matrices");
  HS_REQUIRE_MSG(prob.n % options.grid.rows == 0,
                 "n must be divisible by the grid dimension");
}

void validate_summa25d(const RunOptions& options) {
  // Each layer runs a contiguous share of the pivot steps.
  const index_t steps = options.problem.k / options.problem.block;
  HS_REQUIRE_MSG(steps % options.layers == 0,
                 "pivot step count " << steps
                                     << " must be divisible by layers "
                                     << options.layers);
}

void validate_lu(const RunOptions& options) {
  require_factorization_options(options);
  check_lu_preconditions(options.grid, options.problem.n,
                         options.problem.block);
}

void validate_cholesky(const RunOptions& options) {
  require_factorization_options(options);
  check_cholesky_preconditions(options.grid, options.problem.n,
                               options.problem.block);
}

// --- the registry ----------------------------------------------------------

std::vector<KernelDescriptor> build_registry() {
  std::vector<KernelDescriptor> kernels;
  // Registration order IS the enum order; kernel_descriptor() indexes on it.
  auto add = [&kernels](Algorithm alg, std::string_view name, Algorithm flat,
                        Algorithm hier,
                        std::unique_ptr<KernelRun> (*make_run)(
                            const RunOptions&)) -> KernelDescriptor& {
    HS_REQUIRE(static_cast<std::size_t>(alg) == kernels.size());
    KernelDescriptor& kernel = kernels.emplace_back();
    kernel.kernel = alg;
    kernel.name = name;
    kernel.flat = flat;
    kernel.hier = hier;
    kernel.make_run = make_run;
    return kernel;
  };
  {
    KernelDescriptor& summa = add(Algorithm::Summa, "summa", Algorithm::Summa,
                                  Algorithm::Hsumma, make_gemm_run);
    summa.task_plan = true;
    summa.multilevel = Algorithm::HsummaMultilevel;
    summa.validate = validate_summa;
  }
  {
    KernelDescriptor& hsumma = add(Algorithm::Hsumma, "hsumma",
                                   Algorithm::Summa, Algorithm::Hsumma,
                                   make_gemm_run);
    hsumma.task_plan = true;
    hsumma.multilevel = Algorithm::HsummaMultilevel;
    hsumma.validate = validate_hsumma;
  }
  {
    KernelDescriptor& multilevel =
        add(Algorithm::HsummaMultilevel, "hsumma-multilevel",
            Algorithm::HsummaMultilevel, Algorithm::HsummaMultilevel,
            make_gemm_run);
    multilevel.task_plan = true;
    multilevel.multilevel = Algorithm::HsummaMultilevel;
    multilevel.validate = validate_multilevel;
  }
  {
    KernelDescriptor& cyclic =
        add(Algorithm::SummaCyclic, "summa-cyclic", Algorithm::SummaCyclic,
            Algorithm::HsummaCyclic, make_gemm_run);
    cyclic.task_plan = true;
    cyclic.validate = validate_summa_cyclic;
  }
  {
    KernelDescriptor& cyclic =
        add(Algorithm::HsummaCyclic, "hsumma-cyclic", Algorithm::SummaCyclic,
            Algorithm::HsummaCyclic, make_gemm_run);
    cyclic.task_plan = true;
    cyclic.validate = validate_hsumma_cyclic;
  }
  {
    KernelDescriptor& cannon = add(Algorithm::Cannon, "cannon",
                                   Algorithm::Cannon, Algorithm::Cannon,
                                   make_gemm_run);
    cannon.task_plan = true;
    cannon.validate = validate_cannon;
  }
  add(Algorithm::Fox, "fox", Algorithm::Fox, Algorithm::Fox, make_gemm_run)
      .validate = validate_fox;
  {
    KernelDescriptor& summa25d =
        add(Algorithm::Summa25D, "summa-2.5d", Algorithm::Summa25D,
            Algorithm::Summa25D, make_gemm_run);
    summa25d.aliases = {"summa25d"};
    summa25d.supports_layers = true;
    summa25d.validate = validate_summa25d;
  }
  {
    KernelDescriptor& lu = add(Algorithm::Lu, "lu", Algorithm::Lu,
                               Algorithm::Lu, make_lu_run);
    lu.factorization = true;
    lu.task_plan = true;
    lu.validate = validate_lu;
  }
  {
    KernelDescriptor& cholesky =
        add(Algorithm::Cholesky, "cholesky", Algorithm::Cholesky,
            Algorithm::Cholesky, make_cholesky_run);
    cholesky.aliases = {"llt"};
    cholesky.factorization = true;
    cholesky.validate = validate_cholesky;
  }
  return kernels;
}

}  // namespace

const std::vector<KernelDescriptor>& all_kernels() {
  static const std::vector<KernelDescriptor> kernels = build_registry();
  return kernels;
}

const KernelDescriptor& kernel_descriptor(Algorithm kernel) {
  const auto& kernels = all_kernels();
  const auto index = static_cast<std::size_t>(kernel);
  HS_REQUIRE_MSG(index < kernels.size(),
                 "unregistered kernel enum value " << static_cast<int>(kernel));
  return kernels[index];
}

const KernelDescriptor* find_kernel(std::string_view name) {
  for (const KernelDescriptor& kernel : all_kernels()) {
    if (kernel.name == name) return &kernel;
    for (std::string_view alias : kernel.aliases)
      if (alias == name) return &kernel;
  }
  return nullptr;
}

std::string kernel_name_list() {
  // Names plus aliases ("summa-2.5d|summa25d"): this string is the CLI help
  // and the unknown-kernel error text, so every accepted spelling must
  // appear (pinned by tests/core/test_registry_help.cpp).
  std::string list;
  for (const KernelDescriptor& kernel : all_kernels()) {
    if (!list.empty()) list += ", ";
    list += kernel.name;
    for (std::string_view alias : kernel.aliases) {
      list += '|';
      list += alias;
    }
  }
  return list;
}

std::string lookahead_kernel_name_list() {
  std::string list;
  for (const KernelDescriptor& kernel : all_kernels()) {
    if (!kernel.task_plan) continue;
    if (!list.empty()) list += ", ";
    list += kernel.name;
  }
  return list;
}

void require_lookahead(const KernelDescriptor& kernel, int lookahead) {
  HS_REQUIRE_MSG(lookahead >= 0, "lookahead must be >= 0");
  HS_REQUIRE_MSG(lookahead == 0 || kernel.task_plan,
                 "kernel '" << kernel.name << "' cannot run look-ahead depth "
                 << lookahead << "; kernels that can: "
                 << lookahead_kernel_name_list());
}

std::string multilevel_kernel_name_list() {
  std::string list;
  for (const KernelDescriptor& kernel : all_kernels()) {
    if (!kernel.multilevel && !kernel.factorization) continue;
    if (!list.empty()) list += ", ";
    list += kernel.name;
  }
  return list;
}

std::string_view to_string(Algorithm algorithm) {
  return kernel_descriptor(algorithm).name;
}

Algorithm algorithm_from_string(std::string_view name) {
  const KernelDescriptor* kernel = find_kernel(name);
  HS_REQUIRE_MSG(kernel != nullptr, "unknown kernel '" << name << "' (valid: "
                                    << kernel_name_list() << ")");
  return kernel->kernel;
}

void adapt_hierarchy(const GroupHierarchy& hierarchy, RunOptions& options) {
  const KernelDescriptor& kernel = kernel_descriptor(options.algorithm);
  options.hierarchy = hierarchy;
  if (kernel.factorization) {
    // The factorization analogue of HSUMMA's G groups: every chain level's
    // I_l x J_l arrangement maps onto hierarchical panel broadcasts,
    // row_levels = {J_1, ...} and col_levels = {I_1, ...} (exactly the
    // HSUMMA <-> multilevel equivalence, at any depth).
    if (hierarchy.is_flat()) return;
    HS_REQUIRE_MSG(options.row_levels.empty() && options.col_levels.empty(),
                   "give kernel '" << kernel.name << "' either a group "
                   "hierarchy or explicit level factors, not both");
    const HierarchyArrangement arrangement =
        arrange_hierarchy(hierarchy, options.grid);
    for (const grid::GridShape& level : arrangement.levels) {
      if (level.cols > 1) options.row_levels.push_back(level.cols);
      if (level.rows > 1) options.col_levels.push_back(level.rows);
    }
    return;
  }
  // A real chain (depth >= 2), or any chain handed to the multilevel kernel
  // itself, recurses into the kernel's multilevel policy: the chain's
  // per-level arrangement becomes hier_bcast level factors. Entries of 1
  // are kept so factor indices stay aligned with chain levels (hier_bcast
  // skips them but preserves their level slot).
  if (hierarchy.depth() >= 2 ||
      (hierarchy.depth() == 1 &&
       kernel.kernel == Algorithm::HsummaMultilevel)) {
    HS_REQUIRE_MSG(kernel.multilevel.has_value(),
                   "kernel '" << kernel.name
                   << "' has no multi-level hierarchy policy; chains with "
                      "2+ levels are supported by: "
                   << multilevel_kernel_name_list());
    HS_REQUIRE_MSG(options.row_levels.empty() && options.col_levels.empty(),
                   "give kernel '" << kernel.name << "' either a group "
                   "hierarchy or explicit level factors, not both");
    const HierarchyArrangement arrangement =
        arrange_hierarchy(hierarchy, options.grid);
    options.algorithm = *kernel.multilevel;
    options.row_levels = arrangement.row_levels;
    options.col_levels = arrangement.col_levels;
    return;
  }
  if (kernel.flat == kernel.hier) return;  // no group dimension
  if (hierarchy.is_flat()) {
    options.algorithm = kernel.flat;
    return;
  }
  const int groups = hierarchy.scalar();
  options.algorithm = kernel.hier;
  options.groups = grid::group_arrangement(options.grid, groups);
  HS_REQUIRE_MSG(options.groups.size() == groups,
                 "no valid arrangement of " << groups
                                            << " groups on this grid");
}

void adapt_groups(int groups, RunOptions& options) {
  adapt_hierarchy(GroupHierarchy::from_scalar(groups), options);
}

}  // namespace hs::core
