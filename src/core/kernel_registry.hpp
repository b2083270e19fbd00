// KernelRegistry: the single dispatch site for every distributed kernel.
//
// Each Algorithm variant — the SUMMA/HSUMMA matrix-multiplication family,
// the baselines, and the one-sided factorizations (LU, Cholesky) — registers
// one KernelDescriptor: canonical name and aliases, parameter-validation and
// grid/group-adaptation policy, a per-rank program factory, and a result
// verifier. core::run(), exec::run_sim_job(), the group tuner and the bench
// CLIs all dispatch through the registry instead of their own switches, so
// adding a kernel (e.g. QR) is one registration in kernel_registry.cpp:
// the runner, the parallel sweep executor, the result cache and the tuner
// pick it up with no further plumbing.
//
// Layering: the registry owns the *harness* knowledge (how to build inputs,
// check shapes, spawn per-rank programs, verify outputs); the kernels
// themselves (core/summa.hpp, core/lu.hpp, ...) stay plain coroutine
// factories with no registry dependency. One kernel may serve several
// entries: `summa`, `summa-cyclic` and `hsumma-multilevel` all run
// core::summa_rank, the first two always over empty broadcast chains, and
// `hsumma` and `hsumma-cyclic` both run core::hsumma_rank. The cyclic
// entries differ only in the operands' layout (block-cyclic instead of
// block-checkerboard).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/runner.hpp"

namespace hs::core {

/// Per-run kernel state created by KernelDescriptor::make_run: owns the
/// Real-mode input blocks for the duration of one simulation and knows how
/// to build each rank's program and how to verify the final result.
class KernelRun {
 public:
  virtual ~KernelRun() = default;

  /// Build the coroutine program for `rank`. Called once per rank, in rank
  /// order, before the engine runs.
  virtual desim::Task<void> program(mpc::Machine& machine,
                                    const RunOptions& options, int rank,
                                    trace::RankStats* stats) = 0;

  /// Max |result - reference| over the distributed output. Called only when
  /// options.verify (which requires Real payloads).
  virtual double verify(const RunOptions& options) = 0;
};

struct KernelDescriptor {
  Algorithm kernel = Algorithm::Summa;
  /// Canonical name: CLI spelling, engine task names, error messages.
  std::string_view name;
  std::vector<std::string_view> aliases;
  /// One-sided factorization: the problem is square (m == k == n) and the
  /// executor's group-count adaptation maps G onto hierarchical panel
  /// broadcast level factors instead of an HSUMMA group arrangement.
  bool factorization = false;
  /// The kernel lowers to a task-plan schedule (core/task_plan.hpp), so it
  /// runs any communication/computation look-ahead depth; without one it
  /// runs only the blocking D = 0. Enforced by require_lookahead.
  bool task_plan = false;
  /// RunOptions::layers > 1 replication (2.5D family).
  bool supports_layers = false;
  /// Group-count family policy for exec::run_sim_job: a requested group
  /// count G <= 1 dispatches `flat`, G > 1 dispatches `hier` with
  /// grid::group_arrangement. flat == hier == kernel means the kernel has
  /// no group dimension and ignores the request.
  Algorithm flat = Algorithm::Summa;
  Algorithm hier = Algorithm::Summa;
  /// Multi-level policy: the kernel a depth >= 2 GroupHierarchy recurses
  /// into (the chain's per-level arrangement becomes its row/col level
  /// factors). Unset means chains are a hard error for this kernel.
  std::optional<Algorithm> multilevel;
  /// Kernel-specific precondition checks (grid shape, divisibility, chain
  /// factors, ...), run by core::run before any rank spawns, so a bad shape
  /// costs no simulated event. The kernels leave their shape checks to it.
  /// It runs after the runner's own checks, which include m, k, n and b all
  /// positive, so it may divide by any of them. Null when the kernel has no
  /// precondition beyond the runner's own.
  void (*validate)(const RunOptions& options) = nullptr;
  /// Per-run state factory; materializes Real-mode inputs.
  std::unique_ptr<KernelRun> (*make_run)(const RunOptions& options) = nullptr;
};

/// All registered kernels, in Algorithm enumerator order.
const std::vector<KernelDescriptor>& all_kernels();

/// Descriptor for one kernel (total: every Algorithm value is registered).
const KernelDescriptor& kernel_descriptor(Algorithm kernel);

/// Lookup by canonical name or alias; nullptr when unknown.
const KernelDescriptor* find_kernel(std::string_view name);

/// "summa, hsumma, ..., lu, cholesky" — for CLI help and error messages.
std::string kernel_name_list();

/// Kernels that run a look-ahead depth D >= 1 (those with a task plan) —
/// for CLI help and the error require_lookahead throws.
std::string lookahead_kernel_name_list();

/// The look-ahead rule: throws PreconditionError unless lookahead == 0, or
/// lookahead > 0 and the kernel has a task plan. The message names the
/// kernel and lists the kernels that do run look-ahead.
void require_lookahead(const KernelDescriptor& kernel, int lookahead);

/// Kernels with a multi-level policy — for the hard error emitted when a
/// depth >= 2 hierarchy is requested on an unsupporting kernel.
std::string multilevel_kernel_name_list();

/// The registry's hierarchy adaptation policy, shared by exec::run_sim_job
/// and the benches: rewrites options.algorithm plus groups / level factors
/// from the requested chain. Depth 0 dispatches the kernel's `flat` family
/// member and depth 1 its `hier` member with grid::group_arrangement —
/// exactly the legacy scalar policy — while depth >= 2 recurses into the
/// kernel's `multilevel` policy with the chain's per-level arrangement.
/// Factorizations map the chain onto panel-broadcast level factors at any
/// depth. `options` must already carry the resolved grid.
void adapt_hierarchy(const GroupHierarchy& hierarchy, RunOptions& options);

/// Legacy scalar entry point: adapt_hierarchy(GroupHierarchy::from_scalar).
void adapt_groups(int groups, RunOptions& options);

}  // namespace hs::core
