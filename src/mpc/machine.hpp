// The simulated distributed-memory machine.
//
// A Machine binds a rank count, a network cost model, and per-rank port
// state to a discrete-event engine, and provides MPI-like point-to-point
// semantics:
//
//   * post_send/post_recv are plain function calls that either match an
//     already posted counterpart or park a pending operation — no coroutine
//     frame is allocated for a transfer, which keeps 16384-rank runs cheap.
//   * A transfer's wire time starts when (a) both sides have posted, (b)
//     the sender's send port is free, and (c) the receiver's receive port
//     is free — the single-port full-duplex assumption under which the
//     paper's broadcast cost formulas hold — and lasts
//     NetworkModel::transfer_time(src, dst, bytes).
//   * TransferOp (post when awaited, resume at completion: rendezvous
//     send/recv) and PostedOp (post now, await later) are the two
//     awaitables over that machinery; both keep their gate in the caller's
//     coroutine frame.
//
// Collectives (see collectives.hpp) run either as real p2p message trees or,
// in CollectiveMode::ClosedForm, as one synchronization site per collective
// charged with the closed-form Hockney cost from net/bcast_cost.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "desim/engine.hpp"
#include "mpc/buffer.hpp"
#include "net/bcast_cost.hpp"
#include "net/model.hpp"
#include "trace/recorder.hpp"

namespace hs::trace {
class MetricsRegistry;
}  // namespace hs::trace

namespace hs::fault {
class FaultPlan;
}  // namespace hs::fault

namespace hs::mpc {

class Comm;

enum class CollectiveMode {
  PointToPoint,  // collectives route every tree message through the network
  ClosedForm,    // collectives charge closed-form Hockney costs (bcast/reduce)
};

struct MachineConfig {
  int ranks = 1;
  CollectiveMode collective_mode = CollectiveMode::PointToPoint;
  /// Default broadcast algorithm for collectives that don't override it.
  net::BcastAlgo bcast_algo = net::BcastAlgo::MpichAuto;
  /// Seconds per floating-point operation, used by Machine::compute.
  double gamma_flop = 0.0;
  /// Materialize every rank's port/mailbox state up front instead of
  /// page-lazily on first touch. Simulation results are bit-identical
  /// either way (locked by tests/mpc/test_lazy_ranks.cpp); the knob exists
  /// so that test can compare the two paths and so memory studies can
  /// measure the lazy savings. Default lazy: a phase that touches only a
  /// rank subset (hierarchical broadcast frontiers) materializes only
  /// those ranks' pages.
  bool eager_rank_state = false;
  /// Static per-rank compute speed multipliers (heterogeneous platforms):
  /// empty means homogeneous, otherwise exactly `ranks` entries, each > 0,
  /// and Machine::compute on rank r charges flops * gamma_flop *
  /// rank_gamma[r]. A multiplier > 1 is a permanently slow rank — the
  /// static analogue of the fault subsystem's RankSlowdown with an
  /// infinite window (pinned equivalent by tests/mpc/test_hetero.cpp).
  /// Communication is unaffected.
  std::vector<double> rank_gamma = {};
};

class Machine {
 public:
  Machine(desim::Engine& engine, std::shared_ptr<const net::NetworkModel> net,
          MachineConfig config);

  desim::Engine& engine() noexcept { return *engine_; }
  int ranks() const noexcept { return config_.ranks; }
  const MachineConfig& config() const noexcept { return config_; }
  const net::NetworkModel& network() const noexcept { return *net_; }

  /// Communicator over all ranks; `self` is the calling rank's world rank.
  Comm world(int self);

  /// Awaitable compute charge: `flops * gamma_flop` virtual seconds.
  auto compute(double flops) {
    HS_REQUIRE(flops >= 0.0);
    return engine_->sleep(flops * config_.gamma_flop);
  }

  /// Awaitable compute charge attributed to `rank`: identical to
  /// compute(flops) unless a fault plan with an active slowdown window on
  /// `rank` is attached, in which case the charge stretches through the
  /// window (fault::FaultPlan::stretch).
  auto compute(int rank, double flops) {
    HS_REQUIRE(flops >= 0.0);
    return engine_->sleep(compute_duration(rank, flops * config_.gamma_flop));
  }

  /// The virtual seconds compute(rank, flops) would charge for a faultless
  /// duration of `base` seconds starting now.
  double compute_duration(int rank, double base) const;

  /// Hockney parameters for closed-form collectives. Requires the network
  /// model to be a HockneyModel (enforced at construction when
  /// CollectiveMode::ClosedForm is selected).
  double alpha() const;
  double beta() const;

  // --- internals shared with Comm / collectives -------------------------

  /// Context management: returns the context id for an ordered world-rank
  /// membership list, creating it on first use. All members calling with
  /// the same list observe the same id (simulation-level shortcut for
  /// MPI_Comm_split; charged zero virtual time, as communicator setup is
  /// excluded from the paper's timings).
  int context_for(const std::vector<int>& world_members);
  const std::vector<int>& context_members(int ctx) const;

  /// Per-communicator collective sequence number: every collective call
  /// consumes exactly one per member, in program order. Point-to-point
  /// collective implementations embed it in their reserved tags so that
  /// *concurrent* collectives on one communicator (communication/
  /// computation overlap) can never cross-match; the closed-form mode uses
  /// it to key synchronization sites.
  std::uint64_t next_collective_seq(int ctx, int member_index);

  /// Closed-form collective sites (ClosedForm mode). Each member calls
  /// join_site once per collective, in program order, and awaits `gate`.
  /// `member_index` is the caller's rank in the communicator; a broadcast
  /// copies the root's `send` view into every other member's `recv` view,
  /// a reduce sums every member's `send` view into the root's `recv` view.
  /// The views must agree as a point-to-point transfer's would: equal
  /// element counts and payload kinds, else PreconditionError with the
  /// transfer's message. `algo` prices a broadcast; reduce ignores it.
  void join_site(trace::CollectiveOp op, int ctx, std::uint64_t seq,
                 desim::Gate* gate, int member_index, int root_index,
                 ConstBuf send, Buf recv,
                 net::BcastAlgo algo = net::BcastAlgo::Binomial);

  /// Statistics: total messages matched and bytes charged (wire bytes).
  std::uint64_t messages_transferred() const noexcept { return messages_; }
  std::uint64_t bytes_transferred() const noexcept { return bytes_; }

  /// Always-on distribution of committed transfer latencies (start to
  /// completion, including port-serialization queueing and straggler
  /// stretching). O(1) memory; harvested as mpc.transfer.latency_s.
  const hs::Histogram& transfer_latency_histogram() const noexcept {
    return transfer_latency_s_;
  }

  /// Attach (or detach with nullptr) a structured trace recorder (see
  /// trace/recorder.hpp); it must outlive the simulation. The machine
  /// feeds it one WireSpan per committed transfer and, in ClosedForm mode,
  /// one SiteSpan per collective site (there are no per-message transfers
  /// to record in that mode); collective call spans and compute spans are
  /// recorded by the collectives layer and the kernels. Recording never
  /// perturbs virtual time.
  void set_recorder(trace::Recorder* recorder) noexcept {
    recorder_ = recorder;
  }
  trace::Recorder* recorder() const noexcept { return recorder_; }

  /// Attach (or detach with nullptr) a straggler plan (see
  /// fault/fault_plan.hpp); it must outlive the simulation. When attached,
  /// committed transfers and ranked compute charges stretch through the
  /// plan's slowdown windows (FaultPlan::stretch). Detached — or attached
  /// with an empty plan — the machine's arithmetic is bit-identical to the
  /// faultless code path.
  void set_faults(const fault::FaultPlan* faults) noexcept { faults_ = faults; }
  const fault::FaultPlan* faults() const noexcept { return faults_; }

  /// Count one collective call on one rank (always-on statistics, mode-
  /// independent: every member's call is counted once, in both
  /// PointToPoint and ClosedForm mode). `algo_index` is the resolved
  /// net::BcastAlgo for broadcasts, -1 otherwise; `bytes` the per-member
  /// payload.
  void note_collective(trace::CollectiveOp op, int algo_index,
                       std::uint64_t bytes) noexcept;

  /// Dump always-on counters into `metrics` under the mpc.* namespace:
  /// per-collective call/byte counts, per-BcastAlgo usage, message/wire
  /// totals, and port busy-time gauges.
  void collect_metrics(trace::MetricsRegistry& metrics) const;

  /// Post one side of a point-to-point transfer (the primitive under the
  /// TransferOp and PostedOp awaitables below). Ranks are world ranks;
  /// `ctx` is the communicator context (cross-context messages never
  /// match). Match-and-commit (firing both gates and returning true) or
  /// park the op.
  bool post_send(int src, int dst, int ctx, int tag, ConstBuf buf,
                 desim::Gate* gate);
  bool post_recv(int src, int dst, int ctx, int tag, Buf buf,
                 desim::Gate* gate);

  /// Lazy rank-state instrumentation: pages of kRankPageSize ranks'
  /// port/mailbox state, materialized on first touch (or all up front with
  /// MachineConfig::eager_rank_state). Exposed so tests and the scale
  /// bench can assert memory scales with *touched* ranks.
  static constexpr int kRankPageSize = 4096;
  std::size_t rank_pages_materialized() const noexcept {
    return pages_materialized_;
  }
  std::size_t rank_page_count() const noexcept { return pages_.size(); }

 private:
  struct PortState {
    double send_free = 0.0;
    double recv_free = 0.0;
    // Cumulative wire time this port spent sending/receiving (statistics
    // only; never read by the simulation itself).
    double send_busy = 0.0;
    double recv_busy = 0.0;
  };

  // One pending send or recv, parked at the *receiver's* RankState.
  // Buf/ConstBuf are flattened to (data, count) so both kinds share a
  // slot; sends and recvs live in separate lists, and recv buffers
  // round-trip through a const_cast on match. `peer` is the sender's
  // world rank for both kinds (the receiver is the list's owner).
  struct PendingOp {
    double post_time;
    const double* data;
    std::size_t count;
    desim::Gate* gate;
    int peer;
    int ctx;
    int tag;
  };

  struct Context {
    std::vector<int> members;            // world ranks in comm-rank order
    std::vector<std::uint64_t> op_seq;   // per-member collective sequence
  };

  struct Site {
    trace::CollectiveOp op = trace::CollectiveOp::Bcast;
    int expected = 0;
    int arrived = 0;
    double max_entry = 0.0;
    int root_index = -1;
    net::BcastAlgo algo = net::BcastAlgo::Binomial;
    ConstBuf root_buf;  // the root's send view
    struct Participant {
      desim::Gate* gate = nullptr;
      int member_index = -1;
      ConstBuf send;
      Buf recv;
    };
    std::vector<Participant, desim::PoolAllocator<Participant>> participants;
  };

  /// Compute and commit one transfer: returns completion time, updates
  /// ports, copies data when both sides are real.
  double commit_transfer(int src, int dst, int ctx, int tag,
                         double send_post, double recv_post,
                         ConstBuf send_buf, Buf recv_buf);

  void complete_site(int ctx, std::uint64_t key, Site& site);
  void deliver_site_payloads(int ctx, Site& site);

  // Pending ops live in two small FIFO lists on the *receiver's* rank
  // state: sends addressed to that rank and recvs posted by it. Matching
  // scans the opposite list from its head for the first (peer, ctx, tag)
  // hit — exactly the per-(src,dst,ctx,tag) channel FIFO order, since
  // earlier-posted ops with the same key come first in post order. The
  // lists are a handful of entries long in practice (a rank's in-flight
  // ops), so an indexed linear scan beats the hash probe the old
  // channel map paid per post, and the storage is dense per rank instead
  // of a node per live (src,dst,ctx,tag) key. A list never holds both a
  // send and a recv with the same key (the second would have matched), so
  // find/park semantics are identical to the channel map's.
  struct OpList {
    std::uint32_t head = 0;
    std::vector<PendingOp, desim::PoolAllocator<PendingOp>> ops;
    PendingOp* find(int peer, int ctx, int tag) noexcept {
      for (std::size_t i = head; i < ops.size(); ++i) {
        PendingOp& op = ops[i];
        if (op.peer == peer && op.ctx == ctx && op.tag == tag) return &op;
      }
      return nullptr;
    }
    void remove(PendingOp* op) {
      const auto i = static_cast<std::size_t>(op - ops.data());
      if (i == head) {
        // Head removal (the common case: one key in flight per pair) is
        // an index bump; the vector resets in place when drained, keeping
        // its capacity for the rank's steady-state traffic.
        ++head;
        if (head == ops.size()) {
          head = 0;
          ops.clear();
        }
        return;
      }
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
    }
    void push(const PendingOp& op) { ops.push_back(op); }
  };

  // Per-rank simulation state, materialized page-lazily: an untouched rank
  // (phantom rank idle through a phase) costs one null page pointer share,
  // so footprint scales with ranks that actually communicate. Pages, not
  // single ranks, amortize the indirection and allocation.
  struct RankState {
    PortState port;
    OpList pending_sends;  // sends addressed to this rank, post order
    OpList pending_recvs;  // recvs posted by this rank, post order
  };
  struct RankPage {
    std::array<RankState, kRankPageSize> ranks;
  };
  RankState& rank_state(int rank) {
    auto& page = pages_[static_cast<std::size_t>(rank) / kRankPageSize];
    if (page == nullptr) materialize_page(page);
    return page->ranks[static_cast<std::size_t>(rank) % kRankPageSize];
  }
  void materialize_page(std::unique_ptr<RankPage>& page);

  desim::Engine* engine_;
  std::shared_ptr<const net::NetworkModel> net_;
  MachineConfig config_;
  const net::HockneyModel* hockney_ = nullptr;  // non-null iff Hockney
  std::vector<std::unique_ptr<RankPage>> pages_;
  std::size_t pages_materialized_ = 0;
  std::vector<Context> contexts_;
  std::map<std::vector<int>, int> context_ids_;
  std::unordered_map<
      std::uint64_t, Site, std::hash<std::uint64_t>, std::equal_to<>,
      desim::PoolAllocator<std::pair<const std::uint64_t, Site>>>
      sites_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  hs::Histogram transfer_latency_s_;
  // Per-collective counters, indexed by CollectiveOp value.
  static constexpr std::size_t kOpSlots =
      static_cast<std::size_t>(trace::CollectiveOp::Reduce) + 1;
  static constexpr int kBcastAlgos =
      static_cast<int>(net::BcastAlgo::MpichAuto) + 1;
  std::array<std::uint64_t, kOpSlots> collective_calls_{};
  std::array<std::uint64_t, kOpSlots> collective_bytes_{};
  std::array<std::uint64_t, kBcastAlgos> bcast_algo_calls_{};
  trace::Recorder* recorder_ = nullptr;
  const fault::FaultPlan* faults_ = nullptr;
};

/// Single-shot awaitable over one blocking point-to-point op: posts the op
/// when awaited and resumes the caller at transfer completion (rendezvous:
/// a send resumes when its transfer completes), with the Gate inline in
/// the caller's coroutine frame — no heap state and no intermediate
/// coroutine. This is the collectives' hot path: at the 2^20-rank scale
/// frontier every tree edge goes through one of these. Not movable (the
/// parked op holds the gate's address); only ever materialized directly
/// in a co_await expression.
class TransferOp {
 public:
  TransferOp(Machine& machine, int src, int dst, int ctx, int tag,
             ConstBuf send_buf, Buf recv_buf, bool is_send)
      : machine_(&machine),
        gate_(machine.engine()),
        send_(send_buf),
        recv_(recv_buf),
        src_(src),
        dst_(dst),
        ctx_(ctx),
        tag_(tag),
        is_send_(is_send) {}
  TransferOp(const TransferOp&) = delete;
  TransferOp& operator=(const TransferOp&) = delete;

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> handle) {
    if (is_send_)
      machine_->post_send(src_, dst_, ctx_, tag_, send_, &gate_);
    else
      machine_->post_recv(src_, dst_, ctx_, tag_, recv_, &gate_);
    if (gate_.fired()) {
      // Matched immediately. A zero-latency completion resumes without
      // suspending (exactly Gate::wait's await_ready fast path, so event
      // counts equal a PostedOp posted and awaited at once).
      if (gate_.fire_time() <= machine_->engine().now()) return false;
      machine_->engine().schedule_at(gate_.fire_time(), handle);
      return true;
    }
    gate_.attach_waiter(handle);
    return true;
  }
  void await_resume() const noexcept {}

 private:
  Machine* machine_;
  desim::Gate gate_;
  ConstBuf send_;
  Buf recv_;
  int src_, dst_, ctx_, tag_;
  bool is_send_;
};

/// Posted-now, awaited-later counterpart of TransferOp: posts on
/// construction, `co_await op.wait()` joins. Used where ops must overlap
/// (ring/recursive-doubling exchanges post the send and recv together,
/// then await both; the pipelined broadcast receives the next segment
/// while forwarding the current one). Pinned for the same reason as
/// TransferOp; lives as a local (or std::optional) in the posting
/// coroutine's frame.
class PostedOp {
 public:
  PostedOp(Machine& machine, int src, int dst, int ctx, int tag,
           ConstBuf send_buf, Buf recv_buf, bool is_send)
      : gate_(machine.engine()) {
    if (is_send)
      machine.post_send(src, dst, ctx, tag, send_buf, &gate_);
    else
      machine.post_recv(src, dst, ctx, tag, recv_buf, &gate_);
  }
  PostedOp(const PostedOp&) = delete;
  PostedOp& operator=(const PostedOp&) = delete;

  /// Awaitable: resumes once the transfer has completed.
  auto wait() { return gate_.wait(); }

 private:
  desim::Gate gate_;
};

}  // namespace hs::mpc
