#include "mpc/machine.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/csv.hpp"
#include "fault/fault_plan.hpp"
#include "mpc/comm.hpp"
#include "trace/metrics.hpp"
#include "trace/recorder.hpp"

namespace hs::mpc {

// trace::CollectiveOp mirrors SiteKind value-for-value so the machine can
// cast between them when recording; keep both enums in lockstep.
static_assert(trace::kCollectiveOpCount == 9);
static_assert(static_cast<int>(trace::CollectiveOp::Bcast) ==
              static_cast<int>(Machine::SiteKind::Bcast));
static_assert(static_cast<int>(trace::CollectiveOp::Barrier) ==
              static_cast<int>(Machine::SiteKind::Barrier));
static_assert(static_cast<int>(trace::CollectiveOp::Reduce) ==
              static_cast<int>(Machine::SiteKind::Reduce));
static_assert(static_cast<int>(trace::CollectiveOp::Allreduce) ==
              static_cast<int>(Machine::SiteKind::Allreduce));
static_assert(static_cast<int>(trace::CollectiveOp::AllreduceRabenseifner) ==
              static_cast<int>(Machine::SiteKind::AllreduceRabenseifner));
static_assert(static_cast<int>(trace::CollectiveOp::ReduceScatter) ==
              static_cast<int>(Machine::SiteKind::ReduceScatter));
static_assert(static_cast<int>(trace::CollectiveOp::Gather) ==
              static_cast<int>(Machine::SiteKind::Gather));
static_assert(static_cast<int>(trace::CollectiveOp::Scatter) ==
              static_cast<int>(Machine::SiteKind::Scatter));
static_assert(static_cast<int>(trace::CollectiveOp::Allgather) ==
              static_cast<int>(Machine::SiteKind::Allgather));

Machine::Machine(desim::Engine& engine,
                 std::shared_ptr<const net::NetworkModel> net,
                 MachineConfig config)
    : engine_(&engine), net_(std::move(net)), config_(config) {
  HS_REQUIRE(net_ != nullptr);
  HS_REQUIRE(config_.ranks >= 1);
  HS_REQUIRE(config_.gamma_flop >= 0.0);
  HS_REQUIRE_MSG(config_.rank_gamma.empty() ||
                     config_.rank_gamma.size() ==
                         static_cast<std::size_t>(config_.ranks),
                 "rank_gamma needs one multiplier per rank (got "
                     << config_.rank_gamma.size() << " for " << config_.ranks
                     << " ranks)");
  for (double g : config_.rank_gamma)
    HS_REQUIRE_MSG(g > 0.0, "rank_gamma multipliers must be > 0, got " << g);
  hockney_ = dynamic_cast<const net::HockneyModel*>(net_.get());
  HS_REQUIRE_MSG(
      config_.collective_mode != CollectiveMode::ClosedForm || hockney_,
      "ClosedForm collectives require a homogeneous HockneyModel network; "
      "use PointToPoint mode with topology-aware models");
  const std::size_t page_count =
      (static_cast<std::size_t>(config_.ranks) +
       static_cast<std::size_t>(kRankPageSize) - 1) /
      static_cast<std::size_t>(kRankPageSize);
  pages_.resize(page_count);
  if (config_.eager_rank_state)
    for (auto& page : pages_) materialize_page(page);
  // Context 0 is the world communicator.
  std::vector<int> world_members(static_cast<std::size_t>(config_.ranks));
  for (int r = 0; r < config_.ranks; ++r)
    world_members[static_cast<std::size_t>(r)] = r;
  context_for(world_members);
}

double Machine::alpha() const {
  HS_REQUIRE_MSG(hockney_, "alpha() requires a HockneyModel network");
  return hockney_->alpha();
}

double Machine::beta() const {
  HS_REQUIRE_MSG(hockney_, "beta() requires a HockneyModel network");
  return hockney_->beta();
}

Comm Machine::world(int self) {
  HS_REQUIRE(self >= 0 && self < config_.ranks);
  return Comm(this, /*ctx=*/0, /*rank=*/self);
}

void Machine::materialize_page(std::unique_ptr<RankPage>& page) {
  page = std::make_unique<RankPage>();
  ++pages_materialized_;
}

double Machine::commit_transfer(int src, int dst, int ctx, int tag,
                                double send_post, double recv_post,
                                ConstBuf send_buf, Buf recv_buf) {
  HS_REQUIRE_MSG(send_buf.count() == recv_buf.count(),
                 "send/recv size mismatch: " << send_buf.count() << " vs "
                                             << recv_buf.count()
                                             << " elements (src=" << src
                                             << " dst=" << dst << ")");
  HS_REQUIRE_MSG(send_buf.is_real() == recv_buf.is_real(),
                 "mixing real and phantom payloads in one transfer");
  auto& src_port = rank_state(src).port;
  auto& dst_port = rank_state(dst).port;
  const double start = std::max({send_post, recv_post, src_port.send_free,
                                 dst_port.recv_free});
  double wire_time = net_->transfer_time(src, dst, send_buf.bytes());
  // A straggler endpoint stretches the wire time through its slowdown
  // windows; the ports stay occupied for all of it, so stragglers feed back
  // into single-port serialization like any other long transfer.
  if (faults_ != nullptr)
    wire_time = faults_->stretch(src, dst, start, wire_time);
  const double completion = start + wire_time;
  src_port.send_free = completion;
  dst_port.recv_free = completion;
  src_port.send_busy += completion - start;
  dst_port.recv_busy += completion - start;
  if (send_buf.is_real() && send_buf.count() > 0)
    std::memcpy(recv_buf.data(), send_buf.data(),
                send_buf.count() * sizeof(double));
  ++messages_;
  bytes_ += send_buf.bytes();
  transfer_latency_s_.add(completion - start);
  if (transfer_log_ != nullptr)
    transfer_log_->record(
        {start, completion, src, dst, send_buf.bytes(), ctx, tag});
  if (recorder_ != nullptr)
    recorder_->add_transfer(
        {start, completion, src, dst, send_buf.bytes(), ctx, tag});
  return completion;
}

void TransferLog::write_csv(std::ostream& out) const {
  CsvWriter csv(out);
  csv.header({"start", "end", "src", "dst", "bytes", "ctx", "tag"});
  for (const auto& record : records_)
    csv.row(record.start, record.end, record.src, record.dst,
            static_cast<long long>(record.bytes), record.ctx, record.tag);
}

bool Machine::post_send(int src, int dst, int ctx, int tag, ConstBuf buf,
                        desim::Gate* gate) {
  HS_REQUIRE(src >= 0 && src < config_.ranks);
  HS_REQUIRE(dst >= 0 && dst < config_.ranks);
  HS_REQUIRE_MSG(src != dst, "self-messages are not modeled; restructure the "
                             "algorithm to skip local transfers");
  RankState& receiver = rank_state(dst);
  if (PendingOp* match = receiver.pending_recvs.find(src, ctx, tag)) {
    const PendingOp recv = *match;
    receiver.pending_recvs.remove(match);
    Buf recv_buf = recv.data != nullptr
                       ? Buf(std::span<double>(const_cast<double*>(recv.data),
                                               recv.count))
                       : Buf::phantom(recv.count);
    const double completion = commit_transfer(
        src, dst, ctx, tag, engine_->now(), recv.post_time, buf, recv_buf);
    recv.gate->fire_at(completion);
    gate->fire_at(completion);
    return true;
  }
  receiver.pending_sends.push(
      {engine_->now(), buf.data(), buf.count(), gate, src, ctx, tag});
  return false;
}

bool Machine::post_recv(int src, int dst, int ctx, int tag, Buf buf,
                        desim::Gate* gate) {
  HS_REQUIRE(src >= 0 && src < config_.ranks);
  HS_REQUIRE(dst >= 0 && dst < config_.ranks);
  HS_REQUIRE_MSG(src != dst, "self-messages are not modeled; restructure the "
                             "algorithm to skip local transfers");
  RankState& receiver = rank_state(dst);
  if (PendingOp* match = receiver.pending_sends.find(src, ctx, tag)) {
    const PendingOp send = *match;
    receiver.pending_sends.remove(match);
    ConstBuf send_buf =
        send.data != nullptr
            ? ConstBuf(std::span<const double>(send.data, send.count))
            : ConstBuf::phantom(send.count);
    const double completion = commit_transfer(
        src, dst, ctx, tag, send.post_time, engine_->now(), send_buf, buf);
    send.gate->fire_at(completion);
    gate->fire_at(completion);
    return true;
  }
  receiver.pending_recvs.push(
      {engine_->now(), buf.data(), buf.count(), gate, src, ctx, tag});
  return false;
}

Request Machine::isend(int src, int dst, int ctx, int tag, ConstBuf buf) {
  Request request(*engine_);
  post_send(src, dst, ctx, tag, buf, request.gate());
  return request;
}

Request Machine::irecv(int src, int dst, int ctx, int tag, Buf buf) {
  Request request(*engine_);
  post_recv(src, dst, ctx, tag, buf, request.gate());
  return request;
}

double Machine::compute_duration(int rank, double base) const {
  HS_REQUIRE(rank >= 0 && rank < config_.ranks);
  if (!config_.rank_gamma.empty())
    base *= config_.rank_gamma[static_cast<std::size_t>(rank)];
  if (faults_ == nullptr) return base;
  return faults_->stretch(rank, /*dst=*/-1, engine_->now(), base);
}

int Machine::context_for(const std::vector<int>& world_members) {
  HS_REQUIRE(!world_members.empty());
  for (int member : world_members)
    HS_REQUIRE(member >= 0 && member < config_.ranks);
  auto [it, inserted] =
      context_ids_.try_emplace(world_members, static_cast<int>(contexts_.size()));
  if (inserted) {
    Context ctx;
    ctx.members = world_members;
    ctx.op_seq.assign(world_members.size(), 0);
    contexts_.push_back(std::move(ctx));
  }
  return it->second;
}

const std::vector<int>& Machine::context_members(int ctx) const {
  HS_REQUIRE(ctx >= 0 && ctx < static_cast<int>(contexts_.size()));
  return contexts_[static_cast<std::size_t>(ctx)].members;
}

std::uint64_t Machine::next_collective_seq(int ctx, int member_index) {
  auto& context = contexts_[static_cast<std::size_t>(ctx)];
  HS_REQUIRE(member_index >= 0 &&
             member_index < static_cast<int>(context.members.size()));
  return context.op_seq[static_cast<std::size_t>(member_index)]++;
}

ScratchArena& Machine::scratch_arena(int ctx) {
  HS_REQUIRE(ctx >= 0 && ctx < static_cast<int>(contexts_.size()));
  return *contexts_[static_cast<std::size_t>(ctx)].arena;
}

Machine::Site& Machine::site_for(int ctx, std::uint64_t seq, SiteKind kind,
                                 int expected) {
  const std::uint64_t key = (static_cast<std::uint64_t>(ctx) << 40) | seq;
  Site& site = sites_[key];
  if (site.expected == 0) {
    site.kind = kind;
    site.expected = expected;
    site.participants.reserve(static_cast<std::size_t>(expected));
  }
  HS_REQUIRE_MSG(site.kind == kind,
                 "collective mismatch: ranks issued different collectives at "
                 "the same sequence point");
  site.max_entry = std::max(site.max_entry, engine_->now());
  return site;
}

void Machine::complete_site(int ctx, std::uint64_t key, Site& site) {
  double duration = 0.0;
  const int p = site.expected;
  const std::uint64_t total_bytes =
      site.bytes * static_cast<std::uint64_t>(p);
  switch (site.kind) {
    case SiteKind::Bcast:
      duration = net::bcast_time(site.algo, p, site.bytes, alpha(), beta());
      break;
    case SiteKind::Barrier:
      duration = net::barrier_time(p, alpha());
      break;
    case SiteKind::Reduce:
      duration = net::reduce_time(p, site.bytes, alpha(), beta());
      break;
    case SiteKind::Allreduce:
      duration = net::allreduce_time(p, site.bytes, alpha(), beta());
      break;
    case SiteKind::AllreduceRabenseifner:
      duration =
          net::allreduce_rabenseifner_time(p, site.bytes, alpha(), beta());
      break;
    case SiteKind::ReduceScatter:
      duration = net::reduce_scatter_time(p, site.bytes, alpha(), beta());
      break;
    case SiteKind::Gather:
      duration = net::gather_time(p, total_bytes, alpha(), beta());
      break;
    case SiteKind::Scatter:
      duration = net::scatter_time(p, total_bytes, alpha(), beta());
      break;
    case SiteKind::Allgather:
      duration = net::allgather_time(p, total_bytes, alpha(), beta());
      break;
  }
  const double completion = site.max_entry + duration;
  deliver_site_payloads(ctx, site);
  // Wire-accounting convention: a closed-form collective charges
  // (p-1) * per-member-bytes — one full payload per non-root member, i.e.
  // exactly what a binomial tree moves for bcast/reduce and what the
  // chunked collectives (gather/scatter/allgather with per-member chunks)
  // move in total. Bandwidth-saving algorithms (scatter+allgather bcast,
  // Rabenseifner) really move a different volume; the convention trades
  // that fidelity for counters that stay comparable between PointToPoint
  // and ClosedForm runs of the same program (locked by
  // tests/mpc/test_closed_form.cpp). See DESIGN.md "Observability".
  const std::uint64_t wire_bytes =
      site.bytes * static_cast<std::uint64_t>(p > 1 ? p - 1 : 0);
  messages_ += static_cast<std::uint64_t>(p > 1 ? p - 1 : 0);
  bytes_ += wire_bytes;
  if (transfer_log_ != nullptr || recorder_ != nullptr) {
    // Synthetic visibility record for the whole site (there are no real
    // per-message transfers to log in this mode). Root is reported as a
    // world rank; rootless collectives use -1.
    const auto& members = contexts_[static_cast<std::size_t>(ctx)].members;
    const int root_world =
        site.root_index >= 0 &&
                site.root_index < static_cast<int>(members.size())
            ? members[static_cast<std::size_t>(site.root_index)]
            : -1;
    const std::uint64_t seq = key & ((std::uint64_t{1} << 40) - 1);
    if (transfer_log_ != nullptr)
      transfer_log_->record({site.max_entry, completion, root_world, -1,
                             wire_bytes, ctx,
                             -(static_cast<int>(site.kind) + 1)});
    if (recorder_ != nullptr)
      recorder_->add_site({site.max_entry, completion,
                           static_cast<trace::CollectiveOp>(site.kind), ctx,
                           seq, root_world, wire_bytes, p});
  }
  for (auto& participant : site.participants)
    participant.gate->fire_at(completion);
  sites_.erase(key);
}

void Machine::note_collective(SiteKind kind, int algo_index,
                              std::uint64_t bytes) noexcept {
  const auto k = static_cast<std::size_t>(kind);
  ++collective_calls_[k];
  collective_bytes_[k] += bytes;
  if (algo_index >= 0 && algo_index < kBcastAlgos)
    ++bcast_algo_calls_[static_cast<std::size_t>(algo_index)];
}

void Machine::collect_metrics(trace::MetricsRegistry& metrics) const {
  metrics.add_counter("mpc.messages", messages_);
  metrics.add_counter("mpc.wire_bytes", bytes_);
  if (!transfer_latency_s_.empty())
    metrics.histogram("mpc.transfer.latency_s").merge(transfer_latency_s_);
  for (int k = 0; k < kSiteKinds; ++k) {
    const auto index = static_cast<std::size_t>(k);
    if (collective_calls_[index] == 0) continue;
    const std::string name(
        trace::to_string(static_cast<trace::CollectiveOp>(k)));
    metrics.add_counter("mpc.collective." + name + ".calls",
                        collective_calls_[index]);
    metrics.add_counter("mpc.collective." + name + ".bytes",
                        collective_bytes_[index]);
  }
  for (int a = 0; a < kBcastAlgos; ++a) {
    const auto index = static_cast<std::size_t>(a);
    if (bcast_algo_calls_[index] == 0) continue;
    const std::string name(net::to_string(static_cast<net::BcastAlgo>(a)));
    metrics.add_counter("mpc.bcast_algo." + name + ".calls",
                        bcast_algo_calls_[index]);
  }
  double send_max = 0.0;
  double recv_max = 0.0;
  double send_total = 0.0;
  double recv_total = 0.0;
  // Unmaterialized pages are ranks that never touched the network: zero
  // busy time by construction, so skipping them leaves the gauges exact.
  for (const auto& page : pages_) {
    if (page == nullptr) continue;
    for (const RankState& rank : page->ranks) {
      send_max = std::max(send_max, rank.port.send_busy);
      recv_max = std::max(recv_max, rank.port.recv_busy);
      send_total += rank.port.send_busy;
      recv_total += rank.port.recv_busy;
    }
  }
  metrics.set_gauge("mpc.port.send_busy_max_s", send_max);
  metrics.set_gauge("mpc.port.recv_busy_max_s", recv_max);
  metrics.set_gauge("mpc.port.send_busy_total_s", send_total);
  metrics.set_gauge("mpc.port.recv_busy_total_s", recv_total);
}

void Machine::deliver_site_payloads(int ctx, Site& site) {
  switch (site.kind) {
    case SiteKind::Barrier:
      return;
    case SiteKind::Bcast: {
      if (!site.root_buf.is_real() || site.root_buf.count() == 0) return;
      for (auto& participant : site.participants) {
        Buf& buf = participant.recv;
        if (buf.data() != nullptr && buf.data() != site.root_buf.data())
          std::memcpy(buf.data(), site.root_buf.data(),
                      site.root_buf.count() * sizeof(double));
      }
      return;
    }
    case SiteKind::Reduce:
    case SiteKind::Allreduce:
    case SiteKind::AllreduceRabenseifner:
    case SiteKind::ReduceScatter: {
      // Sum all real contributions; deliver to the root (Reduce), to every
      // member (Allreduce), or chunk-wise (ReduceScatter). Phantom sites
      // must stay allocation-free, so scan for real contributions *before*
      // touching the accumulator.
      const std::size_t count = site.participants.empty()
                                    ? 0
                                    : site.participants.front().send.count();
      if (count == 0) return;
      bool any_real = false;
      for (const auto& participant : site.participants)
        if (participant.send.is_real() && participant.send.data() != nullptr) {
          any_real = true;
          break;
        }
      if (!any_real) return;
      ScratchArena::Lease sum_lease = scratch_arena(ctx).acquire(count);
      double* sum = sum_lease.data();
      std::fill_n(sum, count, 0.0);
      for (auto& participant : site.participants) {
        if (!participant.send.is_real() || participant.send.data() == nullptr)
          continue;
        const double* src = participant.send.data();
        for (std::size_t i = 0; i < count; ++i) sum[i] += src[i];
      }
      if (site.kind == SiteKind::ReduceScatter) {
        const std::size_t chunk =
            count / static_cast<std::size_t>(site.expected);
        for (auto& participant : site.participants) {
          if (participant.recv.data() == nullptr) continue;
          std::memcpy(participant.recv.data(),
                      sum + static_cast<std::size_t>(participant.member_index) *
                                chunk,
                      chunk * sizeof(double));
        }
        return;
      }
      for (auto& participant : site.participants) {
        const bool wants_result =
            site.kind != SiteKind::Reduce ||
            participant.member_index == site.root_index;
        if (wants_result && participant.recv.data() != nullptr)
          std::memcpy(participant.recv.data(), sum, count * sizeof(double));
      }
      return;
    }
    case SiteKind::Gather: {
      // Root's recv gets chunk j at offset j*chunk.
      Site::Participant* root = nullptr;
      for (auto& participant : site.participants)
        if (participant.member_index == site.root_index) root = &participant;
      if (root == nullptr || root->recv.data() == nullptr) return;
      for (auto& participant : site.participants) {
        if (participant.send.data() == nullptr) continue;
        const std::size_t chunk = participant.send.count();
        std::memcpy(root->recv.data() +
                        static_cast<std::size_t>(participant.member_index) *
                            chunk,
                    participant.send.data(), chunk * sizeof(double));
      }
      return;
    }
    case SiteKind::Scatter: {
      Site::Participant* root = nullptr;
      for (auto& participant : site.participants)
        if (participant.member_index == site.root_index) root = &participant;
      if (root == nullptr || root->send.data() == nullptr) return;
      for (auto& participant : site.participants) {
        if (participant.recv.data() == nullptr) continue;
        const std::size_t chunk = participant.recv.count();
        std::memcpy(participant.recv.data(),
                    root->send.data() +
                        static_cast<std::size_t>(participant.member_index) *
                            chunk,
                    chunk * sizeof(double));
      }
      return;
    }
    case SiteKind::Allgather: {
      for (auto& receiver : site.participants) {
        if (receiver.recv.data() == nullptr) continue;
        for (auto& sender : site.participants) {
          if (sender.send.data() == nullptr) continue;
          const std::size_t chunk = sender.send.count();
          std::memcpy(receiver.recv.data() +
                          static_cast<std::size_t>(sender.member_index) *
                              chunk,
                      sender.send.data(), chunk * sizeof(double));
        }
      }
      return;
    }
  }
}

void Machine::join_bcast(int ctx, std::uint64_t seq, desim::Gate* gate,
                         int root_index, ConstBuf send_view, Buf recv_view,
                         net::BcastAlgo algo) {
  auto& context = contexts_[static_cast<std::size_t>(ctx)];
  Site& site = site_for(ctx, seq, SiteKind::Bcast,
                        static_cast<int>(context.members.size()));
  site.root_index = root_index;
  site.algo = algo;
  // The root is the participant carrying the send view (non-roots pass an
  // empty ConstBuf).
  if (send_view.data() != nullptr || send_view.count() > 0) {
    site.root_buf = send_view;
    site.bytes = send_view.bytes();
  }
  site.participants.push_back({gate, -1, ConstBuf{}, recv_view});
  ++site.arrived;
  if (site.arrived == site.expected) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(ctx) << 40) | seq;
    complete_site(ctx, key, site);
  }
}

void Machine::join_barrier(int ctx, std::uint64_t seq, desim::Gate* gate) {
  auto& context = contexts_[static_cast<std::size_t>(ctx)];
  Site& site = site_for(ctx, seq, SiteKind::Barrier,
                        static_cast<int>(context.members.size()));
  site.participants.push_back({gate, -1, ConstBuf{}, Buf{}});
  ++site.arrived;
  if (site.arrived == site.expected) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(ctx) << 40) | seq;
    complete_site(ctx, key, site);
  }
}

void Machine::join_data_collective(SiteKind kind, int ctx, std::uint64_t seq,
                                   desim::Gate* gate, int member_index,
                                   int root_index, ConstBuf send_view,
                                   Buf recv_view) {
  auto& context = contexts_[static_cast<std::size_t>(ctx)];
  Site& site = site_for(ctx, seq, kind,
                        static_cast<int>(context.members.size()));
  site.root_index = root_index;
  // Per-member payload size: the contribution size for reduce-family and
  // gather/allgather, the received chunk for scatter.
  const std::uint64_t member_bytes =
      kind == SiteKind::Scatter ? recv_view.bytes() : send_view.bytes();
  site.bytes = std::max(site.bytes, member_bytes);
  site.participants.push_back({gate, member_index, send_view, recv_view});
  ++site.arrived;
  if (site.arrived == site.expected) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(ctx) << 40) | seq;
    complete_site(ctx, key, site);
  }
}

}  // namespace hs::mpc
