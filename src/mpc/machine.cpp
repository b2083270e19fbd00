#include "mpc/machine.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "fault/fault_plan.hpp"
#include "mpc/comm.hpp"
#include "trace/metrics.hpp"
#include "trace/recorder.hpp"

namespace hs::mpc {

namespace {

// The payload contract of one transfer, shared by committed point-to-point
// transfers and the closed-form sites that stand in for them.
void require_matching_payloads(ConstBuf send, ConstBuf recv, int src,
                               int dst) {
  HS_REQUIRE_MSG(send.count() == recv.count(),
                 "send/recv size mismatch: " << send.count() << " vs "
                                             << recv.count()
                                             << " elements (src=" << src
                                             << " dst=" << dst << ")");
  HS_REQUIRE_MSG(send.is_real() == recv.is_real(),
                 "mixing real and phantom payloads in one transfer");
}

}  // namespace

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
  require_matching_payloads(send_buf, recv_buf, src, dst);
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
  if (recorder_ != nullptr)
    recorder_->add_transfer(
        {start, completion, src, dst, send_buf.bytes(), ctx, tag});
  return completion;
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

void Machine::join_site(trace::CollectiveOp op, int ctx, std::uint64_t seq,
                        desim::Gate* gate, int member_index, int root_index,
                        ConstBuf send, Buf recv, net::BcastAlgo algo) {
  const std::uint64_t key = (static_cast<std::uint64_t>(ctx) << 40) | seq;
  Site& site = sites_[key];
  if (site.expected == 0) {
    site.op = op;
    site.expected = static_cast<int>(
        contexts_[static_cast<std::size_t>(ctx)].members.size());
    site.participants.reserve(static_cast<std::size_t>(site.expected));
  }
  HS_REQUIRE_MSG(site.op == op,
                 "collective mismatch: ranks issued different collectives at "
                 "the same sequence point");
  site.max_entry = std::max(site.max_entry, engine_->now());
  site.root_index = root_index;
  site.algo = algo;
  if (member_index == root_index) site.root_buf = send;
  site.participants.push_back({gate, member_index, send, recv});
  ++site.arrived;
  if (site.arrived == site.expected) complete_site(ctx, key, site);
}

void Machine::complete_site(int ctx, std::uint64_t key, Site& site) {
  deliver_site_payloads(ctx, site);
  const int p = site.expected;
  // Per-member payload: the root's for a broadcast; for a reduce, every
  // contribution's (deliver_site_payloads checked that they agree).
  const bool is_bcast = site.op == trace::CollectiveOp::Bcast;
  const std::uint64_t bytes = is_bcast
                                  ? site.root_buf.bytes()
                                  : site.participants.front().send.bytes();
  const double duration =
      is_bcast ? net::bcast_time(site.algo, p, bytes, alpha(), beta())
               : net::reduce_time(p, bytes, alpha(), beta());
  const double completion = site.max_entry + duration;
  // Wire-accounting convention: a closed-form collective charges
  // (p-1) * per-member-bytes — one full payload per non-root member, i.e.
  // exactly what a binomial tree moves for bcast/reduce. Bandwidth-saving
  // broadcasts (scatter+allgather) really move a different volume; the
  // convention trades that fidelity for counters that stay comparable
  // between PointToPoint and ClosedForm runs of the same program (locked
  // by tests/mpc/test_closed_form.cpp). See DESIGN.md "Observability".
  const std::uint64_t wire_bytes =
      bytes * static_cast<std::uint64_t>(p > 1 ? p - 1 : 0);
  messages_ += static_cast<std::uint64_t>(p > 1 ? p - 1 : 0);
  bytes_ += wire_bytes;
  if (recorder_ != nullptr) {
    // Synthetic visibility span for the whole site (there are no real
    // per-message transfers to record in this mode). Root is reported as
    // a world rank.
    const auto& members = contexts_[static_cast<std::size_t>(ctx)].members;
    const int root_world = members[static_cast<std::size_t>(site.root_index)];
    const std::uint64_t seq = key & ((std::uint64_t{1} << 40) - 1);
    recorder_->add_site({site.max_entry, completion, site.op, ctx, seq,
                         root_world, wire_bytes, p});
  }
  for (auto& participant : site.participants)
    participant.gate->fire_at(completion);
  sites_.erase(key);
}

void Machine::note_collective(trace::CollectiveOp op, int algo_index,
                              std::uint64_t bytes) noexcept {
  const auto k = static_cast<std::size_t>(op);
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
  for (const trace::CollectiveOp op :
       {trace::CollectiveOp::Bcast, trace::CollectiveOp::Reduce}) {
    const auto index = static_cast<std::size_t>(op);
    if (collective_calls_[index] == 0) continue;
    const std::string name(trace::to_string(op));
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
  // Every member's view is checked the way the point-to-point tree checks
  // its transfers, so a buffer that routed messages would reject cannot
  // pass (or overrun) here.
  const auto& members = contexts_[static_cast<std::size_t>(ctx)].members;
  auto world = [&members](int member_index) {
    return members[static_cast<std::size_t>(member_index)];
  };
  if (site.op == trace::CollectiveOp::Bcast) {
    const ConstBuf root = site.root_buf;
    const bool copy = root.is_real() && root.count() > 0;
    for (auto& participant : site.participants) {
      if (participant.member_index == site.root_index) continue;
      require_matching_payloads(root, participant.recv,
                                world(site.root_index),
                                world(participant.member_index));
      if (copy)
        std::memcpy(participant.recv.data(), root.data(),
                    root.count() * sizeof(double));
    }
    return;
  }
  // Reduce: every contribution must match the first one. The sum stages in
  // a local vector; phantom sites allocate nothing.
  const Site::Participant& first = site.participants.front();
  const Site::Participant* root = nullptr;
  for (const auto& participant : site.participants) {
    require_matching_payloads(participant.send, first.send,
                              world(participant.member_index),
                              world(first.member_index));
    if (participant.member_index == site.root_index) root = &participant;
  }
  const std::size_t count = first.send.count();
  if (!first.send.is_real() || count == 0) return;
  HS_REQUIRE_MSG(root != nullptr && root->recv.is_real() &&
                     root->recv.count() == count,
                 "reduce: root recv buffer mismatch");
  std::vector<double> sum(count, 0.0);
  for (const auto& participant : site.participants) {
    const double* src = participant.send.data();
    for (std::size_t i = 0; i < count; ++i) sum[i] += src[i];
  }
  std::memcpy(root->recv.data(), sum.data(), count * sizeof(double));
}

}  // namespace hs::mpc
