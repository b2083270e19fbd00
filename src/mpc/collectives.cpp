#include "mpc/collectives.hpp"

#include <cstring>
#include <vector>

#include "trace/recorder.hpp"

namespace hs::mpc {

namespace {

// Identity fields for a collective's trace span (start/end are stamped by
// the guard). Only called when a recorder is attached.
trace::CollectiveSpan span_for(const Comm& comm, trace::CollectiveOp op,
                               std::uint64_t seq, int root_comm_rank,
                               std::uint64_t bytes, int algo,
                               bool closed_form) {
  trace::CollectiveSpan span;
  span.rank = comm.my_world_rank();
  span.op = op;
  span.algo = algo;
  span.ctx = comm.context();
  span.seq = seq;
  span.root = root_comm_rank >= 0 ? comm.world_rank(root_comm_rank) : -1;
  span.bytes = bytes;
  span.closed_form = closed_form;
  return span;
}

// Reserved (negative) tag space for collective-internal traffic. Every
// collective call consumes one sequence number per communicator (see
// Machine::next_collective_seq) and derives its tags from (phase kind,
// sequence), so two collectives in flight concurrently on one communicator
// (communication/computation overlap) can never cross-match. Within one
// collective, per-pair FIFO matching keeps multi-round phases ordered.
enum CollectivePhase : int {
  kPhaseBcast = 0,
  kPhaseScatter = 1,    // van de Geijn broadcast: scatter phase
  kPhaseAllgather = 2,  // van de Geijn broadcast: allgather phase
  kPhaseReduce = 3,
};

int collective_tag(CollectivePhase phase, std::uint64_t seq) {
  constexpr std::uint64_t kSeqSpace = 1u << 26;
  return -static_cast<int>(1 + static_cast<std::uint64_t>(phase) +
                           16 * (seq % kSeqSpace));
}

// Blocking one-shot transfers inside collectives use comm.send_op/recv_op
// (TransferOp awaiters): the gate lives in the awaiting collective's frame
// — no child coroutine and no heap state per tree edge, which is most of
// what a 2^20-rank broadcast does.

bool is_power_of_two(int p) { return p > 0 && (p & (p - 1)) == 0; }

// Chunk layout for scatter/allgather phases: `count` elements split into
// `p` nearly equal chunks (first count%p chunks get one extra element).
struct Chunks {
  std::size_t count;
  int p;
  std::size_t offset(int chunk) const {
    const auto c = static_cast<std::size_t>(chunk);
    const std::size_t base = count / static_cast<std::size_t>(p);
    const std::size_t rem = count % static_cast<std::size_t>(p);
    return c * base + std::min(c, rem);
  }
  std::size_t size(int chunk) const {
    return offset(chunk + 1) - offset(chunk);
  }
  // Element range covering chunks [a, b).
  std::size_t range_offset(int a) const { return offset(a); }
  std::size_t range_size(int a, int b) const { return offset(b) - offset(a); }
};

// ---------------------------------------------------------------------
// Broadcast algorithm implementations. All work in root-relative ranks:
// rel = (rank - root + p) % p, so the tree is rooted at relative 0.
// ---------------------------------------------------------------------

desim::Task<void> bcast_flat(Comm comm, int root, Buf buf, int tag) {
  const int p = comm.size();
  if (comm.rank() == root) {
    for (int r = 0; r < p; ++r)
      if (r != root) co_await comm.send_op(r, buf, tag);
  } else {
    co_await comm.recv_op(root, buf, tag);
  }
}

// Recursive-halving scatter of `buf`'s chunk ranges (used by the van de
// Geijn variants). On return, relative rank r holds chunk r in place.
desim::Task<void> scatter_ranges(Comm comm, int root, Buf buf,
                                 const Chunks& chunks, int tag) {
  const int p = comm.size();
  const int rel = (comm.rank() - root + p) % p;
  auto abs_rank = [&](int r) { return (r + root) % p; };

  int lo = 0, hi = p;
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo + 1) / 2;  // left half gets the ceiling
    const std::size_t off = chunks.range_offset(mid);
    const std::size_t len = chunks.range_size(mid, hi);
    if (rel < mid) {
      if (rel == lo && len > 0)
        co_await comm.send_op(abs_rank(mid), buf.slice(off, len), tag);
      hi = mid;
    } else {
      if (rel == mid && len > 0)
        co_await comm.recv_op(abs_rank(lo), buf.slice(off, len), tag);
      lo = mid;
    }
  }
}

// Ring allgather of the chunk layout: after p-1 rounds every relative rank
// holds all chunks. Chunk c travels around the relative ring.
desim::Task<void> allgather_ring_ranges(Comm comm, int root, Buf buf,
                                        const Chunks& chunks, int tag) {
  const int p = comm.size();
  const int rel = (comm.rank() - root + p) % p;
  auto abs_rank = [&](int r) { return (r + root) % p; };
  const int right = abs_rank((rel + 1) % p);
  const int left = abs_rank((rel - 1 + p) % p);

  for (int round = 0; round < p - 1; ++round) {
    const int send_chunk = ((rel - round) % p + p) % p;
    const int recv_chunk = ((rel - round - 1) % p + p) % p;
    PostedOp send_op = comm.send_posted(
        right, buf.slice(chunks.offset(send_chunk), chunks.size(send_chunk)),
        tag);
    PostedOp recv_op = comm.recv_posted(
        left, buf.slice(chunks.offset(recv_chunk), chunks.size(recv_chunk)),
        tag);
    co_await send_op.wait();
    co_await recv_op.wait();
  }
}

// Recursive-doubling allgather (power-of-two rank counts): round k
// exchanges aligned blocks of 2^k chunks with partner rel ^ 2^k.
desim::Task<void> allgather_recdbl_ranges(Comm comm, int root, Buf buf,
                                          const Chunks& chunks, int tag) {
  const int p = comm.size();
  const int rel = (comm.rank() - root + p) % p;
  auto abs_rank = [&](int r) { return (r + root) % p; };

  for (int mask = 1; mask < p; mask <<= 1) {
    const int partner = rel ^ mask;
    const int my_base = rel & ~(mask - 1);
    const int partner_base = my_base ^ mask;
    PostedOp send_op = comm.send_posted(
        abs_rank(partner),
        buf.slice(chunks.range_offset(my_base),
                  chunks.range_size(my_base, my_base + mask)),
        tag);
    PostedOp recv_op = comm.recv_posted(
        abs_rank(partner),
        buf.slice(chunks.range_offset(partner_base),
                  chunks.range_size(partner_base, partner_base + mask)),
        tag);
    co_await send_op.wait();
    co_await recv_op.wait();
  }
}

desim::Task<void> bcast_scatter_allgather(Comm comm, int root, Buf buf,
                                          bool ring, std::uint64_t seq) {
  const Chunks chunks{buf.count(), comm.size()};
  co_await scatter_ranges(comm, root, buf, chunks,
                          collective_tag(kPhaseScatter, seq));
  const int allgather_tag = collective_tag(kPhaseAllgather, seq);
  if (ring)
    co_await allgather_ring_ranges(comm, root, buf, chunks, allgather_tag);
  else
    co_await allgather_recdbl_ranges(comm, root, buf, chunks, allgather_tag);
}

desim::Task<void> bcast_pipelined(Comm comm, int root, Buf buf, int tag) {
  const int p = comm.size();
  const int rel = (comm.rank() - root + p) % p;
  auto abs_rank = [&](int r) { return (r + root) % p; };

  const std::uint64_t bytes = buf.bytes();
  const std::uint64_t segments =
      bytes == 0 ? 1
                 : (bytes + net::kPipelineSegmentBytes - 1) /
                       net::kPipelineSegmentBytes;
  const std::size_t seg_elems =
      (buf.count() + static_cast<std::size_t>(segments) - 1) /
      static_cast<std::size_t>(segments);

  auto segment = [&](std::uint64_t k) {
    const std::size_t off = static_cast<std::size_t>(k) * seg_elems;
    const std::size_t len = std::min(seg_elems, buf.count() - off);
    return buf.slice(off, len);
  };

  const bool has_right = rel + 1 < p;
  if (rel == 0) {
    for (std::uint64_t k = 0; k < segments; ++k)
      co_await comm.send_op(abs_rank(1), segment(k), tag);
    co_return;
  }
  // Interior/last rank: receive segment k+1 while forwarding segment k.
  co_await comm.recv_op(abs_rank(rel - 1), segment(0), tag);
  for (std::uint64_t k = 0; k + 1 < segments; ++k) {
    PostedOp next_recv = comm.recv_posted(abs_rank(rel - 1), segment(k + 1),
                                          tag);
    if (has_right) co_await comm.send_op(abs_rank(rel + 1), segment(k), tag);
    co_await next_recv.wait();
  }
  if (has_right)
    co_await comm.send_op(abs_rank(rel + 1), segment(segments - 1), tag);
}

}  // namespace

desim::Task<void> bcast(Comm comm, int root, Buf buf,
                        std::optional<net::BcastAlgo> algo_opt) {
  const int p = comm.size();
  HS_REQUIRE(root >= 0 && root < p);
  if (p == 1) co_return;
  Machine& machine = comm.machine();
  net::BcastAlgo algo = algo_opt.value_or(machine.config().bcast_algo);
  const std::uint64_t seq =
      machine.next_collective_seq(comm.context(), comm.rank());
  const bool closed_form =
      machine.config().collective_mode == CollectiveMode::ClosedForm;
  const net::BcastAlgo resolved = net::resolve_auto(algo, p, buf.bytes());
  machine.note_collective(trace::CollectiveOp::Bcast,
                          static_cast<int>(resolved), buf.bytes());
  trace::Recorder* recorder = machine.recorder();
  trace::CollectiveSpanGuard trace_guard(
      recorder, comm.engine(),
      recorder ? span_for(comm, trace::CollectiveOp::Bcast, seq, root,
                          buf.bytes(), static_cast<int>(resolved),
                          closed_form)
               : trace::CollectiveSpan{});

  if (closed_form) {
    desim::Gate gate(comm.engine());
    machine.join_site(trace::CollectiveOp::Bcast, comm.context(), seq, &gate,
                      comm.rank(), root, buf, buf, algo);
    co_await gate.wait();
    co_return;
  }

  const int tag = collective_tag(kPhaseBcast, seq);
  if (resolved == net::BcastAlgo::Binomial) {
    // Inlined in the bcast frame rather than delegated to a child
    // coroutine: binomial is the scale frontier's tree (2^20-rank runs pin
    // it), and at that scale the second frame's allocate/resume/destroy
    // per member call is a measurable share of wall time.
    const int rel = (comm.rank() - root + p) % p;
    auto abs_rank = [&](int r) { return (r + root) % p; };
    int mask = 1;
    while (mask < p) {
      if (rel & mask) {
        co_await comm.recv_op(abs_rank(rel - mask), buf, tag);
        break;
      }
      mask <<= 1;
    }
    // Send to sub-trees, furthest first.
    mask >>= 1;
    while (mask > 0) {
      if (rel + mask < p)
        co_await comm.send_op(abs_rank(rel + mask), buf, tag);
      mask >>= 1;
    }
    co_return;
  }
  switch (resolved) {
    case net::BcastAlgo::Flat:
      co_await bcast_flat(comm, root, buf, tag);
      break;
    case net::BcastAlgo::Binomial:
      HS_REQUIRE_MSG(false, "binomial handled above");
      break;
    case net::BcastAlgo::ScatterRingAllgather:
      co_await bcast_scatter_allgather(comm, root, buf, /*ring=*/true, seq);
      break;
    case net::BcastAlgo::ScatterRecDblAllgather:
      if (is_power_of_two(p))
        co_await bcast_scatter_allgather(comm, root, buf, /*ring=*/false, seq);
      else  // recursive doubling needs a power of two; MPICH falls to ring
        co_await bcast_scatter_allgather(comm, root, buf, /*ring=*/true, seq);
      break;
    case net::BcastAlgo::Pipelined:
      co_await bcast_pipelined(comm, root, buf, tag);
      break;
    case net::BcastAlgo::MpichAuto:
      HS_REQUIRE_MSG(false, "resolve_auto returned MpichAuto");
  }
}

desim::Task<void> reduce(Comm comm, int root, ConstBuf send, Buf recv) {
  const int p = comm.size();
  HS_REQUIRE(root >= 0 && root < p);
  const int rel = (comm.rank() - root + p) % p;
  auto abs_rank = [&](int r) { return (r + root) % p; };
  const std::size_t count = send.count();

  if (p == 1) {
    if (send.is_real() && recv.is_real() && count > 0 &&
        recv.data() != send.data())
      std::memcpy(recv.data(), send.data(), count * sizeof(double));
    co_return;
  }

  Machine& machine = comm.machine();
  const std::uint64_t seq =
      machine.next_collective_seq(comm.context(), comm.rank());
  const bool closed_form =
      machine.config().collective_mode == CollectiveMode::ClosedForm;
  machine.note_collective(trace::CollectiveOp::Reduce, -1, send.bytes());
  trace::Recorder* recorder = machine.recorder();
  trace::CollectiveSpanGuard trace_guard(
      recorder, comm.engine(),
      recorder ? span_for(comm, trace::CollectiveOp::Reduce, seq, root,
                          send.bytes(), -1, closed_form)
               : trace::CollectiveSpan{});

  if (closed_form) {
    desim::Gate gate(comm.engine());
    machine.join_site(trace::CollectiveOp::Reduce, comm.context(), seq, &gate,
                      comm.rank(), root, send,
                      comm.rank() == root ? recv : Buf{});
    co_await gate.wait();
    co_return;
  }

  const int tag = collective_tag(kPhaseReduce, seq);
  const bool real = send.is_real();
  // Accumulator holds my partial sum; scratch receives child contributions.
  // Both are owned by this frame, so a run torn down mid-reduce frees them
  // with the frame; phantom payloads stage nothing at all.
  std::vector<double> acc_data, scratch_data;
  if (real && count > 0) {
    acc_data.assign(send.data(), send.data() + count);
    scratch_data.resize(count);
  }
  Buf acc = real ? Buf(std::span<double>(acc_data)) : Buf::phantom(count);
  Buf scratch =
      real ? Buf(std::span<double>(scratch_data)) : Buf::phantom(count);

  int mask = 1;
  while (mask < p) {
    if (rel & mask) {
      co_await comm.send_op(abs_rank(rel - mask), acc, tag);
      break;
    }
    if (rel + mask < p) {
      co_await comm.recv_op(abs_rank(rel + mask), scratch, tag);
      if (real)
        for (std::size_t i = 0; i < count; ++i)
          acc.data()[i] += scratch.data()[i];
    }
    mask <<= 1;
  }

  if (rel == 0 && real && count > 0) {
    HS_REQUIRE_MSG(recv.is_real() && recv.count() == count,
                   "reduce: root recv buffer mismatch");
    std::memcpy(recv.data(), acc.data(), count * sizeof(double));
  }
}

}  // namespace hs::mpc
