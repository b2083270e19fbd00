#include "mpc/comm.hpp"

namespace hs::mpc {

Comm Comm::sub(const std::vector<int>& comm_ranks) const {
  HS_REQUIRE(!comm_ranks.empty());
  std::vector<int> world_members;
  world_members.reserve(comm_ranks.size());
  int my_new_rank = -1;
  for (std::size_t i = 0; i < comm_ranks.size(); ++i) {
    world_members.push_back(world_rank(comm_ranks[i]));
    if (comm_ranks[i] == rank_) my_new_rank = static_cast<int>(i);
  }
  HS_REQUIRE_MSG(my_new_rank >= 0,
                 "Comm::sub: calling rank must be a member of the new "
                 "communicator");
  const int ctx = machine().context_for(world_members);
  return Comm(machine_, ctx, my_new_rank);
}

desim::Task<void> Comm::sendrecv(int dst, ConstBuf send_buf, int src,
                                 Buf recv_buf, int send_tag,
                                 int recv_tag) const {
  HS_REQUIRE(send_tag >= 0 && recv_tag >= 0);
  PostedOp send_op = send_posted(dst, send_buf, send_tag);
  PostedOp recv_op = recv_posted(src, recv_buf, recv_tag);
  co_await send_op.wait();
  co_await recv_op.wait();
}

}  // namespace hs::mpc
