#include "mpi/comm.hpp"

#include "common/require.hpp"

namespace opass::mpi {

Comm::Comm(sim::Cluster& cluster)
    : cluster_(cluster), mailboxes_(cluster.node_count()) {}

dfs::NodeId Comm::node_of(Rank r) const {
  OPASS_REQUIRE(r < size(), "rank out of range");
  return r;
}

bool Comm::matches(const PendingRecv& r, const Message& m) {
  return (r.source == kAnySource || r.source == m.source) &&
         (r.tag == kAnyTag || r.tag == m.tag);
}

void Comm::deliver(Rank to, Message msg) {
  Mailbox& box = mailboxes_[to];
  for (auto it = box.waiting.begin(); it != box.waiting.end(); ++it) {
    if (matches(*it, msg)) {
      auto cb = std::move(it->on_recv);
      box.waiting.erase(it);
      cb(std::move(msg));
      return;
    }
  }
  box.arrived.push_back(std::move(msg));
}

void Comm::send(Rank from, Rank to, Tag tag, Bytes bytes, std::uint64_t value) {
  OPASS_REQUIRE(from < size() && to < size(), "rank out of range");
  OPASS_REQUIRE(tag >= 0, "negative tags are reserved");
  ++messages_sent_;
  bytes_sent_ += bytes;
  Message msg;
  msg.source = from;
  msg.tag = tag;
  msg.bytes = bytes;
  msg.value = value;
  const dfs::NodeId src = node_of(from);
  cluster_.send({&src, 1}, node_of(to),
                std::max<Bytes>(bytes, 1),  // envelope floor: nothing is free
                [this, to, msg](dfs::NodeId, Seconds t) mutable {
                  msg.delivered_at = t;
                  deliver(to, std::move(msg));
                });
}

void Comm::recv(Rank at_rank, Rank source, Tag tag, std::function<void(Message)> on_recv) {
  OPASS_REQUIRE(at_rank < size(), "rank out of range");
  OPASS_REQUIRE(on_recv != nullptr, "recv needs a continuation");
  Mailbox& box = mailboxes_[at_rank];
  PendingRecv pending{source, tag, std::move(on_recv)};
  for (auto it = box.arrived.begin(); it != box.arrived.end(); ++it) {
    if (matches(pending, *it)) {
      Message msg = std::move(*it);
      box.arrived.erase(it);
      pending.on_recv(std::move(msg));
      return;
    }
  }
  box.waiting.push_back(std::move(pending));
}

}  // namespace opass::mpi
