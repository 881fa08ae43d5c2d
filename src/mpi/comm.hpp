// MPI-model communicator over the simulated cluster.
//
// The paper's applications are MPI programs (MPICH on Marmot): ParaView data
// servers synchronize per rendering step, and the mpiBLAST-style scheduler
// exchanges request/grant messages between a master and its slaves. This
// module provides the message-passing substrate the master–worker scheduler
// (mpi/master_worker.hpp) runs on: point-to-point send/recv with tag
// matching over the flow-level simulator.
//
// The API is continuation-passing — the discrete-event simulator owns the
// control flow, so "blocking" MPI calls become callbacks fired at the
// virtual time the operation completes. Semantics follow MPI where it
// matters here: per (source, destination, tag) ordering is FIFO, and
// receives match by (source, tag) with wildcards.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/units.hpp"
#include "dfs/types.hpp"
#include "sim/cluster.hpp"

namespace opass::mpi {

using Rank = std::uint32_t;
using Tag = std::int32_t;

inline constexpr Rank kAnySource = UINT32_MAX;
inline constexpr Tag kAnyTag = -1;

/// A delivered message. `value` is the modelled payload (task ids, counts);
/// `bytes` is the simulated wire size that occupied the NICs.
struct Message {
  Rank source = 0;
  Tag tag = 0;
  Bytes bytes = 0;
  std::uint64_t value = 0;
  Seconds delivered_at = 0;
};

/// Communicator: one rank per cluster node, rank r on node r.
class Comm {
 public:
  explicit Comm(sim::Cluster& cluster);

  Rank size() const { return static_cast<Rank>(mailboxes_.size()); }
  dfs::NodeId node_of(Rank r) const;

  /// Asynchronous send: the message becomes matchable at the destination
  /// once it has been fully pushed onto the wire (an eager protocol).
  void send(Rank from, Rank to, Tag tag, Bytes bytes, std::uint64_t value);

  /// Post a receive at `at_rank` for (source, tag); wildcards allowed.
  /// `on_recv(msg)` fires when a matching message is available (immediately
  /// if one already arrived). Unmatched receives queue in post order.
  void recv(Rank at_rank, Rank source, Tag tag, std::function<void(Message)> on_recv);

  /// Messages sent so far (observability for tests and overhead accounting).
  std::uint64_t messages_sent() const { return messages_sent_; }
  Bytes bytes_sent() const { return bytes_sent_; }

 private:
  struct PendingRecv {
    Rank source;
    Tag tag;
    std::function<void(Message)> on_recv;
  };

  struct Mailbox {
    std::deque<Message> arrived;
    std::deque<PendingRecv> waiting;
  };

  void deliver(Rank to, Message msg);
  static bool matches(const PendingRecv& r, const Message& m);

  sim::Cluster& cluster_;
  std::vector<Mailbox> mailboxes_;  ///< one per rank
  std::uint64_t messages_sent_ = 0;
  Bytes bytes_sent_ = 0;
};

}  // namespace opass::mpi
