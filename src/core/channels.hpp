// Direct communication between concurrently-executing data-parallel
// programs — the extension proposed in thesis §7.2.1.
//
// The base model requires all communication between different data-parallel
// programs to go through the common task-parallel caller, which is simple
// but creates a bottleneck when the programs exchange significant data.
// The proposed extension lets the task-parallel caller define *channels*
// and pass them to the data-parallel programs as parameters (the Fortran M
// style); corresponding copies of the two programs then communicate
// directly.
//
// make_channels(n) creates n independent bidirectional channels and returns
// the two sides as ChannelGroups.  Passing one side to distributed call A
// and the other to call B connects copy i of A with copy i of B.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "sched/sched.hpp"

namespace tdp::core {

namespace detail {

/// One direction of one channel: an unbounded FIFO of byte packets.  A
/// receiver on a scheduler fiber (TDP_SCHED=steal) parks as a task record
/// instead of blocking its worker thread, so a worker count smaller than
/// the number of blocked receivers cannot starve the senders they await.
struct ChannelQueue {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::vector<std::byte>> packets;
  std::vector<sched::TaskRef> parked;  ///< suspended fiber receivers

  void push(std::vector<std::byte> p) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      packets.push_back(std::move(p));
      // Under the mutex the receivers parked with: the sched::ready
      // lifetime rule.
      for (sched::TaskRef t : parked) sched::ready(t);
      parked.clear();
    }
    cv.notify_all();
  }

  std::vector<std::byte> pop() {
    std::unique_lock<std::mutex> lock(mutex);
    if (sched::on_worker_fiber()) {
      const sched::TaskRef self = sched::current_task();
      while (packets.empty()) {
        // park() may return spuriously, still registered.
        if (std::find(parked.begin(), parked.end(), self) == parked.end()) {
          parked.push_back(self);
        }
        sched::park(lock);
      }
    } else {
      cv.wait(lock, [&] { return !packets.empty(); });
    }
    std::vector<std::byte> p = std::move(packets.front());
    packets.pop_front();
    return p;
  }
};

struct ChannelPair {
  ChannelQueue to_a;  ///< traffic from side B to side A
  ChannelQueue to_b;  ///< traffic from side A to side B
};

}  // namespace detail

/// One endpoint of one channel, held by one copy of a data-parallel program.
class Port {
 public:
  Port() = default;
  Port(std::shared_ptr<detail::ChannelPair> pair, bool side_a)
      : pair_(std::move(pair)), side_a_(side_a) {}

  bool valid() const { return pair_ != nullptr; }

  void send_bytes(std::span<const std::byte> bytes) {
    outgoing().push(std::vector<std::byte>(bytes.begin(), bytes.end()));
  }

  std::vector<std::byte> recv_bytes() { return incoming().pop(); }

  template <typename T>
  void send(std::span<const T> data) {
    send_bytes(std::as_bytes(data));
  }

  template <typename T>
  std::vector<T> recv() {
    std::vector<std::byte> bytes = recv_bytes();
    std::vector<T> out(bytes.size() / sizeof(T));
    std::memcpy(out.data(), bytes.data(), out.size() * sizeof(T));
    return out;
  }

  /// Number of packets waiting to be received (diagnostics).
  std::size_t pending() {
    std::lock_guard<std::mutex> lock(incoming().mutex);
    return incoming().packets.size();
  }

 private:
  detail::ChannelQueue& outgoing() {
    return side_a_ ? pair_->to_b : pair_->to_a;
  }
  detail::ChannelQueue& incoming() {
    return side_a_ ? pair_->to_a : pair_->to_b;
  }

  std::shared_ptr<detail::ChannelPair> pair_;
  bool side_a_ = true;
};

/// One side of a set of channels: port(i) belongs to copy i of the
/// distributed call this side is passed to.
class ChannelGroup {
 public:
  ChannelGroup() = default;

  int size() const { return static_cast<int>(pairs_.size()); }
  Port port(int i) const {
    return Port(pairs_[static_cast<std::size_t>(i)], side_a_);
  }

  /// The same side with its ports in reverse order: port(i) of the result
  /// is port(size()-1-i) of *this.  Lets a caller pair copy i of one
  /// distributed call with copy n-1-i of another (e.g. the high-end
  /// interface copy of one model with the low-end copy of its neighbour).
  ChannelGroup reversed() const {
    ChannelGroup out = *this;
    std::reverse(out.pairs_.begin(), out.pairs_.end());
    return out;
  }

 private:
  friend std::pair<ChannelGroup, ChannelGroup> make_channels(int n);
  std::vector<std::shared_ptr<detail::ChannelPair>> pairs_;
  bool side_a_ = true;
};

/// Creates n channels; the two returned groups are the two sides.
std::pair<ChannelGroup, ChannelGroup> make_channels(int n);

}  // namespace tdp::core
