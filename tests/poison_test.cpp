// Tests for collective poison propagation: a forwarding node whose receive
// times out mid-collective must flush a poison marker to the peers that were
// counting on it, so its whole subtree fails fast naming the originally
// stalled copy instead of timing out hop by hop blaming each forwarder.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "pcn/process.hpp"
#include "sched/sched.hpp"
#include "spmd/coll.hpp"
#include "spmd/context.hpp"
#include "util/node_array.hpp"
#include "vp/machine.hpp"
#include "vp/mailbox.hpp"

namespace tdp::spmd {
namespace {

/// Forces the tree family for the enclosing scope (poison forwarding lives
/// in the tree algorithms; the linear forms have no forwarders).
class ScopedTree {
 public:
  ScopedTree() { coll::force(coll::Algo::Tree); }
  ~ScopedTree() { coll::unforce(); }
};

/// Bounds every collective receive for the enclosing scope.
class ScopedTimeout {
 public:
  explicit ScopedTimeout(long long ms) { set_recv_timeout_ms(ms); }
  ~ScopedTimeout() { set_recv_timeout_ms(-1); }
};

/// What each copy's collective call ended with.
enum class Outcome { Ok, Timeout, Poisoned, Other };

/// Runs `body` as one SPMD program over the first `p` processors, except for
/// copies listed in `stalled`, which never join the collective (simulating a
/// wedged VP).  Returns each participating copy's outcome; `origins[i]`
/// holds the Poisoned origin where applicable, else -1.
void run_with_stall(int p, const std::vector<int>& stalled,
                    const std::function<void(SpmdContext&)>& body,
                    std::vector<Outcome>& outcomes,
                    std::vector<int>& origins) {
  vp::Machine machine(p);
  const std::uint64_t comm = machine.next_comm();
  const std::vector<int> procs = util::iota_nodes(p);
  outcomes.assign(static_cast<std::size_t>(p), Outcome::Ok);
  origins.assign(static_cast<std::size_t>(p), -1);
  pcn::ProcessGroup group;
  for (int i = 0; i < p; ++i) {
    const bool stall = std::find(stalled.begin(), stalled.end(), i) !=
                       stalled.end();
    if (stall) continue;
    group.spawn_on(machine, procs[static_cast<std::size_t>(i)], [&, i] {
      SpmdContext ctx(machine, comm, procs, i);
      try {
        body(ctx);
      } catch (const coll::Poisoned& e) {
        outcomes[static_cast<std::size_t>(i)] = Outcome::Poisoned;
        origins[static_cast<std::size_t>(i)] = e.origin;
      } catch (const vp::ReceiveTimeout&) {
        outcomes[static_cast<std::size_t>(i)] = Outcome::Timeout;
      } catch (...) {
        outcomes[static_cast<std::size_t>(i)] = Outcome::Other;
      }
    });
  }
  group.join();
}

TEST(CollPoison, StalledBroadcastRootPoisonsTheWholeTree) {
  ScopedTree tree;
  ScopedTimeout timeout(60);
  // Binomial tree, root 0, P=4: copy 1 and copy 2 receive from the root,
  // copy 3 from copy 2.  With the root stalled, copies 1 and 2 time out on
  // it directly; copy 2 still owes copy 3 a forward, so copy 3 must see
  // poison naming the root — not a second, later timeout blaming copy 2.
  // Copy 3 joins late so copy 2's poison is already queued when it blocks;
  // otherwise copy 3's own deadline would race the poison's arrival and
  // the test would assert on timing rather than on the forwarding rule.
  std::vector<Outcome> outcomes;
  std::vector<int> origins;
  run_with_stall(4, {0},
                 [](SpmdContext& ctx) {
                   if (ctx.index() == 3) {
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(250));
                   }
                   std::vector<std::byte> buf(8);
                   ctx.broadcast(std::span<std::byte>(buf), /*root=*/0);
                 },
                 outcomes, origins);
  EXPECT_EQ(outcomes[1], Outcome::Timeout);
  EXPECT_EQ(outcomes[2], Outcome::Timeout);
  EXPECT_EQ(outcomes[3], Outcome::Poisoned);
  EXPECT_EQ(origins[3], 0) << "poison must name the originally stalled copy";
}

TEST(CollPoison, StalledReduceLeafPoisonsThePathToTheRoot) {
  ScopedTree tree;
  ScopedTimeout timeout(60);
  // Combining tree, root 0, P=4: copy 2 receives copy 3's contribution and
  // folds it into its own before sending up.  With copy 3 stalled, copy 2
  // times out on it and must poison its pending send to the root, so the
  // root fails fast blaming copy 3 rather than copy 2.  The root joins
  // late for the same reason copy 3 does in the broadcast test: its own
  // deadline must not race the poison's arrival.  It waits with
  // sched::sleep_for, which parks a task on the steal lane: a blocking
  // sleep would hold a lone worker, and the forwarders carrying the poison
  // could not run before the root's deadline.
  std::vector<Outcome> outcomes;
  std::vector<int> origins;
  run_with_stall(4, {3},
                 [](SpmdContext& ctx) {
                   if (ctx.index() == 0) {
                     sched::sleep_for(std::chrono::milliseconds(250));
                   }
                   double v = 1.0;
                   const std::function<double(const double&, const double&)>
                       sum = [](const double& a, const double& b) {
                         return a + b;
                       };
                   ctx.reduce(std::span<double>(&v, 1), /*root=*/0, sum);
                 },
                 outcomes, origins);
  EXPECT_EQ(outcomes[1], Outcome::Ok);
  EXPECT_EQ(outcomes[2], Outcome::Timeout);
  EXPECT_EQ(outcomes[0], Outcome::Poisoned);
  EXPECT_EQ(origins[0], 3) << "poison must name the originally stalled copy";
}

}  // namespace
}  // namespace tdp::spmd
