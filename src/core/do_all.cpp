#include "core/do_all.hpp"

#include <exception>
#include <memory>

#include "obs/attr.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/status.hpp"
#include "vp/machine.hpp"

namespace tdp::core {

namespace {

/// Everything do_all and do_all_async share: spawns the copies into
/// `group` and returns the merge body, which combines their local statuses
/// in index order and defines `status`.  An empty group defines `status`
/// as 0 and returns an empty body.
pcn::Block launch(vp::Machine& machine, const std::vector<int>& processors,
                  const DoAllBody& body, const DoAllCombine& combine,
                  pcn::ProcessGroup& group, pcn::Def<int> status) {
  const int n = static_cast<int>(processors.size());
  if (n == 0) {
    status.define(0);
    return nullptr;
  }

  static obs::ShardedCounter& copies =
      obs::Registry::instance().counter("do_all.copies");
  copies.add(static_cast<std::uint64_t>(n));

  // do_all has no communicator of its own, but per-call attribution still
  // wants a call-root id — mint one from the same process-global counter
  // distributed calls draw their comms from, so the id space stays unique
  // and the do_all's spans land in the same ledger/exemplar machinery.
  const std::uint64_t call_id = obs::enabled() ? machine.next_comm() : 0;
  if (call_id != 0) {
    obs::CallTable::instance().call_begin(call_id, obs::CallKind::DoAll, n);
  }

  // Causal chaining, mirroring distributed_call: spawn→copy and copy→merge
  // arrows so the trace shows the fan-out/fan-in structure of the §4.3.1
  // fork/join.
  std::shared_ptr<std::vector<std::uint64_t>> spawn_flows;
  std::shared_ptr<std::vector<std::uint64_t>> join_flows;
  if (obs::enabled()) {
    spawn_flows = std::make_shared<std::vector<std::uint64_t>>(
        static_cast<std::size_t>(n));
    join_flows = std::make_shared<std::vector<std::uint64_t>>(
        static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      (*spawn_flows)[static_cast<std::size_t>(i)] = obs::next_flow_id();
      (*join_flows)[static_cast<std::size_t>(i)] = obs::next_flow_id();
    }
  }

  auto locals = std::make_shared<std::vector<pcn::Def<int>>>(
      static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (spawn_flows) {
      obs::flow_start(obs::Op::DoAllCopy,
                      (*spawn_flows)[static_cast<std::size_t>(i)], call_id);
    }
    group.spawn_on(machine, processors[static_cast<std::size_t>(i)],
                   [body, locals, i, call_id, spawn_flows, join_flows] {
                     obs::Span copy(obs::Op::DoAllCopy, call_id,
                                    static_cast<std::uint64_t>(i));
                     const std::uint64_t body_t0 =
                         call_id != 0 ? obs::now_ns() : 0;
                     if (spawn_flows) {
                       obs::flow_end(
                           obs::Op::DoAllCopy,
                           (*spawn_flows)[static_cast<std::size_t>(i)],
                           call_id);
                     }
                     int local;
                     try {
                       local = body(i);
                     } catch (...) {
                       // Keep the merge process alive: this copy's local
                       // status becomes kStatusError, and the exception is
                       // recorded by the ProcessGroup, which rethrows the
                       // first one on the joining thread (instead of the
                       // old behaviour: std::terminate in this thread).
                       if (body_t0 != 0) {
                         obs::CallTable::instance().add_exec(
                             call_id, obs::now_ns() - body_t0);
                       }
                       if (join_flows) {
                         obs::flow_start(
                             obs::Op::DoAllCopy,
                             (*join_flows)[static_cast<std::size_t>(i)],
                             call_id);
                       }
                       (*locals)[static_cast<std::size_t>(i)].define(
                           kStatusError);
                       throw;
                     }
                     if (body_t0 != 0) {
                       obs::CallTable::instance().add_exec(
                           call_id, obs::now_ns() - body_t0);
                     }
                     if (join_flows) {
                       obs::flow_start(
                           obs::Op::DoAllCopy,
                           (*join_flows)[static_cast<std::size_t>(i)],
                           call_id);
                     }
                     (*locals)[static_cast<std::size_t>(i)].define(local);
                   });
  }

  // The merge suspends on each local status in turn and combines them
  // pairwise; the result defines `status` only after every copy has
  // terminated (§4.3.1 postcondition).  A combine that throws is treated
  // as a throwing copy is: the status defines as kStatusError, and the
  // first such exception is rethrown for the group to record.
  return [locals, combine, status, n, call_id, join_flows] {
    int merged = (*locals)[0].read();
    if (join_flows) {
      obs::flow_end(obs::Op::DoAllCopy, (*join_flows)[0], call_id);
    }
    std::exception_ptr combine_error;
    for (int i = 1; i < n; ++i) {
      const int local = (*locals)[static_cast<std::size_t>(i)].read();
      if (join_flows) {
        obs::flow_end(obs::Op::DoAllCopy,
                      (*join_flows)[static_cast<std::size_t>(i)], call_id);
      }
      if (combine_error) continue;
      try {
        merged = combine(merged, local);
      } catch (...) {
        combine_error = std::current_exception();
      }
    }
    status.define(combine_error ? kStatusError : merged);
    if (call_id != 0) obs::CallTable::instance().call_end(call_id);
    if (combine_error) std::rethrow_exception(combine_error);
  };
}

}  // namespace

int do_all(vp::Machine& machine, const std::vector<int>& processors,
           const DoAllBody& body, const DoAllCombine& combine) {
  // The copies execute on whatever lane pcn::ProcessGroup spawns onto:
  // under TDP_SCHED=steal a do_all over thousands of processors costs
  // thousands of fiber records on a fixed worker pool, not thousands of
  // OS threads.  The merge runs in the calling process, which would
  // otherwise only wait for it.
  pcn::ProcessGroup group;
  pcn::Def<int> status;
  if (const pcn::Block merge =
          launch(machine, processors, body, combine, group, status)) {
    group.run_here(merge);
  }
  group.join();
  return status.read();
}

pcn::Def<int> do_all_async(vp::Machine& machine,
                           const std::vector<int>& processors,
                           const DoAllBody& body, const DoAllCombine& combine,
                           pcn::ProcessGroup& group) {
  pcn::Def<int> status;
  if (pcn::Block merge =
          launch(machine, processors, body, combine, group, status)) {
    group.spawn(std::move(merge));
  }
  return status;
}

}  // namespace tdp::core
