// am_util:do_all (§5.2.1): execute a program concurrently on each processor
// of a group and pairwise-combine the per-copy results.
//
// do_all is the primitive under distributed_call: the generated wrapper
// program of §5.2.2 is what do_all runs on each processor.  We expose it
// separately, as the thesis does, because it is independently useful (the
// examples use it to load code and initialise per-processor state).
#pragma once

#include <functional>
#include <vector>

#include "pcn/def.hpp"
#include "pcn/process.hpp"
#include "vp/machine.hpp"

namespace tdp::core {

/// The per-copy body: receives the copy's index into `processors` and
/// returns that copy's local status.
using DoAllBody = std::function<int(int index)>;

/// Pairwise status combiner.
using DoAllCombine = std::function<int(int, int)>;

/// Runs `body` once per entry of `processors`, each copy placed on its
/// processor, waits for all copies, and returns the pairwise combination of
/// their local statuses (in index order).  An empty group yields 0.  A
/// copy or combine that throws makes the status kStatusError, and the first
/// such exception is rethrown once every copy has ended (by do_all itself,
/// or by the group's join() for do_all_async).  The merge runs in the
/// calling process.
int do_all(vp::Machine& machine, const std::vector<int>& processors,
           const DoAllBody& body, const DoAllCombine& combine);

/// Asynchronous form: spawns the copies and a merge process into `group`
/// and returns a definitional status that becomes defined when every copy
/// has terminated (§4.1.2: callers can use it for synchronisation).
pcn::Def<int> do_all_async(vp::Machine& machine,
                           const std::vector<int>& processors,
                           const DoAllBody& body, const DoAllCombine& combine,
                           pcn::ProcessGroup& group);

}  // namespace tdp::core
