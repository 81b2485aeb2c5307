// Distributed calls (§3.3, §4.3, §5.2): calling an SPMD data-parallel
// program from the task-parallel level.
//
// Executing a distributed call to program `pgm` on processors `procs` is
// equivalent to calling `pgm` concurrently on each processor of `procs` and
// waiting for all copies to complete (§3.3.1).  Control returns to the
// caller — and the call's Status becomes defined — only when every copy has
// terminated (fig. 3.2).  Each copy runs inside a *wrapper* (fig. 3.10,
// §5.2.2) that
//   1. obtains local sections of distributed-array parameters via
//      find_local on its own processor,
//   2. declares local variables for status and reduction parameters,
//   3. calls the data-parallel program with the proper actual parameters,
//   4. contributes its local status/reduction values to a pairwise merge
//      whose results are returned to the caller.
//
// If resolving a local section fails on some copy, that copy's program is
// not called and its local status carries the failure code — exactly the
// generated-wrapper behaviour shown in §5.2.4.
//
// DistributedCall is a builder mirroring the Parameters tuple of
// am_user:distributed_call; the five parameter kinds of §3.3.1.2 map to
// constant(), index(), local(), status(), reduce_*() — plus port() for the
// §7.2.1 direct-communication extension.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/call_args.hpp"
#include "core/registry.hpp"
#include "dist/array_manager.hpp"
#include "pcn/def.hpp"
#include "pcn/process.hpp"

namespace tdp::core {

/// Element-wise combine signatures for typed reductions.
using F64Combine = std::function<void(
    std::span<const double> a, std::span<const double> b,
    std::span<double> out)>;
using I32Combine = std::function<void(std::span<const int> a,
                                      std::span<const int> b,
                                      std::span<int> out)>;

F64Combine f64_sum();
F64Combine f64_max();
F64Combine f64_min();
I32Combine i32_sum();
I32Combine i32_max();

class DistributedCall {
 public:
  DistributedCall(vp::Machine& machine, dist::ArrayManager& arrays,
                  const ProgramRegistry& registry, std::vector<int> processors,
                  std::string program);

  /// Global constant: every copy receives the same value, input only.
  DistributedCall& constant(Value v);

  /// Integer index: copy i receives i, input only.
  DistributedCall& index();

  /// Local section of the distributed array named by `id`: each copy
  /// receives its own section, input and/or output.
  DistributedCall& local(dist::ArrayId id);

  /// Integer status variable, output only, at most one per call; local
  /// values are merged with `combine` (default max, §C.5).
  DistributedCall& status(StatusCombine combine = status_combine_max);

  /// Reduction variable of `len` doubles; merged values are stored into
  /// *out (resized to len) before the call's status becomes defined.
  DistributedCall& reduce_f64(std::size_t len, F64Combine combine,
                              std::vector<double>* out);

  /// Reduction variable of `len` ints.
  DistributedCall& reduce_i32(std::size_t len, I32Combine combine,
                              std::vector<int>* out);

  /// Channel ports (§7.2.1 extension): copy i receives group.port(i).
  DistributedCall& port(ChannelGroup group);

  /// Where to deliver the first copy-failure description ("copy 3: ...")
  /// when a copy throws instead of returning.  Written — possibly with an
  /// empty string when every copy succeeded — before the call's status
  /// becomes defined.  The pointee must outlive the call.
  DistributedCall& error_message(std::string* out);

  /// Executes the call and blocks until every copy has terminated.
  /// Returns the merged status: STATUS_OK when there is no status parameter
  /// and no wrapper failure, otherwise the combined local statuses
  /// (§4.3.1 postcondition).  Returns STATUS_INVALID without running when
  /// the call itself is malformed (unknown program, bad processors, more
  /// than one status parameter).  A copy that throws — a user exception, or
  /// a vp::ReceiveTimeout from a lost message under a receive deadline —
  /// does not terminate the process: its local status becomes kStatusError
  /// and folds into the §4.1.2 merge like any other failure code, with the
  /// exception text available via error_message().  A status combine or
  /// reduction combine that throws folds in the same way, and the error
  /// message then names the callback.  The merge runs in the calling
  /// process, which would otherwise only wait for it.
  int run();

  /// Asynchronous form; the returned definitional status is defined only on
  /// completion of all copies.  The caller keeps `group` alive until then.
  /// Unlike run(), which merges in the calling process, this spawns a
  /// combine process into `group` as well.
  pcn::Def<int> run_async(pcn::ProcessGroup& group);

 private:
  /// Validates preconditions of §4.3.1 that are checkable before spawning.
  bool validate(DataParallelProgram& program_out) const;

  /// Everything run() and run_async() share: validates, marshals, pins the
  /// local() arrays and spawns the n copies into `group`.  Returns the
  /// combine body (fig. 3.10), which merges the copies' results, defines
  /// `status` and then releases the pins; run() calls it on the calling
  /// thread, run_async() spawns it.  An invalid call defines `status` as
  /// STATUS_INVALID and returns an empty body.
  pcn::Block launch(pcn::ProcessGroup& group, pcn::Def<int> status);

  vp::Machine& machine_;
  dist::ArrayManager& arrays_;
  const ProgramRegistry& registry_;
  std::vector<int> processors_;
  std::string program_name_;
  std::vector<Param> params_;
  StatusCombine status_combine_;
  int status_params_ = 0;
  std::string* error_out_ = nullptr;
};

}  // namespace tdp::core
