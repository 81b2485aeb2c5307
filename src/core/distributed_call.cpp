#include "core/distributed_call.hpp"

#include <algorithm>
#include <utility>

#include "obs/attr.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spmd/context.hpp"

namespace tdp::core {

F64Combine f64_sum() {
  return [](std::span<const double> a, std::span<const double> b,
            std::span<double> out) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = a[i] + b[i];
  };
}

F64Combine f64_max() {
  return [](std::span<const double> a, std::span<const double> b,
            std::span<double> out) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = a[i] > b[i] ? a[i] : b[i];
    }
  };
}

F64Combine f64_min() {
  return [](std::span<const double> a, std::span<const double> b,
            std::span<double> out) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = a[i] < b[i] ? a[i] : b[i];
    }
  };
}

I32Combine i32_sum() {
  return [](std::span<const int> a, std::span<const int> b,
            std::span<int> out) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = a[i] + b[i];
  };
}

I32Combine i32_max() {
  return [](std::span<const int> a, std::span<const int> b,
            std::span<int> out) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = a[i] > b[i] ? a[i] : b[i];
    }
  };
}

namespace {

/// What one wrapper copy hands back for merging: its effective local status
/// plus its local reduction variables, in parameter order (the tuple of
/// §5.2.2).  `error` is non-empty only when the copy threw; the status is
/// then kStatusError and the reduction buffers are zero-initialised.
struct WrapperResult {
  int status = kStatusOk;
  std::vector<ReduceBuffer> reduces;
  std::string error;
};

/// Zero-initialised reduction buffers matching the call's Reduce parameters,
/// so a copy that failed before (or while) producing results still
/// contributes well-formed operands to the pairwise merge.
std::vector<ReduceBuffer> zero_reduces(const std::vector<Param>& params) {
  std::vector<ReduceBuffer> out;
  for (const Param& p : params) {
    if (p.kind == Param::Kind::Reduce) {
      out.push_back(ReduceBuffer::make(p.reduce_type, p.reduce_len));
    }
  }
  return out;
}

/// The layout pins of one call (the repartition barrier).  The combine
/// releases them once the call's status has defined; the destructor
/// releases whatever is still held, so no path out of a call leaves an
/// array pinned.
class LayoutPins {
 public:
  LayoutPins(dist::ArrayManager& arrays, std::vector<dist::ArrayId> ids)
      : arrays_(arrays), ids_(std::move(ids)) {
    for (const dist::ArrayId& id : ids_) arrays_.pin_layout(id);
  }
  ~LayoutPins() { release(); }
  LayoutPins(const LayoutPins&) = delete;
  LayoutPins& operator=(const LayoutPins&) = delete;

  void release() {
    for (const dist::ArrayId& id : ids_) arrays_.unpin_layout(id);
    ids_.clear();
  }

 private:
  dist::ArrayManager& arrays_;
  std::vector<dist::ArrayId> ids_;
};

/// The combine's failure record: the first failure description in merge
/// order, and whether a caller-supplied merge callback threw.
struct MergeErrors {
  std::string first;
  bool callback_threw = false;

  void note(std::string text) {
    if (first.empty()) first = std::move(text);
  }

  /// Runs one merge callback (a status combine, or reduction `reduction`'s
  /// combine or delivery).  A throw folds into the merge like a throwing
  /// copy (§4.1.2): the call's status becomes kStatusError, and the error
  /// message names the callback.
  template <class Fn>
  void guard(const char* what, int reduction, Fn&& fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      failed(what, reduction, e.what());
    } catch (...) {
      failed(what, reduction, "unknown exception");
    }
  }

 private:
  void failed(const char* what, int reduction, const char* text) {
    callback_threw = true;
    std::string label = what;
    if (reduction >= 0) label += " " + std::to_string(reduction);
    note(label + ": " + text);
  }
};

}  // namespace

/// Builds the per-copy actual parameters, runs the program, and produces the
/// WrapperResult — the generated wrapper program of §5.2.2–5.2.4.
class Wrapper {
 public:
  static WrapperResult run_copy(dist::ArrayManager& arrays,
                                spmd::SpmdContext& ctx,
                                const std::vector<Param>& params,
                                const DataParallelProgram& program,
                                bool has_status) {
    WrapperResult result;
    CallArgs args;
    args.slots_.resize(params.size());

    int resolve_status = kStatusOk;
    std::vector<std::size_t> status_slots;
    std::vector<std::pair<std::size_t, std::size_t>> reduce_slots;

    for (std::size_t i = 0; i < params.size(); ++i) {
      const Param& p = params[i];
      CallArgs::SlotState& slot = args.slots_[i];
      slot.kind = p.kind;
      switch (p.kind) {
        case Param::Kind::Constant:
          slot.constant = &p.constant;
          break;
        case Param::Kind::Index:
          slot.index = ctx.index();
          break;
        case Param::Kind::Local: {
          Status st = arrays.find_local(ctx.proc(), p.array, slot.local);
          if (!ok(st) && resolve_status == kStatusOk) {
            resolve_status = to_int(st);
          }
          break;
        }
        case Param::Kind::Status:
          slot.status = kStatusOk;
          status_slots.push_back(i);
          break;
        case Param::Kind::Reduce:
          slot.reduce = ReduceBuffer::make(p.reduce_type, p.reduce_len);
          reduce_slots.push_back({reduce_slots.size(), i});
          break;
        case Param::Kind::Port:
          slot.port = p.ports.port(ctx.index());
          break;
      }
    }

    if (resolve_status != kStatusOk) {
      // find_local failed: the program is not called; the copy's status is
      // the failure code (§5.2.4 generated-wrapper behaviour).  Reduction
      // buffers stay zero-initialised and still participate in the merge.
      result.status = resolve_status;
    } else {
      try {
        program(ctx, args);
        result.status = has_status && !status_slots.empty()
                            ? args.slots_[status_slots.front()].status
                            : kStatusOk;
      } catch (const std::exception& e) {
        // A throwing copy folds into the status merge like a resolve
        // failure: kStatusError regardless of whether the call declared a
        // status parameter (the §4.1.2 discipline — failure must reach the
        // caller, never std::terminate).  The already-allocated reduction
        // buffers keep their zero state and still participate.
        result.status = kStatusError;
        result.error = e.what();
      }
    }

    result.reduces.reserve(reduce_slots.size());
    for (const auto& [order, slot] : reduce_slots) {
      (void)order;
      result.reduces.push_back(std::move(args.slots_[slot].reduce));
    }
    return result;
  }
};

DistributedCall::DistributedCall(vp::Machine& machine,
                                 dist::ArrayManager& arrays,
                                 const ProgramRegistry& registry,
                                 std::vector<int> processors,
                                 std::string program)
    : machine_(machine),
      arrays_(arrays),
      registry_(registry),
      processors_(std::move(processors)),
      program_name_(std::move(program)),
      status_combine_(status_combine_max) {}

DistributedCall& DistributedCall::constant(Value v) {
  Param p;
  p.kind = Param::Kind::Constant;
  p.constant = std::move(v);
  params_.push_back(std::move(p));
  return *this;
}

DistributedCall& DistributedCall::index() {
  Param p;
  p.kind = Param::Kind::Index;
  params_.push_back(std::move(p));
  return *this;
}

DistributedCall& DistributedCall::local(dist::ArrayId id) {
  Param p;
  p.kind = Param::Kind::Local;
  p.array = id;
  params_.push_back(std::move(p));
  return *this;
}

DistributedCall& DistributedCall::status(StatusCombine combine) {
  Param p;
  p.kind = Param::Kind::Status;
  params_.push_back(std::move(p));
  status_combine_ = std::move(combine);
  ++status_params_;
  return *this;
}

DistributedCall& DistributedCall::reduce_f64(std::size_t len,
                                             F64Combine combine,
                                             std::vector<double>* out) {
  Param p;
  p.kind = Param::Kind::Reduce;
  p.reduce_type = dist::ElemType::Float64;
  p.reduce_len = len;
  p.reduce_combine = [combine = std::move(combine)](
                         const ReduceBuffer& a, const ReduceBuffer& b,
                         ReduceBuffer& o) {
    combine(std::span<const double>(a.f64), std::span<const double>(b.f64),
            std::span<double>(o.f64));
  };
  if (out != nullptr) {
    p.reduce_deliver = [out](const ReduceBuffer& merged) {
      *out = merged.f64;
    };
  }
  params_.push_back(std::move(p));
  return *this;
}

DistributedCall& DistributedCall::reduce_i32(std::size_t len,
                                             I32Combine combine,
                                             std::vector<int>* out) {
  Param p;
  p.kind = Param::Kind::Reduce;
  p.reduce_type = dist::ElemType::Int32;
  p.reduce_len = len;
  p.reduce_combine = [combine = std::move(combine)](
                         const ReduceBuffer& a, const ReduceBuffer& b,
                         ReduceBuffer& o) {
    combine(std::span<const int>(a.i32), std::span<const int>(b.i32),
            std::span<int>(o.i32));
  };
  if (out != nullptr) {
    p.reduce_deliver = [out](const ReduceBuffer& merged) {
      *out = merged.i32;
    };
  }
  params_.push_back(std::move(p));
  return *this;
}

DistributedCall& DistributedCall::port(ChannelGroup group) {
  Param p;
  p.kind = Param::Kind::Port;
  p.ports = std::move(group);
  params_.push_back(std::move(p));
  return *this;
}

DistributedCall& DistributedCall::error_message(std::string* out) {
  error_out_ = out;
  return *this;
}

bool DistributedCall::validate(DataParallelProgram& program_out) const {
  if (processors_.empty()) return false;
  for (int p : processors_) {
    if (!machine_.valid_proc(p)) return false;
  }
  if (status_params_ > 1) return false;  // at most one status (§4.3.1)
  for (const Param& p : params_) {
    if (p.kind == Param::Kind::Reduce && !p.reduce_combine) return false;
    if (p.kind == Param::Kind::Port &&
        p.ports.size() < static_cast<int>(processors_.size())) {
      return false;
    }
  }
  return registry_.find(program_name_, program_out);
}

int DistributedCall::run() {
  pcn::ProcessGroup group;
  pcn::Def<int> status;
  if (const pcn::Block combine = launch(group, status)) {
    group.run_here(combine);
  }
  group.join();
  return status.read();
}

pcn::Def<int> DistributedCall::run_async(pcn::ProcessGroup& group) {
  pcn::Def<int> status;
  if (pcn::Block combine = launch(group, status)) {
    group.spawn(std::move(combine));
  }
  return status;
}

pcn::Block DistributedCall::launch(pcn::ProcessGroup& group,
                                   pcn::Def<int> status) {
  DataParallelProgram program;
  if (!validate(program)) {
    status.define(kStatusInvalid);
    return nullptr;
  }

  const int n = static_cast<int>(processors_.size());
  const std::uint64_t comm = machine_.next_comm();

  static obs::ShardedCounter& call_count =
      obs::Registry::instance().counter("call.count");
  call_count.add();

  // Open this call's attribution ledger under its call-root id (the comm):
  // the mailbox folds queue waits and blocked-receive time in as messages
  // flow, the copies add execute time below, and the combine closes the
  // ledger (obs::CallTable::call_end) once the status defines.
  const bool attr_on = obs::enabled();
  if (attr_on) {
    obs::CallTable::instance().call_begin(comm, obs::CallKind::Call, n);
  }

  // Phase 1 of the call machinery (§3.3.2.2): marshal the argument list
  // into the shared, immutable view all copies use.  The spawned processes
  // and the combine body must not reference *this, which may be destroyed
  // while the asynchronous call is still running.
  std::shared_ptr<std::vector<Param>> shared;
  std::shared_ptr<std::vector<int>> procs;
  std::shared_ptr<std::vector<pcn::Def<WrapperResult>>> results;
  const std::uint64_t marshal_t0 = attr_on ? obs::now_ns() : 0;
  {
    obs::Span marshal(obs::Op::CallMarshal, comm,
                      static_cast<std::uint64_t>(n), nullptr);
    marshal.set_arg1(params_.size());
    shared = std::make_shared<std::vector<Param>>(params_);
    procs = std::make_shared<std::vector<int>>(processors_);
    results = std::make_shared<std::vector<pcn::Def<WrapperResult>>>(
        static_cast<std::size_t>(n));
  }
  if (attr_on) {
    obs::CallTable::instance().add_marshal(comm,
                                           obs::now_ns() - marshal_t0);
  }
  const bool has_status = status_params_ == 1;
  vp::Machine* machine = &machine_;
  dist::ArrayManager* arrays = &arrays_;

  // Repartition barrier: hold each local() array's placement fixed for the
  // whole call, so a shard migration can never move a section out from
  // under copies that resolved it with find_local.  The combine releases
  // the pins after the call's status defines.  Each copy holds them too,
  // so if spawning a later copy throws, the copies already running keep
  // their sections until the last of them ends.
  std::vector<dist::ArrayId> pinned;
  for (const Param& p : params_) {
    if (p.kind != Param::Kind::Local) continue;
    if (std::find(pinned.begin(), pinned.end(), p.array) == pinned.end()) {
      pinned.push_back(p.array);
    }
  }
  auto pins = std::make_shared<LayoutPins>(arrays_, std::move(pinned));

  // Causal chaining of the call's phases: one flow id per copy links the
  // caller's spawn point to that copy's execute span ("call.execute"
  // arrows fanning out), and a second links the copy's completion to the
  // combine's read ("call.combine" arrows fanning back in).  All of a
  // call's spans and arrows additionally share the call-scoped comm.
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

  // Phase 2: one SPMD execute per copy, placed on its processor.  The
  // copies inherit the group's execution lane: scheduler tasks under
  // TDP_SCHED=steal (blocked receives suspend the fiber, freeing its
  // worker), dedicated threads on the legacy lane.
  static obs::Histogram& execute_hist =
      obs::Registry::instance().histogram("call.execute_ns");
  for (int i = 0; i < n; ++i) {
    if (spawn_flows) {
      obs::flow_start(obs::Op::CallExecute,
                      (*spawn_flows)[static_cast<std::size_t>(i)], comm);
    }
    group.spawn_on(
        machine_, processors_[static_cast<std::size_t>(i)],
        [machine, arrays, shared, procs, results, program, comm, i,
         has_status, spawn_flows, join_flows, pins] {
          obs::Span exec(obs::Op::CallExecute, comm,
                         static_cast<std::uint64_t>(i), &execute_hist);
          const std::uint64_t exec_t0 = obs::enabled() ? obs::now_ns() : 0;
          if (spawn_flows) {
            obs::flow_end(obs::Op::CallExecute,
                          (*spawn_flows)[static_cast<std::size_t>(i)], comm);
          }
          WrapperResult result;
          try {
            spmd::SpmdContext ctx(*machine, comm, *procs, i);
            result =
                Wrapper::run_copy(*arrays, ctx, *shared, program, has_status);
          } catch (const std::exception& e) {
            // Last line of defence: anything escaping the wrapper (context
            // setup, a reduction-buffer allocation, a receive timeout
            // during a collective inside run_copy's own machinery) becomes
            // a well-formed kStatusError result rather than a dead thread
            // — the combine below must never wait forever on an undefined
            // slot.
            result.status = kStatusError;
            result.error = e.what();
            result.reduces = zero_reduces(*shared);
          }
          if (result.status == kStatusError && !result.error.empty()) {
            static obs::ShardedCounter& copy_errors =
                obs::Registry::instance().counter("call.copy_errors");
            copy_errors.add();
          }
          if (exec_t0 != 0) {
            obs::CallTable::instance().add_exec(comm,
                                                obs::now_ns() - exec_t0);
          }
          // Flow origin before define(): the combine may emit the matching
          // flow end the instant the result becomes readable.
          if (join_flows) {
            obs::flow_start(obs::Op::CallCombine,
                            (*join_flows)[static_cast<std::size_t>(i)], comm);
          }
          (*results)[static_cast<std::size_t>(i)].define(std::move(result));
        });
  }

  // Phase 3 — the combine (fig. 3.10): merges local statuses and reduction
  // variables pairwise in copy order, delivers merged reductions, and only
  // then defines the call's status.
  return [shared, results, status, scombine = status_combine_, comm, n,
          join_flows, error_out = error_out_, pins] {
    obs::Span comb(obs::Op::CallCombine, comm, static_cast<std::uint64_t>(n),
                   nullptr);
    MergeErrors errors;
    WrapperResult merged = (*results)[0].read();
    if (join_flows) {
      obs::flow_end(obs::Op::CallCombine, (*join_flows)[0], comm);
    }
    if (!merged.error.empty()) errors.note("copy 0: " + merged.error);
    for (int i = 1; i < n; ++i) {
      const WrapperResult& next =
          (*results)[static_cast<std::size_t>(i)].read();
      if (join_flows) {
        obs::flow_end(obs::Op::CallCombine,
                      (*join_flows)[static_cast<std::size_t>(i)], comm);
      }
      if (!next.error.empty()) {
        errors.note("copy " + std::to_string(i) + ": " + next.error);
      }
      errors.guard("status combine", -1, [&] {
        merged.status = scombine(merged.status, next.status);
      });
      std::size_t r = 0;
      for (const Param& p : *shared) {
        if (p.kind != Param::Kind::Reduce) continue;
        if (r >= merged.reduces.size() || r >= next.reduces.size()) break;
        errors.guard("reduce combine", static_cast<int>(r), [&] {
          ReduceBuffer out = ReduceBuffer::make(p.reduce_type, p.reduce_len);
          p.reduce_combine(merged.reduces[r], next.reduces[r], out);
          merged.reduces[r] = std::move(out);
        });
        ++r;
      }
    }
    std::size_t r = 0;
    for (const Param& p : *shared) {
      if (p.kind != Param::Kind::Reduce) continue;
      if (r >= merged.reduces.size()) break;
      if (p.reduce_deliver) {
        errors.guard("reduce delivery", static_cast<int>(r),
                     [&] { p.reduce_deliver(merged.reduces[r]); });
      }
      ++r;
    }
    if (errors.callback_threw) merged.status = kStatusError;
    // Deliver the failure description before the status becomes readable —
    // the same ordering discipline as reductions (§3.3.1: all outputs are
    // valid once the call's status is defined).
    if (error_out != nullptr) *error_out = std::move(errors.first);
    status.define(merged.status);
    // Close the combine span before the ledger: the exemplar capture
    // inside call_end snapshots the ring, and the combine span must be in
    // it — an open span has emitted nothing yet.
    comb.finish();
    if (obs::enabled()) obs::CallTable::instance().call_end(comm);
    pins->release();
  };
}

}  // namespace tdp::core
