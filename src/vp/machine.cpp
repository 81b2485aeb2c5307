#include "vp/machine.hpp"

#include <stdexcept>

#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace tdp::vp {

void Machine::count_delivery(int dst) {
  messages_sent_.add_at(dst);
  // The registry twin of messages_sent_: process-global so the telemetry
  // sampler can difference per-destination shards without a Machine
  // reference (the obs layer must not depend on vp).
  static obs::ShardedCounter& vp_messages =
      obs::Registry::instance().counter("vp.messages");
  vp_messages.add_at(dst);
}

Machine::Machine(int nprocs) {
  if (nprocs <= 0) {
    throw std::invalid_argument("Machine: nprocs must be positive");
  }
  mailboxes_.reserve(static_cast<std::size_t>(nprocs));
  for (int i = 0; i < nprocs; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>(i));
  }
  if (fault::Plan plan = fault::Plan::from_env(); plan.active()) {
    injector_ = std::make_unique<fault::Injector>(std::move(plan), nprocs);
  }
  // The in-process delivery leg both backends share: the direct transport
  // calls it for every message, the socket transport for its own rank's
  // traffic and for every deserialized inbound frame.  Counted before the
  // post, so a receiver that has taken a message already sees it counted.
  transport_ = make_transport_from_env(
      nprocs, [this](int dst, Message&& m) {
        count_delivery(dst);
        mailboxes_[static_cast<std::size_t>(dst)]->post(std::move(m));
      });
  // The flusher bounds how long a reorder stash may hold a message: each
  // process runs its own injector, so without it the last message a
  // process sends toward a destination would stay stashed forever.
  if (injector_) {
    injector_->start_stash_flusher([this](int dst, Message&& m) {
      transport_->deliver(dst, std::move(m));
    });
  }
  if (obs::enabled()) {
    obs::Telemetry& tel = obs::Telemetry::instance();
    telemetry_tokens_.reserve(mailboxes_.size());
    for (int i = 0; i < nprocs; ++i) {
      Mailbox* mb = mailboxes_[static_cast<std::size_t>(i)].get();
      // describe_wait renders both sides of a stall: the pending queue AND
      // every registered waiter's match tuple (the indexed mailbox can have
      // several selective receivers blocked at once).
      telemetry_tokens_.push_back(tel.add_vp_source(
          i, &mb->wait_state(), [mb] { return mb->describe_wait(); }));
    }
    obs::telemetry_start_from_env();
  }
}

Machine::~Machine() {
  // Unregister before closing/destroying mailboxes: the sampler thread
  // holds raw pointers into them and stops when the last source leaves.
  if (!telemetry_tokens_.empty()) {
    obs::Telemetry& tel = obs::Telemetry::instance();
    for (int token : telemetry_tokens_) tel.remove_vp_source(token);
  }
  // Flush any messages the injector held back for reordering; an unflushed
  // stash would act as an unplanned drop.  Drain through the transport so
  // a remote-bound stash still crosses the wire.
  if (injector_) {
    injector_->drain([this](int dst, Message&& m) {
      transport_->deliver(dst, std::move(m));
    });
  }
  // Stop reader/acceptor threads BEFORE closing mailboxes: a reader that
  // outlived the mailboxes would post into freed memory.
  transport_->shutdown();
  for (auto& mb : mailboxes_) mb->close();
}

void Machine::set_fault_plan(const fault::Plan& plan) {
  injector_ = plan.active()
                  ? std::make_unique<fault::Injector>(plan, nprocs())
                  : nullptr;
  if (injector_) {
    injector_->start_stash_flusher([this](int dst, Message&& m) {
      transport_->deliver(dst, std::move(m));
    });
  }
}

Mailbox& Machine::mailbox(int dst) {
  if (!valid_proc(dst)) {
    throw std::out_of_range("Machine::mailbox: bad processor number");
  }
  return *mailboxes_[static_cast<std::size_t>(dst)];
}

void Machine::send(int dst, Message m) {
  if (!valid_proc(dst)) {
    throw std::out_of_range("Machine::send: bad processor number");
  }
  if (obs::enabled()) {
    // Stamp the trace context and emit the send instant BEFORE posting:
    // the receiver may match the message the moment it is queued, and the
    // flow arrow needs the send timestamp to precede the receive's.
    m.flow = obs::next_flow_id();
    obs::instant_flow(obs::Op::MsgSend, m.flow, m.comm,
                      static_cast<std::uint64_t>(dst),
                      static_cast<std::uint64_t>(static_cast<unsigned>(m.tag)));
  }
  if (injector_) {
    // The sender's identity is the calling thread's placement, NOT m.src:
    // for data-parallel traffic m.src is the group index within the call,
    // not a processor number.  Faults fire at the send boundary, before
    // the message reaches the transport: a drop never touches the wire, a
    // delay holds the sender, a duplicate is framed twice.
    injector_->on_send(current_proc(), dst, std::move(m),
                       [this, dst](Message&& routed) {
                         transport_->deliver(dst, std::move(routed));
                       });
    return;
  }
  transport_->deliver(dst, std::move(m));
}

// The canonical placement thread-local lives in the obs layer so tracing
// can attribute events to virtual processors without depending on vp.
int current_proc() { return obs::current_vp(); }

ProcScope::ProcScope(int proc) : saved_(obs::set_current_vp(proc)) {}

ProcScope::~ProcScope() { obs::set_current_vp(saved_); }

}  // namespace tdp::vp
