#include "fault/inject.hpp"

#include <chrono>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/sched.hpp"
#include "util/bits.hpp"

namespace tdp::fault {

namespace {

/// Uniform double in [0, 1) from the top 53 bits of a mixed word.
double u01(std::uint64_t word) {
  return static_cast<double>(word >> 11) * 0x1.0p-53;
}

// Distinct salts give each fault kind an independent decision stream from
// the same (seed, dst, seq) coordinate.
constexpr std::uint64_t kSaltDrop = 0xd1f7a11ed5ea501dULL;
constexpr std::uint64_t kSaltDup = 0x2b7e151628aed2a6ULL;
constexpr std::uint64_t kSaltReorder = 0x452821e638d01377ULL;

std::uint64_t decision_word(std::uint64_t seed, int dst, std::uint64_t seq,
                            std::uint64_t salt) {
  const auto d = static_cast<std::uint64_t>(static_cast<unsigned>(dst));
  return util::mix64(seed ^ salt ^ util::mix64((d << 32) ^ seq));
}

obs::ShardedCounter& drops_counter() {
  static obs::ShardedCounter& c =
      obs::Registry::instance().counter("fault.drops");
  return c;
}
obs::ShardedCounter& delays_counter() {
  static obs::ShardedCounter& c =
      obs::Registry::instance().counter("fault.delays");
  return c;
}
obs::ShardedCounter& dups_counter() {
  static obs::ShardedCounter& c =
      obs::Registry::instance().counter("fault.dups");
  return c;
}
obs::ShardedCounter& reorders_counter() {
  static obs::ShardedCounter& c =
      obs::Registry::instance().counter("fault.reorders");
  return c;
}

}  // namespace

Injector::Injector(Plan plan, int nprocs) : plan_(std::move(plan)) {
  dsts_.reserve(static_cast<std::size_t>(nprocs));
  for (int i = 0; i < nprocs; ++i) {
    dsts_.push_back(std::make_unique<DstState>());
  }
  failed_.assign(static_cast<std::size_t>(nprocs), false);
  for (int vp : plan_.failed) {
    if (vp >= 0 && vp < nprocs) failed_[static_cast<std::size_t>(vp)] = true;
  }
}

bool Injector::vp_failed(int vp) const {
  return vp >= 0 && vp < static_cast<int>(failed_.size()) &&
         failed_[static_cast<std::size_t>(vp)];
}

void Injector::on_send(int src_vp, int dst, vp::Message&& m,
                       const Deliver& deliver) {
  // A failed endpoint loses everything; otherwise the plan's drop
  // probability applies at this destination's next sequence number.
  const bool lost = vp_failed(src_vp) || vp_failed(dst);
  DstState& state = dst_state(dst);
  const std::uint64_t seq =
      lost ? 0 : state.msg_seq.fetch_add(1, std::memory_order_relaxed);
  const bool dropped =
      lost || (plan_.drop > 0.0 &&
               u01(decision_word(plan_.seed, dst, seq, kSaltDrop)) <
                   plan_.drop);
  if (dropped) {
    drops_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) {
      drops_counter().add();
      obs::instant_flow(obs::Op::FaultDrop, m.flow, m.comm,
                        static_cast<std::uint64_t>(dst),
                        static_cast<std::uint64_t>(
                            static_cast<unsigned>(m.tag)));
    }
    return;
  }

  if (plan_.delay_ms > 0) {
    delays_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) {
      delays_counter().add();
      obs::instant_flow(obs::Op::FaultDelay, m.flow, m.comm,
                        static_cast<std::uint64_t>(dst), plan_.delay_ms);
    }
    // Holding the sender is the delay: the message (and everything the
    // sender would have sent next) arrives late relative to other senders.
    sched::sleep_for(std::chrono::milliseconds(plan_.delay_ms));
  }

  const bool dup =
      plan_.dup > 0.0 &&
      u01(decision_word(plan_.seed, dst, seq, kSaltDup)) < plan_.dup;
  if (dup) {
    dups_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) {
      dups_counter().add();
      obs::instant_flow(obs::Op::FaultDup, m.flow, m.comm,
                        static_cast<std::uint64_t>(dst),
                        static_cast<std::uint64_t>(
                            static_cast<unsigned>(m.tag)));
    }
    deliver(vp::Message(m));  // extra copy shares the refcounted payload
  }

  if (plan_.reorder > 0.0) {
    std::optional<vp::Message> flushed;
    bool stashed = false;
    {
      std::lock_guard<std::mutex> lock(state.stash_mutex);
      if (state.stash.has_value()) {
        // A message is already held back: deliver the new one first, then
        // release the stash — the pairwise swap.
        flushed = std::move(state.stash);
        state.stash.reset();
      } else if (u01(decision_word(plan_.seed, dst, seq, kSaltReorder)) <
                 plan_.reorder) {
        state.stash = std::move(m);
        state.stash_since = std::chrono::steady_clock::now();
        stashed = true;
      }
    }
    if (stashed) {
      reorders_.fetch_add(1, std::memory_order_relaxed);
      if (obs::enabled()) {
        reorders_counter().add();
        obs::instant(obs::Op::FaultReorder, 0,
                     static_cast<std::uint64_t>(dst), seq);
      }
      return;
    }
    deliver(std::move(m));
    if (flushed.has_value()) deliver(std::move(*flushed));
    return;
  }

  deliver(std::move(m));
}

void Injector::start_stash_flusher(LateSink sink) {
  if (plan_.reorder <= 0.0 || flusher_.joinable()) return;
  late_sink_ = std::move(sink);
  flusher_ = std::thread([this] { flusher_loop(); });
}

void Injector::stop_stash_flusher() {
  {
    std::lock_guard<std::mutex> lock(flusher_mu_);
    flusher_stop_ = true;
  }
  flusher_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

Injector::~Injector() { stop_stash_flusher(); }

void Injector::flusher_loop() {
  // How long a stash may hold a message waiting for a swap partner.  Long
  // enough that back-to-back traffic still reorders, short enough that a
  // final-message stash reads as a delay, not a loss.
  constexpr auto kHold = std::chrono::milliseconds(25);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(flusher_mu_);
      flusher_cv_.wait_for(lock, kHold / 5,
                           [this] { return flusher_stop_; });
      if (flusher_stop_) return;
    }
    flush_stashes(kHold, late_sink_);
  }
}

void Injector::flush_stashes(std::chrono::steady_clock::duration min_age,
                             const LateSink& sink) {
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t dst = 0; dst < dsts_.size(); ++dst) {
    std::optional<vp::Message> held;
    {
      std::lock_guard<std::mutex> lock(dsts_[dst]->stash_mutex);
      if (dsts_[dst]->stash.has_value() &&
          now - dsts_[dst]->stash_since >= min_age) {
        held = std::move(dsts_[dst]->stash);
        dsts_[dst]->stash.reset();
      }
    }
    if (held.has_value()) sink(static_cast<int>(dst), std::move(*held));
  }
}

void Injector::drain(const LateSink& deliver) {
  stop_stash_flusher();
  flush_stashes(std::chrono::steady_clock::duration::zero(), deliver);
}

InjectionCounts Injector::counts() const {
  InjectionCounts c;
  c.drops = drops_.load(std::memory_order_relaxed);
  c.delays = delays_.load(std::memory_order_relaxed);
  c.dups = dups_.load(std::memory_order_relaxed);
  c.reorders = reorders_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace tdp::fault
