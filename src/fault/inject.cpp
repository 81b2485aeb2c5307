#include "fault/inject.hpp"

#include <chrono>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/sched.hpp"

namespace tdp::fault {

namespace {

/// splitmix64 finalizer: a bijective avalanche mix, the standard way to
/// turn a structured counter into decision bits.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits of a mixed word.
double u01(std::uint64_t word) {
  return static_cast<double>(word >> 11) * 0x1.0p-53;
}

// Distinct salts give each fault kind an independent decision stream from
// the same (seed, dst, seq) coordinate.
constexpr std::uint64_t kSaltDrop = 0xd1f7a11ed5ea501dULL;
constexpr std::uint64_t kSaltDup = 0x2b7e151628aed2a6ULL;
constexpr std::uint64_t kSaltReorder = 0x452821e638d01377ULL;
constexpr std::uint64_t kSaltRequest = 0x9216d5d98979fb1bULL;

std::uint64_t decision_word(std::uint64_t seed, int dst, std::uint64_t seq,
                            std::uint64_t salt) {
  return mix(seed ^ salt ^
             mix((static_cast<std::uint64_t>(static_cast<unsigned>(dst))
                  << 32) ^
                 seq));
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
obs::ShardedCounter& request_drops_counter() {
  static obs::ShardedCounter& c =
      obs::Registry::instance().counter("fault.request_drops");
  return c;
}

/// Holds the calling sender for `delay`.  A task on a steal worker parks
/// until the deadline, so the other tasks on its worker keep running; any
/// other caller sleeps.
void hold_sender(std::chrono::milliseconds delay) {
  if (!sched::on_worker_fiber()) {
    std::this_thread::sleep_for(delay);
    return;
  }
  const auto deadline = std::chrono::steady_clock::now() + delay;
  std::mutex mutex;
  std::unique_lock<std::mutex> lock(mutex);
  while (std::chrono::steady_clock::now() < deadline) {
    sched::park_until(lock, deadline);
  }
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
  if (vp_failed(src_vp) || vp_failed(dst)) {
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

  DstState& state = dst_state(dst);
  const std::uint64_t seq =
      state.msg_seq.fetch_add(1, std::memory_order_relaxed);

  if (plan_.drop > 0.0 &&
      u01(decision_word(plan_.seed, dst, seq, kSaltDrop)) < plan_.drop) {
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
    hold_sender(std::chrono::milliseconds(plan_.delay_ms));
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

bool Injector::drop_request(int dst) {
  if (vp_failed(dst)) {
    request_drops_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) {
      request_drops_counter().add();
      obs::instant(obs::Op::FaultDrop, 0, static_cast<std::uint64_t>(dst),
                   /*arg1=*/1);
    }
    return true;
  }
  if (plan_.drop <= 0.0 || dst < 0 ||
      dst >= static_cast<int>(dsts_.size())) {
    return false;
  }
  DstState& state = dst_state(dst);
  const std::uint64_t seq =
      state.req_seq.fetch_add(1, std::memory_order_relaxed);
  if (u01(decision_word(plan_.seed, dst, seq, kSaltRequest)) < plan_.drop) {
    request_drops_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) {
      request_drops_counter().add();
      obs::instant(obs::Op::FaultDrop, 0, static_cast<std::uint64_t>(dst),
                   /*arg1=*/1);
    }
    return true;
  }
  return false;
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
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t dst = 0; dst < dsts_.size(); ++dst) {
      std::optional<vp::Message> late;
      {
        std::lock_guard<std::mutex> lock(dsts_[dst]->stash_mutex);
        if (dsts_[dst]->stash.has_value() &&
            now - dsts_[dst]->stash_since >= kHold) {
          late = std::move(dsts_[dst]->stash);
          dsts_[dst]->stash.reset();
        }
      }
      if (late.has_value()) {
        late_sink_(static_cast<int>(dst), std::move(*late));
      }
    }
  }
}

void Injector::drain(
    const std::function<void(int dst, vp::Message&&)>& deliver) {
  stop_stash_flusher();
  for (std::size_t dst = 0; dst < dsts_.size(); ++dst) {
    std::optional<vp::Message> held;
    {
      std::lock_guard<std::mutex> lock(dsts_[dst]->stash_mutex);
      if (dsts_[dst]->stash.has_value()) {
        held = std::move(dsts_[dst]->stash);
        dsts_[dst]->stash.reset();
      }
    }
    if (held.has_value()) deliver(static_cast<int>(dst), std::move(*held));
  }
}

InjectionCounts Injector::counts() const {
  InjectionCounts c;
  c.drops = drops_.load(std::memory_order_relaxed);
  c.delays = delays_.load(std::memory_order_relaxed);
  c.dups = dups_.load(std::memory_order_relaxed);
  c.reorders = reorders_.load(std::memory_order_relaxed);
  c.request_drops = request_drops_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace tdp::fault
