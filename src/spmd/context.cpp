#include "spmd/context.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/env.hpp"
#include "vp/payload.hpp"

namespace tdp::spmd {

namespace {

long long env_recv_timeout_ms() {
  // Checked parse: a mistyped deadline warns and reads as "wait forever"
  // instead of silently parsing its numeric prefix.
  static const long long cached = util::env_int(
      "TDP_RECV_TIMEOUT_MS", 0, 0, std::numeric_limits<long long>::max());
  return cached;
}

// Programmatic override; negative = defer to the environment.
std::atomic<long long> g_timeout_override{-1};

// The user-facing delivery copy: payload -> caller's span of equal size.
void deliver(const vp::Payload& p, std::span<std::byte> out) {
  if (out.empty()) return;
  std::memcpy(out.data(), p.data(), out.size());
  vp::note_bytes_delivered(out.size());
}

}  // namespace

long long recv_timeout_ms() {
  const long long o = g_timeout_override.load(std::memory_order_relaxed);
  return o >= 0 ? o : env_recv_timeout_ms();
}

void set_recv_timeout_ms(long long ms) {
  g_timeout_override.store(ms, std::memory_order_relaxed);
}

bool launched_from_env() {
  const char* kind = std::getenv("TDP_TRANSPORT");
  if (kind == nullptr || std::strcmp(kind, "uds") != 0) return false;
  const int rank = env_rank();
  const int size = env_size();
  return rank >= 0 && size >= 1 && rank < size;
}

int env_rank() { return util::env_int32("TDP_RANK", -1, 0, 1 << 20); }

int env_size() { return util::env_int32("TDP_SIZE", -1, 1, 1 << 20); }

std::uint64_t env_comm() {
  return static_cast<std::uint64_t>(
      util::env_int("TDP_COMM", 1, 1, std::numeric_limits<long long>::max()));
}

SpmdContext context_from_env(vp::Machine& machine) {
  if (!launched_from_env()) {
    throw std::runtime_error(
        "tdp::spmd::context_from_env: not launched (TDP_TRANSPORT=uds with "
        "TDP_RANK/TDP_SIZE is required; see tools/tdp_launch)");
  }
  const int size = env_size();
  if (machine.nprocs() != size) {
    throw std::runtime_error(
        "tdp::spmd::context_from_env: Machine has " +
        std::to_string(machine.nprocs()) + " processors but TDP_SIZE=" +
        std::to_string(size));
  }
  std::vector<int> procs(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) procs[static_cast<std::size_t>(i)] = i;
  return SpmdContext(machine, env_comm(), std::move(procs), env_rank());
}

SpmdContext::SpmdContext(vp::Machine& machine, std::uint64_t comm,
                         std::vector<int> processors, int index)
    : machine_(machine),
      comm_(comm),
      processors_(std::move(processors)),
      index_(index) {
  if (processors_.empty() || index_ < 0 ||
      index_ >= static_cast<int>(processors_.size())) {
    throw std::invalid_argument("SpmdContext: bad group or index");
  }
}

void SpmdContext::send_bytes(int dst_index, int tag,
                             std::span<const std::byte> bytes) {
  send_payload(dst_index, tag, vp::Payload::copy_of(bytes));
}

void SpmdContext::send_payload(int dst_index, int tag, vp::Payload payload) {
  if (dst_index < 0 || dst_index >= nprocs()) {
    throw std::out_of_range("SpmdContext::send_payload: bad destination index");
  }
  vp::Message m;
  m.cls = vp::MessageClass::DataParallel;
  m.comm = comm_;
  m.tag = tag;
  m.src = index_;  // group index; comm scoping isolates the call
  m.payload = std::move(payload);
  machine_.send(processors_[static_cast<std::size_t>(dst_index)],
                std::move(m));
  ++sent_count_;
}

void SpmdContext::send_poison(int dst_index, int tag, int origin_index) {
  if (dst_index < 0 || dst_index >= nprocs()) {
    throw std::out_of_range("SpmdContext::send_poison: bad destination index");
  }
  vp::Message m;
  m.cls = vp::MessageClass::DataParallel;
  m.comm = comm_;
  m.tag = tag;
  m.src = index_;
  m.poison_origin = origin_index;
  machine_.send(processors_[static_cast<std::size_t>(dst_index)],
                std::move(m));
  ++sent_count_;
}

std::vector<std::byte> SpmdContext::recv_bytes(int src_index, int tag) {
  return recv_payload(src_index, tag).to_vector();
}

vp::Payload SpmdContext::recv_payload(int src_index, int tag) {
  if (src_index < 0 || src_index >= nprocs()) {
    throw std::out_of_range("SpmdContext::recv_payload: bad source index");
  }
  const long long timeout = recv_timeout_ms();
  vp::Mailbox& box = machine_.mailbox(proc());
  vp::Message m;
  try {
    m = timeout > 0
            ? box.receive_for(vp::MessageClass::DataParallel, comm_, tag,
                              src_index, static_cast<std::uint64_t>(timeout))
            : box.receive(vp::MessageClass::DataParallel, comm_, tag,
                          src_index);
  } catch (const vp::ReceiveTimeout& t) {
    // Over a multi-process transport, a deadline is often secondary damage:
    // the peer process died and its message will never come.  Fold the
    // transport's peer-health roll into the error so the failure names the
    // dead rank instead of reading like an ordinary lost message.
    const std::string note = machine_.transport_diagnostic();
    if (note.empty()) throw;
    throw vp::ReceiveTimeout(std::string(t.what()) + " [" + note + "]",
                             t.owner, t.has_detail, t.cls, t.comm, t.tag,
                             t.src);
  }
  if (m.poison_origin >= 0) {
    throw coll::Poisoned(
        "tdp::spmd: collective poisoned: copy " +
            std::to_string(m.poison_origin) + " stalled upstream (poison " +
            "relayed by copy " + std::to_string(m.src) + " on tag " +
            std::to_string(tag) + ", comm " + std::to_string(comm_) + ")",
        m.poison_origin);
  }
  return std::move(m.payload);
}

vp::Payload SpmdContext::recv_payload_sized(int src_index, int tag,
                                            std::size_t bytes) {
  vp::Payload p = recv_payload(src_index, tag);
  if (p.size() != bytes) {
    // Never truncate silently: a size mismatch here is always a protocol
    // bug (mismatched element type or count between sender and receiver).
    throw std::runtime_error(
        "SpmdContext::recv: size mismatch on tag " + std::to_string(tag) +
        " from src " + std::to_string(src_index) + ": received " +
        std::to_string(p.size()) + " bytes into a " + std::to_string(bytes) +
        "-byte buffer");
  }
  return p;
}

void SpmdContext::recv_bytes_into(int src_index, int tag,
                                  std::span<std::byte> out) {
  deliver(recv_payload_sized(src_index, tag, out.size()), out);
}

vp::Payload SpmdContext::exchange_payload(int partner_index, int tag,
                                          std::span<const std::byte> mine,
                                          std::size_t bytes) {
  if (index_ < partner_index) {
    send_bytes(partner_index, tag, mine);
    return recv_payload_sized(partner_index, tag, bytes);
  }
  vp::Payload theirs = recv_payload_sized(partner_index, tag, bytes);
  send_bytes(partner_index, tag, mine);
  return theirs;
}

void SpmdContext::exchange_bytes(int partner_index, int tag,
                                 std::span<const std::byte> mine,
                                 std::span<std::byte> theirs) {
  deliver(exchange_payload(partner_index, tag, mine, theirs.size()), theirs);
}

double SpmdContext::allreduce_sum(double v) {
  return allreduce_value<double>(v, [](const double& a, const double& b) {
    return a + b;
  });
}

double SpmdContext::allreduce_max(double v) {
  return allreduce_value<double>(v, [](const double& a, const double& b) {
    return a > b ? a : b;
  });
}

int SpmdContext::allreduce_max_int(int v) {
  return allreduce_value<int>(
      v, [](const int& a, const int& b) { return a > b ? a : b; });
}

}  // namespace tdp::spmd
