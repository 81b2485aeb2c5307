#include "dist/array_server.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <string>
#include <type_traits>
#include <variant>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/sched.hpp"
#include "util/bits.hpp"

namespace tdp::dist {

namespace {

// Service messages: TaskParallel class, a comm Machine::next_comm never
// reaches, one tag.  Body: u64 tag, i32 reply-to processor (-1 marks a
// reply), then an encoded request or reply.
constexpr std::uint64_t kServiceComm = ~std::uint64_t{0};
constexpr int kServiceTag = 0;

/// How many replies a service remembers for re-sent requests (read
/// replies keep their shard data alive while remembered).
constexpr std::size_t kAnsweredCap = 64;

// The codec.  One `io` overload per type describes its layout for both
// directions: a Writer appends the fields, a Reader parses them back and
// clears `ok` on truncation.  A Writer only reads the fields it is given.

struct Writer {
  static constexpr bool kReads = false;
  std::vector<std::byte> out;
  std::uint64_t word(std::uint64_t u, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(static_cast<std::byte>(u >> (8 * i)));
    }
    return u;
  }
  bool has(std::size_t) { return true; }
};

struct Reader {
  static constexpr bool kReads = true;
  std::span<const std::byte> in;
  bool ok = true;
  bool has(std::size_t n) { return ok = ok && in.size() >= n; }
  std::uint64_t word(std::uint64_t, std::size_t n) {
    if (!has(n)) return 0;
    std::uint64_t u = 0;
    for (std::size_t i = 0; i < n; ++i) {
      u |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    }
    in = in.subspan(n);
    return u;
  }
};

/// Integers keep their width, enums take one byte, doubles their bits.
template <class Ar, class T>
  requires std::is_arithmetic_v<T> || std::is_enum_v<T>
void io(Ar& ar, T& v) {
  if constexpr (std::is_floating_point_v<T>) {
    const auto u = ar.word(std::bit_cast<std::uint64_t>(v), 8);
    if constexpr (Ar::kReads) v = std::bit_cast<T>(u);
  } else if constexpr (std::is_enum_v<T>) {
    const auto u = ar.word(static_cast<std::uint8_t>(v), 1);
    if constexpr (Ar::kReads) v = static_cast<T>(u);
  } else {
    using U = std::make_unsigned_t<T>;
    const auto u = ar.word(static_cast<U>(v), sizeof(T));
    if constexpr (Ar::kReads) v = static_cast<T>(static_cast<U>(u));
  }
}

/// A u32 count, then the elements.  A Reader refuses a count the remaining
/// bytes cannot hold, so a corrupt count never allocates.
template <class Ar, class Seq>
  requires requires(Seq& s) { s.resize(0); }
void io(Ar& ar, Seq& seq) {
  auto n = static_cast<std::uint32_t>(seq.size());
  io(ar, n);
  if (!ar.has(n)) return;
  if constexpr (Ar::kReads) seq.resize(n);
  for (auto& x : seq) io(ar, x);
}

template <class Ar>
void io(Ar& ar, vp::Payload& p) {
  std::vector<std::byte> bytes(p.bytes().begin(), p.bytes().end());
  io(ar, bytes);
  if constexpr (Ar::kReads) p = vp::Payload::take(std::move(bytes));
}

template <class Ar, class... Ts>
void io(Ar& ar, std::variant<Ts...>& v) {
  auto index = static_cast<std::uint8_t>(v.index());
  io(ar, index);
  if constexpr (Ar::kReads) {
    if (index >= sizeof...(Ts)) ar.ok = false;
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      ((index == I ? (void)v.template emplace<I>() : void()), ...);
    }(std::index_sequence_for<Ts...>{});
  }
  std::visit([&](auto& x) { io(ar, x); }, v);
}

template <class Ar, class... Ts>
void each(Ar& ar, Ts&... fields) {
  (io(ar, fields), ...);
}

template <class Ar>
void io(Ar& ar, ArrayId& id) {
  each(ar, id.creator, id.seq);
}

template <class Ar>
void io(Ar& ar, DimSpec& d) {
  each(ar, d.kind, d.n);
}

template <class Ar>
void io(Ar& ar, BorderSpec& b) {
  each(ar, b.kind, b.sizes, b.program, b.parm_num);
}

template <class Ar>
void io(Ar& ar, Request& r) {
  io(ar, r.kind);
  switch (r.kind) {
    case RequestKind::CreateArray:
      return each(ar, r.type, r.dims, r.processors, r.distrib, r.borders,
                  r.indexing);
    case RequestKind::FreeArray:
      return io(ar, r.id);
    case RequestKind::ReadElement:
      return each(ar, r.id, r.indices);
    case RequestKind::WriteElement:
      return each(ar, r.id, r.indices, r.value);
    case RequestKind::ReadShard:
      return each(ar, r.id, r.shard);
    case RequestKind::WriteShard:
      return each(ar, r.id, r.shard, r.data);
    case RequestKind::MigrateShard:
      return each(ar, r.id, r.shard, r.to_proc);
    case RequestKind::FindInfo:
      return each(ar, r.id, r.which);
    case RequestKind::VerifyArray:
      return each(ar, r.id, r.n_dims, r.borders, r.indexing);
  }
  if constexpr (Ar::kReads) ar.ok = false;  // unknown kind
}

template <class Ar>
void io(Ar& ar, Reply& r) {
  int status = to_int(r.status);
  each(ar, status, r.id, r.value, r.info, r.data, r.owner, r.epoch);
  if constexpr (Ar::kReads) r.status = status_from_int(status);
}

template <class T>
vp::Payload encode(const T& value) {
  Writer w;
  io(w, const_cast<T&>(value));
  return vp::Payload::take(std::move(w.out));
}

vp::Message service_message(int src, std::uint64_t tag, int reply_to,
                            const vp::Payload& body) {
  Writer w;
  each(w, tag, reply_to);
  w.out.insert(w.out.end(), body.bytes().begin(), body.bytes().end());
  return vp::Message{.cls = vp::MessageClass::TaskParallel,
                     .comm = kServiceComm,
                     .tag = kServiceTag,
                     .src = src,
                     .payload = vp::Payload::take(std::move(w.out))};
}

}  // namespace

vp::Payload encode(const Request& req) { return encode<Request>(req); }

Status decode(std::span<const std::byte> bytes, Request& req) {
  Reader r{bytes};
  io(r, req);
  bool ok = r.ok && r.in.empty() && req.type <= ElemType::Float64 &&
            req.indexing <= Indexing::ColumnMajor &&
            req.which <= InfoKind::OwnerEpoch &&
            req.borders.kind <= BorderSpec::Kind::Foreign;
  for (const DimSpec& d : req.distrib) ok = ok && d.kind <= DimSpec::Kind::Star;
  return ok ? Status::Ok : Status::Invalid;
}

std::uint64_t retry_backoff_ms(const RetryPolicy& policy, int proc,
                               int attempt) {
  if (attempt < 1 || policy.backoff_ms == 0) return 0;
  // backoff_ms << (attempt - 1), the shift clamped so deep retries cannot
  // overflow 64-bit milliseconds; the cap then bounds the result.
  const int shift = attempt - 1;
  std::uint64_t delay;
  if (shift >= 63 || policy.backoff_ms > (~0ULL >> shift)) {
    // Saturate at the largest signed chrono millisecond count, not at
    // max_backoff_ms: with the cap disabled that would be 0, a hot spin.
    delay = ~0ULL >> 1;
  } else {
    delay = policy.backoff_ms << shift;
  }
  if (policy.max_backoff_ms > 0 && delay > policy.max_backoff_ms) {
    delay = policy.max_backoff_ms;
  }
  if (policy.jitter_seed != 0 && delay > 1) {
    // Deterministic jitter in [delay/2, delay]: colliding requesters
    // spread out, identically on every run with the seed.
    const std::uint64_t h = util::mix64(
        util::mix64(policy.jitter_seed ^ static_cast<std::uint64_t>(
                                       static_cast<unsigned>(proc))) ^
        static_cast<std::uint64_t>(static_cast<unsigned>(attempt)));
    const std::uint64_t lo = delay / 2;
    delay = lo + h % (delay - lo + 1);
  }
  return delay;
}

ArrayService::ArrayService(vp::Machine& machine, ArrayManager& manager)
    : machine_(machine), manager_(manager) {
  for (int p = 0; p < machine.nprocs(); ++p) {
    if (!machine.transport().hosts(p)) continue;
    tasks_.spawn_on(machine, p, [this, p] { serve(p); });
  }
}

ArrayService::~ArrayService() {
  stopping_.store(true);
  // A local post, not a send, so the wakeup cannot meet the fault plan.
  for (int p = 0; p < machine_.nprocs(); ++p) {
    if (machine_.transport().hosts(p)) {
      machine_.mailbox(p).post(service_message(p, 0, -1, {}));
    }
  }
}

Status ArrayService::request(int on_proc, int proc, const Request& req,
                             Reply& reply, const RetryPolicy& policy) {
  static obs::ShardedCounter& timeouts =
      obs::Registry::instance().counter("fault.timeouts");
  static obs::ShardedCounter& retries =
      obs::Registry::instance().counter("fault.retries");
  static std::atomic<std::uint64_t> next_tag{0};
  const auto note = [proc](obs::ShardedCounter& c, obs::Op op, int attempt) {
    if (!obs::enabled()) return;
    c.add();
    obs::instant(op, 0, static_cast<std::uint64_t>(proc),
                 static_cast<std::uint64_t>(attempt));
  };
  reply = Reply{};
  if (!machine_.valid_proc(proc) || !machine_.valid_proc(on_proc) ||
      !machine_.transport().hosts(on_proc)) {
    return reply.status = Status::Invalid;
  }
  const std::uint64_t tag = next_tag.fetch_add(1) + 1;
  const vp::Message sent = service_message(on_proc, tag, on_proc, encode(req));
  vp::Mailbox slot;  // this request's reply, handed over by on_proc's task
  {
    std::lock_guard<std::mutex> lock(mu_);
    waiting_.emplace(tag, &slot);
  }
  // Unregisters the slot however this function leaves.
  const auto erase = [this](const std::uint64_t* t) {
    std::lock_guard<std::mutex> lock(mu_);
    waiting_.erase(*t);
  };
  const std::unique_ptr<const std::uint64_t, decltype(erase)> registered(
      &tag, erase);
  Status status = Status::Error;
  const int attempts = std::max(policy.max_attempts, 1);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      note(retries, obs::Op::FaultRetry, attempt);
      sched::sleep_for(std::chrono::milliseconds(
          retry_backoff_ms(policy, on_proc, attempt)));
    }
    machine_.send(proc, sent);
    try {
      const vp::Message m =
          slot.receive_for(vp::MessageClass::TaskParallel, kServiceComm,
                           kServiceTag, -1, policy.timeout_ms);
      Reader r{m.payload.bytes()};
      std::uint64_t got_tag = 0;
      int reply_to = 0;
      each(r, got_tag, reply_to, reply);
      status = r.ok && r.in.empty() ? reply.status : Status::Error;
      break;
    } catch (const vp::ReceiveTimeout&) {
      note(timeouts, obs::Op::FaultTimeout, attempt);
    }
  }
  return status;
}

void ArrayService::serve(int proc) {
  for (;;) {
    vp::Message m = machine_.mailbox(proc).receive(
        vp::MessageClass::TaskParallel, kServiceComm, kServiceTag, -1);
    if (stopping_.load()) return;
    Reader r{m.payload.bytes()};
    std::uint64_t tag = 0;
    int reply_to = -1;
    each(r, tag, reply_to);
    if (!r.ok) continue;  // no envelope: nobody to answer
    if (reply_to < 0) {
      // A reply for a requester here; one nobody awaits any more (late,
      // or a duplicate) is dropped.
      std::lock_guard<std::mutex> lock(mu_);
      if (auto it = waiting_.find(tag); it != waiting_.end()) {
        it->second->post(std::move(m));
      }
      continue;
    }
    if (!machine_.valid_proc(reply_to)) continue;
    // A re-sent or duplicated request gets its first reply.  Every copy
    // reaches this task, so recall and remember need not be one step.
    const std::pair key{reply_to, tag};
    vp::Payload answer;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [k, a] : answered_) {
        if (k == key) answer = a;
      }
    }
    if (answer.empty()) {
      answer = execute(proc, r.in);
      std::lock_guard<std::mutex> lock(mu_);
      if (answered_.size() == kAnsweredCap) answered_.pop_front();
      answered_.emplace_back(key, answer);
    }
    machine_.send(reply_to, service_message(proc, tag, -1, answer));
  }
}

vp::Payload ArrayService::execute(int proc, std::span<const std::byte> body) {
  ArrayManager& am = manager_;
  Request q;
  Reply out;
  const auto done = [&](Status status) {
    out.status = status;
    return encode(out);
  };
  if (const Status s = decode(body, q); !ok(s)) return done(s);
  switch (q.kind) {
    case RequestKind::CreateArray:
      return done(am.create_array(proc, q.type, q.dims, q.processors,
                                  q.distrib, q.borders, q.indexing, out.id));
    case RequestKind::FreeArray:
      return done(am.free_array(proc, q.id));
    case RequestKind::ReadElement:
      return done(am.read_element(proc, q.id, q.indices, out.value));
    case RequestKind::WriteElement:
      return done(am.write_element(proc, q.id, q.indices, q.value));
    case RequestKind::ReadShard:
    case RequestKind::WriteShard: {
      // The locality rule at the server: a processor answers only for
      // shards its own table says it owns, and otherwise replies with a
      // forward pointer (owner + epoch) for the requester to chase.
      Status s = am.shard_owner(proc, q.id, q.shard, out.owner, out.epoch);
      if (ok(s) && out.owner != proc) s = Status::NotFound;
      if (ok(s) && q.kind == RequestKind::ReadShard) {
        s = am.read_shard(proc, q.id, q.shard, out.data);
      } else if (ok(s)) {
        s = am.write_shard(proc, q.id, q.shard, q.data);
      }
      return done(s);
    }
    case RequestKind::MigrateShard:
      return done(am.migrate_shard(proc, q.id, q.shard, q.to_proc));
    case RequestKind::FindInfo:
      return done(am.find_info(proc, q.id, q.which, out.info));
    case RequestKind::VerifyArray:
      return done(
          am.verify_array(proc, q.id, q.n_dims, q.borders, q.indexing));
  }
  return done(Status::Invalid);  // decode admits no other kind
}

namespace {

/// The stale-epoch forwarding loop of the shard requests: while the reply
/// is a forward pointer (a failure naming an owner other than where we
/// asked), re-issue there.  Each hop lands on a strictly fresher table, so
/// in practice one hop resolves any migration.
constexpr int kMaxForwardHops = 8;

Status forwarded_request(ArrayService& service, int on_proc, int proc,
                         const Request& req, vp::Payload* data_out,
                         const RetryPolicy& policy) {
  static obs::ShardedCounter& forwards =
      obs::Registry::instance().counter("am.shard_forwards");
  for (int hop = 0; hop < kMaxForwardHops; ++hop) {
    Reply reply;
    const Status status = service.request(on_proc, proc, req, reply, policy);
    if (ok(status) && data_out != nullptr) *data_out = reply.data;
    if (ok(status) || reply.owner < 0 || reply.owner == proc) return status;
    if (obs::enabled()) {
      forwards.add();
      obs::instant(obs::Op::AmShardForward, 0,
                   static_cast<std::uint64_t>(req.shard), reply.epoch);
    }
    proc = reply.owner;
  }
  return Status::Error;
}

}  // namespace

Status read_shard_request(ArrayService& service, int on_proc, int proc,
                          ArrayId id, long long shard, vp::Payload& out,
                          const RetryPolicy& policy) {
  const Request req{.kind = RequestKind::ReadShard, .id = id, .shard = shard};
  return forwarded_request(service, on_proc, proc, req, &out, policy);
}

Status write_shard_request(ArrayService& service, int on_proc, int proc,
                           ArrayId id, long long shard, vp::Payload data,
                           const RetryPolicy& policy) {
  const Request req{.kind = RequestKind::WriteShard,
                    .id = id,
                    .shard = shard,
                    .data = std::move(data)};
  return forwarded_request(service, on_proc, proc, req, nullptr, policy);
}

Status migrate_shard_request(ArrayService& service, int on_proc, int proc,
                             ArrayId id, long long shard, int to_proc,
                             const RetryPolicy& policy) {
  const Request req{.kind = RequestKind::MigrateShard,
                    .id = id,
                    .shard = shard,
                    .to_proc = to_proc};
  Reply reply;
  return service.request(on_proc, proc, req, reply, policy);
}

}  // namespace tdp::dist
