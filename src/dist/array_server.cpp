#include "dist/array_server.hpp"

#include <chrono>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tdp::dist {

namespace {

/// splitmix64 finaliser: a well-mixed 64-bit hash of its input, used to
/// derive deterministic per-(seed, proc, attempt) jitter.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t retry_backoff_ms(const RetryPolicy& policy, int proc,
                               int attempt) {
  if (attempt < 1 || policy.backoff_ms == 0) return 0;
  // backoff_ms << (attempt - 1), with the shift clamped so a deep retry
  // sequence cannot overflow 64-bit milliseconds into a tiny (or huge)
  // sleep; the cap then bounds the result regardless.
  const int shift = attempt - 1;
  std::uint64_t delay;
  if (shift >= 63 || policy.backoff_ms > (~0ULL >> shift)) {
    // Saturate: the unclamped product exceeds 64 bits, so stand in the
    // largest delay the caller's sleep_for can represent (chrono's
    // millisecond rep is signed) and let the cap below apply when set.
    // Assigning max_backoff_ms here would yield 0 — a hot spin — whenever
    // the cap is disabled, the exact failure the clamp guards against.
    delay = ~0ULL >> 1;
  } else {
    delay = policy.backoff_ms << shift;
  }
  if (policy.max_backoff_ms > 0 && delay > policy.max_backoff_ms) {
    delay = policy.max_backoff_ms;
  }
  if (policy.jitter_seed != 0 && delay > 1) {
    // Deterministic jitter in [delay/2, delay]: requesters that collided
    // on this attempt spread out, and the exact spread reproduces from the
    // seed on every run.
    const std::uint64_t h = mix64(
        mix64(policy.jitter_seed ^ static_cast<std::uint64_t>(
                                       static_cast<unsigned>(proc))) ^
        static_cast<std::uint64_t>(static_cast<unsigned>(attempt)));
    const std::uint64_t lo = delay / 2;
    delay = lo + h % (delay - lo + 1);
  }
  return delay;
}

namespace {

/// Issues `type` to `proc`'s server until a reply arrives or the policy is
/// exhausted; returns the reply or an empty std::any on exhaustion.  The
/// caller guarantees the request is idempotent.
std::any request_with_retry(vp::ServerSystem& servers, int proc,
                            const std::string& type, const std::any& params,
                            const RetryPolicy& policy) {
  static obs::ShardedCounter& timeouts =
      obs::Registry::instance().counter("fault.timeouts");
  static obs::ShardedCounter& retries =
      obs::Registry::instance().counter("fault.retries");
  const int attempts = policy.max_attempts > 0 ? policy.max_attempts : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      if (obs::enabled()) {
        retries.add();
        obs::instant(obs::Op::FaultRetry, 0,
                     static_cast<std::uint64_t>(proc),
                     static_cast<std::uint64_t>(attempt));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(
          retry_backoff_ms(policy, proc, attempt)));
    }
    pcn::Def<std::any> reply = servers.request(proc, type, params);
    const std::any* answer =
        reply.read_for(std::chrono::milliseconds(policy.timeout_ms));
    if (answer != nullptr) return *answer;
    if (obs::enabled()) {
      timeouts.add();
      obs::instant(obs::Op::FaultTimeout, 0,
                   static_cast<std::uint64_t>(proc),
                   static_cast<std::uint64_t>(attempt));
    }
  }
  return std::any{};
}

/// The stale-epoch forwarding loop shared by the shard-addressed request
/// helpers: issue against `proc`; while the reply is a forward pointer
/// (no data, but a current owner that differs from where we asked),
/// re-issue there.  Hop count is bounded — each hop lands on a strictly
/// fresher table, so in practice one hop resolves any migration.
constexpr int kMaxForwardHops = 8;

Status shard_request_with_forwarding(vp::ServerSystem& servers, int proc,
                                     const std::string& type,
                                     ArrayId id, long long shard,
                                     const vp::Payload* data_in,
                                     vp::Payload* data_out,
                                     const RetryPolicy& policy) {
  static obs::ShardedCounter& forwards =
      obs::Registry::instance().counter("am.shard_forwards");
  int target = proc;
  for (int hop = 0; hop < kMaxForwardHops; ++hop) {
    std::any params;
    if (data_in != nullptr) {
      WriteShardRequest w;
      w.id = id;
      w.shard = shard;
      w.data = *data_in;
      params = std::move(w);
    } else {
      ReadShardRequest r;
      r.id = id;
      r.shard = shard;
      params = std::move(r);
    }
    const std::any answer =
        request_with_retry(servers, target, type, params, policy);
    const auto* reply = std::any_cast<ShardReply>(&answer);
    if (reply == nullptr) return Status::Error;  // attempts exhausted
    if (ok(reply->status)) {
      if (data_out != nullptr) *data_out = reply->data;
      return reply->status;
    }
    if (reply->owner >= 0 && reply->owner != target) {
      // The servicing processor does not own the shard: follow its table.
      if (obs::enabled()) {
        forwards.add();
        obs::instant(obs::Op::AmShardForward, 0,
                     static_cast<std::uint64_t>(shard), reply->epoch);
      }
      target = reply->owner;
      continue;
    }
    return reply->status;
  }
  return Status::Error;
}

}  // namespace

Status read_shard_request(vp::ServerSystem& servers, int proc, ArrayId id,
                          long long shard, vp::Payload& out,
                          const RetryPolicy& policy) {
  return shard_request_with_forwarding(servers, proc, "read_shard", id, shard,
                                       nullptr, &out, policy);
}

Status write_shard_request(vp::ServerSystem& servers, int proc, ArrayId id,
                           long long shard, vp::Payload data,
                           const RetryPolicy& policy) {
  return shard_request_with_forwarding(servers, proc, "write_shard", id,
                                       shard, &data, nullptr, policy);
}

Status migrate_shard_request(vp::ServerSystem& servers, int proc, ArrayId id,
                             long long shard, int to_proc,
                             const RetryPolicy& policy) {
  MigrateShardRequest params;
  params.id = id;
  params.shard = shard;
  params.to_proc = to_proc;
  const std::any answer =
      request_with_retry(servers, proc, "migrate_shard", params, policy);
  const auto* reply = std::any_cast<StatusReply>(&answer);
  return reply != nullptr ? reply->status : Status::Error;
}

void install_array_manager(vp::ServerSystem& servers, ArrayManager& manager) {
  ArrayManager* am = &manager;

  servers.add_capability_all(
      "create_array", [am](vp::ServerRequest& req) {
        const auto* p = std::any_cast<CreateArrayRequest>(&req.parameters);
        CreateArrayReply reply;
        if (p != nullptr) {
          reply.status =
              am->create_array(vp::current_proc(), p->type, p->dims,
                               p->processors, p->distrib, p->borders,
                               p->indexing, reply.id);
        } else {
          reply.status = Status::Invalid;
        }
        req.reply.define(reply);
      });

  servers.add_capability_all("free_array", [am](vp::ServerRequest& req) {
    const auto* p = std::any_cast<FreeArrayRequest>(&req.parameters);
    StatusReply reply;
    reply.status = p != nullptr ? am->free_array(vp::current_proc(), p->id)
                                : Status::Invalid;
    req.reply.define(reply);
  });

  servers.add_capability_all("read_element", [am](vp::ServerRequest& req) {
    const auto* p = std::any_cast<ReadElementRequest>(&req.parameters);
    ReadElementReply reply;
    if (p != nullptr) {
      reply.status =
          am->read_element(vp::current_proc(), p->id, p->indices, reply.value);
    } else {
      reply.status = Status::Invalid;
    }
    req.reply.define(reply);
  });

  servers.add_capability_all("write_element", [am](vp::ServerRequest& req) {
    const auto* p = std::any_cast<WriteElementRequest>(&req.parameters);
    StatusReply reply;
    reply.status = p != nullptr
                       ? am->write_element(vp::current_proc(), p->id,
                                           p->indices, p->value)
                       : Status::Invalid;
    req.reply.define(reply);
  });

  // Shard-addressed requests enforce the locality rule at the server: a
  // processor answers only for shards its own table says it owns, and
  // otherwise replies with a forward pointer (current owner + epoch) for
  // the requester to chase.
  servers.add_capability_all("read_shard", [am](vp::ServerRequest& req) {
    const auto* p = std::any_cast<ReadShardRequest>(&req.parameters);
    ShardReply reply;
    if (p != nullptr) {
      const int me = vp::current_proc();
      reply.status = am->shard_owner(me, p->id, p->shard, reply.owner,
                                     reply.epoch);
      if (ok(reply.status)) {
        reply.status = reply.owner == me
                           ? am->read_shard(me, p->id, p->shard, reply.data)
                           : Status::NotFound;  // forward: owner names where
      }
    } else {
      reply.status = Status::Invalid;
    }
    req.reply.define(reply);
  });

  servers.add_capability_all("write_shard", [am](vp::ServerRequest& req) {
    const auto* p = std::any_cast<WriteShardRequest>(&req.parameters);
    ShardReply reply;
    if (p != nullptr) {
      const int me = vp::current_proc();
      reply.status = am->shard_owner(me, p->id, p->shard, reply.owner,
                                     reply.epoch);
      if (ok(reply.status)) {
        reply.status = reply.owner == me
                           ? am->write_shard(me, p->id, p->shard, p->data)
                           : Status::NotFound;
      }
    } else {
      reply.status = Status::Invalid;
    }
    req.reply.define(reply);
  });

  servers.add_capability_all("migrate_shard", [am](vp::ServerRequest& req) {
    const auto* p = std::any_cast<MigrateShardRequest>(&req.parameters);
    StatusReply reply;
    reply.status = p != nullptr
                       ? am->migrate_shard(vp::current_proc(), p->id,
                                           p->shard, p->to_proc)
                       : Status::Invalid;
    req.reply.define(reply);
  });

  servers.add_capability_all("find_info", [am](vp::ServerRequest& req) {
    const auto* p = std::any_cast<FindInfoRequest>(&req.parameters);
    FindInfoReply reply;
    if (p != nullptr) {
      reply.status =
          am->find_info(vp::current_proc(), p->id, p->which, reply.value);
    } else {
      reply.status = Status::Invalid;
    }
    req.reply.define(reply);
  });

  servers.add_capability_all("verify_array", [am](vp::ServerRequest& req) {
    const auto* p = std::any_cast<VerifyArrayRequest>(&req.parameters);
    StatusReply reply;
    reply.status = p != nullptr
                       ? am->verify_array(vp::current_proc(), p->id,
                                          p->n_dims, p->expected, p->indexing)
                       : Status::Invalid;
    req.reply.define(reply);
  });
}

}  // namespace tdp::dist
