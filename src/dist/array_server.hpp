// Array-manager server capabilities (§5.1.1).
//
// The thesis's array manager is reached through the PCN server: loading the
// `am` module adds capabilities like create_array and free_array, and a
// program then issues `! free_array(A1, Status)` — optionally annotated
// `@Processor` — to have the local (or a remote) array-manager process
// service it.  install_array_manager() reproduces that wiring: it registers
// one capability per request type on every processor's server; a request
// executes against the array manager *on the processor whose server
// received it*, exactly the thesis's locality rule.
//
// Request/reply payloads travel as the structs below inside std::any.
#pragma once

#include "dist/array_manager.hpp"
#include "vp/payload.hpp"
#include "vp/server.hpp"

namespace tdp::dist {

struct CreateArrayRequest {
  ElemType type = ElemType::Float64;
  std::vector<int> dims;
  std::vector<int> processors;
  std::vector<DimSpec> distrib;
  BorderSpec borders;
  Indexing indexing = Indexing::RowMajor;
};

struct CreateArrayReply {
  Status status = Status::Error;
  ArrayId id;
};

struct FreeArrayRequest {
  ArrayId id;
};

struct ReadElementRequest {
  ArrayId id;
  std::vector<int> indices;
};

struct ReadElementReply {
  Status status = Status::Error;
  Scalar value;
};

struct WriteElementRequest {
  ArrayId id;
  std::vector<int> indices;
  Scalar value;
};

struct FindInfoRequest {
  ArrayId id;
  InfoKind which = InfoKind::Type;
};

struct FindInfoReply {
  Status status = Status::Error;
  InfoValue value;
};

struct VerifyArrayRequest {
  ArrayId id;
  int n_dims = 0;
  BorderSpec expected;
  Indexing indexing = Indexing::RowMajor;
};

struct StatusReply {
  Status status = Status::Error;
};

/// Shard-addressed requests.  A server only answers for shards its own
/// processor currently owns; when the owner table says the shard lives
/// elsewhere the reply carries no data but names the current owner and
/// epoch, and the requester re-issues against that processor (stale-epoch
/// forwarding, counted in am.shard_forwards).
struct ReadShardRequest {
  ArrayId id;
  long long shard = 0;
};

struct WriteShardRequest {
  ArrayId id;
  long long shard = 0;
  vp::Payload data;
};

/// Reply to a shard-addressed request: on Status::Ok, `data` holds the
/// shard interior (reads only).  On any failure, `owner` >= 0 names the
/// shard's current owner as the servicing processor sees it — the forward
/// pointer — and `epoch` its table version.
struct ShardReply {
  Status status = Status::Error;
  vp::Payload data;
  int owner = -1;
  std::uint64_t epoch = 0;
};

struct MigrateShardRequest {
  ArrayId id;
  long long shard = 0;
  int to_proc = -1;
};

/// Registers the array-manager capabilities — "create_array", "free_array",
/// "read_element", "write_element", "read_shard", "write_shard",
/// "migrate_shard", "find_info", "verify_array" — on every processor of
/// `servers`, serviced by `manager`.
void install_array_manager(vp::ServerSystem& servers, ArrayManager& manager);

/// Bounded retry-with-backoff for server requests whose reply may never
/// arrive (a fault plan can drop requests in transit; see
/// vp::ServerSystem::request).  Each attempt waits `timeout_ms` for the
/// reply; before retry k (1-based) the requester sleeps
/// `backoff_ms << (k - 1)`, shift-clamped and capped at `max_backoff_ms`
/// so deep retries can neither overflow 64-bit milliseconds nor sleep
/// unboundedly.  With a non-zero `jitter_seed` the delay is drawn
/// deterministically from [delay/2, delay] — seeded per (seed, proc,
/// attempt), so colliding requesters desynchronise identically on every
/// run.  After `max_attempts` unanswered attempts the operation reports
/// Status::Error — bounded, visible failure instead of an eternal hang.
struct RetryPolicy {
  std::uint64_t timeout_ms = 200;      ///< per-attempt reply deadline
  int max_attempts = 4;                ///< total attempts (first + retries)
  std::uint64_t backoff_ms = 10;       ///< base backoff, doubled per retry
  std::uint64_t max_backoff_ms = 2000; ///< cap on any single backoff sleep
  std::uint64_t jitter_seed = 0;       ///< 0 = full (deterministic) delay
};

/// The backoff delay before 1-based retry `attempt` under `policy` for a
/// requester on `proc`: exponential, capped, optionally jittered.  Exposed
/// for tests — the doc contract above is executable.
std::uint64_t retry_backoff_ms(const RetryPolicy& policy, int proc,
                               int attempt);

/// Reads shard `shard` of `id`, starting at processor `proc` and following
/// forward pointers when `proc`'s owner table turns out to be stale (each
/// hop retried per `policy`).  Shard reads are idempotent — re-issuing a
/// request whose reply was merely lost (not unserviced) returns the same
/// snapshot — so retry is always safe.  Timeouts and retries are counted
/// (fault.timeouts, fault.retries) and traced as fault.* events.
Status read_shard_request(vp::ServerSystem& servers, int proc, ArrayId id,
                          long long shard, vp::Payload& out,
                          const RetryPolicy& policy = {});

/// Overwrites shard `shard` of `id` with `data`, following forwards like
/// read_shard_request.  Idempotent: writing the same bytes twice leaves
/// the same shard.
Status write_shard_request(vp::ServerSystem& servers, int proc, ArrayId id,
                           long long shard, vp::Payload data,
                           const RetryPolicy& policy = {});

/// Migrates shard `shard` of `id` to `to_proc` through `proc`'s server,
/// retrying per `policy`.  Migration is idempotent — a retry of a
/// migration that already completed finds the shard at its destination and
/// reports Status::Ok — so a dropped reply never wedges or double-moves.
Status migrate_shard_request(vp::ServerSystem& servers, int proc, ArrayId id,
                             long long shard, int to_proc,
                             const RetryPolicy& policy = {});

}  // namespace tdp::dist
