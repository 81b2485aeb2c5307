// The array manager's server (§5.1.1), carried as messages.
//
// A PCN program reaches the array manager through a per-processor server:
// `! free_array(A1, Status)`, optionally annotated `@Processor`, runs on
// that processor's server against its local array manager.  Here the fixed
// request taxonomy travels as TaskParallel messages over Machine::send, so
// requests meet the fault injector and transport (in process or `uds`)
// like all other traffic.  ArrayService runs one task per processor this
// process hosts, parked on its mailbox: it executes a request as its own
// processor (the thesis's locality rule) and replies to the processor the
// request names, whose task hands the reply to the requester waiting for
// its tag and drops any other, so late and duplicated replies never stay
// queued.  Only tests start a service; the workloads use the direct entry.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>

#include "dist/array_manager.hpp"
#include "pcn/process.hpp"
#include "vp/payload.hpp"

namespace tdp::dist {

/// The request kinds of §5.1.1 with the shard extensions.
enum class RequestKind : std::uint8_t {
  CreateArray = 1, FreeArray, ReadElement, WriteElement, ReadShard,
  WriteShard, MigrateShard, FindInfo, VerifyArray
};

/// One request; each kind carries the arguments of its ArrayManager call
/// (verify_array's expected borders travel in `borders`).
struct Request {
  RequestKind kind = RequestKind::FreeArray;
  ArrayId id{};
  ElemType type = ElemType::Float64;
  std::vector<int> dims{};
  std::vector<int> processors{};
  std::vector<DimSpec> distrib{};
  BorderSpec borders{};
  Indexing indexing = Indexing::RowMajor;
  std::vector<int> indices{};
  Scalar value{};
  long long shard = 0;
  vp::Payload data{};
  int to_proc = -1;
  InfoKind which = InfoKind::Type;
  int n_dims = 0;
};

/// One reply: `id` answers create_array, `value` read_element, `info`
/// find_info, `data` read_shard.  A shard request to a non-owner fails
/// with a forward pointer: the `owner` and `epoch` of that one's table.
struct Reply {
  Status status = Status::Error;
  ArrayId id;
  Scalar value;
  InfoValue info;
  vp::Payload data;
  int owner = -1;
  std::uint64_t epoch = 0;
};

/// The request codec: a kind byte, then that kind's fields, fixed-width
/// little-endian.  decode() reports Status::Invalid for truncated bytes,
/// trailing bytes, an unknown kind or an out-of-range enum.
vp::Payload encode(const Request& req);
Status decode(std::span<const std::byte> bytes, Request& req);

/// Bounded retry-with-backoff for requests whose reply may never arrive.
/// Each attempt waits `timeout_ms` for the reply (0 = forever); before
/// retry k (1-based) the requester parks `backoff_ms << (k - 1)`,
/// shift-clamped and capped at `max_backoff_ms`.  A non-zero `jitter_seed`
/// draws the delay deterministically from [delay/2, delay], seeded per
/// (seed, proc, attempt).  After `max_attempts` unanswered attempts the
/// request reports Status::Error: a bounded, visible failure, not a hang.
struct RetryPolicy {
  std::uint64_t timeout_ms = 200;      ///< per-attempt reply deadline
  int max_attempts = 4;                ///< total attempts (first + retries)
  std::uint64_t backoff_ms = 10;       ///< base backoff, doubled per retry
  std::uint64_t max_backoff_ms = 2000; ///< cap on any single backoff
  std::uint64_t jitter_seed = 0;       ///< 0 = full (deterministic) delay
};

/// The backoff before 1-based retry `attempt` under `policy` for a
/// requester on `proc`.  Exposed for tests: the contract is executable.
std::uint64_t retry_backoff_ms(const RetryPolicy& policy, int proc,
                               int attempt);

/// One array-manager server task per processor this process hosts (at
/// most one service per machine), started by the constructor and stopped
/// by the destructor, which must run before the machine and manager die.
class ArrayService {
 public:
  ArrayService(vp::Machine& machine, ArrayManager& manager);
  ~ArrayService();

  ArrayService(const ArrayService&) = delete;
  ArrayService& operator=(const ArrayService&) = delete;

  /// Sends `req` to processor `proc`'s server for processor `on_proc`
  /// (hosted here) and waits for the reply, re-sending per `policy`.  A
  /// server answers a repeated request with its first reply, so none runs
  /// twice.  Returns the reply's status, or Status::Error when none came.
  Status request(int on_proc, int proc, const Request& req, Reply& reply,
                 const RetryPolicy& policy = {});

 private:
  void serve(int proc);
  vp::Payload execute(int proc, std::span<const std::byte> body);

  vp::Machine& machine_;
  ArrayManager& manager_;
  std::mutex mu_;
  /// Requesters awaiting a reply, by tag (tags are unique per process).
  std::unordered_map<std::uint64_t, vp::Mailbox*> waiting_;
  /// Recent replies by (reply-to processor, tag), oldest first.
  std::deque<std::pair<std::pair<int, std::uint64_t>, vp::Payload>>
      answered_;
  std::atomic<bool> stopping_{false};
  pcn::ProcessGroup tasks_;  ///< last: destroyed first, joining the tasks
};

/// Reads shard `shard` of `id` for `on_proc`, starting at processor `proc`
/// and following forward pointers (counted in am.shard_forwards).
Status read_shard_request(ArrayService& service, int on_proc, int proc,
                          ArrayId id, long long shard, vp::Payload& out,
                          const RetryPolicy& policy = {});

/// Overwrites shard `shard` of `id` with `data`, following forwards.
Status write_shard_request(ArrayService& service, int on_proc, int proc,
                           ArrayId id, long long shard, vp::Payload data,
                           const RetryPolicy& policy = {});

/// Migrates shard `shard` of `id` to `to_proc` through `proc`'s server.
Status migrate_shard_request(ArrayService& service, int on_proc, int proc,
                             ArrayId id, long long shard, int to_proc,
                             const RetryPolicy& policy = {});

}  // namespace tdp::dist
