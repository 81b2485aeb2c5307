// Transport tests: the wire codec, the env factory's fallbacks, and real
// multi-process runs over the UDS backend.
//
// Process model: this binary owns main().  Run with no TDP_TEST_ROLE it is
// an ordinary gtest suite; with one, it runs that rank role and exits.
// The suite spawns rank processes by fork + exec of /proc/self/exe with a
// pre-built environment — exec-after-fork keeps the children safe no
// matter what threads (gtest, obs singletons, TSan runtime) live in the
// parent, where a bare fork would not.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/array_server.hpp"
#include "gtest/gtest.h"
#include "obs/analyze.hpp"
#include "obs/trace.hpp"
#include "spmd/context.hpp"
#include "vp/machine.hpp"
#include "vp/transport.hpp"

namespace tdp {
namespace {

// ---------------------------------------------------------------------------
// Rank roles (run in child processes under TDP_TEST_ROLE).

int role_ring() {
  vp::Machine machine(spmd::env_size());
  vp::ProcScope scope(spmd::env_rank());
  spmd::SpmdContext ctx = spmd::context_from_env(machine);
  const int p = ctx.index();
  const int n = ctx.nprocs();
  int token = p;
  for (int hop = 0; hop < n - 1; ++hop) {
    ctx.send_value((p + 1) % n, 1, token);
    token = ctx.recv_value<int>((p - 1 + n) % n, 1);
  }
  if (token != (p + 1) % n) return 1;
  ctx.barrier();
  return 0;
}

int role_coll() {
  vp::Machine machine(spmd::env_size());
  vp::ProcScope scope(spmd::env_rank());
  spmd::SpmdContext ctx = spmd::context_from_env(machine);
  const int p = ctx.index();
  const int n = ctx.nprocs();

  ctx.barrier();

  std::vector<int> bcast(8, p == 1 ? 41 : -1);
  ctx.broadcast(std::span<int>(bcast), 1);
  for (const int v : bcast) {
    if (v != 41) return 10;
  }

  std::vector<double> red{static_cast<double>(p), 1.0};
  ctx.reduce<double>(std::span<double>(red), 0,
                     [](const double& a, const double& b) { return a + b; });
  if (p == 0 &&
      (red[0] != static_cast<double>(n * (n - 1)) / 2.0 ||
       red[1] != static_cast<double>(n))) {
    return 11;
  }

  const double sum = ctx.allreduce_sum(static_cast<double>(p + 1));
  if (sum != static_cast<double>(n * (n + 1)) / 2.0) return 12;

  const int mine = p * 3;
  const std::vector<int> gathered =
      ctx.gather(std::span<const int>(&mine, 1), 0);
  if (p == 0) {
    for (int k = 0; k < n; ++k) {
      if (gathered[static_cast<std::size_t>(k)] != k * 3) return 13;
    }
  }

  const std::vector<int> all = ctx.allgather(std::span<const int>(&mine, 1));
  for (int k = 0; k < n; ++k) {
    if (all[static_cast<std::size_t>(k)] != k * 3) return 14;
  }

  int scanned = 1;
  ctx.scan<int>(std::span<int>(&scanned, 1),
                [](const int& a, const int& b) { return a + b; });
  if (scanned != p + 1) return 15;

  ctx.barrier();
  return 0;
}

// Pairwise tagged traffic that stays correct under non-lossy injection
// (delay/dup/reorder): every (tag, src) tuple is used exactly once, so a
// duplicate can never satisfy a later receive and a reorder only swaps
// messages the receiver distinguishes by tag anyway.
int role_fault() {
  vp::Machine machine(spmd::env_size());
  vp::ProcScope scope(spmd::env_rank());
  spmd::SpmdContext ctx = spmd::context_from_env(machine);
  const int p = ctx.index();
  const int n = ctx.nprocs();
  constexpr int kMsgs = 16;
  for (int q = 0; q < n; ++q) {
    if (q == p) continue;
    for (int k = 0; k < kMsgs; ++k) {
      ctx.send_value(q, 100 + k, p * 1000 + k);
    }
  }
  for (int q = 0; q < n; ++q) {
    if (q == p) continue;
    for (int k = 0; k < kMsgs; ++k) {
      const int got = ctx.recv_value<int>(q, 100 + k);
      if (got != q * 1000 + k) return 20;
    }
  }
  return 0;
}

// drop:1 loses every message at the send boundary; the receive deadline
// must fire as vp::ReceiveTimeout (the typed error, not a hang).
int role_drop() {
  vp::Machine machine(spmd::env_size());
  vp::ProcScope scope(spmd::env_rank());
  spmd::SpmdContext ctx = spmd::context_from_env(machine);
  const int peer = ctx.index() == 0 ? 1 : 0;
  ctx.send_value(peer, 7, 1234);
  try {
    ctx.recv_value<int>(peer, 7);
  } catch (const vp::ReceiveTimeout&) {
    return 0;
  }
  return 21;  // the dropped message arrived?!
}

// Rank 1 sends one message and exits; rank 0 receives it, then waits for a
// second that can never come.  The timeout must name the dead rank.
int role_dead() {
  vp::Machine machine(spmd::env_size());
  vp::ProcScope scope(spmd::env_rank());
  spmd::SpmdContext ctx = spmd::context_from_env(machine);
  if (ctx.index() == 1) {
    ctx.send_value(0, 5, 99);
    return 0;  // exit; the EOF is rank 0's death notice
  }
  if (ctx.recv_value<int>(1, 5) != 99) return 30;
  try {
    ctx.recv_value<int>(1, 6);
  } catch (const vp::ReceiveTimeout& t) {
    const std::string what = t.what();
    if (what.find("rank 1") == std::string::npos) {
      std::fprintf(stderr, "timeout does not name the dead rank: %s\n",
                   what.c_str());
      return 31;
    }
    return 0;
  }
  return 32;  // no timeout at all
}

// A poison marker must survive framing: its origin crosses the wire in
// the header and the receiving copy fails fast with the right blame.
int role_poison() {
  vp::Machine machine(spmd::env_size());
  vp::ProcScope scope(spmd::env_rank());
  spmd::SpmdContext ctx = spmd::context_from_env(machine);
  if (ctx.index() == 0) {
    ctx.send_poison(1, 9, 0);
    // Stay alive until the peer confirms: exiting early would race the
    // poison frame against our socket teardown only in one direction, but
    // the ack makes the test deterministic.
    return ctx.recv_value<int>(1, 10) == 1 ? 0 : 40;
  }
  try {
    ctx.recv_payload(0, 9);
  } catch (const spmd::coll::Poisoned& p) {
    ctx.send_value(0, 10, p.origin == 0 ? 1 : 0);
    return p.origin == 0 ? 0 : 41;
  }
  return 42;  // poison arrived as data
}

// Request/reply under TDP_OBS=1: each side's atexit flush writes a
// rank-qualified trace; the parent asserts the cross-process flow pairs.
int role_flow() {
  vp::Machine machine(spmd::env_size());
  vp::ProcScope scope(spmd::env_rank());
  spmd::SpmdContext ctx = spmd::context_from_env(machine);
  if (ctx.index() == 0) {
    ctx.send_value(1, 3, 7);
    return ctx.recv_value<int>(1, 4) == 8 ? 0 : 50;
  }
  const int got = ctx.recv_value<int>(0, 3);
  ctx.send_value(0, 4, got + 1);
  return got == 7 ? 0 : 51;
}

// One TaskParallel note between the ranks' main threads (comm 0).
void send_note(vp::Machine& machine, int to, int tag, vp::Payload body = {}) {
  vp::Message m;
  m.tag = tag;
  m.src = spmd::env_rank();
  m.payload = std::move(body);
  machine.send(to, std::move(m));
}

vp::Message await_note(vp::Machine& machine, int tag) {
  return machine.mailbox(spmd::env_rank())
      .receive_for(vp::MessageClass::TaskParallel, 0, tag, -1, 30000);
}

// Rank 1 owns the one shard of an array and runs its server; rank 0 reads
// the shard, writes it and reads its write back, by shard and by element,
// through array-manager requests that cross the socket both ways.
int role_array() {
  vp::Machine machine(spmd::env_size());
  vp::ProcScope scope(spmd::env_rank());
  dist::ArrayManager am(machine);
  dist::ArrayService service(machine, am);
  if (spmd::env_rank() == 1) {
    dist::ArrayId id;
    if (am.create_array(1, dist::ElemType::Float64, {4}, {1},
                        {dist::DimSpec::block()}, dist::BorderSpec::none(),
                        dist::Indexing::RowMajor, id) != Status::Ok) {
      return 60;
    }
    for (int i = 0; i < 4; ++i) {
      am.write_element(1, id, std::vector<int>{i}, dist::Scalar{i + 0.5});
    }
    const std::uint64_t words[] = {static_cast<std::uint64_t>(id.creator),
                                   id.seq};
    send_note(machine, 0, 1,
              vp::Payload::copy_of(std::as_bytes(std::span(words))));
    await_note(machine, 2);  // rank 0 is done
    return 0;
  }
  const vp::Message ready = await_note(machine, 1);
  std::uint64_t words[2];
  std::memcpy(words, ready.payload.data(), sizeof(words));
  const dist::ArrayId id{static_cast<int>(words[0]), words[1]};
  const auto doubles = [](const vp::Payload& p) {
    std::vector<double> v(p.size() / sizeof(double));
    std::memcpy(v.data(), p.data(), v.size() * sizeof(double));
    return v;
  };
  vp::Payload got;
  if (dist::read_shard_request(service, 0, 1, id, 0, got) != Status::Ok ||
      doubles(got) != std::vector<double>{0.5, 1.5, 2.5, 3.5}) {
    return 61;
  }
  const std::vector<double> mine{10, 11, 12, 13};
  if (dist::write_shard_request(
          service, 0, 1, id, 0,
          vp::Payload::copy_of(std::as_bytes(std::span(mine)))) !=
          Status::Ok ||
      dist::read_shard_request(service, 0, 1, id, 0, got) != Status::Ok ||
      doubles(got) != mine) {
    return 62;
  }
  dist::Request req;
  req.kind = dist::RequestKind::WriteElement;
  req.id = id;
  req.indices = {2};
  req.value = dist::Scalar{42.0};
  dist::Reply reply;
  if (service.request(0, 1, req, reply) != Status::Ok) return 63;
  req.kind = dist::RequestKind::ReadElement;
  if (service.request(0, 1, req, reply) != Status::Ok ||
      std::get<double>(reply.value) != 42.0) {
    return 64;
  }
  send_note(machine, 1, 2);
  return 0;
}

// Rank 1 exits once both ranks have connected; rank 0's request to it must
// then end in Status::Error within the RetryPolicy bound, not hang.
int role_array_dead() {
  vp::Machine machine(spmd::env_size());
  vp::ProcScope scope(spmd::env_rank());
  if (spmd::env_rank() == 1) {
    await_note(machine, 1);
    send_note(machine, 0, 2);
    return 0;
  }
  send_note(machine, 1, 1);
  await_note(machine, 2);
  // Rank 1's exit closes its connection; the transport notes it.
  const auto gone_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (machine.transport_diagnostic().empty()) {
    if (std::chrono::steady_clock::now() > gone_by) return 70;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  dist::ArrayManager am(machine);
  dist::ArrayService service(machine, am);
  dist::RetryPolicy policy;
  policy.timeout_ms = 100;
  policy.max_attempts = 3;
  policy.backoff_ms = 10;
  const auto bound = std::chrono::milliseconds(
      3 * policy.timeout_ms + dist::retry_backoff_ms(policy, 0, 1) +
      dist::retry_backoff_ms(policy, 0, 2));
  const auto start = std::chrono::steady_clock::now();
  vp::Payload got;
  const Status status =
      dist::read_shard_request(service, 0, 1, dist::ArrayId{1, 1}, 0, got,
                               policy);
  const auto took = std::chrono::steady_clock::now() - start;
  if (status != Status::Error) return 71;
  if (took < bound || took > bound + std::chrono::seconds(2)) {
    std::fprintf(stderr, "request to a dead rank took %lld ms\n",
                 static_cast<long long>(
                     std::chrono::duration_cast<std::chrono::milliseconds>(
                         took)
                         .count()));
    return 72;
  }
  return 0;
}

int run_role(const std::string& role) {
  if (role == "ring") return role_ring();
  if (role == "coll") return role_coll();
  if (role == "fault") return role_fault();
  if (role == "drop") return role_drop();
  if (role == "dead") return role_dead();
  if (role == "poison") return role_poison();
  if (role == "flow") return role_flow();
  if (role == "array") return role_array();
  if (role == "array_dead") return role_array_dead();
  std::fprintf(stderr, "transport_test: unknown TDP_TEST_ROLE \"%s\"\n",
               role.c_str());
  return 99;
}

// ---------------------------------------------------------------------------
// Parent-side spawning.

using EnvList = std::vector<std::pair<std::string, std::string>>;

std::string make_rendezvous_dir() {
  const char* tmp = std::getenv("TMPDIR");
  std::string templ =
      std::string(tmp != nullptr && tmp[0] != '\0' ? tmp : "/tmp") +
      "/tdp_transport_test.XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  if (mkdtemp(buf.data()) == nullptr) return {};
  return buf.data();
}

pid_t spawn_rank(const std::string& role, int rank, int size,
                 const std::string& dir, const EnvList& extra) {
  std::vector<std::string> env = {
      "TDP_TEST_ROLE=" + role,
      "TDP_TRANSPORT=uds",
      "TDP_RANK=" + std::to_string(rank),
      "TDP_SIZE=" + std::to_string(size),
      "TDP_UDS_DIR=" + dir,
  };
  for (const char* keep : {"PATH", "HOME", "TMPDIR", "TSAN_OPTIONS",
                           "ASAN_OPTIONS", "UBSAN_OPTIONS", "LSAN_OPTIONS"}) {
    if (const char* v = std::getenv(keep); v != nullptr) {
      env.push_back(std::string(keep) + "=" + v);
    }
  }
  for (const auto& [k, v] : extra) env.push_back(k + "=" + v);
  // Everything exec needs is built BEFORE fork: between fork and exec only
  // async-signal-safe calls are allowed in a threaded parent.
  std::vector<char*> envp;
  envp.reserve(env.size() + 1);
  for (std::string& e : env) envp.push_back(e.data());
  envp.push_back(nullptr);
  static char argv0[] = "transport_test_rank";
  char* child_argv[] = {argv0, nullptr};
  const pid_t pid = fork();
  if (pid == 0) {
    execve("/proc/self/exe", child_argv, envp.data());
    _exit(127);
  }
  return pid;
}

/// Waits for every pid with a global deadline; on expiry kills the
/// stragglers and reports them as failures.  Returns per-rank exit codes
/// (negative: killed by that signal, -1000: deadline kill).
std::vector<int> wait_ranks(const std::vector<pid_t>& pids,
                            std::chrono::seconds budget) {
  std::vector<int> codes(pids.size(), -1000);
  std::vector<bool> done(pids.size(), false);
  const auto deadline = std::chrono::steady_clock::now() + budget;
  std::size_t remaining = pids.size();
  while (remaining > 0 && std::chrono::steady_clock::now() < deadline) {
    bool progressed = false;
    for (std::size_t i = 0; i < pids.size(); ++i) {
      if (done[i]) continue;
      int status = 0;
      const pid_t r = waitpid(pids[i], &status, WNOHANG);
      if (r == pids[i]) {
        done[i] = true;
        --remaining;
        progressed = true;
        codes[i] = WIFEXITED(status) ? WEXITSTATUS(status)
                   : WIFSIGNALED(status) ? -WTERMSIG(status)
                                         : -999;
      }
    }
    if (!progressed && remaining > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  for (std::size_t i = 0; i < pids.size(); ++i) {
    if (!done[i]) {
      kill(pids[i], SIGKILL);
      waitpid(pids[i], nullptr, 0);
    }
  }
  return codes;
}

std::vector<int> launch(const std::string& role, int size,
                        const EnvList& extra = {},
                        std::string* dir_out = nullptr) {
  const std::string dir = make_rendezvous_dir();
  if (dir.empty()) return {};
  if (dir_out != nullptr) *dir_out = dir;
  std::vector<pid_t> pids;
  for (int r = 0; r < size; ++r) {
    pids.push_back(spawn_rank(role, r, size, dir, extra));
  }
  return wait_ranks(pids, std::chrono::seconds(60));
}

// ---------------------------------------------------------------------------
// Wire codec.

TEST(TransportWire, HeaderRoundTripPreservesEveryEnvelopeField) {
  vp::wire::FrameHeader h;
  h.cls = static_cast<std::uint32_t>(vp::MessageClass::DataParallel);
  h.comm = 0xDEADBEEFCAFEull;
  h.tag = -7;  // collective tags are negative: signedness must survive
  h.src = 3;
  h.poison_origin = 2;
  h.flow = (std::uint64_t{5} << 47) | (std::uint64_t{9} << 40) | 1234;
  h.seq = 42;
  h.payload_bytes = 4096;

  std::byte buf[vp::wire::kHeaderBytes];
  vp::wire::encode_header(h, buf);
  vp::wire::FrameHeader d;
  ASSERT_TRUE(vp::wire::decode_header(buf, d));
  EXPECT_EQ(d.cls, h.cls);
  EXPECT_EQ(d.comm, h.comm);
  EXPECT_EQ(d.tag, h.tag);
  EXPECT_EQ(d.src, h.src);
  EXPECT_EQ(d.poison_origin, h.poison_origin);
  EXPECT_EQ(d.flow, h.flow);
  EXPECT_EQ(d.seq, h.seq);
  EXPECT_EQ(d.payload_bytes, h.payload_bytes);

  buf[0] = static_cast<std::byte>(0x00);  // break the magic
  EXPECT_FALSE(vp::wire::decode_header(buf, d));
}

TEST(TransportWire, MessageSurvivesFraming) {
  vp::Message m;
  m.cls = vp::MessageClass::TaskParallel;
  m.comm = 77;
  m.tag = -4;
  m.src = 1;
  m.poison_origin = 3;
  m.flow = 0x123456789ull;
  const char body[] = "payload";
  m.payload = vp::Payload::copy_of(std::as_bytes(std::span(body)));

  const vp::wire::FrameHeader h = vp::wire::header_for(m, 7);
  EXPECT_EQ(h.seq, 7u);
  EXPECT_EQ(h.payload_bytes, m.payload.size());

  std::byte buf[vp::wire::kHeaderBytes];
  vp::wire::encode_header(h, buf);
  vp::wire::FrameHeader d;
  ASSERT_TRUE(vp::wire::decode_header(buf, d));
  vp::Message back = vp::wire::to_message(d, m.payload);
  EXPECT_EQ(back.cls, m.cls);
  EXPECT_EQ(back.comm, m.comm);
  EXPECT_EQ(back.tag, m.tag);
  EXPECT_EQ(back.src, m.src);
  EXPECT_EQ(back.poison_origin, m.poison_origin);
  EXPECT_EQ(back.flow, m.flow);
  EXPECT_EQ(back.payload.size(), m.payload.size());
  EXPECT_EQ(std::memcmp(back.payload.data(), m.payload.data(),
                        m.payload.size()),
            0);
}

TEST(TransportWire, HelloRoundTrip) {
  std::byte buf[vp::wire::kHelloBytes];
  vp::wire::encode_hello(13, buf);
  int rank = -1;
  ASSERT_TRUE(vp::wire::decode_hello(buf, rank));
  EXPECT_EQ(rank, 13);
  buf[3] = static_cast<std::byte>(0xFF);
  EXPECT_FALSE(vp::wire::decode_hello(buf, rank));
}

// ---------------------------------------------------------------------------
// Factory fallbacks: a mis-launched process degrades to the in-process
// transport instead of hanging or aborting.

TEST(TransportFactory, DefaultsToDirect) {
  vp::Machine machine(2);
  EXPECT_STREQ(machine.transport().name(), "direct");
  EXPECT_FALSE(machine.transport_remote());
  EXPECT_TRUE(machine.transport_diagnostic().empty());
}

TEST(TransportFactory, UnknownKindFallsBackToDirect) {
  ::setenv("TDP_TRANSPORT", "carrier-pigeon", 1);
  vp::Machine machine(2);
  ::unsetenv("TDP_TRANSPORT");
  EXPECT_STREQ(machine.transport().name(), "direct");
}

TEST(TransportFactory, UdsWithoutLaunchEnvFallsBackToDirect) {
  ::setenv("TDP_TRANSPORT", "uds", 1);  // no TDP_RANK/TDP_SIZE/TDP_UDS_DIR
  vp::Machine machine(2);
  ::unsetenv("TDP_TRANSPORT");
  EXPECT_STREQ(machine.transport().name(), "direct");
}

TEST(TransportFactory, UdsSizeMismatchFallsBackToDirect) {
  ::setenv("TDP_TRANSPORT", "uds", 1);
  ::setenv("TDP_RANK", "0", 1);
  ::setenv("TDP_SIZE", "4", 1);
  ::setenv("TDP_UDS_DIR", "/tmp", 1);
  vp::Machine machine(2);  // a helper machine inside a launched process
  ::unsetenv("TDP_TRANSPORT");
  ::unsetenv("TDP_RANK");
  ::unsetenv("TDP_SIZE");
  ::unsetenv("TDP_UDS_DIR");
  EXPECT_STREQ(machine.transport().name(), "direct");
}

// ---------------------------------------------------------------------------
// Multi-process runs.

TEST(TransportUds, RingAcrossFourProcesses) {
  const std::vector<int> codes = launch("ring", 4);
  ASSERT_EQ(codes.size(), 4u);
  for (std::size_t r = 0; r < codes.size(); ++r) {
    EXPECT_EQ(codes[r], 0) << "rank " << r;
  }
}

TEST(TransportUds, CollectivesSweepAcrossFourProcesses) {
  const std::vector<int> codes = launch("coll", 4);
  ASSERT_EQ(codes.size(), 4u);
  for (std::size_t r = 0; r < codes.size(); ++r) {
    EXPECT_EQ(codes[r], 0) << "rank " << r;
  }
}

TEST(TransportUds, NonLossyFaultInjectionDeliversEverything) {
  // delay/dup/reorder but no drop: everything must still arrive, framed in
  // per-connection order, and the receiver's selective receive sorts the
  // rest out.  Faults fire sender-side, before framing.
  const std::vector<int> codes =
      launch("fault", 3,
             {{"TDP_FAULT", "delay:1,dup:0.3,reorder:0.3,seed:11"},
              {"TDP_RECV_TIMEOUT_MS", "30000"}});
  ASSERT_EQ(codes.size(), 3u);
  for (std::size_t r = 0; r < codes.size(); ++r) {
    EXPECT_EQ(codes[r], 0) << "rank " << r;
  }
}

TEST(TransportUds, CertainDropSurfacesAsReceiveTimeout) {
  const std::vector<int> codes =
      launch("drop", 2,
             {{"TDP_FAULT", "drop:1,seed:3"},
              {"TDP_RECV_TIMEOUT_MS", "300"}});
  ASSERT_EQ(codes.size(), 2u);
  for (std::size_t r = 0; r < codes.size(); ++r) {
    EXPECT_EQ(codes[r], 0) << "rank " << r;
  }
}

TEST(TransportUds, PeerDeathNamesTheDeadRank) {
  const std::vector<int> codes =
      launch("dead", 2, {{"TDP_RECV_TIMEOUT_MS", "1000"}});
  ASSERT_EQ(codes.size(), 2u);
  for (std::size_t r = 0; r < codes.size(); ++r) {
    EXPECT_EQ(codes[r], 0) << "rank " << r;
  }
}

TEST(TransportUds, PoisonOriginSurvivesTheWire) {
  const std::vector<int> codes =
      launch("poison", 2, {{"TDP_RECV_TIMEOUT_MS", "10000"}});
  ASSERT_EQ(codes.size(), 2u);
  for (std::size_t r = 0; r < codes.size(); ++r) {
    EXPECT_EQ(codes[r], 0) << "rank " << r;
  }
}

TEST(TransportUds, ArrayRequestsReadAndWriteAShardOnAnotherRank) {
  const std::vector<int> codes = launch("array", 2);
  ASSERT_EQ(codes.size(), 2u);
  for (std::size_t r = 0; r < codes.size(); ++r) {
    EXPECT_EQ(codes[r], 0) << "rank " << r;
  }
}

TEST(TransportUds, ArrayRequestToADeadRankEndsInError) {
  const std::vector<int> codes = launch("array_dead", 2);
  ASSERT_EQ(codes.size(), 2u);
  for (std::size_t r = 0; r < codes.size(); ++r) {
    EXPECT_EQ(codes[r], 0) << "rank " << r;
  }
}

TEST(TransportUds, CrossProcessFlowsPairInMergedTraces) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "observability is compiled out: no per-rank traces";
  }
  // Spawned by hand (not via launch()) because the trace path lives inside
  // the rendezvous dir, which must exist before the env is built.
  const std::string dir2 = make_rendezvous_dir();
  ASSERT_FALSE(dir2.empty());
  const std::string trace_base = dir2 + "/pair.json";
  std::vector<pid_t> pids;
  for (int r = 0; r < 2; ++r) {
    pids.push_back(spawn_rank("flow", r, 2, dir2,
                              {{"TDP_OBS", "1"},
                               {"TDP_OBS_TRACE", trace_base},
                               {"TDP_RECV_TIMEOUT_MS", "10000"}}));
  }
  const std::vector<int> codes2 =
      wait_ranks(pids, std::chrono::seconds(60));
  ASSERT_EQ(codes2.size(), 2u);
  for (std::size_t r = 0; r < codes2.size(); ++r) {
    ASSERT_EQ(codes2[r], 0) << "rank " << r;
  }

  // Each rank wrote its own file (per_rank_path inserts ".rank<k>").
  std::vector<obs::LoadedEvent> merged;
  std::vector<std::vector<obs::LoadedEvent>> per_file(2);
  for (int r = 0; r < 2; ++r) {
    const std::string path = dir2 + "/pair.rank" + std::to_string(r) +
                             ".json";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing per-rank trace " << path;
    std::string error;
    ASSERT_TRUE(obs::load_chrome_trace(in, per_file[static_cast<std::size_t>(
                                               r)],
                                       &error))
        << error;
    merged.insert(merged.end(),
                  per_file[static_cast<std::size_t>(r)].begin(),
                  per_file[static_cast<std::size_t>(r)].end());
  }

  // The raw endpoints must pair across files in BOTH directions: rank 0's
  // send received by rank 1, and the reply back.  This is the flow id
  // surviving the wire framing end to end.
  int cross_pairs = 0;
  for (int from = 0; from < 2; ++from) {
    const auto& sends = per_file[static_cast<std::size_t>(from)];
    const auto& recvs = per_file[static_cast<std::size_t>(1 - from)];
    bool paired = false;
    for (const obs::LoadedEvent& s : sends) {
      if (s.ph != "i" || s.name != "vp.send" || s.flow == 0) continue;
      for (const obs::LoadedEvent& f : recvs) {
        if (f.ph == "X" && f.name == "vp.recv" && f.flow == s.flow) {
          paired = true;
        }
      }
    }
    if (paired) ++cross_pairs;
  }
  EXPECT_EQ(cross_pairs, 2) << "cross-process flow ids did not pair";

  // And the analyzer agrees on the merged set (what `tdp_trace
  // tdp_trace.rank*.json` computes).
  const obs::TraceReport report = obs::analyze_trace(merged);
  EXPECT_GE(report.flow_pairs, 2u);
}

}  // namespace
}  // namespace tdp

int main(int argc, char** argv) {
  if (const char* role = std::getenv("TDP_TEST_ROLE");
      role != nullptr && role[0] != '\0') {
    return tdp::run_role(role);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
