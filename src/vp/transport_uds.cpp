// UdsTransport — Machine::send over Unix-domain stream sockets, one OS
// process per virtual processor.
//
// Topology: the launcher (tools/tdp_launch) gives every rank the same
// rendezvous directory; rank r binds and listens on <dir>/rank-<r>.sock
// at Machine construction.  Connections are sender-initiated and
// unidirectional: the first send from rank a to rank b connects to b's
// socket, writes an 8-byte hello naming a, and keeps the connection for
// the machine's lifetime — a full mesh costs at most P·(P-1) connections
// and idle pairs never connect at all.  Because peers bind at their own
// pace, connect() retries ECONNREFUSED/ENOENT for a bounded window
// (TDP_UDS_CONNECT_MS, default 10 s) before declaring the peer dead.
//
// Send side: Machine::send has already stamped the flow id and run the
// fault plan, so what arrives here is exactly what must cross the wire.
// The per-peer writer serializes under a per-peer mutex: a 56-byte
// little-endian header (wire::encode_header) and the payload bytes go out
// back-to-back, counted in the comm.wire_bytes / comm.wire_msgs ledger.
//
// Receive side: an acceptor thread hands each inbound connection to a
// dedicated reader thread, which reassembles frames and posts them
// through the same LocalDeliver the direct transport uses — the message
// enters the destination Mailbox by the ordinary post path, so selective
// receive, poison fast-fail, deadlines, and flow recovery are oblivious
// to the wire underneath.
//
// Peer death is observable, not fatal: a reader EOF outside shutdown, a
// failed connect, or a write error marks the peer dead with a reason;
// diagnose() renders the roll, and SpmdContext appends it to any
// ReceiveTimeout so "message never came" errors name the dead rank.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/atomic_print.hpp"
#include "util/env.hpp"
#include "vp/transport.hpp"

namespace tdp::vp {

namespace {

/// Upper bound on a single frame's payload: anything larger is a
/// desynchronized stream (or a foreign writer), not a message.
constexpr std::uint64_t kMaxPayloadBytes = 1ULL << 31;

obs::ShardedCounter& wire_bytes_counter() {
  static obs::ShardedCounter& c =
      obs::Registry::instance().counter("comm.wire_bytes");
  return c;
}

obs::ShardedCounter& wire_msgs_counter() {
  static obs::ShardedCounter& c =
      obs::Registry::instance().counter("comm.wire_msgs");
  return c;
}

std::string socket_path(const std::string& dir, int rank) {
  return dir + "/rank-" + std::to_string(rank) + ".sock";
}

/// Writes all of `n` bytes; MSG_NOSIGNAL so a vanished peer surfaces as
/// EPIPE instead of killing the process.  Returns false on any error.
bool write_full(int fd, const std::byte* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Reads exactly `n` bytes; returns false on EOF or error.
bool read_full(int fd, std::byte* data, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::read(fd, data, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // EOF
    data += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

class UdsTransport final : public Transport {
 public:
  UdsTransport(int nprocs, int rank, std::string dir, LocalDeliver deliver)
      : rank_(rank),
        dir_(std::move(dir)),
        deliver_(std::move(deliver)),
        peers_(static_cast<std::size_t>(nprocs)),
        dead_reason_(static_cast<std::size_t>(nprocs)) {
    for (auto& p : peers_) p = std::make_unique<Peer>();
    bind_and_listen();
    acceptor_ = std::thread([this] { accept_loop(); });
  }

  ~UdsTransport() override { shutdown(); }

  const char* name() const override { return "uds"; }
  bool remote() const override { return true; }
  bool hosts(int p) const override { return p == rank_; }

  void deliver(int dst, Message&& m) override {
    if (dst == rank_) {
      deliver_(dst, std::move(m));
      return;
    }
    Peer& peer = *peers_[static_cast<std::size_t>(dst)];
    std::lock_guard<std::mutex> lock(peer.mu);
    if (peer.dead) return;  // partitioned: drop, like a lost wire
    if (peer.fd < 0 && !connect_locked(dst, peer)) return;
    const wire::FrameHeader h = wire::header_for(m, peer.next_seq);
    std::byte header[wire::kHeaderBytes];
    wire::encode_header(h, header);
    if (!write_full(peer.fd, header, wire::kHeaderBytes) ||
        !write_full(peer.fd, m.payload.data(), m.payload.size())) {
      mark_dead_locked(dst, peer,
                       std::string("write failed (") + std::strerror(errno) +
                           "), peer process gone?");
      return;
    }
    ++peer.next_seq;
    wire_msgs_counter().add();
    wire_bytes_counter().add(
        static_cast<std::uint64_t>(wire::kHeaderBytes + m.payload.size()));
  }

  std::string diagnose() const override {
    std::lock_guard<std::mutex> lock(status_mu_);
    std::string out;
    for (std::size_t r = 0; r < peers_.size(); ++r) {
      if (!dead_reason_[r].empty()) {
        if (out.empty()) {
          out = "transport uds (rank " + std::to_string(rank_) + "): ";
        } else {
          out += "; ";
        }
        out += "rank " + std::to_string(r) + " " + dead_reason_[r];
      }
    }
    return out;
  }

  void shutdown() override {
    if (shutting_down_.exchange(true)) return;
    // Wake the acceptor: shutdown() on a listening socket makes a blocked
    // accept() return on Linux; close alone may not.
    if (listen_fd_ >= 0) {
      ::shutdown(listen_fd_, SHUT_RDWR);
      ::close(listen_fd_);
    }
    if (acceptor_.joinable()) acceptor_.join();
    {
      // Wake every reader blocked mid-read, then join.
      std::lock_guard<std::mutex> lock(inbound_mu_);
      for (Inbound& in : inbound_) ::shutdown(in.fd, SHUT_RDWR);
    }
    for (Inbound& in : inbound_) {
      if (in.reader.joinable()) in.reader.join();
      ::close(in.fd);
    }
    for (auto& p : peers_) {
      std::lock_guard<std::mutex> lock(p->mu);
      if (p->fd >= 0) {
        ::close(p->fd);
        p->fd = -1;
      }
    }
    ::unlink(socket_path(dir_, rank_).c_str());
  }

 private:
  struct Peer {
    std::mutex mu;              ///< serializes connect + framed writes
    int fd = -1;
    std::uint64_t next_seq = 0;
    bool dead = false;
  };

  struct Inbound {
    int fd = -1;
    std::thread reader;
  };

  void bind_and_listen() {
    const std::string path = socket_path(dir_, rank_);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("tdp::vp: UDS path too long: " + path);
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      throw std::runtime_error("tdp::vp: socket() failed: " +
                               std::string(std::strerror(errno)));
    }
    ::unlink(path.c_str());  // stale socket from a previous run
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      const std::string err = std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("tdp::vp: cannot listen on " + path + ": " +
                               err);
    }
  }

  void accept_loop() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listen socket shut down (or fatal): stop accepting
      }
      if (shutting_down_.load()) {
        ::close(fd);
        return;
      }
      std::lock_guard<std::mutex> lock(inbound_mu_);
      inbound_.push_back(Inbound{fd, {}});
      Inbound& in = inbound_.back();
      in.reader = std::thread([this, fd] { read_loop(fd); });
    }
  }

  void read_loop(int fd) {
    int from = -1;
    {
      std::byte hello[wire::kHelloBytes];
      if (!read_full(fd, hello, wire::kHelloBytes) ||
          !wire::decode_hello(hello, from)) {
        if (!shutting_down_.load()) {
          util::atomic_print_err("tdp::vp: uds rank " +
                                 std::to_string(rank_) +
                                 ": inbound connection with bad hello");
        }
        return;
      }
    }
    std::uint64_t expect_seq = 0;
    for (;;) {
      std::byte header[wire::kHeaderBytes];
      if (!read_full(fd, header, wire::kHeaderBytes)) {
        // EOF at a frame boundary: an orderly close — normal when ranks
        // finish at different times.  Record it quietly so a later receive
        // timeout can still name the exited rank; only mid-frame
        // truncation and write errors warrant a loud notice.
        if (!shutting_down_.load()) {
          note_dead(from, "closed its connection (exited?)",
                    /*loud=*/false);
        }
        return;
      }
      wire::FrameHeader h;
      if (!wire::decode_header(header, h) ||
          h.payload_bytes > kMaxPayloadBytes) {
        note_dead(from, "sent a malformed frame (desynchronized stream)");
        return;
      }
      if (h.seq != expect_seq) {
        // A reliable stream cannot reorder; a gap here is a framing bug.
        note_dead(from, "frame sequence gap (got " + std::to_string(h.seq) +
                            ", expected " + std::to_string(expect_seq) + ")");
        return;
      }
      ++expect_seq;
      Payload payload;
      if (h.payload_bytes > 0) {
        std::vector<std::byte> buf(
            static_cast<std::size_t>(h.payload_bytes));
        if (!read_full(fd, buf.data(), buf.size())) {
          if (!shutting_down_.load()) {
            note_dead(from, "closed its connection mid-frame");
          }
          return;
        }
        payload = Payload::take(std::move(buf));
      }
      // The existing post path: typed buckets, waiter wakeups, enq_ns
      // stamping, and post-after-close drop semantics all apply.
      deliver_(rank_, wire::to_message(h, std::move(payload)));
    }
  }

  /// Connects to `dst`'s socket, retrying while the peer may still be
  /// binding.  Caller holds peer.mu.
  bool connect_locked(int dst, Peer& peer) {
    const std::string path = socket_path(dir_, dst);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      mark_dead_locked(dst, peer, "socket path too long: " + path);
      return false;
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    const long long budget_ms =
        util::env_int("TDP_UDS_CONNECT_MS", 10000, 1, 3600000);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(budget_ms);
    for (;;) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0) {
        mark_dead_locked(dst, peer, std::string("socket() failed: ") +
                                        std::strerror(errno));
        return false;
      }
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        std::byte hello[wire::kHelloBytes];
        wire::encode_hello(rank_, hello);
        if (!write_full(fd, hello, wire::kHelloBytes)) {
          ::close(fd);
          mark_dead_locked(dst, peer, "hello write failed");
          return false;
        }
        peer.fd = fd;
        return true;
      }
      const int err = errno;
      ::close(fd);
      const bool peer_not_up_yet = err == ENOENT || err == ECONNREFUSED;
      if (!peer_not_up_yet || shutting_down_.load() ||
          std::chrono::steady_clock::now() >= deadline) {
        mark_dead_locked(
            dst, peer,
            std::string("unreachable (") + std::strerror(err) +
                (peer_not_up_yet ? ", never bound its socket)" : ")"));
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  void mark_dead_locked(int dst, Peer& peer, const std::string& reason) {
    peer.dead = true;
    if (peer.fd >= 0) {
      ::close(peer.fd);
      peer.fd = -1;
    }
    note_dead(dst, reason);
  }

  void note_dead(int r, const std::string& reason, bool loud = true) {
    bool fresh = false;
    {
      std::lock_guard<std::mutex> lock(status_mu_);
      if (r >= 0 && r < static_cast<int>(dead_reason_.size()) &&
          dead_reason_[static_cast<std::size_t>(r)].empty()) {
        dead_reason_[static_cast<std::size_t>(r)] = reason;
        fresh = true;
      }
    }
    if (fresh && loud) {
      util::atomic_print_err("tdp::vp: uds rank " + std::to_string(rank_) +
                             ": peer rank " + std::to_string(r) + " " +
                             reason);
    }
  }

  const int rank_;
  const std::string dir_;
  const LocalDeliver deliver_;
  std::vector<std::unique_ptr<Peer>> peers_;  ///< outbound, indexed by rank

  int listen_fd_ = -1;
  std::thread acceptor_;
  std::mutex inbound_mu_;
  std::vector<Inbound> inbound_;

  mutable std::mutex status_mu_;
  std::vector<std::string> dead_reason_;  ///< per rank; empty = healthy

  std::atomic<bool> shutting_down_{false};
};

}  // namespace

std::unique_ptr<Transport> make_uds_transport(
    int nprocs, int rank, std::string socket_dir,
    Transport::LocalDeliver deliver);

std::unique_ptr<Transport> make_uds_transport(
    int nprocs, int rank, std::string socket_dir,
    Transport::LocalDeliver deliver) {
  return std::make_unique<UdsTransport>(nprocs, rank, std::move(socket_dir),
                                        std::move(deliver));
}

}  // namespace tdp::vp
