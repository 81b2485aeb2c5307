// tdp::obs exposition — a Unix-domain-socket window into a live run.
//
// When TDP_OBS_SOCKET names a path, the runtime listens on it and answers
// one-line text commands, one connection per request (the client reads
// until EOF — no framing protocol to version):
//
//   metrics   Prometheus-style text: every registry counter/histogram plus
//             per-VP utilization rows from the telemetry sampler.
//   json      the full bounded time-series history as one JSON document
//             (counters, histogram windows, per-VP points, slow-call
//             summaries).
//   slow      the retained slow-call exemplars with their captured span
//             subtrees, as one JSON document (`tdp_trace why` input).
//   dump      writes a flight-recorder dump (the files SIGUSR1 produces)
//             and replies with the trace file's path.
//
// `tools/tdp_top` is the intended client, but `nc -U` works just as well:
//
//   $ printf metrics | nc -U /tmp/tdp.sock
//
// The server owns no metric state — it renders through Telemetry and the
// registry.  It does not service the flight-dump request flag: a socket
// implies the sampler (telemetry_start_from_env), which does.
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <thread>

namespace tdp::obs {

class ExpositionServer {
 public:
  static ExpositionServer& instance();

  /// Binds `path` (an AF_UNIX socket; any stale file there is replaced)
  /// and starts the serving thread.  Returns false when the socket cannot
  /// be created; idempotent while already running.
  bool start(const std::string& path);

  /// Stops the thread, closes the socket, and removes the path.
  void stop();

  bool running() const;

  /// The bound socket path ("" when not running).
  std::string path() const;

  /// Answers one command line — the serving thread's brain, exposed so
  /// tests can exercise the protocol without a socket.
  static std::string respond(const std::string& command);

 private:
  ExpositionServer() = default;
  ~ExpositionServer();

  void run();

  mutable std::mutex mutex_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  std::string path_;
};

}  // namespace tdp::obs
