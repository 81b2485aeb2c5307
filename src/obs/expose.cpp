#include "obs/expose.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/attr.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/atomic_print.hpp"

namespace tdp::obs {

namespace {

/// Trims whitespace/newlines around the received command.
std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' ||
                   s[b] == '\n')) {
    ++b;
  }
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' ||
                   s[e - 1] == '\n')) {
    --e;
  }
  return s.substr(b, e - b);
}

void write_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // client went away; nothing to salvage
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

ExpositionServer& ExpositionServer::instance() {
  // Ordered after the singletons the serving thread renders from.
  Telemetry::instance();
  static ExpositionServer server;
  return server;
}

ExpositionServer::~ExpositionServer() { stop(); }

bool ExpositionServer::start(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (thread_.joinable()) return true;

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    util::atomic_print_err("tdp::obs: exposition socket() failed: " +
                           std::string(std::strerror(errno)));
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    util::atomic_print_err("tdp::obs: TDP_OBS_SOCKET path too long: " + path);
    ::close(fd);
    return false;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // replace a stale socket from a dead process
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd, 8) < 0) {
    util::atomic_print_err("tdp::obs: exposition bind/listen on " + path +
                           " failed: " + std::string(std::strerror(errno)));
    ::close(fd);
    return false;
  }

  listen_fd_ = fd;
  path_ = path;
  stopping_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { run(); });
  return true;
}

void ExpositionServer::stop() {
  std::thread worker;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!thread_.joinable()) return;
    stopping_.store(true, std::memory_order_relaxed);
    worker = std::move(thread_);
    path = path_;
    path_.clear();
  }
  worker.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }
  if (!path.empty()) ::unlink(path.c_str());
}

bool ExpositionServer::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return thread_.joinable();
}

std::string ExpositionServer::path() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return path_;
}

std::string ExpositionServer::respond(const std::string& command) {
  const std::string cmd = trim(command);
  if (cmd.empty() || cmd == "metrics") {
    return Telemetry::instance().render_prometheus();
  }
  if (cmd == "json") {
    return Telemetry::instance().render_json() + "\n";
  }
  if (cmd == "slow") {
    return CallTable::instance().render_exemplars_json() + "\n";
  }
  if (cmd == "dump") {
    const std::string trace_path = dump_flight_data("socket request");
    return trace_path.empty() ? std::string("error: dump failed\n")
                              : "dumped " + trace_path + "\n";
  }
  return "error: unknown command \"" + cmd +
         "\" (expected metrics, json, slow, or dump)\n";
}

void ExpositionServer::run() {
  const int fd = listen_fd_;  // stable until stop() closes it after join
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0) continue;  // timeout (re-check stop flag) or EINTR

    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) continue;

    // One short command line per connection; bound the read and give a
    // stuck client 2 s before hanging up.
    std::string command;
    char buf[256];
    while (command.find('\n') == std::string::npos && command.size() < 4096) {
      pollfd cpfd{};
      cpfd.fd = client;
      cpfd.events = POLLIN;
      if (::poll(&cpfd, 1, 2000) <= 0) break;
      const ssize_t n = ::read(client, buf, sizeof(buf));
      if (n <= 0) break;  // EOF: client sent its command and shut down
      command.append(buf, static_cast<std::size_t>(n));
    }
    write_all(client, respond(command));
    ::close(client);
  }
}

}  // namespace tdp::obs
