// tdp_top — live terminal view of a running tdp program.
//
//   TDP_OBS=1 TDP_OBS_SOCKET=/tmp/tdp.sock ./your_program &
//   tdp_top --socket /tmp/tdp.sock
//
// Polls the exposition endpoint's `json` command on an interval and renders
// per-VP utilization (run fraction over the last sample window), mailbox
// depth, message rate, and blocked state, plus headline counter rates,
// windowed histogram quantiles, trace-ring status, recent watchdog stalls,
// and the slowest retained calls with their phase attribution.  `--once`
// prints a single snapshot and exits (CI smoke-tests this); `--metrics`
// prints the raw Prometheus text, `--slow` the raw slow-call exemplar JSON.
// In live mode a disappearing peer (restart, crash) is reported as "peer
// lost" and polled for with exponential backoff, not treated as fatal.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"

namespace {

int usage(const char* argv0, int code) {
  std::cerr
      << "usage: " << argv0 << " [--socket <path>] [options]\n"
      << "  --socket <path>   exposition socket (default: $TDP_OBS_SOCKET)\n"
      << "  --once            print one snapshot and exit\n"
      << "  --interval <ms>   polling period in live mode (default 1000)\n"
      << "  --metrics         print raw Prometheus exposition text\n"
      << "  --slow            print the raw slow-call exemplar JSON\n"
      << "  the target program must run with TDP_OBS=1 and TDP_OBS_SOCKET "
         "set\n";
  return code;
}

/// One request/response exchange: connect, send the command, read to EOF.
bool query(const std::string& socket_path, const std::string& command,
           std::string& out, std::string& error) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::strerror(errno);
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    error = "socket path too long";
    ::close(fd);
    return false;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    error = std::strerror(errno);
    ::close(fd);
    return false;
  }
  const std::string line = command + "\n";
  if (::write(fd, line.data(), line.size()) < 0) {
    error = std::strerror(errno);
    ::close(fd);
    return false;
  }
  out.clear();
  char buf[4096];
  for (;;) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, 5000) <= 0) {
      error = "timed out waiting for reply";
      ::close(fd);
      return false;
    }
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      error = std::strerror(errno);
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}

std::string fmt_rate(double v) {
  char buf[32];
  if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM/s", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk/s", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f/s", v);
  }
  return buf;
}

std::string fmt_ns(double ns) {
  char buf[32];
  if (ns >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  }
  return buf;
}

/// A 10-cell utilization bar: ██████░░░░
std::string run_bar(double frac) {
  if (frac < 0.0) frac = 0.0;
  if (frac > 1.0) frac = 1.0;
  const int filled = static_cast<int>(frac * 10.0 + 0.5);
  std::string bar;
  for (int i = 0; i < 10; ++i) bar += i < filled ? "█" : "░";
  return bar;
}

const tdp::obs::json::Value* latest_point(const tdp::obs::json::Value& series,
                                          const char* key) {
  const tdp::obs::json::Value* points = series.find(key);
  if (points == nullptr ||
      points->type != tdp::obs::json::Value::Type::Array ||
      points->array.empty()) {
    return nullptr;
  }
  return &points->array.back();
}

/// Counters whose rates headline the view; everything else stays in the
/// raw `--metrics` output.
constexpr const char* kHeadlineCounters[] = {
    "vp.messages",  "comm.bytes_delivered", "am.bytes_moved",
    "call.count",   "mailbox.recv_miss",    "sched.steals",
    "sched.parks",  "sched.wakeups",        "sched.completed",
};

void render(std::ostream& os, const tdp::obs::json::Value& doc) {
  using tdp::obs::json::Value;

  const std::uint64_t samples =
      static_cast<std::uint64_t>(doc.num_or("samples", 0.0));
  os << "tdp_top — " << samples << " samples @ "
     << static_cast<std::uint64_t>(doc.num_or("period_ms", 0.0)) << " ms\n";

  if (const Value* trace = doc.find("trace");
      trace != nullptr && trace->type == Value::Type::Object) {
    os << "trace: recorded="
       << static_cast<std::uint64_t>(trace->num_or("recorded", 0.0));
    const auto overwritten =
        static_cast<std::uint64_t>(trace->num_or("overwritten", 0.0));
    if (overwritten != 0) os << " overwritten=" << overwritten;
    os << "\n";
  }
  if (const Value* stalls = doc.find("stalls");
      stalls != nullptr && stalls->type == Value::Type::Object) {
    const auto count = static_cast<std::uint64_t>(stalls->num_or("count", 0.0));
    if (count != 0) {
      os << "stalls: " << count << " episode" << (count == 1 ? "" : "s")
         << "; last: " << stalls->str_or("last") << "\n";
    }
  }
  // Work-stealing scheduler state: present only when the peer runs under
  // TDP_SCHED=steal (the telemetry probe is registered by the scheduler).
  if (const Value* sched = doc.find("sched");
      sched != nullptr && sched->type == Value::Type::Object) {
    os << "sched: " << static_cast<std::uint64_t>(sched->num_or("workers", 0.0))
       << " workers  runnable="
       << static_cast<std::uint64_t>(sched->num_or("runnable", 0.0))
       << "  suspended="
       << static_cast<std::uint64_t>(sched->num_or("suspended", 0.0));
    if (const Value* fracs = sched->find("run_frac");
        fracs != nullptr && fracs->type == Value::Type::Array &&
        !fracs->array.empty()) {
      os << "  run%=[";
      for (std::size_t i = 0; i < fracs->array.size(); ++i) {
        const double f = fracs->array[i].type == Value::Type::Number
                             ? fracs->array[i].number
                             : 0.0;
        os << (i != 0 ? " " : "")
           << static_cast<int>(f * 100.0 + 0.5) << "%";
      }
      os << "]";
    }
    os << "\n";
  }
  // Distributed-array shard state: present only while the peer has a live
  // ArrayManager (that is what registers the telemetry dist probe).
  if (const Value* dist = doc.find("dist");
      dist != nullptr && dist->type == Value::Type::Object) {
    os << "shards: migrations="
       << static_cast<std::uint64_t>(dist->num_or("migrations", 0.0))
       << "  rebalances="
       << static_cast<std::uint64_t>(dist->num_or("rebalances", 0.0))
       << "  forwards="
       << static_cast<std::uint64_t>(dist->num_or("forwards", 0.0));
    if (const Value* hot = dist->find("hot");
        hot != nullptr && hot->type == Value::Type::Array &&
        !hot->array.empty()) {
      os << "  hot=[";
      for (std::size_t i = 0; i < hot->array.size(); ++i) {
        const Value& row = hot->array[i];
        if (row.type != Value::Type::Object) continue;
        os << (i != 0 ? " " : "") << row.str_or("array") << "#"
           << static_cast<long long>(row.num_or("shard", 0.0)) << "@p"
           << static_cast<long long>(row.num_or("owner", -1.0)) << ":"
           << static_cast<std::uint64_t>(row.num_or("bytes", 0.0)) << "B";
      }
      os << "]";
    }
    os << "\n";
  }
  os << "\n";

  // --- per-VP table -------------------------------------------------------
  os << std::left << std::setw(6) << "vp" << std::setw(12) << "run"
     << std::right << std::setw(7) << "run%" << std::setw(8) << "depth"
     << std::setw(12) << "msgs" << std::setw(12) << "recv/s" << "  state"
     << "\n";
  if (const Value* vps = doc.find("vps");
      vps != nullptr && vps->type == Value::Type::Array) {
    for (const Value& row : vps->array) {
      const Value* p = latest_point(row, "points");
      if (p == nullptr) continue;
      const double run = p->num_or("run", 1.0);
      const bool blocked = p->num_or("blocked", 0.0) != 0.0;
      std::ostringstream state;
      if (blocked) {
        state << "blocked";
        const auto ms =
            static_cast<std::uint64_t>(p->num_or("blocked_ms", 0.0));
        if (ms != 0) state << " " << ms << "ms";
      } else {
        state << "run";
      }
      os << std::left << std::setw(6)
         << ("vp" + std::to_string(
                        static_cast<std::int64_t>(row.num_or("vp", -1.0))))
         << std::setw(12) << run_bar(run) << std::right << std::setw(6)
         << static_cast<int>(run * 100.0 + 0.5) << "%" << std::setw(8)
         << static_cast<std::uint64_t>(p->num_or("depth", 0.0))
         << std::setw(12) << fmt_rate(p->num_or("rate", 0.0)) << std::setw(12)
         << fmt_rate(p->num_or("prog", 0.0)) << "  " << state.str() << "\n";
    }
  }
  os << "\n";

  // --- headline counter rates --------------------------------------------
  if (const Value* counters = doc.find("counters");
      counters != nullptr && counters->type == Value::Type::Array) {
    for (const Value& series : counters->array) {
      const std::string name = series.str_or("name");
      bool headline = false;
      for (const char* h : kHeadlineCounters) headline |= name == h;
      if (!headline) continue;
      const Value* p = latest_point(series, "points");
      if (p == nullptr) continue;
      os << std::left << std::setw(24) << name << std::right << std::setw(16)
         << static_cast<std::uint64_t>(p->num_or("v", 0.0)) << std::setw(12)
         << fmt_rate(p->num_or("rate", 0.0)) << "\n";
    }
  }

  // --- windowed histogram quantiles --------------------------------------
  if (const Value* hists = doc.find("histograms");
      hists != nullptr && hists->type == Value::Type::Array) {
    bool header = false;
    for (const Value& series : hists->array) {
      const Value* p = latest_point(series, "points");
      if (p == nullptr || p->num_or("n", 0.0) == 0.0) continue;
      if (!header) {
        os << "\n" << std::left << std::setw(24) << "histogram (window)"
           << std::right << std::setw(12) << "n" << std::setw(12) << "p50"
           << std::setw(12) << "p99" << "\n";
        header = true;
      }
      os << std::left << std::setw(24) << series.str_or("name") << std::right
         << std::setw(12) << static_cast<std::uint64_t>(p->num_or("n", 0.0))
         << std::setw(12) << fmt_ns(p->num_or("p50", 0.0)) << std::setw(12)
         << fmt_ns(p->num_or("p99", 0.0)) << "\n";
    }
  }

  // --- slowest retained calls --------------------------------------------
  if (const Value* slow = doc.find("slow");
      slow != nullptr && slow->type == Value::Type::Object) {
    const Value* calls = slow->find("calls");
    if (calls != nullptr && calls->type == Value::Type::Array &&
        !calls->array.empty()) {
      os << "\nslowest calls (TDP_OBS_SLOW_MS="
         << static_cast<std::uint64_t>(slow->num_or("threshold_ms", 0.0))
         << ", " << static_cast<std::uint64_t>(slow->num_or("captured", 0.0))
         << " captured; `tdp_trace why <id>` explains one):\n";
      os << std::left << std::setw(12) << "call" << std::setw(8) << "kind"
         << std::right << std::setw(7) << "copies" << std::setw(12)
         << "latency" << std::setw(9) << "queue%" << std::setw(9) << "block%"
         << std::setw(9) << "comp%" << std::setw(6) << "over" << "\n";
      for (const Value& row : calls->array) {
        const double queue = row.num_or("queue_ns", 0.0);
        const double blocked = row.num_or("blocked_ns", 0.0);
        const double compute = row.num_or("compute_ns", 0.0);
        const double total =
            row.num_or("marshal_ns", 0.0) + queue + blocked + compute;
        const auto pct = [&](double v) {
          char buf[16];
          std::snprintf(buf, sizeof(buf), "%.1f%%",
                        total > 0.0 ? v / total * 100.0 : 0.0);
          return std::string(buf);
        };
        os << std::left << std::setw(12)
           << static_cast<std::uint64_t>(row.num_or("call_id", 0.0))
           << std::setw(8) << row.str_or("kind") << std::right << std::setw(7)
           << static_cast<int>(row.num_or("copies", 0.0)) << std::setw(12)
           << fmt_ns(row.num_or("latency_ns", 0.0)) << std::setw(9)
           << pct(queue) << std::setw(9) << pct(blocked) << std::setw(9)
           << pct(compute) << std::setw(6)
           << (row.num_or("over_threshold", 0.0) != 0.0 ? "yes" : "-")
           << "\n";
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  if (const char* env = std::getenv("TDP_OBS_SOCKET");
      env != nullptr && env[0] != '\0') {
    socket_path = env;
  }
  bool once = false;
  bool raw_metrics = false;
  bool raw_slow = false;
  long interval_ms = 1000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") return usage(argv[0], 0);
    if (arg == "--once") {
      once = true;
    } else if (arg == "--metrics") {
      raw_metrics = true;
    } else if (arg == "--slow") {
      raw_slow = true;
    } else if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--interval" && i + 1 < argc) {
      interval_ms = std::atol(argv[++i]);
      if (interval_ms <= 0) interval_ms = 1000;
    } else {
      return usage(argv[0], 2);
    }
  }
  if (socket_path.empty()) {
    std::cerr << "tdp_top: no socket (pass --socket or set TDP_OBS_SOCKET)\n";
    return usage(argv[0], 2);
  }

  const bool one_shot = once || raw_metrics || raw_slow;
  const char* verb = raw_metrics ? "metrics" : raw_slow ? "slow" : "json";
  // Live-mode reconnect backoff: interval → ×2 per failure → 5 s cap,
  // reset on the first successful exchange.
  constexpr long kBackoffCapMs = 5000;
  long backoff_ms = interval_ms;
  for (;;) {
    std::string reply;
    std::string error;
    bool ok = query(socket_path, verb, reply, error);
    std::ostringstream frame;
    if (ok && raw_metrics) {
      frame << reply;
    } else if (ok && raw_slow) {
      frame << reply;
    } else if (ok) {
      tdp::obs::json::Value doc;
      if (!tdp::obs::json::parse(reply, doc, &error)) {
        // A half-written reply from a peer dying mid-response is a lost
        // peer, not a fatal protocol error.
        error = "bad reply: " + error;
        ok = false;
      } else {
        render(frame, doc);
      }
    }
    if (!ok) {
      if (one_shot) {
        std::cerr << "tdp_top: " << socket_path << ": " << error << "\n";
        return 1;
      }
      // Live mode survives the peer disappearing (restart, crash, socket
      // unlinked): say so, back off, keep polling until it returns.
      frame << "tdp_top — peer lost (" << socket_path << ": " << error
            << "); retrying every " << backoff_ms << " ms\n";
      std::cout << "\033[H\033[2J" << frame.str() << std::flush;
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, kBackoffCapMs);
      continue;
    }
    backoff_ms = interval_ms;
    if (one_shot) {
      std::cout << frame.str();
      return 0;
    }
    // Live mode: home the cursor and clear to end of screen per frame.
    std::cout << "\033[H\033[2J" << frame.str() << std::flush;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}
