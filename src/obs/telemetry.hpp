// tdp::obs telemetry — the live plane over the post-mortem substrate.
//
// PRs 1–2 made runs *reconstructable*: trace at capacity, metrics at
// shutdown, analysis offline.  A long-running service needs the opposite
// temporal shape — recent history, always, while the process is alive.
// This module adds it:
//
//  * a background sampler (TDP_OBS_SAMPLE_MS) that snapshots the metrics
//    registry on a fixed period into bounded time-series rings, deriving
//    per-window counter rates and histogram p50/p99 from bucket deltas
//    (Histogram::percentile_from_buckets — lifetime percentiles flatten
//    out after minutes of uptime; windowed ones are what a dashboard
//    needs);
//  * a per-VP run/blocked sampler over the same VpWaitState blocks the
//    stall watchdog reads: per window, each virtual processor's run
//    fraction (1 - blocked time / window), mailbox depth, message rate,
//    and progress rate;
//  * the flight-recorder dump machinery: SIGUSR1, an API call, the
//    exposition server's `dump` command, or a watchdog stall all funnel
//    into one request flag serviced off the hot path, writing the trace
//    ring ($TDP_OBS_DUMP prefix, default `tdp_flight` →
//    `tdp_flight.trace.json`) and the telemetry history
//    (`<prefix>.telemetry.json`).
//
// The sampler is process-global like the watchdog: vp::Machine registers
// one source per mailbox when observability is enabled, and
// telemetry_start_from_env() (called from the Machine constructor) starts
// the thread when TDP_OBS_SAMPLE_MS or TDP_OBS_SOCKET is set.  Everything
// the sampler reads is relaxed-atomic metric state — one tick is a few
// hundred loads, so even a 10 ms period is noise.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/watchdog.hpp"

namespace tdp::obs {

class Telemetry {
 public:
  /// Points retained per series: at the default 250 ms period, a 30 s
  /// window — recent history, deliberately bounded (the flight-recorder
  /// philosophy applied to metrics).
  static constexpr std::size_t kHistoryDepth = 120;

  /// Per-VP Prometheus series are emitted for the first kMaxVpSeries VPs
  /// only; higher-numbered VPs fold into one aggregate {vp="64+"} row so
  /// scrape cardinality stays bounded no matter how many VPs a process
  /// spawns.  Matches the vp.messages counter's shard count — beyond it
  /// per-VP message rates alias anyway (metric_shard is vp mod 64).
  static constexpr std::size_t kMaxVpSeries = 64;

  /// One counter sample: cumulative value and the rate over the window
  /// ending at ts_ms (0 on a series' first point).
  struct Point {
    std::uint64_t ts_ms = 0;
    double value = 0.0;
    double rate = 0.0;  ///< per second
  };

  /// One histogram window: samples recorded during the window, their rate,
  /// and the windowed (bucket-delta) p50/p99.
  struct HistPoint {
    std::uint64_t ts_ms = 0;
    std::uint64_t count = 0;  ///< samples in this window
    double rate = 0.0;        ///< samples per second
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
  };

  /// One virtual processor's window: queue depth at the tick, fraction of
  /// the window spent runnable (vs blocked in receive), message and
  /// progress rates, and the current block's age when still blocked.
  struct VpPoint {
    std::uint64_t ts_ms = 0;
    std::uint64_t depth = 0;
    double run_frac = 1.0;
    double msg_rate = 0.0;       ///< messages delivered per second
    double progress_rate = 0.0;  ///< posts + completed receives per second
    bool blocked = false;
    std::uint64_t blocked_ms = 0;  ///< age of the current block, 0 if none
  };

  /// One scheduler sample, pulled from the probe the work-stealing
  /// scheduler registers (obs must not depend on sched, so the data
  /// arrives through this callback, mirroring the VpWaitState injection).
  struct SchedSample {
    std::uint64_t runnable = 0;
    std::uint64_t suspended = 0;
    std::vector<std::uint64_t> worker_busy_ns;  ///< cumulative, per worker
  };
  using SchedProbe = std::function<SchedSample()>;

  /// Installs/clears the scheduler probe.  The sampler calls it once per
  /// tick and differences worker_busy_ns into per-worker run fractions.
  /// The scheduler clears the probe (nullptr) before joining its workers.
  void set_sched_probe(SchedProbe probe);

  /// One distributed-array sample, pulled from the probe the array manager
  /// registers (obs must not depend on dist, so the data arrives through
  /// this callback, mirroring the scheduler probe): cumulative shard
  /// migration/rebalance/forward counts plus the hottest shards by traffic
  /// accumulated in the current rebalance window.
  struct DistSample {
    std::uint64_t migrations = 0;  ///< shards migrated so far
    std::uint64_t rebalances = 0;  ///< rebalance passes so far
    std::uint64_t forwards = 0;    ///< stale-owner-table re-routes so far
    struct ShardRow {
      int creator = -1;  ///< ArrayId (creator processor, sequence number)
      std::uint64_t seq = 0;
      long long shard = 0;
      int owner = -1;
      std::uint64_t bytes = 0;  ///< traffic this window
    };
    std::vector<ShardRow> hottest;
  };
  using DistProbe = std::function<DistSample()>;

  /// Installs/clears the distributed-array probe.  The array manager
  /// registers itself on construction (when observability is on) and
  /// clears the probe before destruction.
  void set_dist_probe(DistProbe probe);

  /// The latest state across every series — what the exposition endpoint
  /// and tdp_top render.
  struct Snapshot {
    std::uint64_t ts_ms = 0;
    std::uint64_t period_ms = 0;
    std::uint64_t samples = 0;  ///< ticks taken since start
    std::vector<std::pair<std::string, Point>> counters;
    struct HistRow {
      std::string name;
      HistPoint latest;
      std::uint64_t lifetime_count = 0;
      std::uint64_t lifetime_max = 0;
    };
    std::vector<HistRow> histograms;
    struct VpRow {
      int vp = -1;
      VpPoint latest;
    };
    std::vector<VpRow> vps;
    /// Scheduler plane (present only while the steal pool is live).
    struct SchedState {
      bool present = false;
      std::uint64_t runnable = 0;
      std::uint64_t suspended = 0;
      std::vector<double> worker_run_frac;  ///< busy fraction per worker
    };
    SchedState sched;
    /// Distributed-array plane (present only while an ArrayManager lives).
    struct DistState {
      bool present = false;
      std::uint64_t migrations = 0;
      std::uint64_t rebalances = 0;
      std::uint64_t forwards = 0;
      std::vector<DistSample::ShardRow> hottest;
    };
    DistState dist;
    std::uint64_t trace_recorded = 0;
    std::uint64_t trace_overwritten = 0;
    std::uint64_t stalls = 0;    ///< watchdog stall episodes so far
    std::string last_stall;      ///< first line of the latest stall report
  };

  static Telemetry& instance();

  /// TDP_OBS_SAMPLE_MS from the environment, 0 when unset/invalid.
  static std::uint64_t env_period_ms();

  /// Starts the sampling thread (idempotent; a later call adjusts the
  /// period).  No-op when period_ms is 0.
  void start(std::uint64_t period_ms);

  /// Stops and joins the sampling thread; history and snapshot survive.
  void stop();

  bool running() const;

  /// Registers a virtual processor's wait state for the run/blocked
  /// sampler; `state` must outlive the registration.  Returns a token for
  /// remove_vp_source.
  int add_vp_source(int vp, const VpWaitState* state);
  void remove_vp_source(int token);

  /// Takes one sample synchronously — what the thread does per period.
  /// Tests drive the sampler deterministically through this.
  void sample_now();

  /// The watchdog feeds each stall report here so the live plane can show
  /// "recent stalls" without re-deriving them.
  void note_stall(const std::string& report);

  Snapshot snapshot() const;

  /// Prometheus-style exposition text: registry counters/histograms/
  /// gauges plus the per-VP rows, all prefixed `tdp_` with `.`→`_`.
  std::string render_prometheus() const;

  /// The full time-series history as one JSON document (the exposition
  /// server's `json` reply and the telemetry half of a flight dump).
  /// Parses with obs::json::parse — the round trip the tests assert.
  std::string render_json() const;

  /// Clears history, sources stay registered; tests use this between
  /// cases.  Not thread-safe versus a running sampler — stop() first.
  void reset_for_test();

 private:
  Telemetry() = default;
  ~Telemetry();

  template <typename T>
  struct Ring {
    std::deque<T> points;
    void push(T p) {
      points.push_back(std::move(p));
      if (points.size() > kHistoryDepth) points.pop_front();
    }
  };

  struct CounterTrack {
    double last = 0.0;
    bool primed = false;
    Ring<Point> ring;
  };

  struct HistTrack {
    std::array<std::uint64_t, Histogram::kBuckets> last_buckets{};
    bool primed = false;
    std::uint64_t lifetime_count = 0;
    std::uint64_t lifetime_max = 0;
    Ring<HistPoint> ring;
  };

  struct VpTrack {
    int token = 0;
    int vp = -1;
    const VpWaitState* state = nullptr;
    std::uint64_t last_blocked_ns = 0;
    std::uint64_t last_progress = 0;
    std::uint64_t last_msgs = 0;
    bool primed = false;
    Ring<VpPoint> ring;
  };

  struct SchedTrack {
    bool primed = false;
    std::vector<std::uint64_t> last_busy_ns;
  };

  void run();
  void tick_locked(std::uint64_t now_ns);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::thread thread_;
  std::uint64_t period_ms_ = 0;
  bool stopping_ = false;

  std::uint64_t last_tick_ns_ = 0;
  std::uint64_t samples_ = 0;
  std::map<std::string, CounterTrack> counters_;
  std::map<std::string, HistTrack> histograms_;
  std::vector<VpTrack> vps_;
  SchedProbe sched_probe_;
  SchedTrack sched_track_;
  DistProbe dist_probe_;
  int next_token_ = 1;
  std::uint64_t stalls_ = 0;
  std::string last_stall_;
  Snapshot snapshot_;
};

/// Reads TDP_OBS_SAMPLE_MS and TDP_OBS_SOCKET and brings the live plane
/// up accordingly: the sampler when either is set (the socket implies a
/// default 250 ms period), the exposition server when the socket path is
/// set, and the SIGUSR1 dump handler alongside the sampler.  Idempotent;
/// vp::Machine calls it whenever observability is enabled.
void telemetry_start_from_env();

/// Arms the flight-recorder dump flag.  Async-signal-safe (the SIGUSR1
/// handler calls this); the telemetry sampler, the watchdog thread, and
/// the exposition server all service it at their next step.
void request_flight_dump();

/// Services a pending dump request, if any; returns true when a dump was
/// written.
bool service_flight_dump_request();

/// Writes the flight-recorder trace ring to `<prefix>.trace.json`, the
/// telemetry history to `<prefix>.telemetry.json`, and the retained slow-
/// call exemplars to `<prefix>.slow.json` (prefix: TDP_OBS_DUMP, default
/// "tdp_flight"), logging one atomic stderr line tagged with `reason`.
/// Returns the trace path ("" when the file could not be written).
std::string dump_flight_data(const char* reason);

/// Installs the SIGUSR1 → request_flight_dump handler, saving the
/// previous disposition.  Skips installation (with one stderr note) when
/// the application already registered a SIGUSR1 handler — the library
/// never clobbers its embedder's signal, and ignores the call if a
/// handler of ours is already in place.
void install_dump_signal_handler();

/// Restores the pre-install SIGUSR1 disposition, provided our handler is
/// still the current one (an application handler installed after ours is
/// left untouched).  No-op when install never ran or was skipped.
/// Telemetry::stop calls this, so teardown is symmetric with
/// telemetry_start_from_env.
void uninstall_dump_signal_handler();

/// True while our SIGUSR1 handler is installed (tests).
bool dump_signal_handler_installed();

}  // namespace tdp::obs
