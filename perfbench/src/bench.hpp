// Shared pieces of the repo benchmark: options, the in-memory span recorder
// used by traced runs, latency histograms, quantiles, and the per-layer
// attribution every workload feeds.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into the library's public functions (DistributedCall::run, pcn::par,
// Stream::next, ArrayManager::read_element/write_element) and inside
// benchmark-registered wrapper programs that time a library program's body.
// Nothing inside the library is instrumented.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace tdp::core {
class ProgramRegistry;
}
namespace tdp::vp {
class Machine;
}

namespace perfbench {

/// CPU time all threads of this process have run, in ns.  Time the
/// hypervisor stole from the machine and time spent waiting are not in it.
inline std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;        // smoke-test sizes
  std::string spans_out;    // traced run: where the spans are written
};

/// The boundary a span brackets.  Each kind belongs to exactly one layer.
enum class Kind : std::uint8_t {
  Par,         // pcn::par, whole composition
  Branch,      // one block of a par
  StreamWait,  // a blocking Stream::next
  Call,        // DistributedCall::run
  CopyFft,     // body of fft_reverse / fft_natural in one copy
  CopyLinalg,  // body of heat_step_1d in one copy
  CopyCheck,   // body of a benchmark check program in one copy
  Dist,        // a batch of read_element / write_element requests
  Task,        // task-level compute of the workload itself (combine stage)
};

enum class Layer : std::uint8_t { Pcn, Core, Fft, Linalg, Check, Dist, Task };
inline constexpr std::size_t kLayers = 7;

Layer layer_of(Kind k);

/// Nesting depth used when attributing time to the innermost span.
int depth_of(Kind k);

struct Span {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::uint32_t op = 0;      // op sequence number (unknown for copies)
  std::int16_t group = 0;    // first processor of the group, or a stage id
  std::int16_t index = 0;    // copy index / branch index
  Kind kind = Kind::Call;
};

/// Fixed-capacity, lock-free span store.  A full store drops further
/// spans (counted); workloads stop a traced phase before that happens.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity) : spans_(capacity) {}

  void record(Kind kind, std::int64_t t0, std::int64_t t1, std::uint32_t op,
              int group, int index) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= spans_.size()) return;
    spans_[i] = Span{t0, t1, op, static_cast<std::int16_t>(group),
                     static_cast<std::int16_t>(index), kind};
  }

  /// True when fewer than `margin` slots are left.
  bool nearly_full(std::size_t margin) const {
    return next_.load(std::memory_order_relaxed) + margin >= spans_.size();
  }

  /// The recorded spans; read only after every recording thread joined.
  std::span<const Span> spans() const {
    const std::size_t n = next_.load(std::memory_order_relaxed);
    return {spans_.data(), n < spans_.size() ? n : spans_.size()};
  }

  std::size_t dropped() const {
    const std::size_t n = next_.load(std::memory_order_relaxed);
    return n > spans_.size() ? n - spans_.size() : 0;
  }

  /// Writes the spans as CSV (t0_ns,t1_ns,kind,group,index,op).
  bool write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
};

/// The tracer of the traced phase in progress, read by the wrapper programs
/// running inside call copies; nullptr otherwise.  Set before the phase
/// spawns anything and cleared after it has joined everything.
extern Tracer* g_tracer;

/// Log-linear latency histogram (64 sub-buckets per octave, <1.6% error),
/// for request latencies too numerous to keep one by one.
class Hist {
 public:
  void record(std::uint64_t v);
  void merge(const Hist& other);
  double percentile(double p) const;

 private:
  static constexpr int kSubBits = 6;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) << kSubBits;
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t total_ = 0;
};

/// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
double quantile(std::vector<double>& v, double p);

inline double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Array-manager requests of one requester over a phase.
struct DistStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t failed = 0;
  Hist read_ns;
  Hist write_ns;

  void merge(const DistStats& o) {
    reads += o.reads;
    writes += o.writes;
    failed += o.failed;
    read_ns.merge(o.read_ns);
    write_ns.merge(o.write_ns);
  }
};

/// Issues one request (`request()` returns whether it succeeded) and counts
/// it; with `timed`, also records its latency.
template <typename F>
bool dist_request(DistStats& acc, bool timed, bool read, F&& request) {
  const std::int64_t t0 = timed ? now_ns() : 0;
  const bool ok = request();
  if (timed) {
    (read ? acc.read_ns : acc.write_ns)
        .record(static_cast<std::uint64_t>(now_ns() - t0));
  }
  ++(read ? acc.reads : acc.writes);
  if (!ok) ++acc.failed;
  return ok;
}

/// One slice of a measured window: its ops are [first_op, end_op) of the
/// per-op records, and the host's CPU ticks are counted over it.
struct Slice {
  std::size_t first_op = 0;
  std::size_t end_op = 0;
  double steal_ticks = 0;  // stolen by the hypervisor, all CPUs
  double all_ticks = 0;
};

/// What one closed-loop phase measured.
struct Measured {
  std::vector<double> latency_ms;  // one per measured op
  std::vector<std::int64_t> done;  // completion time of each measured op
  std::vector<std::int64_t> cpu_done;  // process CPU clock at each completion
  std::vector<Slice> slices;
  std::size_t record_bytes = 0;    // per-op records touched before measuring
  std::int64_t begin = 0;          // start of the measured window
  double wall_s = 0;               // measured window
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Traced phases: op windows (indexed by op number) and counts over every
  // op the phase ran, warm-up included.
  std::vector<std::int64_t> op_t0;
  std::vector<std::int64_t> op_t1;
  std::uint64_t ops_total = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t spawned = 0;  // processes the op structure spawns
  DistStats dist;

  /// Allocates and touches the per-op records for `seconds` of ops before
  /// measuring, so the resident set does not grow with the op rate.
  void reserve_ops(double seconds);

  /// Brackets one slice: call before its first op starts and after its
  /// last op completed.
  void begin_slice();
  void end_slice();
};

/// Host CPU ticks from /proc/stat: {stolen by the hypervisor, all}.
std::pair<double, double> host_cpu_ticks();

/// Throughput: the median over kSlices equal slices of the measured window
/// of the ops completed per second.
double sliced_ops_per_s(const Measured& m);

/// Latency percentile p: the median over the slices of each slice's
/// p-quantile, in ms.
double sliced_latency_ms(const Measured& m, double p);

/// CPU cost of the ops in the quietest slices: those the hypervisor stole
/// least from, taken in that order until they hold a quarter of the
/// measured ops.  An op's cost is the process CPU time between its
/// completion and the one before it in its slice.
struct QuietCost {
  std::vector<double> op_ms;
  std::size_t slices = 0;     // slices kept
  double steal_share = 0;     // of host CPU time over the kept slices
};
QuietCost quiet_op_cpu(const Measured& m);

/// Library-wide message counters, read before and after a phase.
struct CounterSnapshot {
  std::uint64_t messages = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t wakeups = 0;
};
CounterSnapshot snapshot_counters(std::uint64_t machine_messages);
void add_counter_delta(Measured& m, const CounterSnapshot& before,
                       const CounterSnapshot& after);

/// Time attributed per layer along an op's critical path.
struct Attribution {
  std::array<double, kLayers> self_ns{};
  double wall_ns = 0;
  double unaccounted_ns = 0;

  /// Adds one op: `spans` are the spans on its critical path; each instant
  /// of [t0, t1] goes to the innermost span covering it, or to
  /// unaccounted when none does.
  void add_op(std::int64_t t0, std::int64_t t1,
              const std::vector<Span>& spans);
  double share(Layer l) const {
    return ratio(self_ns[static_cast<std::size_t>(l)], wall_ns);
  }
};

/// Per-call figures from Call spans and the copy spans inside them.
struct CallAnalysis {
  std::vector<double> call_ms;
  std::vector<double> dispatch_us;  // run entry -> first copy entry
  std::vector<double> skew_us;      // first -> last copy entry
  std::vector<double> return_us;    // last copy exit -> run return
  std::vector<double> fft_copy_ms;
  std::vector<double> fft_gflops;   // 5 N log2 N over the slowest copy
  std::vector<double> fft_imbalance;  // slowest copy / mean copy
  std::vector<double> linalg_copy_ms;
  double fft_copy_ns_total = 0;
  double linalg_copy_ns_total = 0;
  std::uint64_t fft_copies = 0;
  std::uint64_t linalg_copies = 0;
};

/// Spans of a traced phase, indexed for the per-op walks.
class SpanIndex {
 public:
  explicit SpanIndex(std::span<const Span> spans);

  /// Non-copy spans of op `op`, in start order.
  const std::vector<const Span*>& of_op(std::uint32_t op) const;

  /// Copy spans inside `call` (same group, contained in its interval).
  std::vector<const Span*> copies_of(const Span& call) const;

  /// All spans of one kind.
  std::vector<const Span*> of_kind(Kind k) const;

  CallAnalysis analyze_calls(int fft_n) const;

 private:
  std::span<const Span> all_;
  std::vector<std::vector<const Span*>> by_op_;
  std::vector<std::vector<const Span*>> copies_by_group_;
  std::vector<const Span*> calls_;
  std::vector<const Span*> empty_;
};

/// The spans on op `op`'s critical path: a Par keeps only its longest
/// Branch (and only the Calls made on that branch's group), and each kept
/// Call brings its copy spans.  Appends par wall minus longest branch to
/// `par_overhead_us`.
std::vector<Span> critical_path(const SpanIndex& idx, std::uint32_t op,
                                std::vector<double>& par_overhead_us);

/// Single-copy compute estimates for the derived spmd metrics: the time a
/// copy body would take with its messages removed.
struct ComputeEstimate {
  double fft_copy_ns = 0;     // per FFT copy body
  double linalg_copy_ns = 0;  // per heat_step_1d copy body
};

/// One FFT copy body of an n-point transform on `procs` copies, with its
/// exchanges removed: a one-copy transform of n/procs points, scaled to
/// the distributed transform's log2(n) stages.
double single_copy_fft_ns(int n, int procs, tdp::vp::Machine& machine);

/// The per-layer metric set every traced run prints, with zeros for the
/// layers a workload does not enter.
struct LayerReport {
  const Measured* traced = nullptr;
  const CallAnalysis* calls = nullptr;
  const Attribution* attr = nullptr;
  ComputeEstimate compute;
  std::vector<double> par_overhead_us;
  std::array<double, 4> stream_wait_share{};  // inv_a, inv_b, combine, fwd
  double untraced_ops_per_s = 0;
  double traced_ops_per_s = 0;
  double serial_ms = 0;
};
Metrics layer_metrics(const LayerReport& r);

/// Registers "pb.<name>": runs the library program `name` and, during a
/// traced phase, records its body as a `kind` copy span.  Traced phases
/// call these; untraced ones call the library programs directly.
void register_timed(tdp::core::ProgramRegistry& programs,
                    const std::string& name, Kind kind);

/// Slices of a measured window.  Each slice's driver runs on a fresh
/// thread: on a shared host one CPU can be much slower than another for a
/// whole run, and a fresh driver per slice spreads the run over the CPUs.
/// Wall-clock throughput and latency are medians over the slices; the CPU
/// cost of an op is taken from the slices with the least host steal.
inline constexpr int kSlices = 60;

/// The closed loop shared by the single-driver workloads.  `op(n, t1)` runs
/// op n, sets t1 when its timed part ends, then checks its output and
/// returns whether it was correct.  Ops of the first `warmup` seconds are
/// not measured; a traced phase also stops before its span store fills.
template <typename Op>
Measured closed_loop(double warmup, double seconds, Tracer* tracer, Op&& op) {
  Measured m;
  m.reserve_ops(warmup + seconds);
  const std::int64_t warm_end =
      now_ns() + static_cast<std::int64_t>(warmup * 1e9);
  const std::int64_t end = warm_end + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t done = warm_end;
  std::uint32_t n = 0;
  bool full = false;
  // Slice -1 is the warm-up.
  for (int slice = -1; slice < kSlices && !full; ++slice) {
    const std::int64_t slice_end =
        slice < 0 ? warm_end : warm_end + (end - warm_end) * (slice + 1) / kSlices;
    if (slice >= 0) m.begin_slice();
    std::thread([&] {
      for (;; ++n) {
        const std::int64_t t0 = now_ns();
        if (t0 >= slice_end) return;
        if (tracer != nullptr && tracer->nearly_full(1024)) {
          full = true;
          return;
        }
        std::int64_t t1 = t0;
        const bool ok = op(n, t1);
        if (t0 >= warm_end) {
          m.latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
          ++m.attempted;
          if (!ok) ++m.failed;
          done = now_ns();
          m.done.push_back(done);
          m.cpu_done.push_back(process_cpu_ns());
        }
        if (tracer != nullptr) {
          m.op_t0.push_back(t0);
          m.op_t1.push_back(t1);
        }
        ++m.ops_total;
      }
    }).join();
    if (slice >= 0) m.end_slice();
  }
  m.begin = warm_end;
  m.wall_s = static_cast<double>(done - warm_end) / 1e9;
  return m;
}

/// A workload: constructing one performs its whole set-up (runtime,
/// program registration, arrays, roots, initial fill).
class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs the closed loop: `warmup` seconds unmeasured, then `seconds`
  /// measured.  With a tracer, calls go through the timing wrapper programs
  /// and spans are recorded.
  virtual Measured run(double warmup, double seconds, Tracer* tracer) = 0;

  /// Checks made outside the timed window after the runs; false on a wrong
  /// result.
  virtual bool verify_after(std::string& why) = 0;

  /// Per-layer metrics of a traced phase.
  virtual Metrics analyze(const Measured& traced, const Tracer& tracer,
                          double untraced_ops_per_s) = 0;

  /// Problem sizes, as a JSON object, for the count checks.
  virtual std::string problem_json() const = 0;

  /// The machine the workload runs on (for the run's self-description).
  virtual tdp::vp::Machine& machine() = 0;
};

std::unique_ptr<Workload> make_coupled_climate(const Options& opt);
std::unique_ptr<Workload> make_fft_pipeline(const Options& opt);
std::unique_ptr<Workload> make_spectral_batch(const Options& opt);

}  // namespace perfbench
