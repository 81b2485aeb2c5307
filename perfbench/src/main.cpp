// tdp_perfbench: runs one workload of the repo benchmark and prints its
// metrics.  The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1).  Lines before it start with "# " and describe the
// run: substrate, lane, worker count, nproc, build type, seed, sizes.
//
//   tdp_perfbench --workload coupled_climate --seed 1 --seconds 10 --trace 0
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "sched/sched.hpp"
#include "vp/machine.hpp"

namespace {

using namespace perfbench;

// Knobs that change what the library does underneath a run.  A number
// taken with one of them set is not the baseline, so the run is refused.
constexpr const char* kRefusedEnv[] = {"TDP_OBS", "TDP_FAULT", "TDP_MAILBOX",
                                       "TDP_COLL", "TDP_SCHED_WORKERS"};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "tdp_perfbench: %s\nusage: tdp_perfbench --workload "
               "coupled_climate|fft_pipeline|spectral_batch [--seed N] "
               "[--seconds S] [--trace 0|1] [--tiny] [--spans-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = std::stoi(value()) != 0;
      } else if (a == "--tiny") {
        opt.tiny = true;
      } else if (a == "--spans-out") {
        opt.spans_out = value();
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!(opt.seconds > 0) || opt.seconds > 3600) usage("bad --seconds");
  return opt;
}

std::unique_ptr<Workload> make(const Options& opt) {
  if (opt.workload == "coupled_climate") return make_coupled_climate(opt);
  if (opt.workload == "fft_pipeline") return make_fft_pipeline(opt);
  if (opt.workload == "spectral_batch") return make_spectral_batch(opt);
  usage("unknown workload '" + opt.workload + "'");
}

/// This process image's resident high-water mark, in MB.  (getrusage's
/// ru_maxrss would carry over the parent's peak across fork + exec.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.workload.empty()) usage("--workload is required");

  for (const char* name : kRefusedEnv) {
    const char* v = std::getenv(name);
    if (v != nullptr && v[0] != '\0') {
      std::fprintf(stderr,
                   "tdp_perfbench: refusing to measure with %s=%s set; "
                   "unset it for a baseline run\n",
                   name, v);
      return 3;
    }
  }
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr,
               "tdp_perfbench: refusing to measure an unoptimised build "
               "(%s); configure with -DCMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif

  // Set-up is repeated and the median of its CPU time reported; the last
  // instance runs.  Cheap set-ups repeat more often (up to half a second of
  // wall time in all), so their median is steady too.  Each one runs on a
  // fresh thread, so the repetitions spread over the CPUs.
  const int min_setups = opt.tiny ? 2 : 7;
  const int max_setups = opt.tiny ? 2 : 101;
  std::vector<double> setup_cpu_s;
  std::vector<double> setup_wall_s;
  double setup_total = 0.0;
  std::unique_ptr<Workload> w;
  while (static_cast<int>(setup_cpu_s.size()) < min_setups ||
         (static_cast<int>(setup_cpu_s.size()) < max_setups &&
          setup_total < 0.5)) {
    w.reset();
    std::exception_ptr error;
    double took = 0.0;
    double cpu = 0.0;
    // Both clocks are read on the set-up thread itself: the process CPU
    // clock counts the calling thread's own time exactly, but another
    // thread's only up to its last switch.
    std::thread([&] {
      try {
        const std::int64_t c0 = process_cpu_ns();
        const std::int64_t t0 = now_ns();
        w = make(opt);
        took = static_cast<double>(now_ns() - t0) / 1e9;
        cpu = static_cast<double>(process_cpu_ns() - c0) / 1e9;
      } catch (...) {
        error = std::current_exception();
      }
    }).join();
    if (error) std::rethrow_exception(error);
    setup_cpu_s.push_back(cpu);
    setup_wall_s.push_back(took);
    setup_total += took;
  }

  const bool steal =
      tdp::sched::sched_mode() == tdp::sched::SchedMode::Steal;
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("# transport=%s sched=%s workers=%zu nproc=%u build=%s\n",
              w->machine().transport().name(), steal ? "steal" : "thread",
              tdp::sched::worker_count(), std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE);
  std::printf("# problem %s\n", w->problem_json().c_str());
  {
    std::vector<double> v = setup_cpu_s;
    std::printf("# set-ups=%zu cpu_s p25=%.4g p50=%.4g p75=%.4g first=%.4g\n",
                v.size(), quantile(v, 0.25), quantile(v, 0.50),
                quantile(v, 0.75), setup_cpu_s.front());
  }
  std::fflush(stdout);

  const double warmup = opt.tiny ? 0.05 : std::min(1.0, 0.1 * opt.seconds);
  const auto [steal0, all0] = host_cpu_ticks();
  std::string why;
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  if (!opt.trace) {
    const Measured m = w->run(warmup, opt.seconds, nullptr);
    attempted = m.attempted;
    failed = m.failed;
    // Gated figures are CPU time: the hypervisor's steal, which swings
    // from nothing to nearly half of each CPU on a shared host, stretches
    // every wall-clock figure, while the process CPU clock leaves it out.
    // Steal still makes more waits block, so the costs come from the
    // slices it touched least.
    QuietCost cost = quiet_op_cpu(m);
    double cpu_ms = 0.0;
    for (double c : cost.op_ms) cpu_ms += c;
    metrics = {
        {"ops_per_cpu_s",
         ratio(static_cast<double>(cost.op_ms.size()), cpu_ms / 1e3), "1/s"},
        {"op_cpu_p50_ms", quantile(cost.op_ms, 0.50), "ms"},
        {"setup_s", quantile(setup_cpu_s, 0.50), "s"},
        {"peak_rss_mb",
         peak_rss_mb() - static_cast<double>(m.record_bytes) / (1 << 20),
         "MB"},
    };
    std::printf("# ops=%llu failed_ratio=%g; cpu cost samples=%zu from the "
                "%zu of %zu slices with least steal (%.1f%%)\n",
                static_cast<unsigned long long>(attempted),
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                cost.op_ms.size(), cost.slices, m.slices.size(),
                100.0 * cost.steal_share);
    // The tail of the CPU cost is not gated: under steal spread evenly
    // over a run, no slice is quiet and the ops a stolen CPU stalls fill
    // the tail (p90 rose 60% at 40% steal while p50 rose 5%).
    std::printf("# cpu tail, not gated: op_cpu_p90_ms=%.6g\n",
                quantile(cost.op_ms, 0.90));
    std::printf("# wall clock, not gated: ops_per_s=%.6g op_p50_ms=%.6g "
                "op_p90_ms=%.6g setup_wall_s=%.6g (percentiles: median of "
                "%d slices)\n",
                sliced_ops_per_s(m), sliced_latency_ms(m, 0.50),
                sliced_latency_ms(m, 0.90), quantile(setup_wall_s, 0.50),
                kSlices);
  } else {
    // Untraced half first, for trace.overhead; then the traced half.
    const Measured plain = w->run(warmup, opt.seconds / 2, nullptr);
    Tracer tracer(opt.tiny ? (1u << 16) : (1u << 21));
    g_tracer = &tracer;
    const Measured traced = w->run(warmup / 2, opt.seconds / 2, &tracer);
    g_tracer = nullptr;
    metrics = w->analyze(traced, tracer, sliced_ops_per_s(plain));
    attempted = plain.attempted + traced.attempted;
    failed = plain.failed + traced.failed;
    std::printf("# traced ops=%llu spans=%zu dropped=%zu\n",
                static_cast<unsigned long long>(traced.ops_total),
                tracer.spans().size(), tracer.dropped());
    if (!opt.spans_out.empty() && !tracer.write_csv(opt.spans_out)) {
      std::fprintf(stderr, "tdp_perfbench: cannot write %s\n",
                   opt.spans_out.c_str());
    }
  }
  // CPU time the hypervisor gave to other guests during the run: on a
  // shared host it explains most run-to-run spread.
  const auto [steal1, all1] = host_cpu_ticks();
  std::printf("# host steal=%.1f%% of CPU time during the run\n",
              100.0 * ratio(steal1 - steal0, all1 - all0));
  const bool correct = failed == 0 && attempted > 0 && w->verify_after(why);
  if (!why.empty()) std::printf("# check failed: %s\n", why.c_str());
  for (const Metric& m : metrics) {
    std::printf("# %-32s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  print_result(correct, std::max<std::uint64_t>(attempted, 1), failed,
               metrics);
  return 0;
}
