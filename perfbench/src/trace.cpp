#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "bench.hpp"
#include "core/registry.hpp"
#include "obs/metrics.hpp"
#include "sched/sched.hpp"

namespace perfbench {

Tracer* g_tracer = nullptr;

Layer layer_of(Kind k) {
  switch (k) {
    case Kind::Par:
    case Kind::Branch:
    case Kind::StreamWait:
      return Layer::Pcn;
    case Kind::Call:
      return Layer::Core;
    case Kind::CopyFft:
      return Layer::Fft;
    case Kind::CopyLinalg:
      return Layer::Linalg;
    case Kind::CopyCheck:
      return Layer::Check;
    case Kind::Dist:
      return Layer::Dist;
    case Kind::Task:
      return Layer::Task;
  }
  return Layer::Task;
}

int depth_of(Kind k) {
  switch (k) {
    case Kind::Par:
      return 1;
    case Kind::Branch:
      return 2;
    case Kind::Call:
      return 3;
    case Kind::CopyFft:
    case Kind::CopyLinalg:
    case Kind::CopyCheck:
      return 4;
    default:
      return 1;
  }
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "t0_ns,t1_ns,kind,group,index,op\n");
  for (const Span& s : spans()) {
    std::fprintf(f, "%lld,%lld,%d,%d,%d,%u\n", static_cast<long long>(s.t0),
                 static_cast<long long>(s.t1), static_cast<int>(s.kind),
                 s.group, s.index, s.op);
  }
  return std::fclose(f) == 0;
}

// --- Hist --------------------------------------------------------------------

void Hist::record(std::uint64_t v) {
  std::size_t b;
  if (v < (1u << kSubBits)) {
    b = static_cast<std::size_t>(v);
  } else {
    const int e = std::bit_width(v) - 1;  // >= kSubBits
    const std::uint64_t mant = (v >> (e - kSubBits)) & ((1u << kSubBits) - 1);
    b = (static_cast<std::size_t>(e - kSubBits + 1) << kSubBits) +
        static_cast<std::size_t>(mant);
  }
  ++counts_[b];
  ++total_;
}

void Hist::merge(const Hist& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  total_ += other.total_;
}

double Hist::percentile(double p) const {
  if (total_ == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      std::ceil(p * static_cast<double>(total_)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen < std::max<std::uint64_t>(target, 1)) continue;
    if (b < (1u << kSubBits)) return static_cast<double>(b);
    const std::size_t octave = (b >> kSubBits) - 1;  // e - kSubBits
    const std::uint64_t mant = (b & ((1u << kSubBits) - 1)) | (1u << kSubBits);
    const double lo = std::ldexp(static_cast<double>(mant),
                                 static_cast<int>(octave));
    return lo + std::ldexp(0.5, static_cast<int>(octave));
  }
  return 0.0;
}

double quantile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

/// The latencies of the ops completed in each of the kSlices slices.
std::vector<std::vector<double>> by_slice(const Measured& m) {
  std::vector<std::vector<double>> slices(kSlices);
  const double slice_ns = m.wall_s * 1e9 / kSlices;
  for (std::size_t i = 0; i < m.done.size(); ++i) {
    const auto s = static_cast<std::size_t>(
        static_cast<double>(m.done[i] - m.begin) / slice_ns);
    slices[std::min<std::size_t>(s, kSlices - 1)].push_back(m.latency_ms[i]);
  }
  return slices;
}

}  // namespace

double sliced_ops_per_s(const Measured& m) {
  if (m.done.empty() || m.wall_s <= 0) return 0.0;
  std::vector<double> rates;
  for (const auto& slice : by_slice(m)) {
    rates.push_back(static_cast<double>(slice.size()) * kSlices / m.wall_s);
  }
  return quantile(rates, 0.5);
}

double sliced_latency_ms(const Measured& m, double p) {
  if (m.done.empty() || m.wall_s <= 0) return 0.0;
  std::vector<double> per_slice;
  for (auto& slice : by_slice(m)) {
    if (!slice.empty()) per_slice.push_back(quantile(slice, p));
  }
  return quantile(per_slice, 0.5);
}

void Measured::reserve_ops(double seconds) {
  // Well above any workload's rate today; a faster one only grows the
  // records past what was touched.
  constexpr double kOpsPerSecond = 10000;
  const auto n = static_cast<std::size_t>((seconds + 1) * kOpsPerSecond);
  latency_ms.assign(n, 0.0);
  done.assign(n, 0);
  cpu_done.assign(n, 0);
  latency_ms.clear();
  done.clear();
  cpu_done.clear();
  record_bytes = n * (sizeof(double) + 2 * sizeof(std::int64_t));
}

void Measured::begin_slice() {
  const auto [steal, all] = host_cpu_ticks();
  slices.push_back(Slice{done.size(), done.size(), -steal, -all});
}

void Measured::end_slice() {
  const auto [steal, all] = host_cpu_ticks();
  Slice& s = slices.back();
  s.end_op = done.size();
  s.steal_ticks += steal;
  s.all_ticks += all;
}

std::pair<double, double> host_cpu_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  double v[10] = {};
  const int got = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf %lf %lf",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7], &v[8], &v[9]);
  std::fclose(f);
  double all = 0.0;
  for (int i = 0; i < got; ++i) all += v[i];
  return {got > 7 ? v[7] : 0.0, all};
}

QuietCost quiet_op_cpu(const Measured& m) {
  std::vector<const Slice*> order;
  for (const Slice& s : m.slices) order.push_back(&s);
  std::stable_sort(order.begin(), order.end(),
                   [](const Slice* a, const Slice* b) {
                     return ratio(a->steal_ticks, a->all_ticks) <
                            ratio(b->steal_ticks, b->all_ticks);
                   });
  QuietCost q;
  std::size_t ops = 0;
  double steal = 0;
  double all = 0;
  for (const Slice* s : order) {
    if (4 * ops >= m.done.size() && !q.op_ms.empty()) break;
    for (std::size_t i = s->first_op + 1; i < s->end_op; ++i) {
      q.op_ms.push_back(
          static_cast<double>(m.cpu_done[i] - m.cpu_done[i - 1]) / 1e6);
    }
    ops += s->end_op - s->first_op;
    steal += s->steal_ticks;
    all += s->all_ticks;
    ++q.slices;
  }
  q.steal_share = ratio(steal, all);
  return q;
}

// --- counters ------------------------------------------------------------------

CounterSnapshot snapshot_counters(std::uint64_t machine_messages) {
  static tdp::obs::ShardedCounter& copied =
      tdp::obs::Registry::instance().counter("comm.bytes_copied");
  static tdp::obs::ShardedCounter& wakeups =
      tdp::obs::Registry::instance().counter("mailbox.wakeups");
  return {machine_messages, copied.value(), wakeups.value()};
}

void add_counter_delta(Measured& m, const CounterSnapshot& before,
                       const CounterSnapshot& after) {
  m.messages += after.messages - before.messages;
  m.bytes_copied += after.bytes_copied - before.bytes_copied;
  m.wakeups += after.wakeups - before.wakeups;
}

// --- attribution -------------------------------------------------------------

void Attribution::add_op(std::int64_t t0, std::int64_t t1,
                         const std::vector<Span>& spans) {
  if (t1 <= t0) return;
  std::vector<std::int64_t> cuts{t0, t1};
  for (const Span& s : spans) {
    if (s.t0 > t0 && s.t0 < t1) cuts.push_back(s.t0);
    if (s.t1 > t0 && s.t1 < t1) cuts.push_back(s.t1);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const std::int64_t a = cuts[i];
    const std::int64_t b = cuts[i + 1];
    const Span* inner = nullptr;
    for (const Span& s : spans) {
      if (s.t0 <= a && s.t1 >= b &&
          (inner == nullptr || depth_of(s.kind) > depth_of(inner->kind))) {
        inner = &s;
      }
    }
    const auto len = static_cast<double>(b - a);
    if (inner == nullptr) {
      unaccounted_ns += len;
    } else {
      self_ns[static_cast<std::size_t>(layer_of(inner->kind))] += len;
    }
  }
  wall_ns += static_cast<double>(t1 - t0);
}

// --- span index --------------------------------------------------------------

namespace {

bool is_copy(Kind k) {
  return k == Kind::CopyFft || k == Kind::CopyLinalg || k == Kind::CopyCheck;
}

bool by_start(const Span* a, const Span* b) { return a->t0 < b->t0; }

}  // namespace

SpanIndex::SpanIndex(std::span<const Span> spans) : all_(spans) {
  for (const Span& s : spans) {
    if (is_copy(s.kind)) {
      const auto g = static_cast<std::size_t>(s.group);
      if (copies_by_group_.size() <= g) copies_by_group_.resize(g + 1);
      copies_by_group_[g].push_back(&s);
      continue;
    }
    if (by_op_.size() <= s.op) by_op_.resize(s.op + 1);
    by_op_[s.op].push_back(&s);
    if (s.kind == Kind::Call) calls_.push_back(&s);
  }
  for (auto& v : by_op_) std::sort(v.begin(), v.end(), by_start);
  for (auto& v : copies_by_group_) std::sort(v.begin(), v.end(), by_start);
  std::sort(calls_.begin(), calls_.end(), by_start);
}

const std::vector<const Span*>& SpanIndex::of_op(std::uint32_t op) const {
  return op < by_op_.size() ? by_op_[op] : empty_;
}

std::vector<const Span*> SpanIndex::copies_of(const Span& call) const {
  std::vector<const Span*> out;
  const auto g = static_cast<std::size_t>(call.group);
  if (g >= copies_by_group_.size()) return out;
  const auto& v = copies_by_group_[g];
  auto it = std::lower_bound(
      v.begin(), v.end(), call.t0,
      [](const Span* s, std::int64_t t) { return s->t0 < t; });
  for (; it != v.end() && (*it)->t0 <= call.t1; ++it) {
    if ((*it)->t1 <= call.t1) out.push_back(*it);
  }
  return out;
}

std::vector<const Span*> SpanIndex::of_kind(Kind k) const {
  std::vector<const Span*> out;
  for (const Span& s : all_) {
    if (s.kind == k) out.push_back(&s);
  }
  return out;
}

CallAnalysis SpanIndex::analyze_calls(int fft_n) const {
  CallAnalysis a;
  const double fft_flops =
      fft_n > 1 ? 5.0 * fft_n * std::log2(static_cast<double>(fft_n)) : 0.0;
  for (const Span* call : calls_) {
    a.call_ms.push_back(static_cast<double>(call->t1 - call->t0) / 1e6);
    const std::vector<const Span*> copies = copies_of(*call);
    if (copies.empty()) continue;
    std::int64_t first_in = copies.front()->t0;
    std::int64_t last_in = first_in;
    std::int64_t last_out = copies.front()->t1;
    double sum_ns = 0;
    double max_ns = 0;
    for (const Span* c : copies) {
      first_in = std::min(first_in, c->t0);
      last_in = std::max(last_in, c->t0);
      last_out = std::max(last_out, c->t1);
      const auto d = static_cast<double>(c->t1 - c->t0);
      sum_ns += d;
      max_ns = std::max(max_ns, d);
      if (c->kind == Kind::CopyFft) {
        a.fft_copy_ms.push_back(d / 1e6);
        a.fft_copy_ns_total += d;
        ++a.fft_copies;
      } else if (c->kind == Kind::CopyLinalg) {
        a.linalg_copy_ms.push_back(d / 1e6);
        a.linalg_copy_ns_total += d;
        ++a.linalg_copies;
      }
    }
    a.dispatch_us.push_back(static_cast<double>(first_in - call->t0) / 1e3);
    a.skew_us.push_back(static_cast<double>(last_in - first_in) / 1e3);
    a.return_us.push_back(static_cast<double>(call->t1 - last_out) / 1e3);
    if (copies.front()->kind == Kind::CopyFft && max_ns > 0) {
      a.fft_gflops.push_back(fft_flops / max_ns);
      a.fft_imbalance.push_back(
          max_ns / (sum_ns / static_cast<double>(copies.size())));
    }
  }
  return a;
}

std::vector<Span> critical_path(const SpanIndex& idx, std::uint32_t op,
                                std::vector<double>& par_overhead_us) {
  const std::vector<const Span*>& spans = idx.of_op(op);
  const Span* par = nullptr;
  const Span* longest = nullptr;
  for (const Span* s : spans) {
    if (s->kind == Kind::Par) par = s;
    if (s->kind == Kind::Branch &&
        (longest == nullptr || s->t1 - s->t0 > longest->t1 - longest->t0)) {
      longest = s;
    }
  }
  if (par != nullptr && longest != nullptr) {
    par_overhead_us.push_back(
        static_cast<double>((par->t1 - par->t0) - (longest->t1 - longest->t0)) /
        1e3);
  }
  std::vector<Span> path;
  for (const Span* s : spans) {
    if (s->kind == Kind::Branch && s != longest) continue;
    if (s->kind == Kind::Call && par != nullptr && longest != nullptr &&
        s->t0 >= par->t0 && s->t1 <= par->t1 && s->group != longest->group) {
      continue;
    }
    path.push_back(*s);
    if (s->kind == Kind::Call) {
      for (const Span* c : idx.copies_of(*s)) path.push_back(*c);
    }
  }
  return path;
}

void register_timed(tdp::core::ProgramRegistry& programs,
                    const std::string& name, Kind kind) {
  tdp::core::DataParallelProgram body;
  if (!programs.find(name, body)) {
    throw std::logic_error("perfbench: no library program " + name);
  }
  programs.add("pb." + name, [body = std::move(body), kind](
                                 tdp::spmd::SpmdContext& ctx,
                                 tdp::core::CallArgs& args) {
    const std::int64_t t0 = now_ns();
    body(ctx, args);
    if (Tracer* tracer = g_tracer) {
      tracer->record(kind, t0, now_ns(), 0, ctx.processors().front(),
                     ctx.index());
    }
  });
}

// --- the per-layer metric set ------------------------------------------------

Metrics layer_metrics(const LayerReport& r) {
  const Measured& m = *r.traced;
  CallAnalysis c = *r.calls;
  const Attribution& at = *r.attr;
  const auto ops = static_cast<double>(m.ops_total);
  const auto msgs = static_cast<double>(m.messages);

  // Copy-body time not explained by single-copy compute: what the copies
  // spent sending, waiting for and copying their messages.
  const double exchange_ns =
      std::max(0.0, c.fft_copy_ns_total -
                        r.compute.fft_copy_ns *
                            static_cast<double>(c.fft_copies)) +
      std::max(0.0, c.linalg_copy_ns_total -
                        r.compute.linalg_copy_ns *
                            static_cast<double>(c.linalg_copies));

  Metrics out;
  auto add = [&](const char* name, double v, const char* unit) {
    out.push_back({name, std::isfinite(v) ? v : 0.0, unit});
  };
  add("core.calls_per_op", ratio(static_cast<double>(c.call_ms.size()), ops),
      "count");
  add("core.call_ms.p50", quantile(c.call_ms, 0.50), "ms");
  add("core.call_ms.p99", quantile(c.call_ms, 0.99), "ms");
  add("core.dispatch_us.p50", quantile(c.dispatch_us, 0.50), "us");
  add("core.copy_skew_us.p50", quantile(c.skew_us, 0.50), "us");
  add("core.return_us.p50", quantile(c.return_us, 0.50), "us");
  add("core.self_share", at.share(Layer::Core), "share");
  std::vector<double> par = r.par_overhead_us;
  add("pcn.par_overhead_us.p50", quantile(par, 0.50), "us");
  add("pcn.stream_wait_share.inv_a", r.stream_wait_share[0], "share");
  add("pcn.stream_wait_share.inv_b", r.stream_wait_share[1], "share");
  add("pcn.stream_wait_share.combine", r.stream_wait_share[2], "share");
  add("pcn.stream_wait_share.fwd", r.stream_wait_share[3], "share");
  add("pcn.self_share", at.share(Layer::Pcn), "share");
  add("sched.lane",
      tdp::sched::sched_mode() == tdp::sched::SchedMode::Steal ? 1.0 : 0.0,
      "lane");
  add("sched.spawned_per_op", ratio(static_cast<double>(m.spawned), ops),
      "count");
  add("dist.reads_per_op", ratio(static_cast<double>(m.dist.reads), ops),
      "count");
  add("dist.writes_per_op", ratio(static_cast<double>(m.dist.writes), ops),
      "count");
  add("dist.read_ns.p50", m.dist.read_ns.percentile(0.50), "ns");
  add("dist.read_ns.p99", m.dist.read_ns.percentile(0.99), "ns");
  add("dist.write_ns.p50", m.dist.write_ns.percentile(0.50), "ns");
  add("dist.write_ns.p99", m.dist.write_ns.percentile(0.99), "ns");
  add("dist.busy_share", at.share(Layer::Dist), "share");
  add("dist.failed", static_cast<double>(m.dist.failed), "count");
  add("fft.copy_ms.p50", quantile(c.fft_copy_ms, 0.50), "ms");
  add("fft.gflops", quantile(c.fft_gflops, 0.50), "GFLOP/s");
  add("fft.copy_imbalance", quantile(c.fft_imbalance, 0.50), "ratio");
  add("fft.self_share", at.share(Layer::Fft), "share");
  add("linalg.copy_ms.p50", quantile(c.linalg_copy_ms, 0.50), "ms");
  add("linalg.self_share", at.share(Layer::Linalg), "share");
  add("check.self_share", at.share(Layer::Check), "share");
  add("task.self_share", at.share(Layer::Task), "share");
  add("vp.messages_per_op", ratio(msgs, ops), "count");
  add("vp.bytes_copied_per_op",
      ratio(static_cast<double>(m.bytes_copied), ops), "B");
  add("vp.wakeups_per_message", ratio(static_cast<double>(m.wakeups), msgs),
      "ratio");
  add("spmd.us_per_message", ratio(exchange_ns / 1e3, msgs), "us");
  add("spmd.copy_gbps",
      ratio(static_cast<double>(m.bytes_copied), exchange_ns), "GB/s");
  add("trace.overhead",
      ratio(r.untraced_ops_per_s, r.traced_ops_per_s) - 1.0, "share");
  add("trace.unaccounted_share", ratio(at.unaccounted_ns, at.wall_ns),
      "share");
  add("baseline.serial_ms", r.serial_ms, "ms");
  return out;
}

}  // namespace perfbench
