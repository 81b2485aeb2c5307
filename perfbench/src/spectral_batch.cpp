// spectral_batch: repeated large in-place round trips on one resident
// 4-processor array -- fft_reverse (inverse), then fft_natural (forward),
// which restores the input -- each checked by a benchmark-registered SPMD
// program that max-reduces the error against the seeded input.  One op is
// one checked round trip.  The FFT kernel and the pairwise exchange of large
// blocks dominate: the per-byte cost of the vp/spmd layers.
#include <cmath>
#include <cstring>
#include <random>
#include <sstream>

#include "bench.hpp"
#include "core/runtime.hpp"
#include "fft/fft.hpp"
#include "util/node_array.hpp"

namespace perfbench {
namespace {

using tdp::dist::ArrayId;

constexpr int kProcs = 4;
constexpr double kTolerance = 1e-9;

double load(std::span<const std::byte> bytes, std::size_t i) {
  double v;
  std::memcpy(&v, bytes.data() + i * sizeof(double), sizeof(double));
  return v;
}

/// "pb.fill": copies this copy's block of the bulk-constant input into its
/// local section.  Args: input payload, index, local data.
void fill_program(tdp::spmd::SpmdContext&, tdp::core::CallArgs& args) {
  const std::span<const std::byte> input = args.payload(0);
  const tdp::dist::LocalSectionView& local = args.local(2);
  const auto count = static_cast<std::size_t>(local.interior_count());
  const std::size_t off = static_cast<std::size_t>(args.index(1)) * count;
  std::memcpy(local.f64(), input.data() + off * sizeof(double),
              count * sizeof(double));
}

/// "pb.check": max |data - input| over this copy's block, merged with max
/// across copies.  Args: input payload, index, local data, reduce double[1].
void check_program(tdp::spmd::SpmdContext& ctx, tdp::core::CallArgs& args) {
  const std::int64_t t0 = now_ns();
  const std::span<const std::byte> input = args.payload(0);
  const tdp::dist::LocalSectionView& local = args.local(2);
  const auto count = static_cast<std::size_t>(local.interior_count());
  const std::size_t off = static_cast<std::size_t>(args.index(1)) * count;
  const double* data = local.f64();
  double worst = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    worst = std::max(worst, std::fabs(data[i] - load(input, off + i)));
  }
  args.reduce_f64(3)[0] = worst;
  if (Tracer* tracer = g_tracer) {
    tracer->record(Kind::CopyCheck, t0, now_ns(), 0, ctx.processors().front(),
                   ctx.index());
  }
}

class SpectralBatch final : public Workload {
 public:
  explicit SpectralBatch(const Options& opt) : n_(opt.tiny ? 1 << 10 : 1 << 18) {
    tdp::fft::register_programs(rt_.programs());
    register_timed(rt_.programs(), "fft_reverse", Kind::CopyFft);
    register_timed(rt_.programs(), "fft_natural", Kind::CopyFft);
    rt_.programs().add("pb.fill", fill_program);
    rt_.programs().add("pb.check", check_program);

    const tdp::Status made_data = rt_.arrays().create_array(
        0, tdp::dist::ElemType::Float64, {2 * n_}, procs_,
        {tdp::dist::DimSpec::block()}, tdp::dist::BorderSpec::none(),
        tdp::dist::Indexing::RowMajor, data_);
    // Roots (2N, P) distributed ("*", block): every copy holds the table.
    const tdp::Status made_eps = rt_.arrays().create_array(
        0, tdp::dist::ElemType::Float64, {2 * n_, kProcs}, procs_,
        {tdp::dist::DimSpec::star(), tdp::dist::DimSpec::block()},
        tdp::dist::BorderSpec::none(), tdp::dist::Indexing::ColumnMajor,
        eps_);
    if (!tdp::ok(made_data) || !tdp::ok(made_eps) ||
        rt_.call(procs_, "compute_roots").constant(n_).local(eps_).run() !=
            tdp::kStatusOk) {
      throw std::runtime_error("spectral_batch: array set-up failed");
    }

    std::mt19937_64 rng(opt.seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    std::vector<std::byte> bytes(static_cast<std::size_t>(2 * n_) *
                                 sizeof(double));
    for (std::size_t i = 0; i < bytes.size(); i += sizeof(double)) {
      const double v = u(rng);
      std::memcpy(bytes.data() + i, &v, sizeof(double));
    }
    input_ = tdp::vp::Payload::take(std::move(bytes));
    if (rt_.call(procs_, "pb.fill")
            .constant(input_)
            .index()
            .local(data_)
            .run() != tdp::kStatusOk) {
      throw std::runtime_error("spectral_batch: initial fill failed");
    }
  }

  Measured run(double warmup, double seconds, Tracer* tracer) override {
    const CounterSnapshot before =
        snapshot_counters(rt_.machine().messages_sent());
    Measured m = closed_loop(warmup, seconds, tracer,
                             [&](std::uint32_t n, std::int64_t& t1) {
                               return op(n, tracer, t1);
                             });
    add_counter_delta(m, before,
                      snapshot_counters(rt_.machine().messages_sent()));
    m.spawned = m.ops_total * 3 * (kProcs + 1);  // copies + combine per call
    return m;
  }

  bool verify_after(std::string&) override { return true; }

  Metrics analyze(const Measured& traced, const Tracer& tracer,
                  double untraced_ops_per_s) override {
    const SpanIndex idx(tracer.spans());
    const CallAnalysis calls = idx.analyze_calls(n_);
    Attribution attr;
    LayerReport r;
    for (std::uint32_t n = 0; n < traced.op_t0.size(); ++n) {
      attr.add_op(traced.op_t0[n], traced.op_t1[n],
                  critical_path(idx, n, r.par_overhead_us));
    }
    r.traced = &traced;
    r.calls = &calls;
    r.attr = &attr;
    r.compute.fft_copy_ns = single_copy_fft_ns(n_, kProcs, rt_.machine());
    r.untraced_ops_per_s = untraced_ops_per_s;
    r.traced_ops_per_s = sliced_ops_per_s(traced);
    r.serial_ms = serial_ms();
    return layer_metrics(r);
  }

  std::string problem_json() const override {
    std::ostringstream s;
    s << "{\"points\": " << n_ << ", \"procs\": " << kProcs << "}";
    return s.str();
  }

  tdp::vp::Machine& machine() override { return rt_.machine(); }

 private:
  /// Single-threaded reference time of one op, in ms (informational).
  double serial_ms() {
    std::vector<double> eps(static_cast<std::size_t>(2 * n_));
    tdp::fft::compute_roots(n_, eps.data());
    std::vector<double> data(static_cast<std::size_t>(2 * n_));
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = load(input_.bytes(), i);
    tdp::spmd::SpmdContext ctx(rt_.machine(), tdp::vp::Machine::next_comm(),
                               {0}, 0);
    std::vector<double> t;
    for (int r = 0; r < 5; ++r) {
      const std::int64_t t0 = now_ns();
      tdp::fft::fft_reverse(ctx, n_, tdp::fft::kInverse, eps.data(),
                            data.data());
      tdp::fft::fft_natural(ctx, n_, tdp::fft::kForward, eps.data(),
                            data.data());
      t.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    return quantile(t, 0.5);
  }

  bool op(std::uint32_t n, Tracer* tracer, std::int64_t& t1) {
    auto timed_call = [&](auto&& run) {
      const std::int64_t c0 = tracer != nullptr ? now_ns() : 0;
      const int status = run();
      if (tracer != nullptr) {
        tracer->record(Kind::Call, c0, now_ns(), n, procs_.front(), 0);
      }
      return status == tdp::kStatusOk;
    };
    auto transform = [&](const char* program, int flag) {
      return timed_call([&] {
        return rt_.call(procs_, program)
            .constant(procs_)
            .constant(kProcs)
            .index()
            .constant(n_)
            .constant(flag)
            .local(eps_)
            .local(data_)
            .run();
      });
    };
    bool ok = transform(tracer != nullptr ? "pb.fft_reverse" : "fft_reverse",
                        tdp::fft::kInverse);
    ok &= transform(tracer != nullptr ? "pb.fft_natural" : "fft_natural",
                    tdp::fft::kForward);
    std::vector<double> err;
    ok &= timed_call([&] {
      return rt_.call(procs_, "pb.check")
          .constant(input_)
          .index()
          .local(data_)
          .reduce_f64(1, tdp::core::f64_max(), &err)
          .run();
    });
    t1 = now_ns();
    return ok && err.size() == 1 && err[0] <= kTolerance;
  }

  int n_;
  tdp::core::Runtime rt_{kProcs};
  std::vector<int> procs_ = tdp::util::iota_nodes(kProcs);
  ArrayId data_;
  ArrayId eps_;
  tdp::vp::Payload input_;
};

}  // namespace

double single_copy_fft_ns(int n, int procs, tdp::vp::Machine& machine) {
  const int b = n / procs;
  std::vector<double> eps(static_cast<std::size_t>(2 * b));
  tdp::fft::compute_roots(b, eps.data());
  std::vector<double> data(static_cast<std::size_t>(2 * b), 0.5);
  tdp::spmd::SpmdContext ctx(machine, tdp::vp::Machine::next_comm(), {0}, 0);
  std::vector<double> t;
  for (int r = 0; r < 5; ++r) {
    const std::int64_t t0 = now_ns();
    tdp::fft::fft_reverse(ctx, b, tdp::fft::kInverse, eps.data(), data.data());
    tdp::fft::fft_natural(ctx, b, tdp::fft::kForward, eps.data(), data.data());
    t.push_back(static_cast<double>(now_ns() - t0) / 2);
  }
  // A copy of the distributed transform runs log2(n) butterfly stages over
  // its b points; the one-copy transform of b points runs log2(b).
  return quantile(t, 0.5) * std::log2(static_cast<double>(n)) /
         std::log2(static_cast<double>(b));
}

std::unique_ptr<Workload> make_spectral_batch(const Options& opt) {
  return std::make_unique<SpectralBatch>(opt);
}

}  // namespace perfbench
