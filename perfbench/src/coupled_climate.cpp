// coupled_climate (figure 2.1): two heat_step_1d models, ocean and
// atmosphere, each on its own 2-processor group, advance concurrently under
// pcn::par for a few inner steps; the task level then exchanges their
// boundary cells with read_element/write_element.  One op is one coupling
// step.  At this size the distributed-call machinery dominates.
#include <cmath>
#include <random>
#include <sstream>

#include "bench.hpp"
#include "core/runtime.hpp"
#include "linalg/stencil.hpp"
#include "pcn/process.hpp"
#include "util/node_array.hpp"

namespace perfbench {
namespace {

using tdp::dist::ArrayId;
using tdp::dist::Scalar;

constexpr int kGroup = 2;
// Two inner steps per coupling keep the halo waits inside the copies below
// the call machinery even when the host steals CPU time.
constexpr int kInner = 2;
constexpr double kAlpha = 0.2;
constexpr double kTolerance = 1e-12;

/// The same stencil and coupling as a plain single-threaded loop: the
/// per-cell arithmetic is identical, so the distributed run must match it.
struct SerialModel {
  std::vector<double> ocean;
  std::vector<double> atmos;
  std::vector<double> scratch;

  static void step(std::vector<double>& u, std::vector<double>& scratch,
                   int inner) {
    const std::size_t n = u.size();
    for (int s = 0; s < inner; ++s) {
      for (std::size_t i = 0; i < n; ++i) {
        const double left = u[i == 0 ? 0 : i - 1];
        const double right = u[i + 1 == n ? i : i + 1];
        scratch[i] = u[i] + kAlpha * (left - 2.0 * u[i] + right);
      }
      std::copy(scratch.begin(), scratch.begin() + static_cast<long>(n),
                u.begin());
    }
  }

  void advance(int inner) {
    step(ocean, scratch, inner);
    step(atmos, scratch, inner);
  }

  void couple() {
    const double t = 0.5 * (ocean.back() + atmos.front());
    ocean.back() = t;
    atmos.front() = t;
  }
};

class CoupledClimate final : public Workload {
 public:
  explicit CoupledClimate(const Options& opt)
      : cells_(opt.tiny ? 16 : 256) {
    tdp::linalg::register_stencil_programs(rt_.programs());
    register_timed(rt_.programs(), "heat_step_1d", Kind::CopyLinalg);
    ocean_ = make_field(ocean_procs_);
    atmos_ = make_field(atmos_procs_);

    std::mt19937_64 rng(opt.seed);
    std::uniform_real_distribution<double> sea(70.0, 90.0);
    std::uniform_real_distribution<double> air(0.0, 20.0);
    serial_.ocean.resize(static_cast<std::size_t>(cells_));
    serial_.atmos.resize(static_cast<std::size_t>(cells_));
    serial_.scratch.resize(static_cast<std::size_t>(cells_));
    for (int i = 0; i < cells_; ++i) {
      const auto s = static_cast<std::size_t>(i);
      serial_.ocean[s] = sea(rng);
      serial_.atmos[s] = air(rng);
      const int idx[1] = {i};
      if (!tdp::ok(rt_.arrays().write_element(0, ocean_, idx,
                                              Scalar{serial_.ocean[s]})) ||
          !tdp::ok(rt_.arrays().write_element(0, atmos_, idx,
                                              Scalar{serial_.atmos[s]}))) {
        throw std::runtime_error("coupled_climate: initial fill failed");
      }
    }
  }

  Measured run(double warmup, double seconds, Tracer* tracer) override {
    const CounterSnapshot before =
        snapshot_counters(rt_.machine().messages_sent());
    dist_ = DistStats{};
    Measured m = closed_loop(warmup, seconds, tracer,
                             [&](std::uint32_t n, std::int64_t& t1) {
                               return op(n, tracer, t1);
                             });
    add_counter_delta(m, before,
                      snapshot_counters(rt_.machine().messages_sent()));
    m.dist = dist_;
    // Per op: two par blocks, and per call its copies plus the combine.
    m.spawned = m.ops_total * (2 + 2 * (kGroup + 1));
    return m;
  }

  bool verify_after(std::string& why) override {
    double worst = 0.0;
    for (int i = 0; i < cells_; ++i) {
      const int idx[1] = {i};
      Scalar o;
      Scalar a;
      if (!tdp::ok(rt_.arrays().read_element(0, ocean_, idx, o)) ||
          !tdp::ok(rt_.arrays().read_element(0, atmos_, idx, a))) {
        why = "final read failed";
        return false;
      }
      const auto s = static_cast<std::size_t>(i);
      worst = std::max(worst, std::fabs(tdp::dist::scalar_to_double(o) -
                                        serial_.ocean[s]));
      worst = std::max(worst, std::fabs(tdp::dist::scalar_to_double(a) -
                                        serial_.atmos[s]));
    }
    if (worst > kTolerance) {
      why = "final fields differ from the serial loop by " +
            std::to_string(worst);
      return false;
    }
    return true;
  }

  Metrics analyze(const Measured& traced, const Tracer& tracer,
                  double untraced_ops_per_s) override {
    const SpanIndex idx(tracer.spans());
    const CallAnalysis calls = idx.analyze_calls(0);
    Attribution attr;
    LayerReport r;
    for (std::uint32_t n = 0; n < traced.op_t0.size(); ++n) {
      attr.add_op(traced.op_t0[n], traced.op_t1[n],
                  critical_path(idx, n, r.par_overhead_us));
    }
    r.traced = &traced;
    r.calls = &calls;
    r.attr = &attr;
    r.compute.linalg_copy_ns = single_copy_step_ns();
    r.untraced_ops_per_s = untraced_ops_per_s;
    r.traced_ops_per_s = sliced_ops_per_s(traced);
    r.serial_ms = serial_ms();
    return layer_metrics(r);
  }

  std::string problem_json() const override {
    std::ostringstream s;
    s << "{\"cells\": " << cells_ << ", \"inner\": " << kInner
      << ", \"group\": " << kGroup << "}";
    return s.str();
  }

  tdp::vp::Machine& machine() override { return rt_.machine(); }

 private:
  /// Single-threaded reference time of one op, in ms (informational).
  double serial_ms() {
    SerialModel copy = serial_;
    std::vector<double> t;
    for (int r = 0; r < 201; ++r) {
      const std::int64_t t0 = now_ns();
      copy.advance(kInner);
      copy.couple();
      t.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    return quantile(t, 0.5);
  }

  ArrayId make_field(const std::vector<int>& procs) {
    ArrayId id;
    if (!tdp::ok(rt_.arrays().create_array(
            0, tdp::dist::ElemType::Float64, {cells_}, procs,
            {tdp::dist::DimSpec::block()},
            tdp::dist::BorderSpec::exact({1, 1}),
            tdp::dist::Indexing::RowMajor, id))) {
      throw std::runtime_error("coupled_climate: create_array failed");
    }
    return id;
  }

  /// One heat_step_1d copy body with its messages removed: a one-copy
  /// group over the same number of cells a copy owns.
  double single_copy_step_ns() {
    const int m = cells_ / kGroup;
    std::vector<double> field(static_cast<std::size_t>(m) + 2, 1.0);
    std::vector<double> scratch(static_cast<std::size_t>(m));
    tdp::spmd::SpmdContext ctx(rt_.machine(), tdp::vp::Machine::next_comm(),
                               {0}, 0);
    std::vector<double> t;
    for (int r = 0; r < 201; ++r) {
      const std::int64_t t0 = now_ns();
      for (int s = 0; s < kInner; ++s) {
        tdp::linalg::heat_step_1d(ctx, field, m, kAlpha, scratch, 2 * s);
      }
      t.push_back(static_cast<double>(now_ns() - t0));
    }
    return quantile(t, 0.5);
  }

  bool op(std::uint32_t n, Tracer* tracer, std::int64_t& t1) {
    const char* program = tracer != nullptr ? "pb.heat_step_1d"
                                            : "heat_step_1d";
    int status[2] = {-1, -1};
    auto step = [&](int branch, const std::vector<int>& procs, ArrayId field) {
      const std::int64_t b0 = tracer != nullptr ? now_ns() : 0;
      status[branch] = rt_.call(procs, program)
                           .constant(kAlpha)
                           .constant(kInner)
                           .local(field)
                           .status()
                           .run();
      if (tracer != nullptr) {
        const std::int64_t b1 = now_ns();
        tracer->record(Kind::Call, b0, b1, n, procs.front(), 0);
        tracer->record(Kind::Branch, b0, b1, n, procs.front(), branch);
      }
    };
    const std::int64_t p0 = tracer != nullptr ? now_ns() : 0;
    tdp::pcn::par([&] { step(0, ocean_procs_, ocean_); },
                  [&] { step(1, atmos_procs_, atmos_); });
    if (tracer != nullptr) tracer->record(Kind::Par, p0, now_ns(), n, 0, 0);

    // Boundary exchange through the array manager.
    const bool timed = tracer != nullptr;
    const std::int64_t d0 = timed ? now_ns() : 0;
    const int last[1] = {cells_ - 1};
    const int first[1] = {0};
    Scalar sea;
    Scalar air;
    bool ok = status[0] == tdp::kStatusOk && status[1] == tdp::kStatusOk;
    ok &= dist_request(dist_, timed, true, [&] {
      return tdp::ok(rt_.arrays().read_element(0, ocean_, last, sea));
    });
    ok &= dist_request(dist_, timed, true, [&] {
      return tdp::ok(rt_.arrays().read_element(0, atmos_, first, air));
    });
    const double t = 0.5 * (tdp::dist::scalar_to_double(sea) +
                            tdp::dist::scalar_to_double(air));
    ok &= dist_request(dist_, timed, false, [&] {
      return tdp::ok(rt_.arrays().write_element(0, ocean_, last, Scalar{t}));
    });
    ok &= dist_request(dist_, timed, false, [&] {
      return tdp::ok(rt_.arrays().write_element(0, atmos_, first, Scalar{t}));
    });
    t1 = now_ns();
    if (timed) tracer->record(Kind::Dist, d0, t1, n, 0, 0);

    // Check against the serial loop, outside the op's timed window.
    serial_.advance(kInner);
    ok &= std::fabs(tdp::dist::scalar_to_double(sea) - serial_.ocean.back()) <=
              kTolerance &&
          std::fabs(tdp::dist::scalar_to_double(air) - serial_.atmos.front()) <=
              kTolerance;
    serial_.couple();
    return ok;
  }

  int cells_;
  tdp::core::Runtime rt_{2 * kGroup};
  std::vector<int> ocean_procs_ = tdp::util::node_array(0, 1, kGroup);
  std::vector<int> atmos_procs_ = tdp::util::node_array(kGroup, 1, kGroup);
  ArrayId ocean_;
  ArrayId atmos_;
  SerialModel serial_;
  DistStats dist_;  // requests of the phase in progress
};

}  // namespace

std::unique_ptr<Workload> make_coupled_climate(const Options& opt) {
  return std::make_unique<CoupledClimate>(opt);
}

}  // namespace perfbench
