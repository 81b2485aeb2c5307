// fft_pipeline (§6.2, figures 2.2 and 6.1): polynomial multiplication as a
// pipeline of task-parallel stages joined by pcn::Stream links.  Two
// inverse-FFT stages and one forward-FFT stage each own a 2-processor group
// and a distributed array, and move data in and out of it element by
// element (§6.2.2's get_input/put_output through the ArrayManager); a
// task-level combine stage multiplies the two evaluations.  A feeder keeps
// two products in flight (a closed loop: the sink's credit stream lets the
// next pair in), so the three FFT stages request concurrently.  One op is
// one validated product; element requests dominate.
#include <cmath>
#include <optional>
#include <random>
#include <sstream>

#include "bench.hpp"
#include "core/runtime.hpp"
#include "fft/fft.hpp"
#include "fft/reference.hpp"
#include "pcn/process.hpp"
#include "pcn/stream.hpp"
#include "util/bits.hpp"
#include "util/node_array.hpp"

namespace perfbench {
namespace {

using tdp::dist::ArrayId;
using tdp::dist::Scalar;
using Dataset = std::vector<double>;

constexpr int kGroup = 2;
constexpr int kWindow = 2;   // products in flight
constexpr int kPool = 16;    // distinct input pairs, reused round-robin
constexpr int kPoints = 4;   // evaluation points per product check
constexpr int kKeep = 2;     // products checked against the naive product
constexpr double kTolerance = 1e-9;

// Stage ids double as span groups; the FFT stages use their first
// processor so their copies match their calls.
constexpr int kInvA = 0;
constexpr int kInvB = kGroup;
constexpr int kFwd = 2 * kGroup;
constexpr int kCombine = 3 * kGroup;
constexpr int kSink = 3 * kGroup + 1;

/// One product moving down the pipeline.
struct Item {
  std::uint32_t k = 0;      // product number
  std::int64_t fed = 0;     // when the feeder let it in
  bool ok = true;           // every request and call so far succeeded
  Dataset data;
};
using Link = tdp::pcn::Stream<Item>;

struct Pair {
  Dataset f;
  Dataset g;
  std::array<double, kPoints> x{};
  std::array<double, kPoints> fg{};  // F(x) G(x)
};

double horner(const double* c, std::size_t n, std::size_t stride, double x) {
  double v = 0.0;
  for (std::size_t j = n; j-- > 0;) v = v * x + c[j * stride];
  return v;
}

class FftPipeline final : public Workload {
 public:
  explicit FftPipeline(const Options& opt)
      : n_(opt.tiny ? 32 : 1024), nn_(2 * n_), bits_(tdp::util::floor_log2(nn_)) {
    tdp::fft::register_programs(rt_.programs());
    register_timed(rt_.programs(), "fft_reverse", Kind::CopyFft);
    register_timed(rt_.programs(), "fft_natural", Kind::CopyFft);
    for (int s = 0; s < 3; ++s) {
      Stage& st = stages_[static_cast<std::size_t>(s)];
      st.procs = tdp::util::node_array(s * kGroup, 1, kGroup);
      st.data = make_data(st.procs);
      st.eps = make_roots(st.procs);
    }

    std::mt19937_64 rng(opt.seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    for (Pair& p : pool_) {
      p.f.resize(static_cast<std::size_t>(n_));
      p.g.resize(static_cast<std::size_t>(n_));
      for (double& v : p.f) v = u(rng);
      for (double& v : p.g) v = u(rng);
      for (int i = 0; i < kPoints; ++i) {
        const auto s = static_cast<std::size_t>(i);
        p.x[s] = u(rng);
        p.fg[s] = horner(p.f.data(), p.f.size(), 1, p.x[s]) *
                  horner(p.g.data(), p.g.size(), 1, p.x[s]);
      }
    }
  }

  Measured run(double warmup, double seconds, Tracer* tracer) override {
    const CounterSnapshot before =
        snapshot_counters(rt_.machine().messages_sent());
    const std::int64_t warm_end =
        now_ns() + static_cast<std::int64_t>(warmup * 1e9);
    const std::int64_t end = warm_end + static_cast<std::int64_t>(seconds * 1e9);
    Phase ph;
    ph.warm_end = warm_end;
    ph.last_done = warm_end;
    ph.tracer = tracer;
    kept_.clear();
    par_overhead_us_.clear();
    par_ns_ = 0;
    // The pipeline fills and drains once per slice (slice -1 is the
    // warm-up), so each slice runs on fresh processes; see kSlices.
    ph.m.reserve_ops(warmup + seconds);
    for (int slice = -1; slice < kSlices; ++slice) {
      if (tracer != nullptr && tracer->nearly_full(4096)) break;
      if (slice >= 0) ph.m.begin_slice();
      pipeline(ph, slice < 0 ? warm_end
                             : warm_end + (end - warm_end) * (slice + 1) /
                                              kSlices);
      if (slice >= 0) ph.m.end_slice();
    }

    Measured& m = ph.m;
    add_counter_delta(m, before,
                      snapshot_counters(rt_.machine().messages_sent()));
    for (const DistStats& d : ph.dist) m.dist.merge(d);
    // Per product: three calls, each its copies plus the combine.  The six
    // pipeline processes are spawned once per slice, not per product.
    m.spawned = m.ops_total * 3 * (kGroup + 1);
    m.begin = warm_end;
    m.wall_s = static_cast<double>(ph.last_done - warm_end) / 1e9;
    return std::move(ph.m);
  }

  bool verify_after(std::string& why) override {
    for (const auto& [k, h] : kept_) {
      const Pair& p = pool_[k % kPool];
      const std::vector<double> want = tdp::fft::poly_mul_naive(p.f, p.g);
      double scale = 1.0;
      for (double w : want) scale = std::max(scale, std::fabs(w));
      for (std::size_t j = 0; j < want.size(); ++j) {
        if (std::fabs(h[2 * j] - want[j]) > kTolerance * scale) {
          why = "product " + std::to_string(k) +
                " differs from the naive product at coefficient " +
                std::to_string(j);
          return false;
        }
      }
    }
    if (kept_.empty()) {
      why = "no product completed";
      return false;
    }
    return true;
  }

  Metrics analyze(const Measured& traced, const Tracer& tracer,
                  double untraced_ops_per_s) override {
    const SpanIndex idx(tracer.spans());
    const CallAnalysis calls = idx.analyze_calls(nn_);
    Attribution attr;
    LayerReport r;
    for (std::uint32_t k = 0; k < traced.op_t0.size(); ++k) {
      attr.add_op(traced.op_t0[k], traced.op_t1[k],
                  critical(idx, k, traced.op_t0[k]));
    }
    // Share of each stage's life spent blocked on its input stream.
    const int ids[4] = {kInvA, kInvB, kCombine, kFwd};
    for (const Span* s : idx.of_kind(Kind::StreamWait)) {
      for (std::size_t i = 0; i < 4; ++i) {
        if (s->group == ids[i]) {
          r.stream_wait_share[i] += static_cast<double>(s->t1 - s->t0);
        }
      }
    }
    for (double& w : r.stream_wait_share) w = ratio(w, par_ns_);
    r.par_overhead_us = par_overhead_us_;
    r.traced = &traced;
    r.calls = &calls;
    r.attr = &attr;
    r.compute.fft_copy_ns = single_copy_fft_ns(nn_, kGroup, rt_.machine());
    r.untraced_ops_per_s = untraced_ops_per_s;
    r.traced_ops_per_s = sliced_ops_per_s(traced);
    r.serial_ms = serial_ms();
    return layer_metrics(r);
  }

  std::string problem_json() const override {
    std::ostringstream s;
    s << "{\"n\": " << n_ << ", \"nn\": " << nn_ << ", \"group\": " << kGroup
      << ", \"window\": " << kWindow << "}";
    return s.str();
  }

  tdp::vp::Machine& machine() override { return rt_.machine(); }

 private:
  /// Single-threaded reference time of one op, in ms (informational).
  double serial_ms() {
    // The same product with one-copy transforms and no array manager.
    std::vector<double> eps(static_cast<std::size_t>(2 * nn_));
    tdp::fft::compute_roots(nn_, eps.data());
    tdp::spmd::SpmdContext ctx(rt_.machine(), tdp::vp::Machine::next_comm(),
                               {0}, 0);
    const Pair& p = pool_[0];
    std::vector<double> t;
    for (int r = 0; r < 21; ++r) {
      const std::int64_t t0 = now_ns();
      Dataset a = padded_bit_reversed(p.f);
      Dataset b = padded_bit_reversed(p.g);
      tdp::fft::fft_reverse(ctx, nn_, tdp::fft::kInverse, eps.data(), a.data());
      tdp::fft::fft_reverse(ctx, nn_, tdp::fft::kInverse, eps.data(), b.data());
      const Dataset prod = multiply(a, b);
      a = prod;
      tdp::fft::fft_natural(ctx, nn_, tdp::fft::kForward, eps.data(), a.data());
      t.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    return quantile(t, 0.5);
  }

  struct Stage {
    std::vector<int> procs;
    ArrayId data;
    ArrayId eps;
  };

  /// State carried across the slices of one run.
  struct Phase {
    Measured m;
    std::array<DistStats, 3> dist{};
    std::int64_t warm_end = 0;
    std::int64_t last_done = 0;
    std::uint32_t next_k = 0;  // number of the next product fed
    Tracer* tracer = nullptr;
  };

  /// Runs the pipeline once: feeds products until `feed_end`, then drains.
  void pipeline(Phase& ph, std::int64_t feed_end) {
    // Each link has a producer and a consumer handle, both advanced in
    // place, so no handle keeps a consumed product reachable.
    Link in_a;
    Link in_b;
    Link eval_a;
    Link eval_b;
    Link products;
    Link results;
    tdp::pcn::Stream<int> credits;
    Link in_a_rd = in_a;
    Link in_b_rd = in_b;
    Link eval_a_rd = eval_a;
    Link eval_b_rd = eval_b;
    Link products_rd = products;
    Link results_rd = results;
    tdp::pcn::Stream<int> credits_rd = credits;
    Tracer* tracer = ph.tracer;
    std::array<std::int64_t, 6> block_ns{};
    auto timed_block = [&](std::size_t b, auto body) {
      return [&block_ns, b, body] {
        const std::int64_t t0 = now_ns();
        body();
        block_ns[b] = now_ns() - t0;
      };
    };
    const std::int64_t p0 = now_ns();
    tdp::pcn::par(
        timed_block(0, [&] {
          feed(in_a, in_b, credits_rd, feed_end, ph.next_k, tracer);
        }),
        timed_block(1, [&] {
          inverse(0, in_a_rd, eval_a, ph.dist[0], tracer);
        }),
        timed_block(2, [&] {
          inverse(1, in_b_rd, eval_b, ph.dist[1], tracer);
        }),
        timed_block(3, [&] {
          combine(eval_a_rd, eval_b_rd, products, tracer);
        }),
        timed_block(4, [&] {
          forward(products_rd, results, ph.dist[2], tracer);
        }),
        timed_block(5, [&] { sink(results_rd, credits, ph); }));
    const std::int64_t par_ns = now_ns() - p0;
    par_overhead_us_.push_back(
        static_cast<double>(par_ns - *std::max_element(block_ns.begin(),
                                                       block_ns.end())) /
        1e3);
    par_ns_ += static_cast<double>(par_ns);
  }

  ArrayId make_data(const std::vector<int>& procs) {
    ArrayId id;
    if (!tdp::ok(rt_.arrays().create_array(
            0, tdp::dist::ElemType::Float64, {2 * nn_}, procs,
            {tdp::dist::DimSpec::block()}, tdp::dist::BorderSpec::none(),
            tdp::dist::Indexing::RowMajor, id))) {
      throw std::runtime_error("fft_pipeline: create_array failed");
    }
    return id;
  }

  ArrayId make_roots(const std::vector<int>& procs) {
    // Eps (2NN, P) distributed ("*", block): each copy holds the full table.
    ArrayId id;
    if (!tdp::ok(rt_.arrays().create_array(
            0, tdp::dist::ElemType::Float64,
            {2 * nn_, static_cast<int>(procs.size())}, procs,
            {tdp::dist::DimSpec::star(), tdp::dist::DimSpec::block()},
            tdp::dist::BorderSpec::none(), tdp::dist::Indexing::ColumnMajor,
            id)) ||
        rt_.call(procs, "compute_roots").constant(nn_).local(id).run() !=
            tdp::kStatusOk) {
      throw std::runtime_error("fft_pipeline: roots set-up failed");
    }
    return id;
  }

  int position(int j) const {
    return static_cast<int>(
        tdp::util::bit_reverse(bits_, static_cast<std::uint64_t>(j)));
  }

  Dataset padded_bit_reversed(const Dataset& coeffs) const {
    Dataset out(static_cast<std::size_t>(2 * nn_), 0.0);
    for (int j = 0; j < n_; ++j) {
      out[static_cast<std::size_t>(2 * position(j))] =
          coeffs[static_cast<std::size_t>(j)];
    }
    return out;
  }

  static Dataset multiply(const Dataset& a, const Dataset& b) {
    Dataset prod(a.size());
    for (std::size_t j = 0; j + 1 < prod.size(); j += 2) {
      prod[j] = a[j] * b[j] - a[j + 1] * b[j + 1];
      prod[j + 1] = b[j] * a[j + 1] + a[j] * b[j + 1];
    }
    return prod;
  }

  /// Blocks on `in` and records the wait.
  static std::optional<Item> next(Link& in, int stage, Tracer* tracer) {
    const std::int64_t t0 = tracer != nullptr ? now_ns() : 0;
    std::optional<Item> item = in.next();
    if (tracer != nullptr && item) {
      tracer->record(Kind::StreamWait, t0, now_ns(), item->k, stage, 0);
    }
    return item;
  }

  /// read_infile: lets pair k in once product k - kWindow has completed.
  void feed(Link& a, Link& b, tdp::pcn::Stream<int>& credits, std::int64_t end,
            std::uint32_t& next_k, Tracer* tracer) {
    const std::uint32_t first = next_k;
    for (std::uint32_t& k = next_k;; ++k) {
      if (k - first >= kWindow) credits.next();
      const std::int64_t now = now_ns();
      if (now >= end || (tracer != nullptr && tracer->nearly_full(4096))) {
        break;
      }
      const Pair& p = pool_[k % kPool];
      a = a.put(Item{k, now, true, p.f});
      b = b.put(Item{k, now, true, p.g});
    }
    a.close();
    b.close();
  }

  /// Runs one FFT program on a stage's group, spanned as a Call.
  bool transform(const Stage& st, const char* program, int flag,
                 std::uint32_t k, Tracer* tracer) {
    const std::int64_t t0 = tracer != nullptr ? now_ns() : 0;
    const int status = rt_.call(st.procs, program)
                           .constant(st.procs)
                           .constant(kGroup)
                           .index()
                           .constant(nn_)
                           .constant(flag)
                           .local(st.eps)
                           .local(st.data)
                           .run();
    if (tracer != nullptr) {
      tracer->record(Kind::Call, t0, now_ns(), k, st.procs.front(), 0);
    }
    return status == tdp::kStatusOk;
  }

  bool write(const Stage& st, DistStats& d, bool timed, int index, double v) {
    const int idx[1] = {index};
    return dist_request(d, timed, false, [&] {
      return tdp::ok(
          rt_.arrays().write_element(st.procs.front(), st.data, idx, Scalar{v}));
    });
  }

  bool read(const Stage& st, DistStats& d, bool timed, int index, double& v) {
    const int idx[1] = {index};
    Scalar s;
    const bool ok = dist_request(d, timed, true, [&] {
      return tdp::ok(
          rt_.arrays().read_element(st.procs.front(), st.data, idx, s));
    });
    v = tdp::dist::scalar_to_double(s);
    return ok;
  }

  /// phase1: get_input + pad_input into bit-reversed positions, inverse FFT,
  /// then read the evaluations back in storage order.
  void inverse(int which, Link& in, Link& out, DistStats& d, Tracer* tracer) {
    const Stage& st = stages_[static_cast<std::size_t>(which)];
    const int id = st.procs.front();
    const bool timed = tracer != nullptr;
    const char* program = timed ? "pb.fft_reverse" : "fft_reverse";
    for (std::optional<Item> item; (item = next(in, id, tracer));) {
      const std::int64_t w0 = timed ? now_ns() : 0;
      bool ok = item->ok;
      for (int j = 0; j < nn_; ++j) {
        const double re =
            j < n_ ? item->data[static_cast<std::size_t>(j)] : 0.0;
        ok &= write(st, d, timed, 2 * position(j), re);
        ok &= write(st, d, timed, 2 * position(j) + 1, 0.0);
      }
      if (timed) tracer->record(Kind::Dist, w0, now_ns(), item->k, id, 0);
      ok &= transform(st, program, tdp::fft::kInverse, item->k, tracer);
      const std::int64_t r0 = timed ? now_ns() : 0;
      Dataset values(static_cast<std::size_t>(2 * nn_));
      for (int s = 0; s < 2 * nn_; ++s) {
        ok &= read(st, d, timed, s, values[static_cast<std::size_t>(s)]);
      }
      if (timed) tracer->record(Kind::Dist, r0, now_ns(), item->k, id, 0);
      out = out.put(Item{item->k, item->fed, ok, std::move(values)});
    }
    out.close();
  }

  /// combine: element-wise complex product of the two evaluation streams.
  static void combine(Link& a, Link& b, Link& out, Tracer* tracer) {
    for (;;) {
      std::optional<Item> x = next(a, kCombine, tracer);
      std::optional<Item> y = next(b, kCombine, tracer);
      if (!x || !y) break;
      const std::int64_t t0 = tracer != nullptr ? now_ns() : 0;
      Item prod{x->k, x->fed, x->ok && y->ok && x->k == y->k,
                multiply(x->data, y->data)};
      if (tracer != nullptr) {
        tracer->record(Kind::Task, t0, now_ns(), x->k, kCombine, 0);
      }
      out = out.put(std::move(prod));
    }
    out.close();
  }

  /// phase2: write the evaluations, forward FFT, put_output in natural order.
  void forward(Link& in, Link& out, DistStats& d, Tracer* tracer) {
    const Stage& st = stages_[2];
    const int id = st.procs.front();
    const bool timed = tracer != nullptr;
    const char* program = timed ? "pb.fft_natural" : "fft_natural";
    for (std::optional<Item> item; (item = next(in, id, tracer));) {
      const std::int64_t w0 = timed ? now_ns() : 0;
      bool ok = item->ok;
      for (int s = 0; s < 2 * nn_; ++s) {
        ok &= write(st, d, timed, s, item->data[static_cast<std::size_t>(s)]);
      }
      if (timed) tracer->record(Kind::Dist, w0, now_ns(), item->k, id, 0);
      ok &= transform(st, program, tdp::fft::kForward, item->k, tracer);
      const std::int64_t r0 = timed ? now_ns() : 0;
      Dataset h(static_cast<std::size_t>(2 * nn_));
      for (int j = 0; j < nn_; ++j) {
        const auto s = static_cast<std::size_t>(2 * j);
        ok &= read(st, d, timed, 2 * position(j), h[s]);
        ok &= read(st, d, timed, 2 * position(j) + 1, h[s + 1]);
      }
      if (timed) tracer->record(Kind::Dist, r0, now_ns(), item->k, id, 0);
      out = out.put(Item{item->k, item->fed, ok, std::move(h)});
    }
    out.close();
  }

  /// write_outfile: times each product, checks H(x) = F(x) G(x) at the
  /// pair's seeded points (O(n)), and returns a credit to the feeder.
  void sink(Link& in, tdp::pcn::Stream<int>& credits, Phase& ph) {
    Measured& m = ph.m;
    for (std::optional<Item> item; (item = next(in, kSink, ph.tracer));) {
      const std::int64_t done = now_ns();
      const Pair& p = pool_[item->k % kPool];
      const std::size_t terms = 2 * static_cast<std::size_t>(n_) - 1;
      double scale = 1.0;
      double imag = 0.0;
      for (std::size_t j = 0; j < terms; ++j) {
        scale += std::fabs(item->data[2 * j]);
        imag = std::max(imag, std::fabs(item->data[2 * j + 1]));
      }
      bool ok = item->ok && imag <= kTolerance * scale;
      for (int i = 0; i < kPoints; ++i) {
        const auto s = static_cast<std::size_t>(i);
        const double h = horner(item->data.data(), terms, 2, p.x[s]);
        ok &= std::fabs(h - p.fg[s]) <= kTolerance * scale;
      }
      if (item->fed >= ph.warm_end) {
        m.latency_ms.push_back(static_cast<double>(done - item->fed) / 1e6);
        ++m.attempted;
        if (!ok) ++m.failed;
        m.done.push_back(done);
        m.cpu_done.push_back(process_cpu_ns());
        ph.last_done = done;
      }
      if (ph.tracer != nullptr) {
        m.op_t0.push_back(item->fed);
        m.op_t1.push_back(done);
      }
      if (kept_.size() < kKeep) kept_.emplace_back(item->k, item->data);
      ++m.ops_total;
      credits = credits.put(1);
    }
  }

  /// Product k's critical path: the later of the two inverse stages, then
  /// combine, the forward stage and the sink, each call with its copies.
  /// A stage's wait counts from the end of the previous step on the path:
  /// from then on the product sits in the stage's input stream, queued
  /// behind the product ahead of it or waiting for the hand-off.
  std::vector<Span> critical(const SpanIndex& idx, std::uint32_t k,
                             std::int64_t fed) const {
    const std::vector<const Span*>& spans = idx.of_op(k);
    std::int64_t end_a = 0;
    std::int64_t end_b = 0;
    for (const Span* s : spans) {
      if (s->group == kInvA) end_a = std::max(end_a, s->t1);
      if (s->group == kInvB) end_b = std::max(end_b, s->t1);
    }
    const int chain[4] = {end_a >= end_b ? kInvA : kInvB, kCombine, kFwd,
                          kSink};
    std::vector<Span> path;
    std::int64_t frontier = fed;
    for (const int stage : chain) {
      for (const Span* s : spans) {  // in start order
        if (s->group != stage) continue;
        Span step = *s;
        if (step.kind == Kind::StreamWait) step.t0 = frontier;
        if (step.t0 >= step.t1) continue;
        path.push_back(step);
        frontier = std::max(frontier, step.t1);
        if (step.kind == Kind::Call) {
          for (const Span* c : idx.copies_of(*s)) path.push_back(*c);
        }
      }
    }
    return path;
  }

  int n_;
  int nn_;
  int bits_;
  tdp::core::Runtime rt_{3 * kGroup};
  std::array<Stage, 3> stages_;
  std::array<Pair, kPool> pool_;
  std::vector<std::pair<std::uint32_t, Dataset>> kept_;
  std::vector<double> par_overhead_us_;  // one per pipeline run
  double par_ns_ = 0;                    // summed pipeline wall time
};

}  // namespace

std::unique_ptr<Workload> make_fft_pipeline(const Options& opt) {
  return std::make_unique<FftPipeline>(opt);
}

}  // namespace perfbench
