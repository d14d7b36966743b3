// fig13-toolchain: compile, predict and simulate over the paper's Fig. 13
// suite (the programs of bench/bench_fig13_utilization.cpp), each fed by
// the seeded input.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "apps/pipelines.h"
#include "compiler/alignment.h"
#include "compiler/buffering.h"
#include "compiler/dataflow.h"
#include "compiler/parallelize.h"
#include "compiler/pipeline.h"
#include "core/validation.h"
#include "inputs.h"
#include "kernels/output.h"
#include "parts.h"
#include "predict/predict.h"
#include "reference.h"
#include "sim/simulator.h"

using namespace bpp;

namespace perfbench {

namespace {

constexpr int kFrames = 2;  // frames per simulated program, as in bench_fig13
constexpr double kPeriodTolerance = 0.005;
constexpr int kRepeats = 5;  // compile + predict calls per program per round

enum class Check { kBayer, kHistogram, kParallelBuffer, kMultiConv, kFig1 };

struct Program {
  std::string name;
  Size2 frame;
  double rate_hz;
  Check check;
  int bins = 0;
};

std::vector<Program> suite() {
  std::vector<Program> p = {
      {"1", {64, 48}, 150.0, Check::kBayer},
      {"1F", {64, 48}, 450.0, Check::kBayer},
      {"2", {64, 48}, 150.0, Check::kHistogram, 32},
      {"2F", {64, 48}, 450.0, Check::kHistogram, 32},
      {"3", {64, 24}, 90.0, Check::kParallelBuffer},
      {"4", {48, 36}, 150.0, Check::kMultiConv},
  };
  for (const auto& cfg : apps::fig11_configs())
    p.push_back({cfg.tag, cfg.frame, cfg.rate_hz, Check::kFig1, 64});
  p.push_back({"5", {64, 48}, 150.0, Check::kFig1, 64});
  return p;
}

Graph build(const Program& p, const PixelFn& fn) {
  switch (p.check) {
    case Check::kBayer: return bayer_graph(p.frame, p.rate_hz, kFrames, fn);
    case Check::kHistogram: return histogram_graph(p.frame, p.rate_hz, kFrames, p.bins, fn);
    case Check::kParallelBuffer: return parallel_buffer_graph(p.frame, p.rate_hz, kFrames, fn);
    case Check::kMultiConv: return multi_conv_graph(p.frame, p.rate_hz, kFrames, fn);
    case Check::kFig1: return fig1_graph(p.frame, p.rate_hz, kFrames, p.bins, fn);
  }
  return {};
}

Graph build_bundled(const Program& p) {
  switch (p.check) {
    case Check::kBayer: return apps::bayer_app(p.frame, p.rate_hz, kFrames);
    case Check::kHistogram: return apps::histogram_app(p.frame, p.rate_hz, kFrames, p.bins);
    case Check::kParallelBuffer: return apps::parallel_buffer_app(p.frame, p.rate_hz, kFrames);
    case Check::kMultiConv: return apps::multi_convolution_app(p.frame, p.rate_hz, kFrames);
    case Check::kFig1: return apps::figure1_app(p.frame, p.rate_hz, kFrames, p.bins);
  }
  return {};
}

Image uniform_coeff(int n, double v) {
  Image c(n, n);
  for (double& x : c.px) x = v;
  return c;
}

Image binomial(int n) {
  const std::vector<double> row =
      n == 3 ? std::vector<double>{0.25, 0.5, 0.25}
             : std::vector<double>{1 / 16.0, 4 / 16.0, 6 / 16.0, 4 / 16.0, 1 / 16.0};
  Image c(n, n);
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x)
      c.at(x, y) = row[static_cast<std::size_t>(x)] * row[static_cast<std::size_t>(y)];
  return c;
}

/// Expected sink output of one frame: an image or a histogram.
struct Expected {
  Image image;
  std::vector<long> counts;
};

Expected expected(const Program& p, const Image& in) {
  Expected e;
  switch (p.check) {
    case Check::kBayer: e.image = bayer(in); break;
    case Check::kHistogram: {
      std::vector<double> uppers(static_cast<std::size_t>(p.bins));
      for (int i = 0; i < p.bins; ++i)
        uppers[static_cast<std::size_t>(i)] = 0.0 + 256.0 * (i + 1) / p.bins;
      e.counts = histogram(in, uppers);
      break;
    }
    case Check::kParallelBuffer: e.image = convolve(in, uniform_coeff(9, 1.0 / 81.0)); break;
    case Check::kMultiConv:
      e.image = convolve(convolve(convolve(in, binomial(3)), binomial(3)), binomial(5));
      break;
    case Check::kFig1: e.counts = fig1_histogram(in, p.bins); break;
  }
  return e;
}

class ToolchainPart final : public Part {
 public:
  void setup(Sink& sink) override {
    const PixelFn fn = seeded_pixels(sink.args.seed);
    programs_ = suite();
    graphs_.clear();
    for (const Program& p : programs_) graphs_.push_back(build(p, fn));
  }

  void verify_setup(Sink& sink) override {
    const PixelFn fn = seeded_pixels(sink.args.seed);
    want_.assign(programs_.size(), {});
    for (std::size_t i = 0; i < programs_.size(); ++i) {
      const Program& p = programs_[i];
      const int seeded = compile(graphs_[i].clone()).graph.kernel_count();
      const int bundled = compile(build_bundled(p)).graph.kernel_count();
      sink.outcome.check(seeded == bundled, "fig13 " + p.name + ": seeded graph has " +
                                                std::to_string(seeded) + " kernels, bundled " +
                                                std::to_string(bundled));
      for (int f = 0; f < kFrames; ++f)
        want_[i].push_back(expected(p, Image(p.frame.w, p.frame.h, frame_pixels(p.frame, f, fn))));
    }
  }

  void round(Sink& sink) override {
    const std::size_t n = programs_.size();
    compile_s_.resize(n);
    predict_s_.resize(n);
    simulate_s_.resize(n);
    long kernels = 0, cores = 0, firings = 0, delayed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Program& p = programs_[i];
      Graph g = graphs_[i].clone();
      if (sink.spans) time_passes(sink, i);

      // compile and predict take well under a millisecond each, so each
      // runs kRepeats times per round; the last result is simulated.
      CompiledApp app;
      predict::Prediction pred;
      for (int rep = 0; rep < kRepeats; ++rep) {
        Graph copy = rep + 1 < kRepeats ? g.clone() : std::move(g);
        double t0 = now_s();
        {
          Scope s(sink.spans, "compiler.compile");
          app = compile(std::move(copy));
        }
        compile_s_[i].push_back(now_s() - t0);
        t0 = now_s();
        {
          Scope s(sink.spans, "predict.predict");
          pred = predict::predict(app);
        }
        predict_s_[i].push_back(now_s() - t0);
      }
      SimOptions so;
      so.machine = app.options.machine;
      const double t0 = now_s();
      SimResult r;
      {
        Scope s(sink.spans, "sim.simulate");
        r = simulate(app.graph, app.mapping, so);
      }
      simulate_s_[i].push_back(now_s() - t0);
      kernels += app.graph.kernel_count();
      cores += app.mapping.cores;
      firings += r.total_firings;
      delayed += r.delayed_releases;

      Scope s(sink.spans, "bench.check");
      check(sink, p, i, app, pred, r);
      // The operation: this program's real-time verdict.
      if (sink.counted) {
        ++sink.outcome.attempted;
        if (!r.realtime_met) ++sink.outcome.failed;
      }
    }
    kernels_ = kernels;
    cores_ = cores;
    firings_ = firings;
    delayed_ = delayed;
  }

  void report(Sink& sink) override {
    // Per program the median over the run's samples, summed over the suite.
    auto suite = [](const std::vector<std::vector<double>>& per_program) {
      double sum = 0.0;
      for (const auto& v : per_program) sum += median(v);
      return sum;
    };
    if (!sink.spans) {
      sink.metrics["mapped_cores"] = {static_cast<double>(cores_), "cores"};
      return;
    }
    // Single-threaded timings follow one host CPU's speed, whose swings
    // move their run-to-run medians by up to 26% (README): per layer only.
    sink.metrics["compiler.compile_ms"] = {1e3 * suite(compile_s_), "ms"};
    sink.metrics["predict.predict_ms"] = {1e3 * suite(predict_s_), "ms"};
    sink.metrics["sim.simulate_s"] = {suite(simulate_s_), "s"};
    for (const auto& [name, v] : pass_us_)
      sink.metrics["compiler." + name + "_us"] = {median(v), "us"};
    sink.metrics["compiler.kernels"] = {static_cast<double>(kernels_), "count"};
    sink.metrics["sim.firings"] = {static_cast<double>(firings_), "count"};
    sink.metrics["sim.ns_per_firing"] = {1e9 * suite(simulate_s_) / static_cast<double>(firings_),
                                         "ns"};
    sink.metrics["sim.delayed_releases"] = {static_cast<double>(delayed_), "count"};
  }

 private:
  void check(Sink& sink, const Program& p, std::size_t i, const CompiledApp& app,
             const predict::Prediction& pred, const SimResult& r) {
    const std::string tag = "fig13 " + p.name + ": ";
    sink.outcome.check(r.completed, tag + "simulation did not complete: " + r.diagnostics);
    const double period = r.steady_frame_period();
    const double input_period = 1.0 / p.rate_hz;
    sink.outcome.check(std::abs(period - input_period) <= kPeriodTolerance * input_period,
                       tag + "steady period " + std::to_string(period) + " vs input " +
                           std::to_string(input_period));
    sink.outcome.check(
        std::abs(period - pred.steady_period_seconds) <= kPeriodTolerance * period,
        tag + "steady period " + std::to_string(period) + " vs predicted " +
            std::to_string(pred.steady_period_seconds));
    const auto& out = dynamic_cast<const OutputKernel&>(app.graph.by_name("result"));
    const auto& got = want_[i].front().counts.empty() ? out.frames() : out.tiles();
    sink.outcome.check(got.size() == want_[i].size(), tag + "sink frame count");
    for (std::size_t f = 0; f < got.size() && f < want_[i].size(); ++f) {
      const Expected& e = want_[i][f];
      const std::string err =
          e.counts.empty() ? compare(got[f], e.image, kEps) : compare_counts(got[f], e.counts);
      sink.outcome.check(err.empty(), tag + "frame " + std::to_string(f) + ": " + err);
    }
  }

  /// The compile() passes called one by one in its order; the result
  /// must equal compile()'s.
  void time_passes(Sink& sink, std::size_t i) {
    Scope outer(sink.spans, "compiler.passes");
    Graph g = graphs_[i].clone();
    const CompileOptions options;
    auto timed = [&](const std::string& pass, const std::function<void()>& fn) {
      Scope s(sink.spans, "compiler." + pass);
      const double t0 = now_s();
      fn();
      pass_time_[pass] += now_s() - t0;
    };
    pass_time_.clear();
    DataflowResult df;
    LoadMap loads;
    Mapping one_to_one, mapping;
    timed("align", [&] {
      validate_or_throw(g);
      (void)align(g, options.align_policy);
    });
    timed("analyze", [&] { df = analyze(g, Strictness::Strict); });
    timed("buffer", [&] { (void)insert_buffers(g, df); });
    timed("analyze", [&] {
      df = analyze(g, Strictness::Strict);
      loads = LoadMap(g, df);
    });
    timed("parallelize", [&] {
      (void)parallelize(g, df, loads, ParallelizeOptions{options.machine, options.reuse_opt});
      validate_or_throw(g);
    });
    timed("map", [&] {
      one_to_one = map_one_to_one(g);
      mapping = map_greedy(g, loads, options.machine);
    });
    for (const auto& [pass, t] : pass_time_) pass_sum_[pass] += t;
    if (i + 1 == programs_.size()) {
      for (const auto& [pass, t] : pass_sum_) pass_us_[pass].push_back(1e6 * t);
      pass_sum_.clear();
    }

    const CompiledApp ref = compile(graphs_[i].clone(), options);
    sink.outcome.check(g.kernel_count() == ref.graph.kernel_count() &&
                           g.channel_count() == ref.graph.channel_count() &&
                           mapping.cores == ref.mapping.cores &&
                           mapping.core_of == ref.mapping.core_of &&
                           one_to_one.core_of == ref.one_to_one.core_of,
                       "fig13 " + programs_[i].name + ": passes differ from compile()");
  }

  std::vector<Program> programs_;
  std::vector<Graph> graphs_;
  std::vector<std::vector<Expected>> want_;
  /// Per program, the run's samples.
  std::vector<std::vector<double>> compile_s_, predict_s_, simulate_s_;
  std::map<std::string, double> pass_time_, pass_sum_;
  std::map<std::string, std::vector<double>> pass_us_;  ///< per suite pass
  long kernels_ = 0, cores_ = 0, firings_ = 0, delayed_ = 0;
};

}  // namespace

std::unique_ptr<Part> make_toolchain_part() { return std::make_unique<ToolchainPart>(); }

}  // namespace perfbench
