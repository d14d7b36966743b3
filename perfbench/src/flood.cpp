// The host runtime measured two ways: flood-filled (fig1-flood) and paced
// (analytics-paced).

#include <string>
#include <vector>

#include "apps/pipelines.h"
#include "compiler/pipeline.h"
#include "fault/degradation.h"
#include "inputs.h"
#include "kernels/output.h"
#include "obs/recorder.h"
#include "parts.h"
#include "reference.h"
#include "runtime/runtime.h"

using namespace bpp;

namespace perfbench {

namespace {

const OutputKernel& sink_of(const Graph& g, const std::string& name) {
  return dynamic_cast<const OutputKernel&>(g.by_name(name));
}

/// Firing-phase totals read from a runtime trace.
struct PhaseTotals {
  double read = 0.0, run = 0.0, write = 0.0, park = 0.0;
  long firings = 0, parks = 0;
  std::uint64_t dropped = 0;

  void add(const obs::Trace& t) {
    for (const obs::TraceEvent& e : t.events) {
      if (e.kind == obs::EventKind::kFiring) {
        run += e.aux0;
        read += e.aux1;
        ++firings;
      } else if (e.kind == obs::EventKind::kWrite) {
        write += e.aux2;
      } else if (e.kind == obs::EventKind::kPark) {
        park += e.t1 - e.t0;
        ++parks;
      }
    }
    dropped += t.dropped_events;
  }
};

/// Both runtime parts add their trace drops to one counter.
void add_dropped(Sink& sink, std::uint64_t dropped) {
  Metric& m = sink.metrics["obs.dropped_events"];
  m.unit = "count";
  m.value += static_cast<double>(dropped);
}

// ---------------------------------------------------------------------------

class FloodPart final : public Part {
 public:
  void setup(Sink& sink) override {
    fn_ = seeded_pixels(sink.args.seed);
    app_ = compile(fig1_graph(kFrame, kRate, kFrames, kBins, fn_));
    m1_ = fold(app_.mapping, 1);
    m4_ = fold(app_.mapping, 4);
    (void)app_.graph.clone();  // set-up includes one clone; every call runs on one
  }

  void verify_setup(Sink& sink) override {
    const int bundled =
        compile(apps::figure1_app(kFrame, kRate, kFrames, kBins)).graph.kernel_count();
    sink.outcome.check(app_.graph.kernel_count() == bundled,
                       "fig1: seeded graph has " +
                           std::to_string(app_.graph.kernel_count()) +
                           " kernels, bundled app " + std::to_string(bundled));
    want_.clear();
    for (int f = 0; f < kFrames; ++f)
      want_.push_back(fig1_histogram(
          Image(kFrame.w, kFrame.h, frame_pixels(kFrame, f, fn_)), kBins));
  }

  void round(Sink& sink) override {
    for (int c = 0; c < kCalls1; ++c) run(sink, m1_, nullptr, wall1_, firings1_);
    for (int c = 0; c < kCalls4; ++c) run(sink, m4_, nullptr, wall4_, firings4_);
    if (sink.spans) {
      obs::Recorder rec;
      run(sink, m1_, &rec, traced_wall1_, traced_firings1_);
      phases_.add(rec.trace());
    }
  }

  void report(Sink& sink) override {
    const double px = static_cast<double>(kFrame.area()) * kFrames;
    if (!sink.spans) {
      sink.metrics["flood_px_per_s_4w"] = {px / median(wall4_), "px/s"};
      return;
    }
    // One worker's throughput follows one host CPU's speed, whose swings
    // move its run-to-run median by up to 29% (README): per layer only.
    sink.metrics["runtime.flood_px_per_s_1w"] = {px / median(wall1_), "px/s"};
    const double f1 = static_cast<double>(firings1_), f4 = static_cast<double>(firings4_);
    const double calls1 = static_cast<double>(wall1_.size());
    sink.metrics["runtime.firings_per_px"] = {f1 / (px * calls1), "firings/px"};
    sink.metrics["runtime.ns_per_firing_1w"] = {1e9 * median(wall1_) * calls1 / f1, "ns"};
    sink.metrics["runtime.ns_per_firing_4w"] = {
        1e9 * median(wall4_) * static_cast<double>(wall4_.size()) / f4, "ns"};
    const double tf = static_cast<double>(phases_.firings);
    sink.metrics["runtime.read_ns_per_firing"] = {1e9 * phases_.read / tf, "ns"};
    sink.metrics["runtime.run_ns_per_firing"] = {1e9 * phases_.run / tf, "ns"};
    sink.metrics["runtime.write_ns_per_firing"] = {1e9 * phases_.write / tf, "ns"};
    add_dropped(sink, phases_.dropped);
    sink.metrics["obs.trace_overhead_x"] = {median(traced_wall1_) / median(wall1_), "x"};
  }

 private:
  static constexpr Size2 kFrame{96, 72};  // Fig. 11 big/fast
  static constexpr double kRate = 130.0;
  static constexpr int kFrames = 2;  // frames per run_threaded call
  // Calls per round. One worker's throughput swings most from call to
  // call (one host CPU's speed), so it gets more samples.
  static constexpr int kCalls1 = 8;
  static constexpr int kCalls4 = 4;
  static constexpr int kBins = 32;

  void run(Sink& sink, const Mapping& m, obs::Recorder* rec,
           std::vector<double>& walls, long& firings) {
    Graph g = app_.graph.clone();
    RuntimeOptions opt;
    opt.recorder = rec;
    const double t0 = now_s();
    RuntimeResult r;
    {
      Scope s(sink.spans, "runtime.run_threaded");
      r = run_threaded(g, m, opt);
    }
    walls.push_back(now_s() - t0);
    firings += r.total_firings;

    Scope s(sink.spans, "bench.check");
    const std::string tag = "fig1-flood " + std::to_string(m.cores) + "w: ";
    sink.outcome.check(r.completed, tag + "run did not complete: " + r.diagnostics);
    const auto& tiles = sink_of(g, "result").tiles();
    sink.outcome.check(tiles.size() == want_.size(), tag + "frame count");
    for (std::size_t f = 0; f < tiles.size() && f < want_.size(); ++f) {
      const std::string err = compare_counts(tiles[f], want_[f]);
      sink.outcome.check(err.empty(), tag + "frame " + std::to_string(f) + ": " + err);
    }
    if (sink.counted && rec == nullptr) sink.outcome.attempted += kFrames;
  }

  PixelFn fn_;
  CompiledApp app_;
  Mapping m1_, m4_;
  std::vector<std::vector<long>> want_;
  std::vector<double> wall1_, wall4_, traced_wall1_;
  long firings1_ = 0, firings4_ = 0, traced_firings1_ = 0;
  PhaseTotals phases_;
};

// ---------------------------------------------------------------------------

class PacedPart final : public Part {
 public:
  void setup(Sink& sink) override {
    fn_ = seeded_pixels(sink.args.seed);
    app_ = compile(analytics_graph(kFrame, kRate, kFrames, fn_));
    m4_ = fold(app_.mapping, 4);
    (void)app_.graph.clone();  // set-up includes one clone; every call runs on one
  }

  void verify_setup(Sink& sink) override {
    const int bundled =
        compile(apps::analytics_app(kFrame, kRate, kFrames)).graph.kernel_count();
    sink.outcome.check(app_.graph.kernel_count() == bundled,
                       "analytics: seeded graph has " +
                           std::to_string(app_.graph.kernel_count()) +
                           " kernels, bundled app " + std::to_string(bundled));
    want_.clear();
    AnalyticsReference ref(kFrame.w, kFrame.h);
    for (int f = 0; f < kFrames; ++f)
      want_.push_back(ref.next(Image(kFrame.w, kFrame.h, frame_pixels(kFrame, f, fn_))));
  }

  void round(Sink& sink) override {
    Graph g = app_.graph.clone();
    fault::DegradationPolicy pol;
    pol.shed = false;
    pol.rate_hz = kRate;
    pol.slack_seconds = kSlack;
    fault::DegradationController ctrl(pol);
    obs::Recorder rec;
    RuntimeOptions opt;
    opt.pace_inputs = true;
    opt.degradation = &ctrl;
    if (sink.spans) opt.recorder = &rec;

    const double c0 = cpu_s();
    RuntimeResult r;
    {
      Scope s(sink.spans, "runtime.run_threaded");
      r = run_threaded(g, m4_, opt);
    }
    cpu_.push_back((cpu_s() - c0) / kFrames);
    delayed_.push_back(static_cast<double>(r.delayed_releases));
    max_lag_ = std::max(max_lag_, r.max_release_lag_seconds);
    if (sink.spans) phases_.add(rec.trace());

    Scope s(sink.spans, "bench.check");
    const double pixel_period = 1.0 / (kRate * kFrame.area());
    for (const obs::FrameVerdict& v : ctrl.verdicts()) {
      const double last_release =
          (static_cast<double>(v.frame + 1) * kFrame.area() - 1) * pixel_period;
      latency_ms_.push_back(1e3 * (v.completed_seconds - last_release));
    }
    sink.outcome.check(r.completed, "analytics-paced: run did not complete: " + r.diagnostics);
    sink.outcome.check(ctrl.frames_completed() == kFrames,
                       "analytics-paced: " + std::to_string(ctrl.frames_completed()) +
                           " of " + std::to_string(kFrames) + " frames completed");
    sink.outcome.check(ctrl.misses() == 0, "analytics-paced: " +
                                               std::to_string(ctrl.misses()) +
                                               " frames past their deadline");
    const auto& edges = sink_of(g, "edges").frames();
    const auto& stats = sink_of(g, "stats").tiles();
    sink.outcome.check(edges.size() == want_.size() && stats.size() == want_.size(),
                       "analytics-paced: output frame count");
    for (std::size_t f = 0; f < want_.size() && f < edges.size() && f < stats.size(); ++f) {
      const std::string e = compare_edges(edges[f], want_[f]);
      const std::string h = compare_stats(stats[f], want_[f]);
      sink.outcome.check(e.empty() && h.empty(), "analytics-paced frame " +
                                                     std::to_string(f) + ": " + e + h);
    }
    if (sink.counted) sink.outcome.attempted += kFrames;
  }

  void report(Sink& sink) override {
    if (!sink.spans) {
      sink.metrics["paced_cpu_ms_per_frame"] = {1e3 * median(cpu_), "ms"};
      return;
    }
    // Frame latency is reported per layer only: it is the host's thread
    // wake-up latency, which on the reference host moves its run-to-run
    // median by 40-110% (README).
    sink.metrics["runtime.paced_latency_p50_ms"] = {quantile(latency_ms_, 0.5), "ms"};
    sink.metrics["runtime.paced_latency_p90_ms"] = {quantile(latency_ms_, kTail), "ms"};
    const double frames = static_cast<double>(cpu_.size()) * kFrames;
    sink.metrics["runtime.delayed_releases"] = {median(delayed_), "count"};
    sink.metrics["runtime.max_release_lag_ms"] = {1e3 * max_lag_, "ms"};
    sink.metrics["runtime.parks_per_frame"] = {static_cast<double>(phases_.parks) / frames, "count"};
    sink.metrics["runtime.park_ms_per_frame"] = {1e3 * phases_.park / frames, "ms"};
    add_dropped(sink, phases_.dropped);
  }

 private:
  static constexpr Size2 kFrame{32, 24};
  static constexpr double kRate = 40.0;
  static constexpr int kFrames = 60;  // frames per paced call
  static constexpr double kSlack = 4.0 / kRate;  // four frame periods
  /// Tail percentile; a run pools at least 180 paced frames (main.cpp),
  /// so at least 18 lie beyond it.
  static constexpr double kTail = 0.9;

  PixelFn fn_;
  CompiledApp app_;
  Mapping m4_;
  std::vector<AnalyticsExpect> want_;
  std::vector<double> latency_ms_, cpu_, delayed_;
  double max_lag_ = 0.0;
  PhaseTotals phases_;
};

}  // namespace

std::unique_ptr<Part> make_flood_part() { return std::make_unique<FloodPart>(); }
std::unique_ptr<Part> make_paced_part() { return std::make_unique<PacedPart>(); }

}  // namespace perfbench
