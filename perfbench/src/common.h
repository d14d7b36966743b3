#pragma once
// Shared plumbing of the benchmark binary: command line, clocks, order
// statistics, the metric sink, correctness bookkeeping and the span
// recorder used by traced runs.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";  ///< span files
  std::string work_dir = ".bench_build/perfbench-work";  ///< journals
  std::string commit = "unknown";
};

/// Wall clock (steady) and process CPU time, in seconds.
[[nodiscard]] double now_s();
[[nodiscard]] double cpu_s();

/// Order statistics over a copy of `v`; 0 for an empty vector.
[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Correctness and operation accounting of one run. Only operations of
/// the selected workload's part are counted; every part checks its outputs.
struct Outcome {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;  ///< first few check failures

  /// Record a correctness check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);
};

/// Spans recorded by the benchmark around its calls into each layer
/// (name "layer.call"), kept in memory and written as Chrome-trace JSON
/// at the end of the run. A null Spans* means tracing is off.
class Spans {
 public:
  explicit Spans(std::string run_id) : run_id_(std::move(run_id)) {}

  /// Open a span under the innermost open one; returns its index.
  int open(const std::string& name);
  void close(int index);

  /// Self time per layer (span duration minus the time its child spans
  /// cover), in seconds, keyed by the layer prefix of the span name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Chrome trace-event JSON; `context` is stored as trace metadata.
  void write_chrome(const std::string& path, const std::string& context) const;

 private:
  struct Span {
    std::string name;
    double t0 = 0.0, t1 = 0.0;
    int parent = -1;
  };
  std::string run_id_;
  double origin_ = now_s();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when `spans` is null.
class Scope {
 public:
  Scope(Spans* spans, const std::string& name)
      : spans_(spans), index_(spans ? spans->open(name) : -1) {}
  ~Scope() {
    if (spans_) spans_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  int index_;
};

/// Everything a part of the benchmark reports into.
struct Sink {
  const Args& args;
  Outcome& outcome;
  Metrics& metrics;  ///< end-to-end (untraced run) or per-layer (traced)
  Spans* spans;      ///< null in untraced runs
  /// True while a round of the selected workload's part runs: only then
  /// are operations counted in attempted/failed.
  bool counted = false;
};

/// One part of the system measured by the benchmark. setup() is what
/// setup_s times; round() runs one whole round of the part's operations;
/// report() turns everything measured so far into metrics.
class Part {
 public:
  virtual ~Part() = default;
  virtual void setup(Sink& sink) = 0;
  /// Untimed checks that need the set-up state (reference outputs,
  /// kernel-count equality with the bundled application).
  virtual void verify_setup(Sink& sink) = 0;
  virtual void round(Sink& sink) = 0;
  virtual void report(Sink& sink) = 0;
};

}  // namespace perfbench
