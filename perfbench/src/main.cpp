// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--out-dir <dir>] [--work-dir <dir>]
//
// Every run sets up all four parts of the system (see parts.h) and then
// repeats cycles for about --seconds: one cycle runs one round of each
// part, two of the parts the workload emphasizes. Every end-to-end metric
// is thus measured in every run, each from samples spread over the whole
// run (the host's speed drifts over tens of seconds). Only the emphasized
// parts' operations count in `attempted`/`failed`, in whole cycles; every
// round checks its outputs.
// The last line of standard output is the result object; with --trace 1
// it holds the per-layer metrics and a Chrome-trace span file is written
// to --out-dir.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "kernels/simd/simd.h"
#include "parts.h"

using namespace perfbench;

namespace {

/// The parts, in cycle order. The service part goes first so the daemon
/// built by set-up is used (and torn down) before any other part runs.
enum PartId { kService, kFlood, kPaced, kToolchain, kPartCount };

/// A workload names the parts it emphasizes: each runs two rounds per
/// cycle instead of one, and only their operations are counted.
struct Workload {
  const char* name;
  bool emphasized[kPartCount];
};
const Workload kWorkloads[] = {
    {"flood-paced", {false, true, true, false}},
    {"toolchain-bpd", {true, false, false, true}},
};
constexpr int kSetupRepeats = 15;
/// Cycles every run makes whatever --seconds says: three cycles pool the
/// 180 paced frames the latency tail needs.
constexpr int kMinCycles = 3;
/// Layers whose self time a traced run reports (span name prefixes).
const char* const kLayers[] = {"bench", "core",    "kernels", "runtime",
                               "compiler", "predict", "sim",   "service"};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<flood-paced|toolchain-bpd> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>] [--out-dir <dir>] "
               "[--work-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string v = argv[++i];
    try {
      if (key == "--workload") a.workload = v;
      else if (key == "--seed") a.seed = std::stoull(v);
      else if (key == "--seconds") a.seconds = std::stod(v);
      else if (key == "--trace") a.trace = std::stoi(v) != 0;
      else if (key == "--commit") a.commit = v;
      else if (key == "--out-dir") a.out_dir = v;
      else if (key == "--work-dir") a.work_dir = v;
      else usage("unknown flag " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + v);
    }
  }
  bool known = false;
  for (const Workload& w : kWorkloads) known |= a.workload == w.name;
  if (!known) usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::string context_json(const Args& a) {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  std::ostringstream os;
  os.precision(6);
  os << "{\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"commit\":\"" << a.commit
     << "\",\"isa\":\"" << bpp::simd::isa_name(bpp::simd::active_isa())
     << "\",\"loadavg\":[" << load[0] << "," << load[1] << "," << load[2]
     << "],\"nproc\":" << std::thread::hardware_concurrency() << ",\"seconds\":" << a.seconds
     << ",\"seed\":" << a.seed << ",\"trace\":" << (a.trace ? 1 : 0) << ",\"workload\":\""
     << a.workload << "\"}";
  return os.str();
}

std::vector<std::unique_ptr<Part>> make_parts() {
  std::vector<std::unique_ptr<Part>> p;  // PartId order
  p.push_back(make_service_part());
  p.push_back(make_flood_part());
  p.push_back(make_paced_part());
  p.push_back(make_toolchain_part());
  return p;
}

int run(const Args& args) {
  Outcome outcome;
  Metrics metrics;
  const std::string run_id = args.workload + "/seed-" + std::to_string(args.seed);
  std::unique_ptr<Spans> spans = args.trace ? std::make_unique<Spans>(run_id) : nullptr;
  Sink sink{args, outcome, metrics, spans.get()};
  const std::string context = context_json(args);
  std::printf("context %s\n", context.c_str());

  const Workload* workload = kWorkloads;
  while (args.workload != workload->name) ++workload;

  std::vector<std::unique_ptr<Part>> parts;
  {
    Scope root(sink.spans, "bench.run");
    std::vector<double> setup;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      parts.clear();  // tearing down the previous set is not set-up
      Scope s(sink.spans, "bench.setup");
      const double t0 = now_s();
      parts = make_parts();
      for (auto& p : parts) p->setup(sink);
      setup.push_back(now_s() - t0);
    }
    {
      Scope s(sink.spans, "bench.verify_setup");
      for (auto& p : parts) p->verify_setup(sink);
    }

    // A new cycle starts only if it is expected to end within --seconds.
    const double start = now_s();
    double cycle_s = 0.0;
    for (int cycle = 0; cycle < kMinCycles || now_s() - start + cycle_s <= args.seconds;
         ++cycle) {
      Scope s(sink.spans, "bench.cycle");
      const double t0 = now_s();
      for (int i = 0; i < kPartCount; ++i) {
        sink.counted = workload->emphasized[i];
        Part& part = *parts[static_cast<std::size_t>(i)];
        for (int r = 0; r < (sink.counted ? 2 : 1); ++r) part.round(sink);
      }
      cycle_s = now_s() - t0;
    }
    sink.counted = false;
    if (args.trace) measure_primitives(sink);
    for (auto& p : parts) p->report(sink);
    if (!args.trace) metrics["setup_s"] = {median(setup), "s"};
  }

  if (spans) {
    for (const char* layer : kLayers) metrics[std::string("self.") + layer + "_ms"] = {0.0, "ms"};
    for (const auto& [layer, s] : spans->self_seconds())
      metrics["self." + layer + "_ms"] = {1e3 * s, "ms"};
    std::filesystem::create_directories(args.out_dir);
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    spans->write_chrome(path, context);
    std::printf("spans written to %s\n", path.c_str());
  }

  for (const auto& [name, m] : metrics)
    outcome.check(std::isfinite(m.value), "metric " + name + " is not finite");
  for (const std::string& e : outcome.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());

  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (outcome.correct ? "true" : "false")
     << ", \"attempted\": " << outcome.attempted << ", \"failed\": " << outcome.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
