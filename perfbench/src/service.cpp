// bpd-tenants: an in-process service::Daemon (4-core pool, journal on)
// takes waves of paced tenants until its journal holds a few hundred
// events; a fresh daemon then recovers from that journal.

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/pipelines.h"
#include "compiler/pipeline.h"
#include "parts.h"
#include "service/admission.h"
#include "service/daemon.h"
#include "service/journal.h"
#include "service/protocol.h"

using namespace bpp;
using namespace bpp::service;

namespace perfbench {

namespace {

constexpr int kWaves = 24;
constexpr int kTenantsPerWave = 4;
constexpr double kSlack = 0.1;  // per-frame deadline grace, seconds
constexpr double kWaveTimeout = 30.0;
constexpr int kRecoveries = 5;  // fresh daemons recovering each journal

std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The submissions of one round, as the JSON text a client would send.
std::vector<std::string> make_submissions(std::uint64_t seed) {
  static const char* const kApps[] = {"fig1", "sobel", "analytics"};
  // Light tenants: a wave of four needs about one host CPU.
  static const Size2 kFrames[] = {{12, 10}, {16, 12}, {20, 16}};
  static const double kRates[] = {40.0, 50.0, 60.0};
  std::vector<std::string> out;
  for (int i = 0; i < kWaves * kTenantsPerWave; ++i) {
    const std::uint64_t h = mix(seed * 1000003ULL + static_cast<std::uint64_t>(i));
    TenantSpec s;
    s.name = "t";
    s.name += std::to_string(i);
    s.app = kApps[h % 3];
    s.frame = kFrames[(h >> 8) % 3];
    s.rate_hz = kRates[(h >> 16) % 3];
    s.frames = 3 + static_cast<int>((h >> 24) % 2);
    s.bins = 16;
    s.slack_seconds = kSlack;
    out.push_back(write_submission(s));
  }
  return out;
}

DaemonOptions daemon_options(const std::string& journal) {
  DaemonOptions o;
  o.cores = 4;
  o.max_tenants = 0;
  o.pace = true;
  o.journal_path = journal;
  return o;
}

long line_count(const std::string& path) {
  std::ifstream f(path);
  long n = 0;
  for (std::string line; std::getline(f, line);)
    if (!line.empty()) ++n;
  return n;
}

class ServicePart final : public Part {
 public:
  void setup(Sink& sink) override {
    std::filesystem::create_directories(sink.args.work_dir);
    submissions_ = make_submissions(sink.args.seed);
    new_daemon(sink);
  }

  void verify_setup(Sink& sink) override {
    for (const std::string& text : submissions_) {
      const TenantSpec s = parse_submission(text);
      sink.outcome.check(write_submission(s) == text, "bpd: submission round trip " + s.name);
    }
  }

  void round(Sink& sink) override {
    if (!daemon_) new_daemon(sink);
    const double c0 = cpu_s();
    long frames = 0;
    for (int w = 0; w < kWaves; ++w) {
      for (int i = 0; i < kTenantsPerWave; ++i) {
        const std::string& text = submissions_[static_cast<std::size_t>(w * kTenantsPerWave + i)];
        double t0 = now_s();
        TenantSpec spec;
        {
          Scope s(sink.spans, "service.parse_submission");
          spec = parse_submission(text);
        }
        parse_us_.push_back(1e6 * (now_s() - t0));
        t0 = now_s();
        {
          Scope s(sink.spans, "service.submit");
          (void)daemon_->submit(spec);
        }
        admit_ms_.push_back(1e3 * (now_s() - t0));
        if (sink.counted) ++sink.outcome.attempted;
      }
      Scope s(sink.spans, "service.wait_idle");
      sink.outcome.check(daemon_->wait_idle(kWaveTimeout), "bpd: wave did not finish");
    }
    const std::vector<TenantStatus> roster = daemon_->tenants();
    for (const TenantStatus& t : roster) {
      const TenantSpec spec = parse_submission(submissions_[static_cast<std::size_t>(t.id)]);
      frames += t.frames_completed;
      sink.outcome.check(t.state == TenantState::kCompleted && t.frames_completed == spec.frames &&
                             t.deadline_misses == 0 && t.predictor_consistent,
                         "bpd tenant " + t.name + ": state " + state_name(t.state) + ", " +
                             std::to_string(t.frames_completed) + " frames, " +
                             std::to_string(t.deadline_misses) + " misses, " + t.reason);
    }
    cpu_ms_per_frame_.push_back(1e3 * (cpu_s() - c0) / static_cast<double>(frames));
    journal_events_ = line_count(journal_);
    journal_bytes_ = static_cast<long>(std::filesystem::file_size(journal_));

    // Recovery by fresh daemons from the journal just written.
    const std::string journal2 = journal_ + ".recovered";
    for (int rep = 0; rep < kRecoveries; ++rep) {
      std::filesystem::remove(journal2);
      Daemon fresh(daemon_options(journal2));
      const double t0 = now_s();
      {
        Scope s(sink.spans, "service.recover");
        (void)fresh.recover(journal_);
      }
      recover_ms_.push_back(1e3 * (now_s() - t0));
      const std::vector<TenantStatus> back = fresh.tenants();
      bool same = back.size() == roster.size();
      for (std::size_t i = 0; same && i < back.size(); ++i)
        same = back[i].name == roster[i].name && back[i].state == roster[i].state &&
               back[i].restarts == roster[i].restarts;
      sink.outcome.check(same, "bpd: recovered roster differs from the journaled one");
      if (sink.counted) ++sink.outcome.attempted;
    }
    if (sink.spans) measure_layers(sink);
    std::filesystem::remove(journal2);
    std::filesystem::remove(journal_);
    // No idle daemon (pool threads, 1 ms monitor) outlives its round to
    // disturb the other parts.
    daemon_.reset();
  }

  void report(Sink& sink) override {
    if (!sink.spans) {
      sink.metrics["bpd_cpu_ms_per_frame"] = {median(cpu_ms_per_frame_), "ms"};
      return;
    }
    // Submit and recover latencies are reported per layer only: their
    // run-to-run spread on the reference host exceeds any bound the
    // benchmark may set (README).
    sink.metrics["service.admit_ms"] = {median(admit_ms_), "ms"};
    sink.metrics["service.recover_ms"] = {median(recover_ms_), "ms"};
    sink.metrics["service.parse_us"] = {median(parse_us_), "us"};
    sink.metrics["service.compile_ms_per_tenant"] = {median(compile_ms_), "ms"};
    sink.metrics["service.admission_us"] = {median(admission_us_), "us"};
    sink.metrics["service.journal_append_us"] = {median(append_us_), "us"};
    sink.metrics["service.journal_bytes"] = {static_cast<double>(journal_bytes_), "bytes"};
  }

 private:
  void new_daemon(Sink& sink) {
    journal_ = sink.args.work_dir + "/bpd-journal-" + std::to_string(sink.args.seed) + "-" +
               std::to_string(rounds_++) + ".jsonl";
    std::filesystem::remove(journal_);
    daemon_ = std::make_unique<Daemon>(daemon_options(journal_));
  }

  /// Per-layer timings around the service's public pieces, on the inputs
  /// of this round: tenant compile, admission ledger, journal append at
  /// the round's final journal length.
  void measure_layers(Sink& sink) {
    Scope outer(sink.spans, "service.layers");
    const MachineSpec machine;
    std::vector<std::vector<double>> utils;
    for (int i = 0; i < kTenantsPerWave; ++i) {
      const TenantSpec s = parse_submission(submissions_[static_cast<std::size_t>(i)]);
      const double t0 = now_s();
      CompiledApp app;
      {
        Scope sc(sink.spans, "compiler.compile");
        app = compile(apps::named_app(s.app, s.frame, s.rate_hz, s.frames, s.bins));
      }
      compile_ms_.push_back(1e3 * (now_s() - t0));
      utils.push_back(vcore_utilization(app.graph, app.loads, app.mapping, machine));
    }
    {
      Scope sc(sink.spans, "service.admission");
      AdmissionController ctl(4, AdmissionPolicy{});
      for (int rep = 0; rep < 200; ++rep) {
        const double t0 = now_s();
        for (const auto& u : utils) ctl.release(ctl.admit(u), u);
        admission_us_.push_back(1e6 * (now_s() - t0) / static_cast<double>(utils.size()));
      }
    }
    Scope sc(sink.spans, "service.journal");
    const std::string path = journal_ + ".append";
    std::filesystem::remove(path);
    Journal j(path);
    for (long n = 0; n < journal_events_; ++n) j.record_state(0, "completed", "prefill", 0);
    for (int rep = 0; rep < 20; ++rep) {
      const double t0 = now_s();
      j.record_state(0, "completed", "append", 0);
      append_us_.push_back(1e6 * (now_s() - t0));
    }
    std::filesystem::remove(path);
  }

  std::vector<std::string> submissions_;
  std::unique_ptr<Daemon> daemon_;
  std::string journal_;
  int rounds_ = 0;
  long journal_events_ = 0, journal_bytes_ = 0;
  std::vector<double> admit_ms_, recover_ms_, cpu_ms_per_frame_, parse_us_, compile_ms_,
      admission_us_, append_us_;
};

}  // namespace

std::unique_ptr<Part> make_service_part() { return std::make_unique<ServicePart>(); }

}  // namespace perfbench
