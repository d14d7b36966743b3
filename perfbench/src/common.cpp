#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (errors.size() < 8) errors.push_back(what);
}

int Spans::open(const std::string& name) {
  Span s;
  s.name = name;
  s.t0 = now_s() - origin_;
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Spans::close(int index) {
  if (stack_.empty() || stack_.back() != index)
    throw std::logic_error("perfbench: spans closed out of order");
  spans_[static_cast<std::size_t>(index)].t1 = now_s() - origin_;
  stack_.pop_back();
}

std::map<std::string, double> Spans::self_seconds() const {
  // Children of one span run one after another on this thread, so the
  // part of the parent they cover is the sum of their durations.
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += std::max(0.0, (s.t1 - s.t0) - child[i]);
  }
  return self;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

void Spans::write_chrome(const std::string& path,
                         const std::string& context) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("perfbench: cannot write " + path);
  os << "{\"otherData\":" << context << ",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string parent =
        s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name : "";
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << json_escape(s.name)
       << "\",\"cat\":\"" << json_escape(s.name.substr(0, s.name.find('.')))
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.t0 * 1e6
       << ",\"dur\":" << (s.t1 - s.t0) * 1e6 << ",\"args\":{\"run\":\""
       << json_escape(run_id_) << "\",\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"parent_name\":\"" << json_escape(parent) << "\"}}";
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("perfbench: write failed for " + path);
}

}  // namespace perfbench
