#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#ifdef PERFBENCH_ALLOC_HOOK
#include "common/alloc_hook.hpp"
#endif

namespace perfbench {

namespace {
const Clock::time_point g_process_start = Clock::now();
double g_reference_total_s = 0.0;

void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", std::isfinite(v) ? v : 0.0);
  out += buf;
}
}  // namespace

Clock::time_point process_start() { return g_process_start; }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double reference_kernel_s() {
  // A miniature discrete-event loop shaped like the simulator's hot path:
  // a binary heap of timestamped events, a type-erased handler per event,
  // a small payload allocation every few events and a 256 KiB table.
  struct Event {
    std::uint64_t at;
    std::uint32_t id;
    bool operator>(const Event& o) const { return at > o.at; }
  };
  static volatile std::uint64_t sink = 0;
  const Clock::time_point t0 = Clock::now();
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::vector<std::uint64_t> table(1u << 15);
  for (std::uint32_t i = 0; i < 1024; ++i) queue.push({i, i});
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t acc = 0;
  for (std::uint32_t k = 0; k < 200000; ++k) {
    const Event e = queue.top();
    queue.pop();
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::function<void()> handler = [&, e] {
      table[(e.id * 32 + (x >> 40)) & (table.size() - 1)] += e.at;
      if ((k & 3) == 0) {
        std::vector<std::uint8_t> payload(64 + (x >> 56));
        payload[x % payload.size()] = static_cast<std::uint8_t>(x);
        acc += payload.size();
      }
    };
    handler();
    queue.push({e.at + 1 + (x >> 54), static_cast<std::uint32_t>(x >> 20) & 1023});
  }
  sink = sink + acc + table[x & (table.size() - 1)];
  const double kernel_s = seconds_since(t0);
  g_reference_total_s += kernel_s;
  return kernel_s;
}

double seconds_since_start_excluding_reference() {
  return seconds_since(g_process_start) - g_reference_total_s;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t allocations() {
#ifdef PERFBENCH_ALLOC_HOOK
  return rtpb::bench::alloc_hook::count();
#else
  return 0;
#endif
}

bool alloc_hook_linked() {
#ifdef PERFBENCH_ALLOC_HOOK
  return true;
#else
  return false;
#endif
}

SpanLog::Scope::Scope(SpanLog& log, const char* layer, const char* name)
    : log_(log), layer_(layer), name_(name), start_(Clock::now()) {}

SpanLog::Scope::~Scope() {
  if (!log_.enabled_) return;
  const auto t0 = process_start();
  log_.spans_.push_back({layer_, name_, std::chrono::duration<double>(start_ - t0).count(),
                         seconds_since(t0)});
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    std::string line = "{\"layer\": \"" + s.layer + "\", \"name\": \"" + s.name + "\", \"start_s\": ";
    append_number(line, s.start_s);
    line += ", \"end_s\": ";
    append_number(line, s.end_s);
    out << line << "}\n";
  }
  return static_cast<bool>(out);
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  problems.push_back(what);
}

void Result::print(const std::string& workload, bool traced) const {
  for (const std::string& p : problems) std::cerr << "CHECK FAILED: " << p << "\n";
  std::printf("workload %s: attempted %llu, failed %llu, correct %s\n", workload.c_str(),
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
              correct ? "yes" : "no");
  const std::vector<Metric>& shown = traced ? per_layer : end_to_end;
  for (const Metric& m : shown) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < shown.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + shown[i].name + "\": {\"value\": ";
    append_number(json, shown[i].value);
    json += ", \"unit\": \"" + shown[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::vector<double> samples_of(const rtpb::SampleSet& s) {
  std::vector<double> out;
  const std::size_t n = s.count();
  out.reserve(n);
  if (n == 1) out.push_back(s.min());
  for (std::size_t k = 0; n > 1 && k < n; ++k) {
    out.push_back(s.quantile(static_cast<double>(k) / static_cast<double>(n - 1)));
  }
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

}  // namespace perfbench
