// Shared plumbing of the RTPB benchmark: options, the result record and its
// one-line JSON rendering, host clocks, sample statistics and the in-memory
// span log of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Taken during static initialisation, i.e. as close to process start as
/// portable code gets; setup_s is measured from here.
[[nodiscard]] Clock::time_point process_start();
[[nodiscard]] double seconds_since(Clock::time_point t0);
/// Host seconds of one run of a fixed reference kernel (a miniature
/// discrete-event loop, see report.cpp) that shares no code with the
/// program.  Round times are divided by it to cancel the slowdown
/// other tenants of a shared host impose; see README.md.
[[nodiscard]] double reference_kernel_s();
/// Accumulates host time in units of reference-kernel runs: each timed
/// piece is divided by the mean of the reference runs just before and just
/// after it (consecutive pieces share one).  Other tenants of a shared host
/// slow the program and the kernel alike, so the ratio is far steadier than
/// either time alone (README.md, "Host speed").
class ReferenceClock {
 public:
  /// Time `piece()`, which returns the host seconds of its measured part.
  template <class Piece>
  void time(Piece&& piece) {
    if (last_ref_s_ == 0.0) last_ref_s_ = reference_kernel_s();
    const double before = last_ref_s_;
    const double t = piece();
    last_ref_s_ = reference_kernel_s();
    total_ += t / (0.5 * (before + last_ref_s_));
  }
  [[nodiscard]] double total() const { return total_; }

 private:
  double last_ref_s_ = 0.0;
  double total_ = 0.0;
};

/// Host seconds since process start, not counting time spent in
/// reference_kernel_s() (setup_s excludes the benchmark's own calibration).
[[nodiscard]] double seconds_since_start_excluding_reference();
/// Peak resident set size of this process, MB.
[[nodiscard]] double peak_rss_mb();
/// Global allocations so far (0 unless the alloc-counting hook is linked in).
[[nodiscard]] std::uint64_t allocations();
[[nodiscard]] bool alloc_hook_linked();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Oracle self-test: plant a bug so that the workload's checks must
  /// report failed operations ("none" for a normal run).
  std::string sabotage = "none";
  /// Self-test of the run-level checks: feed them a doctored count.
  bool doctor = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

/// One span of the traced run: a benchmark-side call into a layer.
struct Span {
  std::string layer;  ///< src/ module name, e.g. "core"
  std::string name;   ///< the call, e.g. "register_object"
  double start_s = 0.0;
  double end_s = 0.0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  /// RAII span; records nothing when the log is disabled.
  class Scope {
   public:
    Scope(SpanLog& log, const char* layer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    const char* layer_;
    const char* name_;
    Clock::time_point start_;
  };
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Write the spans as JSON lines (one object per span).
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> problems;  ///< failed checks, printed to stderr

  /// A correctness check: on failure the run is marked incorrect.
  void check(bool ok, const std::string& what);
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  /// Human-readable report lines, then the one-line JSON object as the
  /// last line of stdout (end-to-end metrics, or per-layer when traced).
  void print(const std::string& workload, bool traced) const;
};

// ---- sample statistics ----------------------------------------------------
[[nodiscard]] double median(std::vector<double> v);
/// Every sample a SampleSet holds, ascending (quantile(k/(n-1)) is exact).
[[nodiscard]] std::vector<double> samples_of(const rtpb::SampleSet& s);
/// Quantile (type 7) of an unsorted vector; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double ratio(double num, double den);

}  // namespace perfbench
