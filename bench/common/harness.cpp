#include "common/harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "telemetry/export.hpp"

namespace rtpb::bench {

RunResult run_experiment(const ExperimentSpec& spec) {
  core::ServiceParams params;
  params.seed = spec.seed;
  params.link.propagation = millis(1);
  params.link.jitter = micros(200);
  params.config.cpu_policy = spec.policy;
  params.config.update_scheduling = spec.scheduling;
  params.config.compressed_target_utilization = spec.compressed_target_utilization;
  params.config.update_loss_probability = spec.update_loss;
  params.config.admission_control_enabled = spec.admission_control;

  core::RtpbService service(params);
  // RTPB_TRACE_OUT / RTPB_TRACE_JSONL export a causal trace of the run
  // (Chrome trace-event JSON / trace_inspect input).  Each experiment cell
  // overwrites the file, so the export left behind is the LAST cell of the
  // sweep — run a single-cell bench (or pick the cell you want last) when
  // tracing.  Telemetry stays off otherwise; results are unaffected either
  // way since the hub never perturbs the simulation.
  const char* trace_json = std::getenv("RTPB_TRACE_OUT");
  const char* trace_jsonl = std::getenv("RTPB_TRACE_JSONL");
  if (trace_json != nullptr || trace_jsonl != nullptr) {
    service.simulator().telemetry().enable();
  }
  service.start();

  RunResult result;
  for (core::ObjectId id = 1; id <= spec.objects; ++id) {
    core::ObjectSpec object;
    object.id = id;
    object.name = "obj" + std::to_string(id);
    object.size_bytes = 64;
    object.client_period = spec.client_period;
    object.client_exec = spec.client_exec;
    object.update_exec = spec.update_exec;
    object.delta_primary = spec.delta_primary;
    object.delta_backup = spec.delta_primary + spec.window;
    if (service.register_object(object).ok()) ++result.accepted;
  }

  service.warm_up(spec.warmup);
  service.run_for(spec.duration);
  service.finish();

  if (trace_json != nullptr) {
    if (std::ofstream out(trace_json); out) {
      telemetry::write_chrome_trace(service.simulator().telemetry(), out);
    }
  }
  if (trace_jsonl != nullptr) {
    if (std::ofstream out(trace_jsonl); out) {
      telemetry::write_jsonl(service.simulator().telemetry(), out);
    }
  }

  const core::Metrics& m = service.metrics();
  result.mean_response_ms = m.response_times().mean();
  result.p90_response_ms = m.response_times().quantile(0.9);
  result.avg_max_distance_ms = m.average_max_distance_ms();
  result.avg_max_excess_distance_ms = m.average_max_excess_distance_ms();
  result.mean_inconsistency_ms = m.mean_inconsistency_duration_ms();
  result.total_inconsistency_ms = m.total_inconsistency().millis();
  result.violations = m.inconsistency_intervals();
  result.updates_sent = service.primary().updates_sent();
  result.retransmissions = service.primary().retransmissions_served();
  result.nacks = service.backup().retransmit_requests_sent();
  result.deadline_misses = service.primary().cpu().deadline_misses();
  return result;
}

RunResult run_experiment_avg(ExperimentSpec spec, std::size_t replications) {
  RunResult sum;
  for (std::size_t i = 0; i < replications; ++i) {
    const RunResult r = run_experiment(spec);
    sum.accepted += r.accepted;
    sum.mean_response_ms += r.mean_response_ms;
    sum.p90_response_ms += r.p90_response_ms;
    sum.avg_max_distance_ms += r.avg_max_distance_ms;
    sum.avg_max_excess_distance_ms += r.avg_max_excess_distance_ms;
    sum.mean_inconsistency_ms += r.mean_inconsistency_ms;
    sum.total_inconsistency_ms += r.total_inconsistency_ms;
    sum.violations += r.violations;
    sum.updates_sent += r.updates_sent;
    sum.retransmissions += r.retransmissions;
    sum.nacks += r.nacks;
    sum.deadline_misses += r.deadline_misses;
    spec.seed += 1000;
  }
  const auto n = static_cast<double>(replications);
  sum.accepted = static_cast<std::size_t>(static_cast<double>(sum.accepted) / n + 0.5);
  sum.mean_response_ms /= n;
  sum.p90_response_ms /= n;
  sum.avg_max_distance_ms /= n;
  sum.avg_max_excess_distance_ms /= n;
  sum.mean_inconsistency_ms /= n;
  sum.total_inconsistency_ms /= n;
  sum.violations = static_cast<std::uint64_t>(static_cast<double>(sum.violations) / n + 0.5);
  sum.updates_sent = static_cast<std::uint64_t>(static_cast<double>(sum.updates_sent) / n + 0.5);
  sum.retransmissions =
      static_cast<std::uint64_t>(static_cast<double>(sum.retransmissions) / n + 0.5);
  sum.nacks = static_cast<std::uint64_t>(static_cast<double>(sum.nacks) / n + 0.5);
  sum.deadline_misses =
      static_cast<std::uint64_t>(static_cast<double>(sum.deadline_misses) / n + 0.5);
  return sum;
}

namespace {

// %.6g without locale surprises; JSON has no Inf/NaN, map those to null.
void append_json_number(std::string& out, double v) {
  if (v != v || v == std::numeric_limits<double>::infinity() ||
      v == -std::numeric_limits<double>::infinity()) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

}  // namespace

bool JsonMetrics::write(const std::string& path) const {
  std::string out = "{\n  \"name\": \"" + name_ + "\",\n";
  if (!host_.empty()) {
    out += "  \"host\": {\n";
    for (std::size_t i = 0; i < host_.size(); ++i) {
      out += "    \"" + host_[i].first + "\": \"" + telemetry::json_escape(host_[i].second) + "\"";
      out += i + 1 < host_.size() ? ",\n" : "\n";
    }
    out += "  },\n";
  }
  out += "  \"metrics\": {\n";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out += "    \"" + metrics_[i].first + "\": ";
    append_json_number(out, metrics_[i].second);
    out += i + 1 < metrics_.size() ? ",\n" : "\n";
  }
  out += "  }\n}\n";
  std::ofstream f(path);
  if (!f || !(f << out)) {
    std::fprintf(stderr, "warning: could not write bench JSON to %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

void Table::print() const {
  // RTPB_BENCH_JSON=<path> additionally dumps the table for bench_report:
  // each cell becomes "<col0>=<row value of col0>.<col>".
  if (const char* json = std::getenv("RTPB_BENCH_JSON"); json != nullptr && json[0] != '\0') {
    JsonMetrics metrics(name_);
    for (const auto& row : rows_) {
      if (row.empty()) continue;
      char rowkey[64];
      std::snprintf(rowkey, sizeof(rowkey), "%s=%.6g", columns_[0].c_str(), row[0]);
      for (std::size_t i = 1; i < row.size() && i < columns_.size(); ++i) {
        metrics.add(std::string(rowkey) + "." + columns_[i], row[i]);
      }
    }
    metrics.write(json);
  }
  // RTPB_BENCH_CSV=1 switches to machine-readable output for plotting.
  if (const char* csv = std::getenv("RTPB_BENCH_CSV"); csv != nullptr && csv[0] == '1') {
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      std::printf("%s%s", i ? "," : "", columns_[i].c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        std::printf("%s%.6g", i ? "," : "", row[i]);
      }
      std::printf("\n");
    }
    return;
  }
  for (const auto& col : columns_) std::printf("%14s", col.c_str());
  std::printf("\n");
  for (const auto& col : columns_) {
    (void)col;
    std::printf("%14s", "------------");
  }
  std::printf("\n");
  for (const auto& row : rows_) {
    for (double v : row) {
      if (v == static_cast<double>(static_cast<long long>(v)) && std::abs(v) < 1e15) {
        std::printf("%14lld", static_cast<long long>(v));
      } else {
        std::printf("%14.3f", v);
      }
    }
    std::printf("\n");
  }
}

void banner(const std::string& figure, const std::string& claim) {
  std::printf("==============================================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("paper's claim: %s\n", claim.c_str());
  std::printf("==============================================================================\n");
}

}  // namespace rtpb::bench
