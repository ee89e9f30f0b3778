#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <thread>

#include "chaos/harness.hpp"
#include "chaos_run.hpp"
#include "core/service.hpp"
#include "micro.hpp"
#include "probe.hpp"
#include "psim/partitioned.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace rtpb;

namespace {

// ---------------------------------------------------------------------------
// Shared pieces.
// ---------------------------------------------------------------------------

double fastest(const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); }

/// Run `round()` until `budget_s` of host time has passed and at least
/// `min_rounds` ran; returns what each round returned.
template <class Round>
std::vector<double> repeat_rounds(double budget_s, std::size_t min_rounds, Round&& round) {
  std::vector<double> times;
  const Clock::time_point t0 = Clock::now();
  while (times.size() < min_rounds || seconds_since(t0) < budget_s) times.push_back(round());
  std::printf("  %zu rounds: median %.4f, fastest %.4f reference-kernel runs each\n", times.size(),
              median(times), fastest(times));
  return times;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

/// Mean of the largest `share` of the samples (at least one).  Client
/// write response times take few distinct values, so a plain quantile
/// reads the same on most seeds; the tail mean still moves with them.
double tail_mean(std::vector<double> v, double share) {
  if (v.empty()) return 0.0;
  const auto k = std::max<std::size_t>(1, static_cast<std::size_t>(share * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.end() - static_cast<std::ptrdiff_t>(k), v.end());
  return std::accumulate(v.end() - static_cast<std::ptrdiff_t>(k), v.end(), 0.0) /
         static_cast<double>(k);
}

/// `rss_mb` is the peak RSS once the first round finished: later rounds
/// repeat the same work, and the process high-water mark would otherwise
/// creep with the number of rounds the host's speed allowed.
void emit_end_to_end(Result& r, double setup_s, double sim_speed, double rss_mb,
                     const std::vector<double>& responses, double staleness_ms) {
  r.e2e("setup_s", setup_s, "s");
  r.e2e("sim_speed", sim_speed, "group-s/ref");
  r.e2e("peak_rss_mb", rss_mb, "MB");
  r.e2e("response_mean_ms", mean(responses), "ms");
  r.e2e("response_tail_ms", tail_mean(responses, 0.01), "ms");
  r.e2e("staleness_ms", staleness_ms, "ms");
}

/// Counters of two runs of the same work (telemetry may differ).
bool same_work(Counters a, Counters b) {
  a.telemetry_events = b.telemetry_events = 0;
  return a == b;
}

/// Everything the traced run needs to compute the per-layer metrics.
struct LayerInputs {
  Counters counters;                 ///< of one traced round (telemetry on)
  std::uint64_t run_allocations = 0;  ///< of one untraced round of the same work
  Hops hops;
  std::size_t queue_depth = 0;    ///< pending simulator events per simulator at the end
  std::size_t cpu_tasks = 0;      ///< periodic tasks on a primary CPU
  std::size_t payload_bytes = 0;  ///< mean object size
  double admission_us_per_object = 0.0;
  double oracle_checks_per_seed = 0.0;
  double us_per_seed_setup = 0.0;
  double failover_ms = 0.0;
  double rejoin_ms = 0.0;
  double unconverged_replicas = 0.0;
  bool durable = false;
  std::size_t durable_objects = 0;
  double recover_image_bytes = 0.0;
  bool sharded = false;
  std::size_t workers = 1;
  std::size_t partitions = 0;
  std::size_t frontier_objects = 0;
  std::uint64_t windows = 0;
  std::uint64_t frontier_published = 0;
  double speedup = 0.0;
  double untraced_round_s = 0.0;
  double traced_round_s = 0.0;
};

/// Emit every per-layer metric, in a fixed order.  Layers a workload does
/// not exercise report 0.
void emit_layers(Result& r, const LayerInputs& in) {
  const Counters& c = in.counters;
  const auto updates = static_cast<double>(c.updates_sent);
  const auto per_update = [&](std::uint64_t n) { return ratio(static_cast<double>(n), updates); };
  const double updates_per_frame =
      ratio(static_cast<double>(c.updates_sent), static_cast<double>(c.update_frames));

  r.layer("sim.events_per_update", per_update(c.sim_events), "count");
  r.layer("sim.allocs_per_event",
          ratio(static_cast<double>(in.run_allocations), static_cast<double>(c.sim_events)),
          "count");
  r.layer("sim.ns_per_event", micro::sim_ns_per_event(in.queue_depth), "ns");
  r.layer("sim.trace_records_per_update", per_update(c.trace_records), "count");
  r.layer("sim.trace_ns_per_record", c.trace_records > 0 ? micro::trace_ns_per_record() : 0.0,
          "ns");
  r.layer("util.rng_ns_per_payload_byte", micro::rng_ns_per_payload_byte(in.payload_bytes), "ns");
  r.layer("sched.jobs_per_update", per_update(c.jobs), "count");
  r.layer("sched.ns_per_job", micro::sched_ns_per_job(in.cpu_tasks), "ns");
  r.layer("sched.queue_wait_p99_ms", quantile(in.hops.queue_wait, 0.99), "ms");
  r.layer("net.frames_per_update", per_update(c.frames_sent), "count");
  r.layer("net.ns_per_frame", micro::net_ns_per_frame(in.payload_bytes + 64), "ns");
  r.layer("net.transit_p99_ms", quantile(in.hops.transit, 0.99), "ms");
  r.layer("xkernel.fragments_per_update", per_update(c.fragments), "count");
  const micro::SendCost small = micro::xkernel_send(64);
  const micro::SendCost large = micro::xkernel_send(16 * 1024);
  r.layer("xkernel.ns_per_send_64b", small.ns, "ns");
  r.layer("xkernel.ns_per_send_16kb", large.ns, "ns");
  r.layer("xkernel.allocs_per_send", small.allocations, "count");
  r.layer("core.allocs_per_update", per_update(in.run_allocations), "count");
  r.layer("core.updates_per_frame", updates_per_frame, "count");
  r.layer("core.wire_ns_per_batch",
          micro::wire_ns_per_batch(static_cast<std::size_t>(std::lround(updates_per_frame)),
                                   in.payload_bytes),
          "ns");
  r.layer("core.applied_per_sent", per_update(c.updates_applied), "ratio");
  r.layer("core.apply_p99_ms", quantile(in.hops.apply, 0.99), "ms");
  r.layer("core.admission_us_per_object", in.admission_us_per_object, "us");
  r.layer("core.failover_ms", in.failover_ms, "ms");
  r.layer("store.wal_bytes_per_update", per_update(c.wal_bytes), "B");
  r.layer("store.ns_per_wal_append",
          in.durable ? micro::store_ns_per_wal_append(in.payload_bytes) : 0.0, "ns");
  r.layer("store.recover_us",
          in.durable ? micro::store_recover_us(in.durable_objects, in.payload_bytes,
                                               in.recover_image_bytes)
                     : 0.0,
          "us");
  r.layer("store.delta_entries_per_rejoin",
          ratio(static_cast<double>(c.delta_entries), static_cast<double>(c.resync_deltas)),
          "count");
  r.layer("store.rejoin_ms", in.rejoin_ms, "ms");
  r.layer("store.unconverged_replicas", in.unconverged_replicas, "count");
  r.layer("telemetry.ns_per_counter_add_on", micro::counter_add_ns(true), "ns");
  r.layer("telemetry.ns_per_counter_add_off", micro::counter_add_ns(false), "ns");
  r.layer("telemetry.records_per_update", per_update(c.telemetry_events), "count");
  r.layer("telemetry.overhead_x", micro::telemetry_overhead_x(), "x");
  r.layer("chaos.oracle_checks_per_seed", in.oracle_checks_per_seed, "count");
  r.layer("chaos.us_per_seed_setup", in.us_per_seed_setup, "us");
  r.layer("shard.frontier_records_per_window",
          ratio(static_cast<double>(in.frontier_published), static_cast<double>(in.windows)),
          "count");
  r.layer("shard.ns_per_frontier_advance",
          in.sharded ? micro::frontier_advance_ns(in.frontier_objects) : 0.0, "ns");
  r.layer("psim.windows", static_cast<double>(in.windows), "count");
  r.layer("psim.ns_per_barrier", in.sharded ? micro::barrier_ns(in.partitions, in.workers) : 0.0,
          "ns");
  r.layer("psim.speedup", in.speedup, "x");
  r.layer("trace.overhead_x", ratio(in.traced_round_s, in.untraced_round_s), "x");
}

/// Σ_i version_i · exec_i over admitted objects: the CPU time the primary's
/// client writes must at least have taken (ms).
double write_exec_ms(const core::ReplicaServer& primary, const std::vector<core::ObjectSpec>& specs) {
  double total = 0.0;
  for (const core::ObjectSpec& s : specs) {
    const auto state = primary.store().find(s.id);
    if (state) total += static_cast<double>(state->version) * s.client_exec.millis();
  }
  return total;
}

/// Client writes answered before their own execution time could elapse
/// are impossible: check the smallest against the cheapest write and the
/// sum against the writes' total execution time.
void check_responses(Result& result, const std::vector<double>& responses,
                     const std::vector<core::ObjectSpec>& admitted, double exec_ms,
                     const std::string& where) {
  if (admitted.empty()) return;
  Duration min_exec = Duration::max();
  for (const core::ObjectSpec& s : admitted) min_exec = std::min(min_exec, s.client_exec);
  result.check(!responses.empty(), where + ": no client write completed");
  if (responses.empty()) return;
  result.check(responses.front() + 1e-9 >= min_exec.millis(),
               where + ": a response time is shorter than the cheapest write's execution time");
  result.check(std::accumulate(responses.begin(), responses.end(), 0.0) + 1e-6 >= exec_ms,
               where + ": total response time is below the writes' total execution time");
}

// ---------------------------------------------------------------------------
// paper_steady: the Fig. 5 primary + backup at steady state.
// ---------------------------------------------------------------------------

namespace steady {

constexpr std::size_t kObjects = 20;
constexpr Duration kRun = seconds(300);
/// Frames still in flight at the end were sent within this tail.
constexpr Duration kTail = millis(100);
constexpr double kUpdateLoss = 0.05;
/// run_for slices per round, each timed against the reference kernel.
constexpr int kSlices = 8;

/// Stratified draws: object i takes its size from the i-th of kObjects
/// equal slices of a log-uniform 64 B .. 8 KiB range, so that every seed
/// offers the same mix of small and fragmenting objects (most fit one
/// frame, the largest fragment into six) and seeds differ in the details,
/// not in total load.
std::vector<core::ObjectSpec> objects(std::uint64_t seed) {
  Rng rng(derive_stream_seed(seed, 2));
  std::vector<core::ObjectSpec> out;
  for (std::size_t i = 0; i < kObjects; ++i) {
    const double slice = (static_cast<double>(i) + rng.next_double()) / kObjects;
    core::ObjectSpec s;
    s.id = static_cast<core::ObjectId>(i + 1);
    s.name = "obj" + std::to_string(s.id);
    s.size_bytes = static_cast<std::uint32_t>(64.0 * std::pow(128.0, slice));
    const auto k = static_cast<std::int64_t>(i);
    s.client_period = millis(20 * (1 + k % 5));
    s.client_exec = micros(100 + 15 * k + rng.uniform(0, 14));
    s.update_exec = micros(200) + nanos(40 * static_cast<std::int64_t>(s.size_bytes));
    s.delta_primary = s.client_period * 2;
    s.delta_backup = s.delta_primary + millis(100 + 50 * ((3 * k) % 7) + rng.uniform(0, 49));
    out.push_back(s);
  }
  return out;
}

struct Round {
  Counters counters;
  std::vector<double> responses;
  double staleness_ms = 0.0;
  Hops hops;
  std::uint64_t writes = 0;
  std::uint64_t failed_writes = 0;
  std::uint64_t allocations = 0;
  std::size_t queue_depth = 0;
  std::size_t cpu_tasks = 0;
  std::size_t admitted = 0;
  double setup_done_s = 0.0;  ///< since process start
  double admission_s = 0.0;
  double run_s = 0.0;
  double run_ref = 0.0;  ///< run_s in reference-kernel runs
  void drop_samples() {
    responses = {};
    hops = {};
  }
};

Round run_round(const Options& opts, const std::vector<core::ObjectSpec>& objects,
                bool telemetry, SpanLog& spans, Result& result) {
  Round out;
  core::ServiceParams params;
  params.seed = derive_stream_seed(opts.seed, 1);
  params.link.propagation = millis(1);
  params.link.jitter = micros(200);
  params.config.update_loss_probability = kUpdateLoss;
  params.config.admission_control_enabled = true;
  std::unique_ptr<core::RtpbService> service;
  {
    SpanLog::Scope span(spans, "core", "construct+start");
    service = std::make_unique<core::RtpbService>(params);
    if (telemetry) service->simulator().telemetry().enable();
    service->start();
  }
  std::vector<core::ObjectSpec> admitted;
  const Clock::time_point ta = Clock::now();
  {
    SpanLog::Scope span(spans, "core", "register_object");
    for (const core::ObjectSpec& s : objects) {
      if (service->register_object(s).ok()) admitted.push_back(s);
    }
  }
  out.admission_s = seconds_since(ta);
  out.setup_done_s = seconds_since_start_excluding_reference();
  out.admitted = admitted.size();

  const core::ReplicaServer& primary = service->primary();
  const core::ReplicaServer& backup = service->backup();
  const std::pair<net::NodeId, net::NodeId> dirs[2] = {{primary.node(), backup.node()},
                                                       {backup.node(), primary.node()}};
  std::uint64_t sent_before_tail[2] = {};
  const Clock::time_point t1 = Clock::now();
  const std::uint64_t allocs0 = allocations();
  ReferenceClock clock;
  const auto run_for = [&](Duration d) {
    clock.time([&] {
      SpanLog::Scope span(spans, "core", "run_for");
      const Clock::time_point t = Clock::now();
      service->run_for(d);
      return seconds_since(t);
    });
  };
  for (int slice = 0; slice < kSlices; ++slice) run_for((kRun - kTail) / kSlices);
  for (int d = 0; d < 2; ++d) {
    sent_before_tail[d] = service->network().stats(dirs[d].first, dirs[d].second).sent;
  }
  run_for(kTail);
  {
    SpanLog::Scope span(spans, "core", "finish");
    service->finish();
  }
  out.allocations = allocations() - allocs0;
  out.run_s = seconds_since(t1);
  out.run_ref = clock.total();

  SpanLog::Scope span(spans, "bench", "checks");
  out.counters = count(*service);
  out.responses = samples_of(service->metrics().response_times());
  out.staleness_ms = service->metrics().average_max_distance_ms();
  out.hops = hops(*service);
  out.queue_depth = service->simulator().pending_events();
  out.cpu_tasks = service->primary().cpu().task_count();
  out.writes = service->client().writes_issued();
  out.failed_writes = std::min(out.writes, service->primary().cpu().deadline_misses() +
                                               service->primary().cpu().jobs_dropped());

  // Update conservation.  Every update the primary sends is loss-injected,
  // shed, coalesced into a batch entry, or a retransmission frame, and
  // every entry that reaches the wire is applied or stale at the backup,
  // or still in flight (at most one per object).  Lost retransmissions
  // count in both loss-injected and retransmissions, hence the slack.
  const Counters& c = out.counters;
  const std::uint64_t received = c.updates_applied + c.stale_updates + (opts.doctor ? 1000 : 0);
  const std::uint64_t on_wire = c.updates_batched + c.retransmissions;
  const std::uint64_t accounted = received + c.loss_injected + c.shed;
  result.check(c.updates_sent >= accounted && received <= on_wire &&
                   on_wire - received <= admitted.size() + std::min(c.loss_injected, c.retransmissions),
               "paper_steady: updates on the wire (" + std::to_string(on_wire) +
                   ") != applied + stale at the backup (" + std::to_string(received) +
                   ") up to one in flight per object, or sent (" + std::to_string(c.updates_sent) +
                   ") < applied + stale + loss-injected + shed (" + std::to_string(accounted) + ")");
  for (int d = 0; d < 2; ++d) {
    const net::LinkStats& s = service->network().stats(dirs[d].first, dirs[d].second);
    const auto in_flight = static_cast<std::int64_t>(s.sent) -
                           static_cast<std::int64_t>(s.delivered + s.dropped);
    result.check(in_flight >= 0 &&
                     in_flight <= static_cast<std::int64_t>(s.sent - sent_before_tail[d]),
                 "paper_steady: link frames sent != delivered + dropped + in flight");
    result.check(s.delays_ms.empty() || s.delays_ms.max() <= kTail.millis(),
                 "paper_steady: a frame took longer than the in-flight tail");
  }
  check_responses(result, out.responses, admitted, write_exec_ms(primary, admitted),
                  "paper_steady");
  return out;
}

}  // namespace steady

// ---------------------------------------------------------------------------
// chaos_sweep / failover_durable: consecutive chaos seeds.
// ---------------------------------------------------------------------------

void apply_sabotage(const std::string& mode, chaos::ChaosOptions& opts) {
  if (mode == "no-failover") {
    // The failure detector never declares: a crashed primary stays dead.
    opts.config.ping_max_misses = 1000000;
    opts.crash_probability = 1.0;
    opts.crash_backup_bias = 0.0;
  } else if (mode == "torn-write") {
    // Shear bytes off the downed replica's WAL: acked versions vanish.
    opts.enable_crash_restart = true;
    opts.torn_tail_bytes = 512;
  }
}

struct SweepSpec {
  const char* name;
  chaos::ChaosOptions opts;
  std::size_t seeds_per_round;
  bool observe;
};

struct SweepRound {
  std::vector<ChaosOutcome> seeds;
  double host_ref = 0.0;  ///< host time of every seed, in reference-kernel runs
};

/// Seeds timed between two reference-kernel runs.
constexpr std::size_t kSeedsPerReference = 8;

SweepRound run_sweep_round(const SweepSpec& spec, std::uint64_t first, SpanLog& spans) {
  SweepRound round;
  ReferenceClock clock;
  const std::uint64_t end = first + spec.seeds_per_round;
  for (std::uint64_t block = first; block < end; block += kSeedsPerReference) {
    clock.time([&] {
      double host_s = 0.0;
      for (std::uint64_t s = block; s < std::min(block + kSeedsPerReference, end); ++s) {
        SpanLog::Scope span(spans, "chaos", "run_seed");
        round.seeds.push_back(run_chaos_seed(s, spec.opts, spec.observe));
        host_s += round.seeds.back().setup_s + round.seeds.back().run_s;
      }
      return host_s;
    });
  }
  round.host_ref = clock.total();
  return round;
}

Result run_sweep(const Options& opts, SweepSpec spec) {
  Result result;
  SpanLog spans(opts.trace);
  apply_sabotage(opts.sabotage, spec.opts);
  const std::uint64_t first = opts.seed * spec.seeds_per_round;
  const double group_seconds =
      spec.opts.duration.seconds() * static_cast<double>(spec.seeds_per_round);
  std::vector<SweepRound> rounds;
  bool traced_kept = false;
  double rss_mb = 0.0;
  const auto round = [&](bool telemetry) {
    SweepSpec s = spec;
    s.opts.telemetry = s.opts.telemetry || telemetry;
    rounds.push_back(run_sweep_round(s, first, spans));
    if (rounds.size() == 1) rss_mb = peak_rss_mb();
    const SweepRound& r = rounds.back();
    for (std::size_t i = 0; i < r.seeds.size(); ++i) {
      const ChaosOutcome& o = r.seeds[i];
      ++result.attempted;
      if (o.failed()) ++result.failed;
      result.check(o.digest == rounds.front().seeds[i].digest &&
                       same_work(o.counters, rounds.front().seeds[i].counters),
                   std::string(spec.name) + ": seed " + std::to_string(o.seed) +
                       " did not reproduce its digest in a re-run");
    }
    // Keep the samples of the first round and of the first traced round
    // only, so that memory does not grow with the number of rounds.
    if (rounds.size() > 1 && !(telemetry && !traced_kept)) {
      for (ChaosOutcome& o : rounds.back().seeds) o.drop_samples();
    }
    traced_kept = traced_kept || telemetry;
    return r.host_ref;
  };

  std::vector<double> untraced;
  std::vector<double> traced;
  if (opts.trace) {
    untraced = repeat_rounds(opts.seconds / 2, 2, [&] { return round(false); });
    traced = repeat_rounds(opts.seconds / 2, 2, [&] { return round(true); });
  } else {
    untraced = repeat_rounds(opts.seconds, 3, [&] { return round(false); });
  }

  // Independent path: chaos::run_seed on sampled seeds must reproduce the
  // benchmark runner's digests.
  {
    SpanLog::Scope span(spans, "bench", "checks");
    for (std::size_t i : {std::size_t{0}, spec.seeds_per_round / 2, spec.seeds_per_round - 1}) {
      const ChaosOutcome& o = rounds.front().seeds[i];
      const chaos::SeedReport report = chaos::run_seed(o.seed, spec.opts);
      result.check(report.trace_digest == o.digest && report.violation_count == o.violations,
                   std::string(spec.name) + ": chaos::run_seed(" + std::to_string(o.seed) +
                       ") disagrees with the benchmark's run of that seed");
    }
  }

  const SweepRound& base = rounds.front();
  std::vector<double> responses;
  std::vector<double> staleness;
  std::vector<double> failover;
  std::vector<double> rejoin;
  for (const ChaosOutcome& o : base.seeds) {
    responses.insert(responses.end(), o.responses.begin(), o.responses.end());
    staleness.push_back(o.staleness_ms);
    if (o.failover_ms >= 0.0) failover.push_back(o.failover_ms);
    if (o.rejoin_ms >= 0.0) rejoin.push_back(o.rejoin_ms);
  }
  std::size_t unconverged = 0;
  for (const ChaosOutcome& o : base.seeds) {
    for (const std::string& f : o.check_failures) {
      std::fprintf(stderr, "%s seed %llu: %s\n", spec.name, static_cast<unsigned long long>(o.seed),
                   f.c_str());
    }
    for (const std::string& f : o.unconverged) {
      std::fprintf(stderr, "%s seed %llu (not counted as failed): %s\n", spec.name,
                   static_cast<unsigned long long>(o.seed), f.c_str());
    }
    unconverged += o.unconverged.size();
  }

  if (!opts.trace) {
    // The first seed's set-up, timed from process start, is the cold set-up.
    emit_end_to_end(result, base.seeds.front().setup_done_s, group_seconds / median(untraced), rss_mb,
                    responses, mean(staleness));
    if (spec.observe) {
      std::printf("  failover_ms %.3f over %zu primary crashes, rejoin_ms %.3f over %zu restarts\n",
                  mean(failover), failover.size(), mean(rejoin), rejoin.size());
    }
    return result;
  }

  const SweepRound& traced_round = rounds[untraced.size()];
  LayerInputs in;
  double objects = 0.0;
  double payload = 0.0;
  double depth = 0.0;
  double tasks = 0.0;
  for (std::size_t i = 0; i < base.seeds.size(); ++i) {
    const ChaosOutcome& o = base.seeds[i];
    in.counters += traced_round.seeds[i].counters;
    in.run_allocations += o.run_allocations;
    in.hops.merge(traced_round.seeds[i].hops);
    in.oracle_checks_per_seed += static_cast<double>(o.oracle_checks);
    in.us_per_seed_setup += o.setup_s * 1e6;
    in.recover_image_bytes = std::max(in.recover_image_bytes, o.recover_image_bytes);
    objects += static_cast<double>(o.admitted);
    payload += static_cast<double>(o.payload_bytes);
    depth += static_cast<double>(o.queue_depth);
    tasks += static_cast<double>(o.cpu_tasks);
  }
  const auto n = static_cast<double>(base.seeds.size());
  in.oracle_checks_per_seed /= n;
  in.us_per_seed_setup /= n;
  in.payload_bytes = static_cast<std::size_t>(std::lround(payload / n));
  in.queue_depth = static_cast<std::size_t>(std::lround(depth / n));
  in.cpu_tasks = static_cast<std::size_t>(std::lround(tasks / n));
  in.unconverged_replicas = static_cast<double>(unconverged);
  in.failover_ms = mean(failover);
  in.rejoin_ms = mean(rejoin);
  in.durable = spec.opts.enable_crash_restart;
  in.durable_objects = static_cast<std::size_t>(std::lround(objects / n));
  in.untraced_round_s = median(untraced);
  in.traced_round_s = median(traced);
  emit_layers(result, in);
  if (!opts.trace_out.empty()) spans.write_jsonl(opts.trace_out);
  return result;
}

// ---------------------------------------------------------------------------
// parallel_shards: many light groups on the psim engine.
// ---------------------------------------------------------------------------

namespace shards {

constexpr std::uint32_t kGroups = 64;
constexpr std::size_t kObjectsPerGroup = 4;
constexpr Duration kRun = seconds(30);
constexpr Duration kPrefix = seconds(1);
/// run_for slices per round, each timed against the reference kernel; the
/// last window runs as a slice of its own for the frontier balance check.
constexpr int kSlices = 10;

/// The end-to-end rounds run on one worker: the driver's inline path still
/// advances every group window by window and exchanges frontiers through
/// the SPSC queues, but the round's host time then depends neither on a
/// second free core of a shared host nor on how a seed's groups balance
/// across workers (at 2 workers the fastest round spread 27 % across five
/// seeds on the reference host).  The traced run adds a pass at
/// parallel_workers() for psim.speedup and the barrier micro kernel, and
/// the digest prefix check compares 1 worker with parallel_workers().
constexpr std::size_t kWorkers = 1;

std::size_t parallel_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<std::size_t>(1, std::min<std::size_t>(2, hw));
}

/// Light objects, drawn like paper_steady's: stratified per group so that
/// every seed loads each group alike.
std::vector<core::ObjectSpec> objects(std::uint64_t seed) {
  Rng rng(derive_stream_seed(seed, 4));
  std::vector<core::ObjectSpec> out;
  for (core::ObjectId id = 1; id <= kGroups * kObjectsPerGroup; ++id) {
    const auto k = static_cast<std::int64_t>((id - 1) % kObjectsPerGroup);
    core::ObjectSpec s;
    s.id = id;
    s.name = "light" + std::to_string(id);
    s.size_bytes = static_cast<std::uint32_t>(64 * (1 + 2 * k) + rng.uniform(0, 127));
    s.client_period = millis(10 * (1 + k) + rng.uniform(0, 9));
    s.client_exec = micros(5 + 10 * k + rng.uniform(0, 9));
    s.update_exec = micros(5 + 10 * k + rng.uniform(0, 9));
    s.delta_primary = millis(200);
    s.delta_backup = s.delta_primary + millis(100 + 50 * k + rng.uniform(0, 49));
    out.push_back(s);
  }
  return out;
}

std::unique_ptr<psim::PartitionedCluster> build(const Options& opts,
                                                const std::vector<core::ObjectSpec>& specs,
                                                bool trace, bool telemetry, SpanLog& spans,
                                                std::size_t* rejected) {
  psim::PartitionedClusterParams params;
  params.seed = derive_stream_seed(opts.seed, 3);
  params.group_count = kGroups;
  std::unique_ptr<psim::PartitionedCluster> cluster;
  {
    SpanLog::Scope span(spans, "psim", "construct+start");
    cluster = std::make_unique<psim::PartitionedCluster>(params);
    for (std::uint32_t g = 0; g < kGroups; ++g) {
      if (trace) cluster->service(g).simulator().trace().enable();
      if (telemetry) cluster->service(g).simulator().telemetry().enable();
    }
    cluster->start();
  }
  SpanLog::Scope span(spans, "core", "register_object");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto g = static_cast<std::uint32_t>(i / kObjectsPerGroup);
    if (!cluster->register_object_in(g, specs[i]).ok() && rejected != nullptr) ++*rejected;
  }
  return cluster;
}

/// Groups whose trace digest differs between 1 worker and `workers` over
/// a short prefix.
std::vector<bool> prefix_mismatch(const Options& opts, const std::vector<core::ObjectSpec>& specs,
                                  std::size_t workers, SpanLog& spans) {
  auto reference = build(opts, specs, true, false, spans, nullptr);
  auto parallel = build(opts, specs, true, false, spans, nullptr);
  reference->run_for(kPrefix, 1);
  parallel->run_for(kPrefix, workers);
  std::vector<std::uint64_t> want = reference->digests();
  const std::vector<std::uint64_t> got = parallel->digests();
  if (opts.doctor) want[0] ^= 1;  // self-test: a doctored digest must fail group 0
  std::vector<bool> mismatch(kGroups);
  for (std::uint32_t g = 0; g < kGroups; ++g) mismatch[g] = want[g] != got[g];
  return mismatch;
}

struct Round {
  Counters counters;
  std::vector<double> responses;
  double staleness_ms = 0.0;
  Hops hops;
  std::uint64_t windows = 0;
  std::uint64_t published = 0;
  std::vector<bool> group_failed = std::vector<bool>(kGroups);
  std::uint64_t allocations = 0;
  std::size_t queue_depth = 0;
  std::size_t cpu_tasks = 0;
  double setup_done_s = 0.0;
  double admission_s = 0.0;
  double run_s = 0.0;
  double run_ref = 0.0;  ///< run_s in reference-kernel runs
  void drop_samples() {
    responses = {};
    hops = {};
  }
};

Round run_round(const Options& opts, const std::vector<core::ObjectSpec>& specs,
                std::size_t workers, bool telemetry, SpanLog& spans, Result& result) {
  Round out;
  std::size_t rejected = 0;
  const Clock::time_point ta = Clock::now();
  auto cluster = build(opts, specs, false, telemetry, spans, &rejected);
  out.admission_s = seconds_since(ta);
  out.setup_done_s = seconds_since_start_excluding_reference();
  result.check(rejected == 0, "parallel_shards: admission rejected a light object");

  const Clock::time_point t1 = Clock::now();
  const std::uint64_t allocs0 = allocations();
  std::vector<std::uint64_t> published_before_last(kGroups);
  ReferenceClock clock;
  const auto run_for = [&](Duration d) {
    clock.time([&] {
      SpanLog::Scope span(spans, "psim", "run_for");
      const Clock::time_point t = Clock::now();
      out.windows += cluster->run_for(d, workers).windows;
      return seconds_since(t);
    });
  };
  for (int slice = 0; slice < kSlices; ++slice) run_for((kRun - cluster->window()) / kSlices);
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    published_before_last[g] = cluster->partition(g).records_published();
  }
  run_for(cluster->window());
  cluster->finish();
  out.allocations = allocations() - allocs0;
  out.run_s = seconds_since(t1);
  out.run_ref = clock.total();

  SpanLog::Scope span(spans, "bench", "checks");
  const std::uint64_t published_total =
      std::accumulate(published_before_last.begin(), published_before_last.end(), std::uint64_t{0});
  std::vector<double> staleness;
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    core::RtpbService& service = cluster->service(g);
    out.counters += count(service);
    const std::vector<double> r = samples_of(service.metrics().response_times());
    out.responses.insert(out.responses.end(), r.begin(), r.end());
    staleness.push_back(service.metrics().average_max_distance_ms());
    out.hops.merge(hops(service));
    out.queue_depth += service.simulator().pending_events();
    out.cpu_tasks += service.primary().cpu().task_count();
    // A group fails when its frontier records do not balance (every
    // record its peers published before the last window was ingested;
    // the last window's are still queued), when it does not have exactly
    // one live primary, or when its CPU missed a deadline.  (The digest
    // prefix check adds its failures per round afterwards.)
    const std::uint64_t expected = published_total - published_before_last[g];
    const bool balanced = cluster->partition(g).records_ingested() + (opts.doctor ? 1 : 0) ==
                          expected;
    out.group_failed[g] = !balanced || service.primaries_alive() != 1 ||
                          service.primary().cpu().deadline_misses() != 0;
  }
  out.published = cluster->frontier_records_published();
  out.staleness_ms = mean(staleness);
  out.queue_depth /= kGroups;
  out.cpu_tasks /= kGroups;
  return out;
}

}  // namespace shards

}  // namespace

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

Result run_paper_steady(const Options& opts) {
  Result result;
  SpanLog spans(opts.trace);
  const std::vector<core::ObjectSpec> objects = steady::objects(opts.seed);
  std::vector<steady::Round> rounds;
  bool traced_kept = false;  // see run_sweep
  double rss_mb = 0.0;
  const auto round = [&](bool telemetry) {
    rounds.push_back(steady::run_round(opts, objects, telemetry, spans, result));
    const double host_ref = rounds.back().run_ref;
    if (rounds.size() == 1) rss_mb = peak_rss_mb();
    const steady::Round& r = rounds.back();
    result.attempted += r.writes;
    result.failed += r.failed_writes;
    const steady::Round& base = rounds.front();
    result.check(same_work(r.counters, base.counters) && r.responses == base.responses &&
                     r.staleness_ms == base.staleness_ms,
                 "paper_steady: a re-run of the same seed did different work");
    if (rounds.size() > 1 && !(telemetry && !traced_kept)) rounds.back().drop_samples();
    traced_kept = traced_kept || telemetry;
    return host_ref;
  };
  if (!opts.trace) {
    const std::vector<double> times = repeat_rounds(opts.seconds, 3, [&] { return round(false); });
    const steady::Round& base = rounds.front();
    emit_end_to_end(result, base.setup_done_s,
                    steady::kRun.seconds() / median(times),
                    rss_mb, base.responses, base.staleness_ms);
    return result;
  }
  const std::vector<double> untraced = repeat_rounds(opts.seconds / 2, 2, [&] { return round(false); });
  const std::vector<double> traced = repeat_rounds(opts.seconds / 2, 2, [&] { return round(true); });
  const steady::Round& base = rounds.front();
  const steady::Round& traced_round = rounds[untraced.size()];
  LayerInputs in;
  in.counters = traced_round.counters;
  in.run_allocations = base.allocations;
  in.hops = traced_round.hops;
  in.queue_depth = base.queue_depth;
  in.cpu_tasks = base.cpu_tasks;
  std::size_t bytes = 0;
  for (const core::ObjectSpec& s : objects) bytes += s.size_bytes;
  in.payload_bytes = bytes / objects.size();
  in.admission_us_per_object = base.admission_s * 1e6 / static_cast<double>(objects.size());
  in.untraced_round_s = median(untraced);
  in.traced_round_s = median(traced);
  emit_layers(result, in);
  if (!opts.trace_out.empty()) spans.write_jsonl(opts.trace_out);
  return result;
}

Result run_chaos_sweep(const Options& opts) {
  // The developers' correctness loop: the default fault mix, one backup.
  return run_sweep(opts, {"chaos_sweep", chaos::ChaosOptions{}, 128, false});
}

Result run_failover_durable(const Options& opts) {
  // Crash-restart of durable replicas, three backups, observability on.
  chaos::ChaosOptions copts;
  copts.enable_crash_restart = true;
  copts.backups = 3;
  copts.telemetry = true;
  copts.flight_recorder = true;
  return run_sweep(opts, {"failover_durable", copts, 48, true});
}

Result run_parallel_shards(const Options& opts) {
  Result result;
  SpanLog spans(opts.trace);
  const std::vector<core::ObjectSpec> specs = shards::objects(opts.seed);
  const std::size_t workers = shards::kWorkers;
  const std::size_t parallel = shards::parallel_workers();
  std::vector<shards::Round> rounds;
  bool traced_kept = false;  // see run_sweep
  double rss_mb = 0.0;
  const auto round = [&](std::size_t w, bool telemetry) {
    rounds.push_back(shards::run_round(opts, specs, w, telemetry, spans, result));
    const double host_ref = rounds.back().run_ref;
    if (rounds.size() == 1) rss_mb = peak_rss_mb();
    const shards::Round& r = rounds.back();
    result.attempted += shards::kGroups;
    const shards::Round& base = rounds.front();
    result.check(same_work(r.counters, base.counters) && r.responses == base.responses &&
                     r.staleness_ms == base.staleness_ms && r.published == base.published,
                 "parallel_shards: a re-run of the same seed did different work");
    if (rounds.size() > 1 && !(telemetry && !traced_kept)) rounds.back().drop_samples();
    traced_kept = traced_kept || telemetry;
    return host_ref;
  };
  const double group_seconds = shards::kRun.seconds() * shards::kGroups;
  // A group fails a round when that round's checks failed, or when its
  // digest prefix depends on the worker count (checked once, after the
  // rounds).
  const auto add_prefix_failures = [&] {
    const std::vector<bool> mismatch = shards::prefix_mismatch(opts, specs, parallel, spans);
    for (const shards::Round& r : rounds) {
      for (std::uint32_t g = 0; g < shards::kGroups; ++g) {
        if (r.group_failed[g] || mismatch[g]) ++result.failed;
      }
    }
  };
  if (!opts.trace) {
    const std::vector<double> times =
        repeat_rounds(opts.seconds, 3, [&] { return round(workers, false); });
    add_prefix_failures();
    const shards::Round& base = rounds.front();
    emit_end_to_end(result, base.setup_done_s,
                    group_seconds / median(times), rss_mb,
                    base.responses, base.staleness_ms);
    return result;
  }
  const std::vector<double> untraced =
      repeat_rounds(opts.seconds / 3, 2, [&] { return round(workers, false); });
  const std::vector<double> traced =
      repeat_rounds(opts.seconds / 3, 2, [&] { return round(workers, true); });
  const std::vector<double> threaded =
      repeat_rounds(opts.seconds / 3, 2, [&] { return round(parallel, false); });
  add_prefix_failures();
  const shards::Round& base = rounds.front();
  const shards::Round& traced_round = rounds[untraced.size()];
  LayerInputs in;
  in.counters = traced_round.counters;
  in.run_allocations = base.allocations;
  in.hops = traced_round.hops;
  in.queue_depth = base.queue_depth;
  in.cpu_tasks = base.cpu_tasks;
  std::size_t bytes = 0;
  for (const core::ObjectSpec& s : specs) bytes += s.size_bytes;
  in.payload_bytes = bytes / specs.size();
  in.admission_us_per_object = base.admission_s * 1e6 / static_cast<double>(specs.size());
  in.sharded = true;
  in.workers = parallel;
  in.partitions = shards::kGroups;
  in.frontier_objects = shards::kObjectsPerGroup;
  in.windows = base.windows;
  in.frontier_published = base.published;
  in.speedup = ratio(median(untraced), median(threaded));
  in.untraced_round_s = median(untraced);
  in.traced_round_s = median(traced);
  emit_layers(result, in);
  if (!opts.trace_out.empty()) spans.write_jsonl(opts.trace_out);
  return result;
}

}  // namespace perfbench
