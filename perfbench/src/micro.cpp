#include "micro.hpp"

#include <memory>

#include "chaos/harness.hpp"
#include "core/wire.hpp"
#include "net/network.hpp"
#include "psim/driver.hpp"
#include "report.hpp"
#include "sched/cpu.hpp"
#include "shard/frontier.hpp"
#include "sim/simulator.hpp"
#include "store/device.hpp"
#include "store/durable_store.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "xkernel/fraglite.hpp"
#include "xkernel/graph.hpp"

namespace perfbench::micro {

using namespace rtpb;

namespace {

constexpr int kRepetitions = 5;
volatile std::uint64_t g_sink = 0;

/// Median over repetitions of (host ns of one `batch()` call) / (ops it
/// reports having done).
template <class Batch>
double ns_per_op(Batch&& batch) {
  std::vector<double> v;
  for (int r = 0; r < kRepetitions; ++r) {
    const Clock::time_point t0 = Clock::now();
    const double ops = static_cast<double>(batch());
    v.push_back(seconds_since(t0) * 1e9 / ops);
  }
  return median(std::move(v));
}

}  // namespace

double sim_ns_per_event(std::size_t queue_depth) {
  constexpr std::uint64_t kEvents = 200000;
  sim::Simulator sim(1);
  const TimePoint far = TimePoint::zero() + seconds(1'000'000);
  for (std::size_t i = 0; i < queue_depth; ++i) sim.schedule_at(far, [] {});
  std::int64_t t = 0;
  return ns_per_op([&] {
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      sim.schedule_at(TimePoint{t += 1000}, [] { g_sink = g_sink + 1; });
      sim.step();
    }
    return kEvents;
  });
}

double trace_ns_per_record() {
  constexpr std::uint64_t kRecords = 200000;
  sim::TraceRecorder trace;
  trace.enable();
  std::int64_t t = 0;
  return ns_per_op([&] {
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      trace.record(TimePoint{t += 1000}, sim::TraceCategory::kNet, "frame-send",
                   "node1->node2 " + std::to_string(i % 1500) + "B");
    }
    return kRecords;
  });
}

double rng_ns_per_payload_byte(std::size_t payload_bytes) {
  const std::size_t bytes = payload_bytes > 0 ? payload_bytes : 64;
  const std::uint64_t payloads = 4'000'000 / bytes + 1;
  Rng rng(7);
  return ns_per_op([&] {
    for (std::uint64_t p = 0; p < payloads; ++p) {
      Bytes value(bytes);
      for (auto& b : value) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
      g_sink = g_sink + value[0];
    }
    return payloads * bytes;
  });
}

double sched_ns_per_job(std::size_t tasks) {
  const std::size_t n = tasks > 0 ? tasks : 1;
  return ns_per_op([&] {
    sim::Simulator sim(1);
    sched::Cpu cpu(sim, sched::Policy::kRateMonotonic, "micro-cpu");
    for (std::size_t i = 0; i < n; ++i) {
      sched::TaskSpec spec;
      spec.name = "t" + std::to_string(i);
      spec.period = millis(10 + static_cast<std::int64_t>(i % 8) * 10);
      spec.wcet = micros(20);
      cpu.add_task(spec, [](const sched::JobInfo&) { g_sink = g_sink + 1; });
    }
    cpu.start();
    sim.run_until(TimePoint::zero() + seconds(20));
    return cpu.jobs_completed();
  });
}

double net_ns_per_frame(std::size_t bytes) {
  constexpr std::uint64_t kFrames = 50000;
  return ns_per_op([&] {
    sim::Simulator sim(1);
    net::Network network(sim);
    const net::NodeId a = network.add_node([](const net::Packet&) {});
    const net::NodeId b = network.add_node([](const net::Packet&) { g_sink = g_sink + 1; });
    net::LinkParams link;
    link.jitter = micros(200);
    network.connect(a, b, link);
    const Bytes payload(bytes, 0x5a);
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      network.send(a, b, payload);
      sim.run();
    }
    return kFrames;
  });
}

SendCost xkernel_send(std::size_t bytes) {
  constexpr std::uint64_t kSends = 20000;
  constexpr net::Port kPort = 7000;
  sim::Simulator sim(1);
  net::Network network(sim);
  xkernel::HostStack host_a(network);
  xkernel::HostStack host_b(network);
  net::LinkParams link;
  link.bandwidth_bps = 0;  // infinite: time the stack, not a queue
  network.connect(host_a.node(), host_b.node(), link);
  xkernel::FragLite frag_a(sim);
  xkernel::FragLite frag_b(sim);
  frag_a.connect_down(host_a.udp());
  frag_b.connect_down(host_b.udp());
  std::uint64_t delivered = 0;
  frag_b.set_handler([&](xkernel::Message&, const xkernel::MsgAttrs&) { ++delivered; });
  host_b.udp().bind(kPort, [&](xkernel::Message& msg, const xkernel::MsgAttrs& attrs) {
    xkernel::MsgAttrs mutable_attrs = attrs;
    frag_b.demux(msg, mutable_attrs);
  });
  const xkernel::Message body{Bytes(bytes, 0x3c)};
  xkernel::MsgAttrs attrs;
  attrs.src = {host_a.node(), kPort};
  attrs.dst = {host_b.node(), kPort};
  SendCost cost;
  const std::uint64_t allocs0 = allocations();
  cost.ns = ns_per_op([&] {
    for (std::uint64_t i = 0; i < kSends; ++i) {
      xkernel::Message msg = body;  // shares the body, as a fan-out does
      frag_a.push(msg, attrs);
      sim.run();
    }
    return kSends;
  });
  cost.allocations =
      static_cast<double>(allocations() - allocs0) / static_cast<double>(kSends * kRepetitions);
  g_sink = g_sink + delivered;
  return cost;
}

double wire_ns_per_batch(std::size_t entries, std::size_t value_bytes) {
  constexpr std::uint64_t kBatches = 20000;
  core::wire::UpdateBatch batch;
  batch.epoch = 3;
  for (std::size_t i = 0; i < (entries > 0 ? entries : 1); ++i) {
    batch.entries.push_back({static_cast<core::ObjectId>(i + 1), 100 + i,
                             TimePoint{static_cast<std::int64_t>(i) * 1000},
                             Bytes(value_bytes, static_cast<std::uint8_t>(i))});
  }
  return ns_per_op([&] {
    for (std::uint64_t i = 0; i < kBatches; ++i) {
      const Bytes frame = core::wire::encode(batch);
      g_sink = g_sink + (core::wire::decode(frame).has_value() ? frame.size() : 0);
    }
    return kBatches;
  });
}

double store_ns_per_wal_append(std::size_t value_bytes) {
  constexpr std::uint64_t kAppends = 20000;
  const Bytes value(value_bytes, 0x11);
  return ns_per_op([&] {
    store::SimStorageDevice wal;
    store::SimStorageDevice checkpoint;
    store::DurableStore durable(wal, checkpoint, kAppends + 1);
    for (std::uint64_t i = 0; i < kAppends; ++i) {
      const TimePoint ts{static_cast<std::int64_t>(i) * 1000};
      g_sink = g_sink + (durable.log_write(1 + i % 8, i + 1, ts, ts, value) ? 1 : 0);
    }
    return kAppends;
  });
}

double store_recover_us(std::size_t objects, std::size_t value_bytes, double image_bytes) {
  if (image_bytes <= 0.0 || objects == 0) return 0.0;
  // Rebuild an image of the measured size the way a durable replica
  // writes one: inserts, then writes with a checkpoint every 64 records
  // (the service default).
  store::SimStorageDevice wal;
  store::SimStorageDevice checkpoint;
  store::DurableStore durable(wal, checkpoint, 64);
  std::vector<core::ObjectState> states(objects);
  for (std::size_t i = 0; i < objects; ++i) {
    states[i].spec.id = static_cast<core::ObjectId>(i + 1);
    states[i].spec.size_bytes = static_cast<std::uint32_t>(value_bytes);
    states[i].value = Bytes(value_bytes, 0x22);
    if (!durable.log_insert(states[i].spec)) return 0.0;
  }
  for (std::uint64_t i = 0; static_cast<double>(wal.size() + checkpoint.size()) < image_bytes;
       ++i) {
    core::ObjectState& s = states[i % objects];
    s.version += 1;
    s.timestamp = s.origin_timestamp = TimePoint{static_cast<std::int64_t>(i) * 1000};
    if (!durable.log_write(s.spec.id, s.version, s.timestamp, s.origin_timestamp, s.value)) {
      return 0.0;
    }
    if (durable.should_checkpoint() && !durable.checkpoint(states, 1, 1)) return 0.0;
  }
  return ns_per_op([&] {
    constexpr std::uint64_t kRecoveries = 20;
    for (std::uint64_t i = 0; i < kRecoveries; ++i) {
      g_sink = g_sink + durable.recover().states.size();
    }
    return kRecoveries;
  }) / 1e3;
}

double counter_add_ns(bool hub_on) {
  constexpr std::uint64_t kAdds = 1'000'000;
  telemetry::Hub hub;
  if (hub_on) hub.enable();
  return ns_per_op([&] {
    for (std::uint64_t i = 0; i < kAdds; ++i) {
      if (hub.enabled()) hub.registry().counter("core.primary.update_sends").add();
      g_sink = g_sink + 1;  // keeps the loop (and the disabled branch) alive
    }
    return kAdds;
  });
}

double telemetry_overhead_x() {
  constexpr std::uint64_t kSeeds = 6;
  const auto sweep = [](bool plane_on) {
    chaos::ChaosOptions opts;
    opts.telemetry = plane_on;
    opts.flight_recorder = plane_on;
    std::vector<double> v;
    for (int r = 0; r < 3; ++r) {
      const Clock::time_point t0 = Clock::now();
      for (std::uint64_t s = 0; s < kSeeds; ++s) g_sink = g_sink + chaos::run_seed(s, opts).trace_digest;
      v.push_back(seconds_since(t0));
    }
    return median(std::move(v));
  };
  const double off = sweep(false);
  return ratio(sweep(true), off);
}

double frontier_advance_ns(std::size_t objects) {
  constexpr std::uint64_t kAdvances = 1'000'000;
  const std::size_t n = objects > 0 ? objects : 1;
  shard::FrontierTracker tracker;
  for (std::size_t i = 0; i < n; ++i) tracker.track(static_cast<core::ObjectId>(i + 1), TimePoint::zero());
  std::int64_t t = 0;
  return ns_per_op([&] {
    for (std::uint64_t i = 0; i < kAdvances; ++i) {
      tracker.advance(static_cast<core::ObjectId>(1 + i % n), TimePoint{t += 1000});
      g_sink = g_sink + static_cast<std::uint64_t>(tracker.frontier().nanos());
    }
    return kAdvances;
  });
}

namespace {
class NoopPartition final : public psim::PartitionTask {
 public:
  void begin_window(TimePoint) override {}
  void advance_to(TimePoint) override { g_sink = g_sink + 1; }
  void end_window(TimePoint) override {}
};
}  // namespace

double barrier_ns(std::size_t partitions, std::size_t workers) {
  constexpr std::int64_t kWindows = 20000;
  std::vector<NoopPartition> parts(partitions > 0 ? partitions : 1);
  std::vector<psim::PartitionTask*> tasks;
  for (NoopPartition& p : parts) tasks.push_back(&p);
  const Duration window = millis(1);
  psim::ParallelDriver driver(tasks, window);
  std::int64_t start = 0;
  return ns_per_op([&] {
    const TimePoint from = TimePoint::zero() + millis(start);
    start += kWindows;
    const psim::DriverStats stats = driver.run(from, TimePoint::zero() + millis(start), workers);
    return stats.barriers > 0 ? stats.barriers : stats.windows;
  });
}

}  // namespace perfbench::micro
