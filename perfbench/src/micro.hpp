// Micro kernels of the traced run: host cost of one call into a layer's
// public functions, on inputs shaped like the workload being traced.  Each
// returns the median over a few repetitions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench::micro {

/// sim: schedule_at + fire, with `queue_depth` other events pending.
[[nodiscard]] double sim_ns_per_event(std::size_t queue_depth);
/// sim: TraceRecorder::record with the labels the service records.
[[nodiscard]] double trace_ns_per_record();
/// util: one Rng draw per payload byte, as the client's sensing does.
[[nodiscard]] double rng_ns_per_payload_byte(std::size_t payload_bytes);
/// sched: one periodic job through the CPU model, `tasks` tasks loaded.
[[nodiscard]] double sched_ns_per_job(std::size_t tasks);
/// net: one frame of `bytes` sent and delivered over a simulated link.
[[nodiscard]] double net_ns_per_frame(std::size_t bytes);

struct SendCost {
  double ns = 0.0;
  double allocations = 0.0;  ///< per send; 0 when the alloc hook is not linked
};
/// xkernel: one message pushed through FRAGLITE/UDPLITE/IPLITE/SIMETH,
/// carried by the link and reassembled at the receiver.
[[nodiscard]] SendCost xkernel_send(std::size_t bytes);
/// core: kUpdateBatch encode + decode of `entries` values of `value_bytes`.
[[nodiscard]] double wire_ns_per_batch(std::size_t entries, std::size_t value_bytes);
/// store: one WAL write record of `value_bytes`.
[[nodiscard]] double store_ns_per_wal_append(std::size_t value_bytes);
/// store: recovering an image of `objects` objects of `value_bytes` each
/// whose WAL + checkpoint total about `image_bytes`.
[[nodiscard]] double store_recover_us(std::size_t objects, std::size_t value_bytes,
                                      double image_bytes);
/// telemetry: a counter increment as the instrumented code writes it
/// (guarded registry lookup by name), hub on or off.
[[nodiscard]] double counter_add_ns(bool hub_on);
/// telemetry: host time of chaos seeds with the observability plane on
/// divided by off.
[[nodiscard]] double telemetry_overhead_x();
/// shard: FrontierTracker::advance + frontier() over `objects` objects.
[[nodiscard]] double frontier_advance_ns(std::size_t objects);
/// psim: one barrier episode of the driver over `partitions` no-op
/// partitions on `workers` workers.
[[nodiscard]] double barrier_ns(std::size_t partitions, std::size_t workers);

}  // namespace perfbench::micro
