// Read-only probes the benchmark takes of a finished RtpbService through
// its public accessors: exact per-layer work counts, and (when the
// program's telemetry was on) the per-hop virtual-time samples.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/service.hpp"

namespace perfbench {

/// Exact work counts, summed over every replica and link of a service.
struct Counters {
  std::uint64_t sim_events = 0;
  std::uint64_t trace_records = 0;
  std::uint64_t telemetry_events = 0;
  std::uint64_t updates_sent = 0;  ///< per-object updates put on the wire by primaries
  std::uint64_t update_frames = 0;
  std::uint64_t updates_batched = 0;  ///< updates that left in kUpdateBatch entries
  std::uint64_t retransmissions = 0;  ///< single-update frames (retransmissions)
  std::uint64_t updates_applied = 0;
  std::uint64_t stale_updates = 0;
  std::uint64_t loss_injected = 0;
  std::uint64_t shed = 0;
  std::uint64_t jobs = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t jobs_dropped = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t fragments = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t resync_deltas = 0;
  std::uint64_t delta_entries = 0;
  std::uint64_t recovery_lost = 0;

  Counters& operator+=(const Counters& o);
  bool operator==(const Counters& o) const = default;
};

/// Visit primary, backups and standby (for_each_replica order) mutably.
void for_each_server(rtpb::core::RtpbService& service,
                     const std::function<void(rtpb::core::ReplicaServer&)>& fn);

[[nodiscard]] Counters count(rtpb::core::RtpbService& service);

/// Per-hop virtual-time samples (ms) from the telemetry hub.
struct Hops {
  std::vector<double> queue_wait;  ///< job release -> start, client writes and update sends
  std::vector<double> transit;     ///< frame enqueue -> delivery on a link
  std::vector<double> apply;       ///< primary write -> backup apply
  void merge(const Hops& o);
};

/// Empty unless the service's telemetry hub was enabled.
[[nodiscard]] Hops hops(const rtpb::core::RtpbService& service);

/// Versions of `ids` held by `server` (0 for an object it lacks).
[[nodiscard]] std::vector<std::uint64_t> versions(const rtpb::core::ReplicaServer& server,
                                                  const std::vector<rtpb::core::ObjectId>& ids);

}  // namespace perfbench
