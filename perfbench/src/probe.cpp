#include "probe.hpp"

#include <map>
#include <string>

#include "report.hpp"

namespace perfbench {

using namespace rtpb;

Counters& Counters::operator+=(const Counters& o) {
  sim_events += o.sim_events;
  trace_records += o.trace_records;
  telemetry_events += o.telemetry_events;
  updates_sent += o.updates_sent;
  update_frames += o.update_frames;
  updates_batched += o.updates_batched;
  retransmissions += o.retransmissions;
  updates_applied += o.updates_applied;
  stale_updates += o.stale_updates;
  loss_injected += o.loss_injected;
  shed += o.shed;
  jobs += o.jobs;
  deadline_misses += o.deadline_misses;
  jobs_dropped += o.jobs_dropped;
  frames_sent += o.frames_sent;
  fragments += o.fragments;
  wal_bytes += o.wal_bytes;
  resync_deltas += o.resync_deltas;
  delta_entries += o.delta_entries;
  recovery_lost += o.recovery_lost;
  return *this;
}

void for_each_server(core::RtpbService& service,
                     const std::function<void(core::ReplicaServer&)>& fn) {
  fn(service.primary());
  for (auto& b : service.backups()) fn(*b);
  if (service.standby() != nullptr) fn(*service.standby());
}

Counters count(core::RtpbService& service) {
  Counters c;
  const sim::Simulator& sim = service.simulator();
  c.sim_events = sim.fired_events();
  c.trace_records = sim.trace().recorded();
  c.telemetry_events = sim.telemetry().recorded_events();
  std::vector<net::NodeId> nodes;
  for_each_server(service, [&](core::ReplicaServer& r) {
    nodes.push_back(r.node());
    c.updates_sent += r.updates_sent();
    c.update_frames += r.update_frames_sent();
    c.updates_batched += r.updates_batched();
    c.retransmissions += r.retransmissions_served();
    c.updates_applied += r.updates_applied();
    c.stale_updates += r.stale_updates();
    c.loss_injected += r.updates_loss_injected();
    c.shed += r.updates_shed();
    c.jobs += r.cpu().jobs_completed();
    c.deadline_misses += r.cpu().deadline_misses();
    c.jobs_dropped += r.cpu().jobs_dropped();
    if (r.frag() != nullptr) c.fragments += r.frag()->fragments_sent();
    if (store::DurableStore* d = r.durable(); d != nullptr) {
      c.wal_bytes += d->wal_bytes();
    }
    c.resync_deltas += r.resync_deltas_sent();
    c.delta_entries += r.delta_entries_sent();
    c.recovery_lost += r.recovery_lost_updates();
  });
  for (net::NodeId a : nodes) {
    for (net::NodeId b : nodes) {
      if (a == b || !service.network().link_params(a, b)) continue;
      const net::LinkStats& s = service.network().stats(a, b);
      c.frames_sent += s.sent;
    }
  }
  return c;
}

void Hops::merge(const Hops& o) {
  queue_wait.insert(queue_wait.end(), o.queue_wait.begin(), o.queue_wait.end());
  transit.insert(transit.end(), o.transit.begin(), o.transit.end());
  apply.insert(apply.end(), o.apply.begin(), o.apply.end());
}

Hops hops(const core::RtpbService& service) {
  Hops h;
  const telemetry::Hub& hub = service.simulator().telemetry();
  if (!hub.enabled()) return h;
  const auto& histograms = hub.registry().histograms();
  if (auto it = histograms.find("net.link.delay_ms"); it != histograms.end()) {
    h.transit = samples_of(it->second->snapshot());
  }
  if (auto it = histograms.find("core.backup.apply_latency_ms"); it != histograms.end()) {
    h.apply = samples_of(it->second->snapshot());
  }
  // Queue wait of the two job kinds that carry an update's span: the
  // client write (write-release -> write-start) and its transmission
  // (xmit-release -> xmit-start), paired per span as trace_inspect does.
  std::map<std::pair<telemetry::SpanId, bool>, TimePoint> released;
  for (const telemetry::Event& e : hub.events()) {
    if (e.span == telemetry::kNoSpan) continue;
    const bool xmit = e.name[0] == 'x';
    if (e.name == "write-release" || e.name == "xmit-release") {
      released[{e.span, xmit}] = e.at;
    } else if (e.name == "write-start" || e.name == "xmit-start") {
      auto it = released.find({e.span, xmit});
      if (it == released.end()) continue;
      h.queue_wait.push_back((e.at - it->second).millis());
      released.erase(it);
    }
  }
  return h;
}

std::vector<std::uint64_t> versions(const core::ReplicaServer& server,
                                    const std::vector<core::ObjectId>& ids) {
  std::vector<std::uint64_t> out;
  out.reserve(ids.size());
  for (core::ObjectId id : ids) {
    const auto state = server.store().find(id);
    out.push_back(state ? state->version : 0);
  }
  return out;
}

}  // namespace perfbench
