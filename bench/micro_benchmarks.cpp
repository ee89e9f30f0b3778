// M1: google-benchmark microbenchmarks for the building blocks on the
// replication fast path: event queue, x-kernel message header handling,
// RTPB wire encode/decode, the byte kernels every payload passes through
// (UDP checksum, WAL CRC-32, payload synthesis), admission control, and
// the preemptive CPU simulation itself.
#include <benchmark/benchmark.h>

#include "core/admission.hpp"
#include "core/wire.hpp"
#include "sched/cpu.hpp"
#include "sim/simulator.hpp"
#include "store/wal.hpp"
#include "util/rng.hpp"
#include "xkernel/message.hpp"
#include "xkernel/udplite.hpp"

namespace {

using namespace rtpb;

void BM_EventQueueScheduleAndRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule_at(TimePoint{static_cast<std::int64_t>((i * 7919) % 100000)},
                      [&sum] { ++sum; });
    }
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleAndRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_MessageHeaderPushPop(benchmark::State& state) {
  Bytes payload(64, 0xAB);
  Bytes hdr1(14, 1), hdr2(13, 2), hdr3(8, 3);
  for (auto _ : state) {
    xkernel::Message msg(payload);
    msg.push(hdr3);
    msg.push(hdr2);
    msg.push(hdr1);
    benchmark::DoNotOptimize(msg.pop(14));
    benchmark::DoNotOptimize(msg.pop(13));
    benchmark::DoNotOptimize(msg.pop(8));
    benchmark::DoNotOptimize(msg.size());
  }
}
BENCHMARK(BM_MessageHeaderPushPop);

void BM_WireEncodeDecodeUpdate(benchmark::State& state) {
  core::wire::Update u;
  u.object = 7;
  u.version = 123456;
  u.timestamp = TimePoint{987654321};
  u.value = Bytes(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    const Bytes encoded = core::wire::encode(u);
    auto decoded = core::wire::decode(encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_WireEncodeDecodeUpdate)->Arg(64)->Arg(512)->Arg(4096);

void BM_WireEncodeDecodeUpdateBatch(benchmark::State& state) {
  // Per-update cost of the coalesced frame: divide by entry count to
  // compare directly against BM_WireEncodeDecodeUpdate.
  const auto entries = static_cast<std::size_t>(state.range(0));
  core::wire::UpdateBatch batch;
  for (std::size_t i = 0; i < entries; ++i) {
    batch.entries.push_back(core::wire::UpdateBatchEntry{
        static_cast<core::ObjectId>(i + 1), 100 + i,
        TimePoint{static_cast<std::int64_t>(i) * 1000},
        Bytes(64, static_cast<std::uint8_t>(i))});
  }
  batch.epoch = 3;
  for (auto _ : state) {
    const Bytes encoded = core::wire::encode(batch);
    auto decoded = core::wire::decode(encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries));
}
BENCHMARK(BM_WireEncodeDecodeUpdateBatch)->Arg(2)->Arg(8)->Arg(32);

void BM_MessageSharedFanOut(benchmark::State& state) {
  // Encode-once fan-out: one shared body, N per-peer header pushes.
  const auto peers = static_cast<std::size_t>(state.range(0));
  const Bytes encoded = core::wire::encode(core::wire::Update{
      7, 123456, TimePoint{987654321}, false, Bytes(64, 0x5A), 3});
  const Bytes header(40, 0x11);
  for (auto _ : state) {
    Bytes once = encoded;
    const xkernel::Message frame{std::move(once)};
    std::size_t total = 0;
    for (std::size_t p = 0; p < peers; ++p) {
      xkernel::Message m = frame;
      m.push(header);
      total += m.size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(peers));
}
BENCHMARK(BM_MessageSharedFanOut)->Arg(1)->Arg(4)->Arg(8);

void BM_UdpChecksum(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0x77);
  for (auto _ : state) {
    benchmark::DoNotOptimize(xkernel::UdpLite::checksum(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_UdpChecksum)->Arg(64)->Arg(1500);

void BM_UdpChecksumGather(benchmark::State& state) {
  // The push path's two-segment sum: an odd-length header in front of the
  // body shifts every body byte to the other half of its 16-bit word.
  const Bytes header(27, 0x11);
  const Bytes body(static_cast<std::size_t>(state.range(0)), 0x77);
  for (auto _ : state) {
    benchmark::DoNotOptimize(xkernel::UdpLite::checksum(header, body));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(header.size() + body.size()));
}
BENCHMARK(BM_UdpChecksumGather)->Arg(64)->Arg(1500);

void BM_Crc32(benchmark::State& state) {
  // The WAL frame checksum, paid on every append and again on replay.
  Bytes data(static_cast<std::size_t>(state.range(0)));
  Rng(3).fill(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store::crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1500)->Arg(8192);

void BM_RngFill(benchmark::State& state) {
  // Payload synthesis: the bytes each client write carries.
  Rng rng(5);
  Bytes value(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    rng.fill(value);
    benchmark::DoNotOptimize(value.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_RngFill)->Arg(64)->Arg(1500)->Arg(8192);

void BM_AdmissionAdmit(benchmark::State& state) {
  const auto n = static_cast<core::ObjectId>(state.range(0));
  for (auto _ : state) {
    core::AdmissionController ac(core::ServiceConfig{}, millis(2));
    std::size_t admitted = 0;
    for (core::ObjectId id = 1; id <= n; ++id) {
      core::ObjectSpec s;
      s.id = id;
      s.client_period = millis(10);
      s.client_exec = micros(100);
      s.update_exec = micros(100);
      s.delta_primary = millis(20);
      s.delta_backup = millis(100);
      if (ac.admit(s).ok()) ++admitted;
    }
    benchmark::DoNotOptimize(admitted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AdmissionAdmit)->Arg(10)->Arg(50);

void BM_CpuSchedulingSecond(benchmark::State& state) {
  // Cost of simulating one virtual second with `range` periodic tasks.
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sched::Cpu cpu(sim, sched::Policy::kRateMonotonic);
    for (std::size_t i = 0; i < n; ++i) {
      sched::TaskSpec t;
      t.period = millis(5 + static_cast<std::int64_t>(i % 20));
      t.wcet = micros(100);
      cpu.add_task(t, nullptr);
    }
    cpu.start(TimePoint::zero());
    sim.run_until(TimePoint::zero() + seconds(1));
    benchmark::DoNotOptimize(cpu.jobs_completed());
  }
}
BENCHMARK(BM_CpuSchedulingSecond)->Arg(5)->Arg(20)->Arg(80);

}  // namespace
