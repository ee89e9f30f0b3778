// Durability subsystem tests: CRC framing, prefix-durable replay,
// ALICE-style crash-point injection on the simulated device, and
// checkpoint + WAL-tail recovery through DurableStore.
#include "store/durable_store.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "store/device.hpp"
#include "store/wal.hpp"
#include "util/rng.hpp"

namespace rtpb::store {
namespace {

core::ObjectSpec make_spec(core::ObjectId id) {
  core::ObjectSpec s;
  s.id = id;
  s.name = "obj" + std::to_string(id);
  s.size_bytes = 64;
  s.client_period = millis(10);
  s.client_exec = micros(200);
  s.update_exec = micros(200);
  s.delta_primary = millis(20);
  s.delta_backup = millis(100);
  return s;
}

Bytes value_of(std::uint8_t fill, std::size_t n = 8) { return Bytes(n, fill); }

TEST(Crc32, KnownVector) {
  // The canonical IEEE CRC-32 check value: crc32("123456789").
  const char* s = "123456789";
  std::vector<std::uint8_t> data(s, s + std::strlen(s));
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32({}), 0u); }

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Slicing-by-8 must equal the bytewise definition for every tail length
  // and every start offset.  The reference runs incrementally: its state
  // after byte i is the CRC of the first i+1 bytes.
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  Bytes buf(4096 + 8);
  Rng(0xC3C).fill(buf);
  const std::span<const std::uint8_t> all(buf);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    std::uint32_t ref = 0xFFFFFFFFu;
    EXPECT_EQ(crc32(all.subspan(offset, 0)), 0u);
    for (std::size_t len = 1; len <= 4096; ++len) {
      ref = table[(ref ^ buf[offset + len - 1]) & 0xFFu] ^ (ref >> 8);
      ASSERT_EQ(crc32(all.subspan(offset, len)), ref ^ 0xFFFFFFFFu)
          << "offset=" << offset << " len=" << len;
    }
  }
}

TEST(WalCodec, InsertRoundTrip) {
  const core::ObjectSpec spec = make_spec(7);
  const Bytes payload = encode(InsertRecord{spec});
  const auto rec = decode_record(payload);
  ASSERT_TRUE(rec.has_value());
  ASSERT_EQ(rec->kind, RecordKind::kInsert);
  EXPECT_EQ(rec->insert->spec.id, spec.id);
  EXPECT_EQ(rec->insert->spec.name, spec.name);
  EXPECT_EQ(rec->insert->spec.delta_backup, spec.delta_backup);
}

TEST(WalCodec, WriteRoundTrip) {
  WriteRecord w;
  w.object = 3;
  w.version = 41;
  w.timestamp = TimePoint{1234567};
  w.origin_timestamp = TimePoint{1234000};
  w.value = value_of(0xAB);
  const auto rec = decode_record(encode(w));
  ASSERT_TRUE(rec.has_value());
  ASSERT_EQ(rec->kind, RecordKind::kWrite);
  EXPECT_EQ(rec->write->object, 3u);
  EXPECT_EQ(rec->write->version, 41u);
  EXPECT_EQ(rec->write->timestamp, TimePoint{1234567});
  EXPECT_EQ(rec->write->origin_timestamp, TimePoint{1234000});
  EXPECT_EQ(rec->write->value, value_of(0xAB));
}

TEST(WalCodec, MetaAndCheckpointRoundTrip) {
  const auto meta = decode_record(encode(MetaRecord{9, 17}));
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->meta->epoch, 9u);
  EXPECT_EQ(meta->meta->next_transfer_id, 17u);

  CheckpointRecord ckpt;
  ckpt.epoch = 4;
  ckpt.next_transfer_id = 12;
  core::ObjectState st;
  st.spec = make_spec(2);
  st.value = value_of(0x55);
  st.version = 99;
  st.timestamp = TimePoint{777};
  st.origin_timestamp = TimePoint{700};
  ckpt.states.push_back(st);
  const auto rec = decode_record(encode(ckpt));
  ASSERT_TRUE(rec.has_value());
  ASSERT_EQ(rec->kind, RecordKind::kCheckpoint);
  ASSERT_EQ(rec->checkpoint->states.size(), 1u);
  EXPECT_EQ(rec->checkpoint->states[0].version, 99u);
  EXPECT_EQ(rec->checkpoint->states[0].spec.id, 2u);
  EXPECT_EQ(rec->checkpoint->epoch, 4u);
}

TEST(WalCodec, TruncatedPayloadRejected) {
  Bytes payload = encode(MetaRecord{1, 2});
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    Bytes prefix(payload.begin(), payload.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_record(prefix).has_value()) << "cut=" << cut;
  }
}

TEST(WalReplay, RoundTripAndPrefixStop) {
  Bytes log;
  const Bytes a = frame_record(encode(MetaRecord{1, 1}));
  const Bytes b = frame_record(encode(WriteRecord{1, 5, TimePoint{10}, TimePoint{9}, value_of(1)}));
  log.insert(log.end(), a.begin(), a.end());
  log.insert(log.end(), b.begin(), b.end());

  std::size_t seen = 0;
  ReplayStats stats = replay(log, [&](auto payload) {
    ++seen;
    EXPECT_TRUE(decode_record(payload).has_value());
  });
  EXPECT_EQ(seen, 2u);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_TRUE(stats.clean);
  EXPECT_EQ(stats.torn_bytes, 0u);

  // A cut exactly at the record boundary is a clean (shorter) log, not a
  // torn one.
  {
    Bytes boundary(log.begin(), log.begin() + static_cast<std::ptrdiff_t>(a.size()));
    ReplayStats s = replay(boundary, [](auto) {});
    EXPECT_EQ(s.records, 1u);
    EXPECT_TRUE(s.clean);
  }

  // Every proper prefix inside record B replays exactly record A, flags a
  // torn tail, and never delivers the partial record.
  for (std::size_t cut = a.size() + 1; cut < log.size(); ++cut) {
    Bytes torn(log.begin(), log.begin() + static_cast<std::ptrdiff_t>(cut));
    std::size_t n = 0;
    ReplayStats s = replay(torn, [&](auto) { ++n; });
    EXPECT_EQ(n, 1u) << "cut=" << cut;
    EXPECT_FALSE(s.clean);
    EXPECT_EQ(s.torn_bytes, cut - a.size());
  }
}

TEST(WalReplay, BitRotStopsAtCorruptRecord) {
  Bytes log;
  for (int i = 1; i <= 3; ++i) {
    const Bytes f = frame_record(
        encode(WriteRecord{1, static_cast<std::uint64_t>(i), TimePoint{}, TimePoint{},
                           value_of(static_cast<std::uint8_t>(i))}));
    log.insert(log.end(), f.begin(), f.end());
  }
  const std::size_t frame_len = log.size() / 3;
  // Rot a byte inside the SECOND record's payload: replay keeps record 1,
  // cuts 2 and (transitively) 3 — a mid-log corruption never lets later
  // records "resurrect" out of order.
  Bytes rotten = log;
  rotten[frame_len + 10] ^= 0x40;
  std::size_t n = 0;
  ReplayStats s = replay(rotten, [&](auto) { ++n; });
  EXPECT_EQ(n, 1u);
  EXPECT_FALSE(s.clean);
  EXPECT_EQ(s.torn_bytes, rotten.size() - frame_len);
}

TEST(SimStorageDevice, CrashBudgetLeavesTornPrefix) {
  SimStorageDevice dev;
  ASSERT_TRUE(dev.append(value_of(0x01, 16)));
  EXPECT_EQ(dev.size(), 16u);

  dev.arm_crash_after(4);
  EXPECT_FALSE(dev.append(value_of(0x02, 16)));  // torn: only 4 bytes land
  EXPECT_TRUE(dev.failed());
  EXPECT_EQ(dev.size(), 20u);
  EXPECT_EQ(dev.torn_appends(), 1u);
  EXPECT_FALSE(dev.append(value_of(0x03, 1)));  // dead until power-cycled

  dev.clear_failure();
  EXPECT_FALSE(dev.failed());
  EXPECT_TRUE(dev.append(value_of(0x04, 2)));
  EXPECT_EQ(dev.size(), 22u);
}

TEST(SimStorageDevice, TearTailAndCorrupt) {
  SimStorageDevice dev;
  ASSERT_TRUE(dev.append(value_of(0xFF, 10)));
  dev.tear_tail(4);
  EXPECT_EQ(dev.size(), 6u);
  dev.corrupt_byte(0);
  EXPECT_EQ(dev.contents()[0], 0xFF ^ 0x40);
  dev.corrupt_byte(1000);  // out of range: ignored
  EXPECT_EQ(dev.size(), 6u);
}

TEST(DurableStore, RecoverReplaysWalOntoCheckpoint) {
  SimStorageDevice wal;
  SimStorageDevice ckpt;
  DurableStore ds(wal, ckpt, /*checkpoint_every=*/1000);

  ASSERT_TRUE(ds.log_insert(make_spec(1)));
  ASSERT_TRUE(ds.log_insert(make_spec(2)));
  ASSERT_TRUE(ds.log_write(1, 1, TimePoint{10}, TimePoint{9}, value_of(0x11)));
  ASSERT_TRUE(ds.log_write(2, 1, TimePoint{11}, TimePoint{10}, value_of(0x22)));
  ASSERT_TRUE(ds.log_write(1, 2, TimePoint{20}, TimePoint{19}, value_of(0x12)));
  ASSERT_TRUE(ds.log_meta(3, 7));

  RecoveryResult rec = ds.recover();
  EXPECT_EQ(rec.epoch, 3u);
  EXPECT_EQ(rec.next_transfer_id, 7u);
  EXPECT_TRUE(!rec.wal_torn && !rec.checkpoint_torn);
  ASSERT_EQ(rec.states.size(), 2u);
  EXPECT_EQ(rec.states[0].spec.id, 1u);
  EXPECT_EQ(rec.states[0].version, 2u);
  EXPECT_EQ(rec.states[0].value, value_of(0x12));
  EXPECT_EQ(rec.states[0].timestamp, TimePoint{20});
  EXPECT_EQ(rec.states[1].version, 1u);
}

TEST(DurableStore, CheckpointTruncatesWalAndWins) {
  SimStorageDevice wal;
  SimStorageDevice ckpt;
  DurableStore ds(wal, ckpt, 1000);

  ASSERT_TRUE(ds.log_insert(make_spec(1)));
  ASSERT_TRUE(ds.log_write(1, 5, TimePoint{50}, TimePoint{49}, value_of(0x05)));

  core::ObjectState st;
  st.spec = make_spec(1);
  st.value = value_of(0x05);
  st.version = 5;
  st.timestamp = TimePoint{50};
  st.origin_timestamp = TimePoint{49};
  ASSERT_TRUE(ds.checkpoint({st}, /*epoch=*/2, /*next_transfer_id=*/4));
  EXPECT_EQ(wal.size(), 0u);  // subsumed log dropped

  // Fresh writes land on the (now empty) WAL and stack on the checkpoint.
  ASSERT_TRUE(ds.log_write(1, 6, TimePoint{60}, TimePoint{59}, value_of(0x06)));
  RecoveryResult rec = ds.recover();
  ASSERT_EQ(rec.states.size(), 1u);
  EXPECT_EQ(rec.states[0].version, 6u);
  EXPECT_EQ(rec.epoch, 2u);
  EXPECT_EQ(rec.next_transfer_id, 4u);

  // A second checkpoint supersedes the first (last-valid-wins), even
  // though both frames sit on the append-only checkpoint device.
  st.version = 6;
  st.value = value_of(0x06);
  ASSERT_TRUE(ds.checkpoint({st}, 2, 9));
  rec = ds.recover();
  EXPECT_EQ(rec.states[0].version, 6u);
  EXPECT_EQ(rec.next_transfer_id, 9u);
  EXPECT_EQ(rec.checkpoint_records, 2u);
}

TEST(DurableStore, StaleWalRecordsAfterCheckpointAreIdempotent) {
  // Crash window: checkpoint appended but the WAL truncate never ran.
  // Replay re-applies records the checkpoint already holds — the version
  // gate must make that a no-op.
  SimStorageDevice wal;
  SimStorageDevice ckpt;
  DurableStore ds(wal, ckpt, 1000);
  ASSERT_TRUE(ds.log_insert(make_spec(1)));
  ASSERT_TRUE(ds.log_write(1, 3, TimePoint{30}, TimePoint{29}, value_of(0x03)));

  core::ObjectState st;
  st.spec = make_spec(1);
  st.value = value_of(0x04);
  st.version = 4;  // checkpoint is AHEAD of the surviving WAL records
  ASSERT_TRUE(ckpt.append(frame_record(encode(CheckpointRecord{1, 1, {st}}))));

  RecoveryResult rec = ds.recover();
  ASSERT_EQ(rec.states.size(), 1u);
  EXPECT_EQ(rec.states[0].version, 4u);
  EXPECT_EQ(rec.states[0].value, value_of(0x04));
}

TEST(DurableStore, CrashPointSweepNeverLosesDurablePrefix) {
  // ALICE-style sweep: build a reference WAL, then recover from every
  // possible torn prefix.  Versions must grow monotonically with the cut
  // point, and a record that was fully framed at cut X must survive at
  // every cut ≥ X.
  SimStorageDevice wal;
  SimStorageDevice ckpt;
  DurableStore ds(wal, ckpt, 1000);
  ASSERT_TRUE(ds.log_insert(make_spec(1)));
  for (std::uint64_t v = 1; v <= 6; ++v) {
    ASSERT_TRUE(ds.log_write(1, v, TimePoint{static_cast<std::int64_t>(v * 10)},
                             TimePoint{static_cast<std::int64_t>(v * 10 - 1)},
                             value_of(static_cast<std::uint8_t>(v))));
  }
  const Bytes full(wal.contents().begin(), wal.contents().end());

  std::uint64_t prev_version = 0;
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    SimStorageDevice wal2;
    SimStorageDevice ckpt2;
    if (cut > 0) {
      ASSERT_TRUE(wal2.append(std::span<const std::uint8_t>(full.data(), cut)));
    }
    DurableStore ds2(wal2, ckpt2, 1000);
    RecoveryResult rec = ds2.recover();
    std::uint64_t version = 0;
    if (!rec.states.empty()) version = rec.states[0].version;
    EXPECT_GE(version, prev_version) << "recovery went backwards at cut " << cut;
    prev_version = version;
    if (cut < full.size()) {
      EXPECT_FALSE(rec.wal_torn && rec.states.empty() && cut == 0);
    }
    if (!rec.states.empty() && version > 0) {
      // The recovered value matches the recovered version exactly.
      EXPECT_EQ(rec.states[0].value, value_of(static_cast<std::uint8_t>(version)));
    }
  }
  EXPECT_EQ(prev_version, 6u);  // the untorn log recovers everything
}

TEST(DurableStore, ArmedCrashFailsAppendAndRecoversPrefix) {
  SimStorageDevice wal;
  SimStorageDevice ckpt;
  DurableStore ds(wal, ckpt, 1000);
  ASSERT_TRUE(ds.log_insert(make_spec(1)));
  ASSERT_TRUE(ds.log_write(1, 1, TimePoint{10}, TimePoint{9}, value_of(0x01)));

  wal.arm_crash_after(5);  // the next record tears after 5 bytes
  EXPECT_FALSE(ds.log_write(1, 2, TimePoint{20}, TimePoint{19}, value_of(0x02)));
  EXPECT_TRUE(wal.failed());

  wal.clear_failure();  // power-cycle
  RecoveryResult rec = ds.recover();
  EXPECT_TRUE(rec.wal_torn);
  ASSERT_EQ(rec.states.size(), 1u);
  EXPECT_EQ(rec.states[0].version, 1u);  // v2 was never acked; v1 survives
}

}  // namespace
}  // namespace rtpb::store
