#include "store/wal.hpp"

#include <array>

namespace rtpb::store {
namespace {

// ---- record body codecs -----------------------------------------------
//
// Same discipline as the wire codec: exact little helpers per struct,
// big-endian integers via ByteWriter/ByteReader, and decoders that
// validate `ok() && at_end()` so trailing garbage is malformation, not
// slack.

void put_spec(ByteWriter& w, const core::ObjectSpec& spec) {
  w.u32(spec.id);
  w.string(spec.name);
  w.u32(spec.size_bytes);
  w.duration(spec.client_period);
  w.duration(spec.client_exec);
  w.duration(spec.update_exec);
  w.duration(spec.delta_primary);
  w.duration(spec.delta_backup);
}

core::ObjectSpec get_spec(ByteReader& r) {
  core::ObjectSpec spec;
  spec.id = r.u32();
  spec.name = r.string();
  spec.size_bytes = r.u32();
  spec.client_period = r.duration();
  spec.client_exec = r.duration();
  spec.update_exec = r.duration();
  spec.delta_primary = r.duration();
  spec.delta_backup = r.duration();
  return spec;
}

// Minimum encoded sizes, used to reject absurd counts before allocating.
constexpr std::size_t kMinSpec = 4 + 4 + 4 + 5 * 8;          // empty name
constexpr std::size_t kMinState = kMinSpec + 4 + 8 + 8 + 8;  // empty value

// Slicing-by-8 tables for the reflected IEEE CRC-32 (poly 0xEDB88320):
// t[0] is the bytewise table, and t[k][i] is the CRC of byte i followed
// by k zero bytes, so one step folds 8 input bytes.  Built at compile time.
constexpr auto kCrcTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}();

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const auto& t = kCrcTables;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ (std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
                                    (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24));
    const std::uint32_t hi = std::uint32_t{p[4]} | (std::uint32_t{p[5]} << 8) |
                             (std::uint32_t{p[6]} << 16) | (std::uint32_t{p[7]} << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

Bytes encode(const InsertRecord& r) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RecordKind::kInsert));
  put_spec(w, r.spec);
  return std::move(w).take();
}

Bytes encode(const WriteRecord& r) {
  ByteWriter w(1 + 4 + 8 + 8 + 8 + 4 + r.value.size());
  w.u8(static_cast<std::uint8_t>(RecordKind::kWrite));
  w.u32(r.object);
  w.u64(r.version);
  w.timepoint(r.timestamp);
  w.timepoint(r.origin_timestamp);
  w.bytes(r.value);
  return std::move(w).take();
}

Bytes encode(const MetaRecord& r) {
  ByteWriter w(1 + 8 + 8);
  w.u8(static_cast<std::uint8_t>(RecordKind::kMeta));
  w.u64(r.epoch);
  w.u64(r.next_transfer_id);
  return std::move(w).take();
}

Bytes encode(const CheckpointRecord& r) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RecordKind::kCheckpoint));
  w.u64(r.epoch);
  w.u64(r.next_transfer_id);
  w.u32(static_cast<std::uint32_t>(r.states.size()));
  for (const core::ObjectState& s : r.states) {
    put_spec(w, s.spec);
    w.bytes(s.value);
    w.u64(s.version);
    w.timepoint(s.timestamp);
    w.timepoint(s.origin_timestamp);
  }
  return std::move(w).take();
}

std::optional<AnyRecord> decode_record(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  AnyRecord out;
  const std::uint8_t kind = r.u8();
  switch (kind) {
    case static_cast<std::uint8_t>(RecordKind::kInsert): {
      out.kind = RecordKind::kInsert;
      InsertRecord rec;
      rec.spec = get_spec(r);
      out.insert = std::move(rec);
      break;
    }
    case static_cast<std::uint8_t>(RecordKind::kWrite): {
      out.kind = RecordKind::kWrite;
      WriteRecord rec;
      rec.object = r.u32();
      rec.version = r.u64();
      rec.timestamp = r.timepoint();
      rec.origin_timestamp = r.timepoint();
      rec.value = r.bytes();
      out.write = std::move(rec);
      break;
    }
    case static_cast<std::uint8_t>(RecordKind::kMeta): {
      out.kind = RecordKind::kMeta;
      MetaRecord rec;
      rec.epoch = r.u64();
      rec.next_transfer_id = r.u64();
      out.meta = rec;
      break;
    }
    case static_cast<std::uint8_t>(RecordKind::kCheckpoint): {
      out.kind = RecordKind::kCheckpoint;
      CheckpointRecord rec;
      rec.epoch = r.u64();
      rec.next_transfer_id = r.u64();
      const std::uint32_t n = r.u32();
      // Adversarial count guard: a forged count must not drive a huge
      // reserve — every state needs at least kMinState bytes.
      if (static_cast<std::uint64_t>(n) * kMinState > r.remaining()) return std::nullopt;
      rec.states.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        core::ObjectState s;
        s.spec = get_spec(r);
        s.value = r.bytes();
        s.version = r.u64();
        s.timestamp = r.timepoint();
        s.origin_timestamp = r.timepoint();
        rec.states.push_back(std::move(s));
      }
      out.checkpoint = std::move(rec);
      break;
    }
    default:
      return std::nullopt;
  }
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return out;
}

Bytes frame_record(std::span<const std::uint8_t> payload) {
  ByteWriter w(4 + 4 + payload.size());
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(crc32(payload));
  w.raw(payload);
  return std::move(w).take();
}

ReplayStats replay(std::span<const std::uint8_t> log,
                   const std::function<void(std::span<const std::uint8_t>)>& fn) {
  ReplayStats stats;
  std::size_t pos = 0;
  while (pos < log.size()) {
    if (log.size() - pos < 8) break;  // torn frame header
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    for (int i = 0; i < 4; ++i) len = (len << 8) | log[pos + static_cast<std::size_t>(i)];
    for (int i = 4; i < 8; ++i) crc = (crc << 8) | log[pos + static_cast<std::size_t>(i)];
    if (log.size() - pos - 8 < len) break;  // torn payload
    const auto payload = log.subspan(pos + 8, len);
    if (crc32(payload) != crc) break;  // bit-rot or a torn rewrite
    fn(payload);
    ++stats.records;
    pos += 8 + len;
  }
  stats.torn_bytes = log.size() - pos;
  stats.clean = stats.torn_bytes == 0;
  return stats;
}

}  // namespace rtpb::store
