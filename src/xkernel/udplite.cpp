#include "xkernel/udplite.hpp"

#include "util/bytebuffer.hpp"
#include "util/log.hpp"

namespace rtpb::xkernel {

void UdpLite::bind(net::Port port, Handler handler) {
  RTPB_EXPECTS(handler != nullptr);
  RTPB_EXPECTS(!bindings_.contains(port));
  bindings_[port] = std::move(handler);
}

void UdpLite::unbind(net::Port port) { bindings_.erase(port); }

namespace {

// Ones'-complement sum of `data` read as big-endian 16-bit words (an odd
// last byte is the high half of a zero-padded word), folded to 16 bits.
// Big-endian 32-bit words are summed instead, since 2^16 = 1 (mod 0xFFFF),
// and the one fold at the end keeps what a fold per word gives: 0 only for
// an all-zero input, else the same residue in [1, 0xFFFF].
std::uint32_t folded_sum(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t sum = 0;
  for (; n >= 4; p += 4, n -= 4) {
    sum += (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
           (std::uint32_t{p[2]} << 8) | p[3];
  }
  if (n >= 2) sum += (std::uint32_t{p[0]} << 8) | p[1];
  if (n % 2 != 0) sum += std::uint32_t{p[n - 1]} << 8;
  while (sum >> 16 != 0) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint32_t>(sum);
}

}  // namespace

std::uint16_t UdpLite::checksum(std::span<const std::uint8_t> data) {
  return checksum(data, {});
}

std::uint16_t UdpLite::checksum(std::span<const std::uint8_t> a,
                                std::span<const std::uint8_t> b) {
  // Ones'-complement sum over the virtual concatenation a‖b, identical
  // bit-for-bit to summing a gathered copy.  An odd-length `a` moves each
  // byte of `b` to the other half of its word; the sum is byte-order
  // independent (RFC 1071 §2), so that is `b`'s sum byte-swapped.
  std::uint32_t sum_b = folded_sum(b);
  if (a.size() % 2 != 0) sum_b = ((sum_b & 0xFF) << 8) | (sum_b >> 8);
  std::uint32_t sum = folded_sum(a) + sum_b;
  sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xFFFF);
}

void UdpLite::push(Message& msg, const MsgAttrs& attrs) {
  RTPB_EXPECTS(down() != nullptr);
  if (tele_enabled()) {
    tele_hub()->registry().counter("xkernel.udplite.pushes").add();
    tele_record("udp-push", "port " + std::to_string(attrs.src.port) + "->" +
                                std::to_string(attrs.dst.port));
  }
  const std::uint16_t csum = checksum(msg.header_segment(), msg.body_segment());
  ByteWriter w(kHeaderSize);
  w.u16(attrs.src.port);
  w.u16(attrs.dst.port);
  w.u16(static_cast<std::uint16_t>(msg.size()));
  w.u16(csum);
  msg.push(w.data());
  down()->push(msg, attrs);
}

namespace {
class UdpSession final : public Session {
 public:
  UdpSession(UdpLite& udp, net::Endpoint local, net::Endpoint remote)
      : Session(local, remote), udp_(udp) {
    attrs_.src = local;
    attrs_.dst = remote;
  }
  void push(Message& msg) override { udp_.push(msg, attrs_); }

 private:
  UdpLite& udp_;
  MsgAttrs attrs_;
};
}  // namespace

std::unique_ptr<Session> UdpLite::open(net::Endpoint local, net::Endpoint remote) {
  RTPB_EXPECTS(remote.node != net::kInvalidNode);
  return std::make_unique<UdpSession>(*this, local, remote);
}

void UdpLite::demux(Message& msg, MsgAttrs& attrs) {
  if (msg.size() < kHeaderSize) {
    ++checksum_failures_;
    if (tele_enabled()) {
      tele_hub()->registry().counter("xkernel.udplite.checksum_failures").add();
      tele_record("udp-drop", "runt");
    }
    return;
  }
  ByteReader r(msg.pop(kHeaderSize));
  const std::uint16_t src_port = r.u16();
  const std::uint16_t dst_port = r.u16();
  const std::uint16_t length = r.u16();
  const std::uint16_t csum = r.u16();
  if (!r.ok() || length != msg.size() || checksum(msg.contents()) != csum) {
    ++checksum_failures_;
    RTPB_WARN("udplite", "checksum/length failure on datagram to port %u", dst_port);
    if (tele_enabled()) {
      tele_hub()->registry().counter("xkernel.udplite.checksum_failures").add();
      tele_record("udp-drop", "checksum port " + std::to_string(dst_port));
    }
    return;
  }
  attrs.src.port = src_port;
  attrs.dst.port = dst_port;
  auto it = bindings_.find(dst_port);
  if (it == bindings_.end()) {
    ++no_listener_;
    RTPB_DEBUG("udplite", "no listener on port %u; dropped", dst_port);
    if (tele_enabled()) {
      tele_hub()->registry().counter("xkernel.udplite.no_listener").add();
      tele_record("udp-drop", "no listener port " + std::to_string(dst_port));
    }
    return;
  }
  if (tele_enabled()) {
    tele_hub()->registry().counter("xkernel.udplite.demuxes").add();
    tele_record("udp-demux", "port " + std::to_string(dst_port));
  }
  it->second(msg, attrs);
}

}  // namespace rtpb::xkernel
