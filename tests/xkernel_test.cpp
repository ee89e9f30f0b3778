#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "xkernel/graph.hpp"
#include "xkernel/message.hpp"
#include "xkernel/udplite.hpp"

namespace rtpb::xkernel {
namespace {

TEST(Message, PushPopRoundTrip) {
  Bytes payload{10, 20, 30};
  Message m(payload);
  Bytes hdr{1, 2};
  m.push(hdr);
  EXPECT_EQ(m.size(), 5u);
  auto popped = m.pop(2);
  EXPECT_EQ(Bytes(popped.begin(), popped.end()), hdr);
  EXPECT_EQ(m.to_bytes(), payload);
}

TEST(Message, NestedHeadersStripInReverseOrder) {
  Message m(Bytes{99});
  m.push(Bytes{3});      // inner
  m.push(Bytes{2});      // middle
  m.push(Bytes{1});      // outer
  EXPECT_EQ(m.pop(1)[0], 1);
  EXPECT_EQ(m.pop(1)[0], 2);
  EXPECT_EQ(m.pop(1)[0], 3);
  EXPECT_EQ(m.to_bytes(), Bytes{99});
}

TEST(Message, HeadroomGrowsWhenExceeded) {
  Message m(Bytes{7}, 2);  // tiny headroom
  Bytes big(100, 0xEE);
  m.push(big);             // forces reallocation
  EXPECT_EQ(m.size(), 101u);
  auto hdr = m.pop(100);
  EXPECT_EQ(Bytes(hdr.begin(), hdr.end()), big);
  EXPECT_EQ(m.to_bytes(), Bytes{7});
}

TEST(Message, FromWireHasNoHeadroomButPops) {
  Bytes wire{1, 2, 3, 4};
  Message m = Message::from_wire(wire);
  EXPECT_EQ(m.size(), 4u);
  (void)m.pop(2);
  EXPECT_EQ(m.to_bytes(), (Bytes{3, 4}));
}

// ---------------------------------------------------------------------------
// Shared-payload semantics: copies and from_shared views must share one
// underlying buffer (the encode-once fan-out contract).
// ---------------------------------------------------------------------------

TEST(Message, CopiesShareThePayloadBuffer) {
  auto body = std::make_shared<const Bytes>(Bytes(256, 0x5A));
  Message a = Message::from_shared(body, 0, body->size());
  Message b = a;
  Message c = a;
  // Original + view in a + b + c — and zero new payload allocations.
  EXPECT_EQ(body.use_count(), 4);
  EXPECT_EQ(b.to_bytes(), *body);
  EXPECT_EQ(c.to_bytes(), *body);
}

TEST(Message, PushOnCopyLeavesSiblingsUntouched) {
  Message original{Bytes{1, 2, 3, 4}};
  Message copy = original;
  copy.push(Bytes{0xAA, 0xBB});
  EXPECT_EQ(copy.size(), 6u);
  EXPECT_EQ(original.size(), 4u);
  EXPECT_EQ(original.to_bytes(), (Bytes{1, 2, 3, 4}));
  EXPECT_EQ(copy.to_bytes(), (Bytes{0xAA, 0xBB, 1, 2, 3, 4}));
}

TEST(Message, FromSharedViewsSliceWithoutCopying) {
  auto body = std::make_shared<const Bytes>(Bytes{0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  Message mid = Message::from_shared(body, 3, 4);
  EXPECT_EQ(mid.size(), 4u);
  EXPECT_EQ(mid.to_bytes(), (Bytes{3, 4, 5, 6}));
  // Pops advance the view in place; no reallocation of the shared buffer.
  (void)mid.pop(2);
  EXPECT_EQ(mid.to_bytes(), (Bytes{5, 6}));
  EXPECT_EQ(body.use_count(), 2);
}

TEST(Message, SharedContentsIsZeroCopyWithoutHeaders) {
  auto body = std::make_shared<const Bytes>(Bytes(64, 0x11));
  Message m = Message::from_shared(body, 8, 32);
  const Message::SharedView v = m.shared_contents();
  EXPECT_EQ(v.buf.get(), body.get());  // same buffer, not a copy
  EXPECT_EQ(v.offset, 8u);
  EXPECT_EQ(v.length, 32u);
}

TEST(Message, SharedContentsLinearisesWhenHeadersPresent) {
  Message m{Bytes{9, 9, 9}};
  m.push(Bytes{1, 2});
  const Message::SharedView v = m.shared_contents();
  ASSERT_NE(v.buf, nullptr);
  const auto s = v.span();
  EXPECT_EQ(Bytes(s.begin(), s.end()), (Bytes{1, 2, 9, 9, 9}));
  // After linearising, the message itself still pops correctly.
  EXPECT_EQ(m.pop(2).size(), 2u);
  EXPECT_EQ(m.to_bytes(), (Bytes{9, 9, 9}));
}

TEST(Message, PopStraddlingHeaderAndBody) {
  Message m{Bytes{5, 6, 7}};
  m.push(Bytes{1, 2});
  const auto popped = m.pop(4);  // 2 header + 2 body bytes
  EXPECT_EQ(Bytes(popped.begin(), popped.end()), (Bytes{1, 2, 5, 6}));
  EXPECT_EQ(m.to_bytes(), Bytes{7});
}

TEST(Message, HeaderAndBodySegmentsGatherToContents) {
  Message m{Bytes{3, 4}};
  m.push(Bytes{1, 2});
  const auto h = m.header_segment();
  const auto b = m.body_segment();
  EXPECT_EQ(Bytes(h.begin(), h.end()), (Bytes{1, 2}));
  EXPECT_EQ(Bytes(b.begin(), b.end()), (Bytes{3, 4}));
}

TEST(UdpChecksum, DetectsCorruption) {
  Bytes data{1, 2, 3, 4, 5};
  const auto good = UdpLite::checksum(data);
  data[2] ^= 0xFF;
  EXPECT_NE(UdpLite::checksum(data), good);
}

TEST(UdpChecksum, OddLengthHandled) {
  Bytes data{1, 2, 3};
  EXPECT_EQ(UdpLite::checksum(data), UdpLite::checksum(data));
}

TEST(UdpChecksum, TwoSegmentGatherMatchesFlat) {
  // The push path checksums (header, body) without linearising; the sum
  // must equal the flat checksum for every split point, including splits
  // that break a 16-bit word across the segments.
  Bytes data(37, 0);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 13 + 5);
  const auto flat = UdpLite::checksum(data);
  const std::span<const std::uint8_t> all(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    EXPECT_EQ(UdpLite::checksum(all.subspan(0, split), all.subspan(split)), flat)
        << "split=" << split;
  }
}

// The bytewise definition the word-wide kernel must reproduce bit for bit:
// big-endian 16-bit words over the gathered a‖b, folded after every word.
std::uint16_t reference_checksum(std::span<const std::uint8_t> a,
                                 std::span<const std::uint8_t> b) {
  Bytes all(a.begin(), a.end());
  all.insert(all.end(), b.begin(), b.end());
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < all.size(); i += 2) {
    std::uint32_t word = std::uint32_t{all[i]} << 8;
    if (i + 1 < all.size()) word |= all[i + 1];
    sum += word;
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xFFFF);
}

TEST(UdpChecksum, MatchesBytewiseReferenceOnOddEvenAndEmptySegments) {
  Rng rng(0x5EED);
  const std::size_t sizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 1499, 1500, 4500};
  for (const std::size_t a_len : sizes) {
    for (const std::size_t b_len : sizes) {
      Bytes a(a_len), b(b_len);
      rng.fill(a);
      rng.fill(b);
      EXPECT_EQ(UdpLite::checksum(a, b), reference_checksum(a, b))
          << "a=" << a_len << " b=" << b_len;
    }
  }
}

TEST(UdpChecksum, MatchesBytewiseReferenceOnRandomSplits) {
  Rng rng(0xC4EC);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes data(static_cast<std::size_t>(rng.uniform(0, 9000)));
    rng.fill(data);
    const std::span<const std::uint8_t> all(data);
    const auto split =
        static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(data.size())));
    const auto a = all.subspan(0, split);
    const auto b = all.subspan(split);
    EXPECT_EQ(UdpLite::checksum(a, b), reference_checksum(a, b))
        << "size=" << data.size() << " split=" << split;
    EXPECT_EQ(UdpLite::checksum(all), reference_checksum(all, {})) << "size=" << data.size();
  }
}

TEST(UdpChecksum, AllZeroAndAllOnesMatchBytewiseReference) {
  // 0x0000 and 0xFFFF are congruent mod 0xFFFF: an all-zero input must
  // still checksum to 0xFFFF, and an all-ones input to 0x0000.
  for (const std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
    for (const std::size_t size : {0u, 1u, 2u, 3u, 4u, 5u, 8u, 9u, 1500u, 1501u, 9000u}) {
      const Bytes data(size, fill);
      const std::span<const std::uint8_t> all(data);
      for (const std::size_t split : {std::size_t{0}, size / 2, size / 2 + size % 2, size}) {
        EXPECT_EQ(UdpLite::checksum(all.subspan(0, split), all.subspan(split)),
                  reference_checksum(all.subspan(0, split), all.subspan(split)))
            << "fill=" << int{fill} << " size=" << size << " split=" << split;
      }
    }
  }
  EXPECT_EQ(UdpLite::checksum(Bytes(64, 0x00)), 0xFFFF);
  EXPECT_EQ(UdpLite::checksum(Bytes(64, 0xFF)), 0x0000);
}

TEST(GraphSpec, Parsing) {
  const auto g = parse_graph_spec(" simeth ; iplite;udplite ");
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g[0], "simeth");
  EXPECT_EQ(g[1], "iplite");
  EXPECT_EQ(g[2], "udplite");
}

struct StackPair {
  sim::Simulator sim{7};
  net::Network network{sim};
  HostStack host_a{network};
  HostStack host_b{network};

  StackPair() { network.connect(host_a.node(), host_b.node(), net::LinkParams{}); }
};

TEST(HostStack, DatagramEndToEnd) {
  StackPair env;
  Bytes received;
  net::Endpoint from;
  env.host_b.udp().bind(1000, [&](Message& msg, const MsgAttrs& attrs) {
    received = msg.to_bytes();
    from = attrs.src;
  });
  Bytes payload{0xDE, 0xAD, 0xBE, 0xEF};
  env.host_a.send_datagram(2000, {env.host_b.node(), 1000}, payload);
  env.sim.run();
  EXPECT_EQ(received, payload);
  EXPECT_EQ(from.node, env.host_a.node());
  EXPECT_EQ(from.port, 2000);
}

TEST(HostStack, UnboundPortCountsNoListener) {
  StackPair env;
  env.host_a.send_datagram(2000, {env.host_b.node(), 4242}, Bytes{1});
  env.sim.run();
  EXPECT_EQ(env.host_b.udp().no_listener(), 1u);
}

TEST(HostStack, ReplyPath) {
  StackPair env;
  int b_got = 0, a_got = 0;
  env.host_b.udp().bind(10, [&](Message&, const MsgAttrs& attrs) {
    ++b_got;
    env.host_b.send_datagram(10, attrs.src, Bytes{2});
  });
  env.host_a.udp().bind(20, [&](Message&, const MsgAttrs&) { ++a_got; });
  env.host_a.send_datagram(20, {env.host_b.node(), 10}, Bytes{1});
  env.sim.run();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(a_got, 1);
}

TEST(HostStack, EmptyPayloadSurvivesStack) {
  StackPair env;
  bool got = false;
  std::size_t got_size = 99;
  env.host_b.udp().bind(5, [&](Message& m, const MsgAttrs&) {
    got = true;
    got_size = m.size();
  });
  env.host_a.send_datagram(5, {env.host_b.node(), 5}, Bytes{});
  env.sim.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(got_size, 0u);
}

TEST(HostStack, BindRejectsDuplicatePort) {
  StackPair env;
  env.host_a.udp().bind(9, [](Message&, const MsgAttrs&) {});
  EXPECT_DEATH(env.host_a.udp().bind(9, [](Message&, const MsgAttrs&) {}), "precondition");
}

TEST(HostStack, UnbindStopsDelivery) {
  StackPair env;
  int got = 0;
  env.host_b.udp().bind(7, [&](Message&, const MsgAttrs&) { ++got; });
  env.host_a.send_datagram(7, {env.host_b.node(), 7}, Bytes{1});
  env.sim.run();
  EXPECT_EQ(got, 1);
  env.host_b.udp().unbind(7);
  env.host_a.send_datagram(7, {env.host_b.node(), 7}, Bytes{1});
  env.sim.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(env.host_b.udp().no_listener(), 1u);
}

}  // namespace
}  // namespace rtpb::xkernel
