// Unit tests for RTP: codec catalog, pacing, receiver stats, jitter buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "rtp/codec.hpp"
#include "rtp/jitter_buffer.hpp"
#include "rtp/packet.hpp"
#include "rtp/ssrc_table.hpp"
#include "rtp/stream.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace pbxcap;

TEST(CodecCatalog, G711MatchesPaperNumbers) {
  const rtp::Codec& g711 = rtp::g711_ulaw();
  EXPECT_EQ(g711.payload_type, 0);
  EXPECT_EQ(g711.payload_bytes(), 160u);          // 64 kbit/s * 20 ms
  EXPECT_EQ(g711.packets_per_second(), 50.0);     // -> 100 pkt/s per call both ways
  EXPECT_EQ(g711.timestamp_step(), 160u);         // 8 kHz * 20 ms
  EXPECT_EQ(g711.wire_bytes(), 218u);             // 160 + 12 RTP + 46 UDP/IP/Eth
  EXPECT_EQ(g711.packet_interval(), Duration::millis(20));
}

TEST(CodecCatalog, Lookups) {
  ASSERT_TRUE(rtp::codec_by_payload_type(0));
  EXPECT_EQ(rtp::codec_by_payload_type(0)->name, "PCMU");
  ASSERT_TRUE(rtp::codec_by_payload_type(18));
  EXPECT_EQ(rtp::codec_by_payload_type(18)->name, "G729");
  EXPECT_FALSE(rtp::codec_by_payload_type(77));
  ASSERT_TRUE(rtp::codec_by_name("g729"));
  EXPECT_FALSE(rtp::codec_by_name("AMR"));
}

TEST(CodecCatalog, LowBitrateCodecsAreSmallerOnWire) {
  const auto g729 = *rtp::codec_by_name("G729");
  EXPECT_EQ(g729.payload_bytes(), 20u);  // 8 kbit/s * 20 ms
  EXPECT_LT(g729.wire_bytes(), rtp::g711_ulaw().wire_bytes());
  EXPECT_GT(g729.ie, 0.0);  // compression costs quality
}

TEST(CodecCatalog, WireSizesMatchRfc3551) {
  // Frame-size goldens pinned to RFC 3551 §4.5 (and RFC 3951 for iLBC's
  // 30 ms / 50-byte mode, the one Asterisk defaults to). The iLBC row is the
  // regression for the truncation bug: 13,333 bit/s x 30 ms is 49.99875
  // bytes, which flooring chopped to 49 — a wire size no iLBC frame has.
  struct Golden {
    const char* name;
    std::uint32_t payload;
  };
  const std::vector<Golden> goldens = {
      {"PCMU", 160}, {"PCMA", 160}, {"G722", 160}, {"GSM", 33},
      {"G729", 20},  {"iLBC", 50},  {"OPUS-NB", 30},
  };
  ASSERT_EQ(rtp::codec_catalog().size(), goldens.size());
  for (const Golden& g : goldens) {
    const auto codec = rtp::codec_by_name(g.name);
    ASSERT_TRUE(codec) << g.name;
    EXPECT_EQ(codec->payload_bytes(), g.payload) << g.name;
    // Wire size = payload + 12 RTP + 46 Ethernet/IP/UDP, for every codec.
    EXPECT_EQ(codec->wire_bytes(), g.payload + 58u) << g.name;
  }
}

TEST(CodecCatalog, PayloadBytesRoundsToNearest) {
  // The formula contract: frame bytes are bitrate x ptime rounded to the
  // nearest byte, not floored. Recomputed here from each codec's own fields
  // so a future catalog entry with a fractional frame size can't silently
  // reintroduce truncation.
  for (const rtp::Codec& codec : rtp::codec_catalog()) {
    const double exact =
        static_cast<double>(codec.bitrate_bps) * codec.ptime_ms / 8000.0;
    EXPECT_LE(std::abs(static_cast<double>(codec.payload_bytes()) - exact), 0.5)
        << codec.name;
  }
}

TEST(CodecCatalog, TranscodeCostsOrderLikeAsteriskTranslators) {
  // G.711 companding is a table lookup (free); everything else costs real
  // CPU, with G.729's ACELP search the most expensive. The transcoding
  // capacity bench's G.711 > GSM > G.729 ordering rests on this.
  const auto cost = [](const char* name) {
    return rtp::codec_by_name(name)->transcode_cost;
  };
  EXPECT_EQ(cost("PCMU"), Duration::zero());
  EXPECT_EQ(cost("PCMA"), Duration::zero());
  EXPECT_GT(cost("G722"), Duration::zero());
  EXPECT_GT(cost("GSM"), cost("G722"));
  EXPECT_GT(cost("iLBC"), cost("GSM"));
  EXPECT_GT(cost("G729"), cost("iLBC"));
}

TEST(SsrcAllocator, UniqueSequential) {
  rtp::SsrcAllocator alloc;
  const auto a = alloc.allocate();
  const auto b = alloc.allocate();
  EXPECT_NE(a, b);
}

TEST(RtpSender, PacesAtPtime) {
  sim::Simulator simulator;
  std::vector<TimePoint> emits;
  std::vector<rtp::RtpHeader> headers;
  rtp::RtpSender sender{simulator, rtp::g711_ulaw(), 42,
                        [&](const rtp::RtpHeader& h, std::uint32_t bytes) {
                          EXPECT_EQ(bytes, 218u);
                          emits.push_back(simulator.now());
                          headers.push_back(h);
                        }};
  sender.start();
  simulator.run_until(TimePoint::origin() + Duration::millis(99));
  sender.stop();
  simulator.run();
  // Packets at t = 0, 20, 40, 60, 80 ms.
  ASSERT_EQ(emits.size(), 5u);
  EXPECT_EQ(emits[1] - emits[0], Duration::millis(20));
  EXPECT_EQ(sender.packets_sent(), 5u);
  // Sequence numbers advance by one, timestamps by 160, first has marker.
  EXPECT_TRUE(headers[0].marker);
  EXPECT_FALSE(headers[1].marker);
  for (std::size_t i = 1; i < headers.size(); ++i) {
    EXPECT_EQ(static_cast<std::uint16_t>(headers[i].sequence - headers[i - 1].sequence), 1u);
    EXPECT_EQ(headers[i].timestamp - headers[i - 1].timestamp, 160u);
    EXPECT_EQ(headers[i].ssrc, 42u);
  }
}

TEST(RtpSender, StopIsIdempotentAndHalts) {
  sim::Simulator simulator;
  int emitted = 0;
  rtp::RtpSender sender{simulator, rtp::g711_ulaw(), 1,
                        [&](const rtp::RtpHeader&, std::uint32_t) { ++emitted; }};
  sender.start();
  sender.start();  // no double pacing
  simulator.run_until(TimePoint::origin() + Duration::millis(30));
  sender.stop();
  sender.stop();
  simulator.run();
  EXPECT_EQ(emitted, 2);  // t=0 and t=20ms only
}

rtp::RtpHeader header_at(std::uint16_t seq, std::uint32_t ts, bool marker = false) {
  rtp::RtpHeader h;
  h.payload_type = 0;
  h.sequence = seq;
  h.timestamp = ts;
  h.ssrc = 1;
  h.marker = marker;
  return h;
}

TEST(ReceiverStats, CleanStreamHasNoLoss) {
  rtp::RtpReceiverStats rx{8000};
  TimePoint t = TimePoint::origin();
  for (std::uint16_t i = 0; i < 100; ++i) {
    rx.on_packet(header_at(i, i * 160u), t);
    t = t + Duration::millis(20);
  }
  EXPECT_EQ(rx.received(), 100u);
  EXPECT_EQ(rx.expected(), 100u);
  EXPECT_EQ(rx.lost(), 0u);
  EXPECT_DOUBLE_EQ(rx.loss_fraction(), 0.0);
  // Perfectly periodic arrivals: jitter converges to ~0.
  EXPECT_LT(rx.jitter().to_millis(), 0.01);
}

TEST(ReceiverStats, DetectsGapLoss) {
  rtp::RtpReceiverStats rx{8000};
  TimePoint t = TimePoint::origin();
  for (std::uint16_t i = 0; i < 100; ++i) {
    if (i % 10 == 3) continue;  // drop every 10th
    rx.on_packet(header_at(i, i * 160u), t);
    t = t + Duration::millis(20);
  }
  EXPECT_EQ(rx.expected(), 100u);
  EXPECT_EQ(rx.lost(), 10u);
  EXPECT_NEAR(rx.loss_fraction(), 0.10, 1e-9);
}

TEST(ReceiverStats, SequenceWrapExtends) {
  rtp::RtpReceiverStats rx{8000};
  TimePoint t = TimePoint::origin();
  std::uint16_t seq = 65'530;
  std::uint32_t ts = 0;
  for (int i = 0; i < 20; ++i) {
    rx.on_packet(header_at(seq, ts), t);
    ++seq;  // wraps through 65535 -> 0
    ts += 160;
    t = t + Duration::millis(20);
  }
  EXPECT_EQ(rx.expected(), 20u);
  EXPECT_EQ(rx.lost(), 0u);
}

TEST(ReceiverStats, CountsDuplicatesAndReordering) {
  rtp::RtpReceiverStats rx{8000};
  const TimePoint t = TimePoint::origin();
  rx.on_packet(header_at(10, 0), t);
  rx.on_packet(header_at(11, 160), t + Duration::millis(20));
  rx.on_packet(header_at(11, 160), t + Duration::millis(21));  // duplicate
  rx.on_packet(header_at(9, 0), t + Duration::millis(22));     // late/reordered
  EXPECT_EQ(rx.duplicates(), 1u);
  EXPECT_EQ(rx.out_of_order(), 1u);
}

TEST(ReceiverStats, JitterGrowsWithVariableDelay) {
  rtp::RtpReceiverStats steady{8000};
  rtp::RtpReceiverStats jittery{8000};
  TimePoint t = TimePoint::origin();
  sim::Random rng{9};
  for (std::uint16_t i = 0; i < 500; ++i) {
    const TimePoint base = t + Duration::millis(20 * i);
    steady.on_packet(header_at(i, i * 160u), base);
    const auto wobble = Duration::from_millis(rng.uniform(0.0, 8.0));
    jittery.on_packet(header_at(i, i * 160u), base + wobble);
  }
  EXPECT_GT(jittery.jitter().to_millis(), steady.jitter().to_millis());
  EXPECT_GT(jittery.jitter().to_millis(), 0.5);
}

TEST(JitterBufferTest, OnTimePacketsPlay) {
  rtp::JitterBuffer jb{rtp::g711_ulaw(), {.initial_delay = Duration::millis(40)}};
  TimePoint t = TimePoint::origin();
  for (std::uint16_t i = 0; i < 50; ++i) {
    EXPECT_TRUE(jb.on_packet(header_at(i, i * 160u, i == 0), t + Duration::millis(20 * i)));
  }
  EXPECT_EQ(jb.played(), 50u);
  EXPECT_EQ(jb.discarded_late(), 0u);
  EXPECT_DOUBLE_EQ(jb.discard_fraction(), 0.0);
}

TEST(JitterBufferTest, LatePacketsDiscarded) {
  rtp::JitterBuffer jb{rtp::g711_ulaw(), {.initial_delay = Duration::millis(40)}};
  const TimePoint t = TimePoint::origin();
  EXPECT_TRUE(jb.on_packet(header_at(0, 0, true), t));
  // Packet 1 should play at t+40ms+20ms = t+60ms; it arrives at t+200ms.
  EXPECT_FALSE(jb.on_packet(header_at(1, 160), t + Duration::millis(200)));
  EXPECT_EQ(jb.discarded_late(), 1u);
  EXPECT_GT(jb.discard_fraction(), 0.0);
}

TEST(JitterBufferTest, AdaptiveDelayTracksJitter) {
  rtp::JitterBufferConfig cfg;
  cfg.adaptive = true;
  cfg.jitter_multiplier = 3.0;
  cfg.min_delay = Duration::millis(20);
  cfg.max_delay = Duration::millis(100);
  rtp::JitterBuffer jb{rtp::g711_ulaw(), cfg};
  jb.update_delay(Duration::millis(10));  // 3x10 = 30 ms
  EXPECT_EQ(jb.playout_delay(), Duration::millis(30));
  jb.update_delay(Duration::millis(100));  // clamped to max
  EXPECT_EQ(jb.playout_delay(), Duration::millis(100));
  jb.update_delay(Duration::zero());  // clamped to min
  EXPECT_EQ(jb.playout_delay(), Duration::millis(20));
}

TEST(JitterBufferTest, ReanchorAfterDelayDropKeepsPlayoutMonotonic) {
  rtp::JitterBufferConfig cfg;
  cfg.adaptive = true;
  cfg.initial_delay = Duration::millis(100);
  cfg.min_delay = Duration::millis(20);
  cfg.max_delay = Duration::millis(200);
  rtp::JitterBuffer jb{rtp::g711_ulaw(), cfg};
  const TimePoint t = TimePoint::origin();
  ASSERT_TRUE(jb.on_packet(header_at(0, 0, true), t));
  const TimePoint first = jb.last_playout();
  EXPECT_EQ(first, t + Duration::millis(100));
  // Jitter collapses; the adaptive rule now wants the minimum delay.
  jb.update_delay(Duration::zero());
  EXPECT_EQ(jb.playout_delay(), Duration::millis(20));
  // A new talkspurt re-anchors 10 ms later. Naively the new epoch lands at
  // t+30 ms — *before* audio already handed out at t+100 ms. The regression
  // this pins: playout never steps backwards across a re-anchor.
  ASSERT_TRUE(jb.on_packet(header_at(1, 160, true), t + Duration::millis(10)));
  EXPECT_GE(jb.last_playout(), first);
  // And the spurt keeps advancing monotonically from the clamped epoch.
  const TimePoint after_reanchor = jb.last_playout();
  ASSERT_TRUE(jb.on_packet(header_at(2, 320), t + Duration::millis(30)));
  EXPECT_GE(jb.last_playout(), after_reanchor);
}

TEST(JitterBufferTest, AdaptiveUpdateClampsExtremeEstimates) {
  rtp::JitterBufferConfig cfg;
  cfg.adaptive = true;
  cfg.jitter_multiplier = 4.0;
  cfg.min_delay = Duration::millis(20);
  cfg.max_delay = Duration::millis(100);
  rtp::JitterBuffer jb{rtp::g711_ulaw(), cfg};
  // The regression this pins: a wild jitter estimate once drove the target
  // outside [min, max] instead of clamping.
  jb.update_delay(Duration::seconds(10));
  EXPECT_EQ(jb.playout_delay(), Duration::millis(100));
  jb.update_delay(Duration::nanos(1));
  EXPECT_EQ(jb.playout_delay(), Duration::millis(20));
}

TEST(JitterBufferTest, NonAdaptiveIgnoresUpdates) {
  rtp::JitterBuffer jb{rtp::g711_ulaw(), {.initial_delay = Duration::millis(60)}};
  jb.update_delay(Duration::millis(1));
  EXPECT_EQ(jb.playout_delay(), Duration::millis(60));
}

TEST(SsrcTable, MatchesAMapUnderChurn) {
  // Streams start and end in random order, with SSRCs from a counter (as
  // SsrcAllocator hands them out) and some from far apart, so probe runs
  // wrap the table and backward-shift deletion has to move entries home.
  rtp::SsrcTable<int> table;
  std::unordered_map<std::uint32_t, int*> oracle;
  std::vector<int> owners(64);
  std::vector<std::uint32_t> live;
  sim::Random rng{17};
  std::uint32_t next = 1;
  for (int step = 0; step < 20'000; ++step) {
    if (live.empty() || (live.size() < 200 && rng.chance(0.55))) {
      const std::uint32_t ssrc = rng.chance(0.1) ? 0x8000'0000u + next * 64 : next;
      ++next;
      int* owner = &owners[static_cast<std::size_t>(step) % owners.size()];
      table.assign(ssrc, owner);
      oracle[ssrc] = owner;
      live.push_back(ssrc);
    } else {
      const std::size_t pick = std::min(
          static_cast<std::size_t>(rng.uniform(0.0, static_cast<double>(live.size()))),
          live.size() - 1);
      const std::uint32_t ssrc = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      table.erase(ssrc);
      oracle.erase(ssrc);
    }
    ASSERT_EQ(table.size(), oracle.size());
  }
  for (const auto& [ssrc, owner] : oracle) EXPECT_EQ(table.find(ssrc), owner);
  for (std::uint32_t ssrc = 1; ssrc < next; ++ssrc) {
    if (!oracle.contains(ssrc)) {
      EXPECT_EQ(table.find(ssrc), nullptr);
    }
  }
  // SSRC 0 means "no SSRC": never stored, never found.
  table.assign(0, &owners[0]);
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(table.size(), oracle.size());
}

}  // namespace
