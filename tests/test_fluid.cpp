// Hybrid fluid/packet media engine: exactness goldens, segment hysteresis,
// and the closed-form fast-forward equivalences.
//
// The contract under test (DESIGN.md "Hybrid fluid/packet media engine"):
// with the engine on, every exact count in the experiment report — call
// outcomes, SIP census, RTP packet/relay totals — is byte-identical to the
// per-packet run with the same seed; approximated quantities (jitter EWMA
// tails, MOS) stay within stated tolerances; and per-second telemetry series
// are identical row for row (the engine's boundary timer suspends every
// coasting stream a guard ahead of each row).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "exp/testbed.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "pbx/cpu_model.hpp"
#include "rtp/fluid.hpp"
#include "rtp/jitter_buffer.hpp"
#include "rtp/stream.hpp"
#include "sim/simulator.hpp"
#include "stats/summary.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace pbxcap;

// ---- full-testbed goldens --------------------------------------------------

exp::TestbedConfig golden_config(bool fluid, telemetry::Telemetry* tel = nullptr) {
  exp::TestbedConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(120);
  config.scenario.placement_window = Duration::seconds(20);
  config.seed = 20260807;
  config.fluid.enabled = fluid;
  config.telemetry = tel;
  return config;
}

void expect_reports_match(const monitor::ExperimentReport& packet,
                          const monitor::ExperimentReport& hybrid) {
  // Exact per-packet counts: bit-identical by design.
  EXPECT_EQ(packet.calls_attempted, hybrid.calls_attempted);
  EXPECT_EQ(packet.calls_completed, hybrid.calls_completed);
  EXPECT_EQ(packet.calls_blocked, hybrid.calls_blocked);
  EXPECT_EQ(packet.calls_failed, hybrid.calls_failed);
  EXPECT_EQ(packet.blocking_probability, hybrid.blocking_probability);
  EXPECT_EQ(packet.channels_peak, hybrid.channels_peak);
  EXPECT_EQ(packet.sip_total, hybrid.sip_total);
  EXPECT_EQ(packet.sip_invite, hybrid.sip_invite);
  EXPECT_EQ(packet.sip_200, hybrid.sip_200);
  EXPECT_EQ(packet.sip_ack, hybrid.sip_ack);
  EXPECT_EQ(packet.sip_bye, hybrid.sip_bye);
  EXPECT_EQ(packet.sip_errors, hybrid.sip_errors);
  EXPECT_EQ(packet.sip_retransmissions, hybrid.sip_retransmissions);
  EXPECT_EQ(packet.rtp_packets_at_pbx, hybrid.rtp_packets_at_pbx);
  EXPECT_EQ(packet.rtp_relayed, hybrid.rtp_relayed);
  EXPECT_EQ(packet.sip_queue_dropped, hybrid.sip_queue_dropped);
  EXPECT_EQ(packet.link_dropped_impairment, hybrid.link_dropped_impairment);
  // CPU buckets take identical deposits at identical instants (the batch
  // path deposits at each packet's nominal arrival).
  EXPECT_DOUBLE_EQ(packet.cpu_utilization.mean(), hybrid.cpu_utilization.mean());
  EXPECT_DOUBLE_EQ(packet.cpu_utilization.max(), hybrid.cpu_utilization.max());
  // Approximated fields, with their stated tolerances (EXPERIMENTS.md).
  EXPECT_NEAR(packet.mos.mean(), hybrid.mos.mean(), 0.01);
  EXPECT_NEAR(packet.jitter_ms.mean(), hybrid.jitter_ms.mean(), 0.05);
  EXPECT_NEAR(packet.setup_delay_ms.mean(), hybrid.setup_delay_ms.mean(), 1.0);
  EXPECT_NEAR(packet.effective_loss.mean(), hybrid.effective_loss.mean(), 1e-4);
  // The fast path must actually engage: well over 100x fewer kernel events
  // at this load (the >=5x floor is gated in bench_fluid_ablation).
  EXPECT_LT(hybrid.events_processed * 5, packet.events_processed);
}

TEST(FluidGolden, SameSeedReportsMatchPacketMode) {
  const monitor::ExperimentReport packet = exp::run_testbed(golden_config(false));
  const monitor::ExperimentReport hybrid = exp::run_testbed(golden_config(true));
  expect_reports_match(packet, hybrid);
}

TEST(FluidGolden, SameSeedReportsMatchWithRtcp) {
  // RTCP on: reports ride the per-SSRC pre-report flush, so sender/receiver
  // state is settled at every report emission.
  exp::TestbedConfig packet_cfg = golden_config(false);
  packet_cfg.scenario.rtcp = true;
  exp::TestbedConfig hybrid_cfg = golden_config(true);
  hybrid_cfg.scenario.rtcp = true;
  const monitor::ExperimentReport packet = exp::run_testbed(packet_cfg);
  const monitor::ExperimentReport hybrid = exp::run_testbed(hybrid_cfg);
  expect_reports_match(packet, hybrid);
}

TEST(FluidGolden, PerSecondSeriesIdenticalInBothModes) {
  // The TimeSeriesSampler regression: every per-second row — active
  // channels, CPU, blocking, SIP and RTP rates — must be identical cell for
  // cell. The engine's boundary timer returns every stream to per-packet
  // mode a guard ahead of each row, so the row reads fully settled,
  // per-packet-equivalent state.
  telemetry::Config tel_cfg;
  tel_cfg.tracing = false;
  telemetry::Telemetry tel_packet{tel_cfg};
  telemetry::Telemetry tel_hybrid{tel_cfg};
  const monitor::ExperimentReport packet =
      exp::run_testbed(golden_config(false, &tel_packet));
  const monitor::ExperimentReport hybrid =
      exp::run_testbed(golden_config(true, &tel_hybrid));
  expect_reports_match(packet, hybrid);

  const telemetry::TimeSeriesSampler& sp = tel_packet.sampler();
  const telemetry::TimeSeriesSampler& sh = tel_hybrid.sampler();
  ASSERT_EQ(sp.rows(), sh.rows());
  ASSERT_EQ(sp.columns(), sh.columns());
  ASSERT_GT(sp.rows(), 100u);
  for (std::size_t c = 0; c < sp.columns(); ++c) {
    ASSERT_EQ(sp.column_name(c), sh.column_name(c));
    for (std::size_t r = 0; r < sp.rows(); ++r) {
      EXPECT_EQ(sp.value(c, r), sh.value(c, r))
          << sp.column_name(c) << " row " << r << " (t=" << r + 1 << "s)";
    }
  }
}

// ---- segment hysteresis around an impairment edit --------------------------

class MediaSink final : public net::Node {
 public:
  explicit MediaSink(std::string name) : Node{std::move(name)} {}
  void on_receive(const net::Packet& pkt) override { packets += pkt.batch; }
  void transmit_to(net::NodeId dst, std::uint32_t bytes) {
    net::Packet pkt;
    pkt.dst = dst;
    pkt.kind = net::PacketKind::kRtp;
    pkt.size_bytes = bytes;
    send(std::move(pkt));
  }
  std::uint64_t packets{0};
};

struct FluidHysteresis : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator, sim::Random{7}};
  MediaSink a{"a"};
  MediaSink b{"b"};

  rtp::FluidConfig engine_config() const {
    rtp::FluidConfig config;
    config.enabled = true;
    return config;
  }
};

TEST_F(FluidHysteresis, ImpairmentEditExitsAndDwellGatesReentry) {
  network.attach(a);
  network.attach(b);
  net::Link& link = network.connect(a, b, {});
  rtp::FluidEngine engine{simulator, engine_config()};
  engine.watch_link(link);
  engine.start();
  // The impairment lands at 990 ms, off the 20 ms pacing grid, and is
  // cleared at 3 s; the injector's pre-apply hook is the engine's transient
  // trigger, as in an experiment.
  fault::FaultInjector injector{
      simulator, fault::FaultPlan::parse("@990ms link client loss=0.25\n@3s link client loss=0\n"),
      {.client_link = &link}};
  injector.set_pre_apply([&engine] { engine.on_transient(); });
  injector.arm();

  std::uint64_t per_packet = 0;
  std::uint64_t batched = 0;
  rtp::RtpSender sender{simulator, rtp::g711_ulaw(), 7,
                        [&per_packet](const rtp::RtpHeader&, std::uint32_t) { ++per_packet; }};
  sender.set_fluid(&engine,
                   [&batched](const rtp::RtpHeader&, std::uint32_t, std::uint32_t count,
                              TimePoint) { batched += count; });
  sender.start();

  // The first (marker) packet goes per-packet and anchors the stream; the
  // pacing tick is then suspended.
  simulator.run_until(TimePoint::at(Duration::millis(900)));
  EXPECT_TRUE(sender.fluid_active());
  EXPECT_EQ(engine.active_streams(), 1u);
  EXPECT_EQ(per_packet, 1u);

  // The impairment edit lands: the pre-apply hook flushes the pending
  // segment under the OLD config and drops to per-packet.
  simulator.run_until(TimePoint::at(Duration::millis(990)));
  const std::uint64_t batched_at_edit = batched;
  EXPECT_FALSE(sender.fluid_active());
  EXPECT_EQ(engine.transients(), 1u);
  EXPECT_GT(batched_at_edit, 0u);
  // Everything due strictly before the edit was materialized.
  EXPECT_EQ(per_packet + batched, 50u);  // 0..980 ms of G.711 at 20 ms ptime

  // Lossy path: per-packet simulation, no re-entry, however long we run.
  simulator.run_until(TimePoint::at(Duration::millis(2'900)));
  EXPECT_FALSE(sender.fluid_active());
  EXPECT_EQ(batched, batched_at_edit);
  EXPECT_FALSE(engine.eligible());

  // Clearing the impairment is itself an edit; the dwell window then holds
  // the stream in per-packet mode (hysteresis, no enter/exit flapping).
  simulator.run_until(TimePoint::at(Duration::seconds(3)));
  EXPECT_EQ(engine.transients(), 2u);
  simulator.run_until(TimePoint::at(Duration::seconds(3) + Duration::millis(150)));
  EXPECT_FALSE(sender.fluid_active());  // still inside the 200 ms dwell

  // Past the dwell, the next pacing tick re-enters fluid mode.
  simulator.run_until(TimePoint::at(Duration::seconds(3) + Duration::millis(300)));
  EXPECT_TRUE(sender.fluid_active());
  EXPECT_GE(engine.segments_entered(), 2u);

  // Through it all, not a single packet was lost or duplicated.
  engine.stop();
  const auto elapsed = simulator.now() - TimePoint::origin();
  EXPECT_EQ(per_packet + batched,
            static_cast<std::uint64_t>(elapsed / rtp::g711_ulaw().packet_interval()));
}

TEST_F(FluidHysteresis, OneLinkEditIsOneTransient) {
  // A FaultPlan edit on a watched link reaches the engine once, through the
  // injector's pre-apply hook: the link itself announces nothing.
  network.attach(a);
  network.attach(b);
  net::Link& link = network.connect(a, b, {});
  rtp::FluidEngine engine{simulator, engine_config()};
  engine.watch_link(link);
  engine.start();
  fault::FaultInjector injector{simulator, fault::FaultPlan::parse("@1s link client loss=0.1\n"),
                                {.client_link = &link}};
  injector.set_pre_apply([&engine] { engine.on_transient(); });
  injector.arm();
  simulator.run_until(TimePoint::at(Duration::seconds(2)));
  EXPECT_EQ(injector.events_applied(), 1u);
  EXPECT_EQ(engine.transients(), 1u);
  engine.stop();
}

TEST_F(FluidHysteresis, NearSaturationBacklogKeepsStreamsPerPacket) {
  network.attach(a);
  network.attach(b);
  net::LinkConfig slow;
  slow.bandwidth_bps = 64'000;  // ~27 ms per 214-byte packet: backlog builds
  slow.queue_limit_packets = 16;
  net::Link& link = network.connect(a, b, slow);
  rtp::FluidEngine engine{simulator, engine_config()};
  engine.watch_link(link);
  engine.start();

  // Pre-load the queue past the 25% threshold (0.25 x 16 = 4 packets)
  // before the stream starts, so the very first eligibility check sees a
  // near-saturated path.
  for (int i = 0; i < 10; ++i) a.transmit_to(b.id(), 200);

  std::uint64_t per_packet = 0;
  rtp::RtpSender sender{simulator, rtp::g711_ulaw(), 9,
                        [&](const rtp::RtpHeader&, std::uint32_t bytes) {
                          ++per_packet;
                          a.transmit_to(b.id(), bytes);
                        }};
  sender.set_fluid(&engine, [](const rtp::RtpHeader&, std::uint32_t, std::uint32_t,
                               TimePoint) { FAIL() << "must not coast near saturation"; });
  sender.start();
  simulator.run_until(TimePoint::at(Duration::seconds(2)));
  // 50 pps offered vs ~40 pps drained: the queue never falls back under the
  // threshold, so the eligibility check pins the stream to per-packet mode.
  EXPECT_FALSE(sender.fluid_active());
  EXPECT_GT(per_packet, 90u);
  engine.stop();
}

// ---- closed-form fast-forward equivalences ---------------------------------

TEST(FluidClosedForm, ReceiverStatsBatchMatchesPerPacketLoop) {
  const std::uint32_t step = rtp::g711_ulaw().timestamp_step();
  rtp::RtpReceiverStats loop{8000};
  rtp::RtpReceiverStats batch{8000};

  // Anchor both with the marker packet just below the 16-bit wrap so the
  // batch crosses seq 0xffff -> 0x0000.
  rtp::RtpHeader head;
  head.ssrc = 5;
  head.sequence = 0xff'f0;
  head.timestamp = 1'000;
  head.marker = true;
  const TimePoint t0 = TimePoint::at(Duration::seconds(1));
  const Duration spacing = Duration::millis(20);
  loop.on_packet(head, t0);
  batch.on_packet(head, t0);

  const std::uint32_t count = 64;  // crosses the wrap
  rtp::RtpHeader h = head;
  h.marker = false;
  for (std::uint32_t i = 1; i <= count; ++i) {
    h.sequence = static_cast<std::uint16_t>(head.sequence + i);
    h.timestamp = head.timestamp + i * step;
    loop.on_packet(h, t0 + spacing * i);
  }
  rtp::RtpHeader first = head;
  first.marker = false;
  first.sequence = static_cast<std::uint16_t>(head.sequence + 1);
  first.timestamp = head.timestamp + step;
  batch.on_batch(first, t0 + spacing, spacing, step, count);

  EXPECT_EQ(loop.received(), batch.received());
  EXPECT_EQ(loop.expected(), batch.expected());
  EXPECT_EQ(loop.lost(), batch.lost());
  EXPECT_EQ(loop.out_of_order(), batch.out_of_order());
  EXPECT_EQ(loop.last_arrival().ns(), batch.last_arrival().ns());
  // Jitter decay: pow(15/16, n) vs n sequential multiplies — equal to
  // floating-point rounding.
  EXPECT_NEAR(loop.jitter().to_seconds(), batch.jitter().to_seconds(), 1e-12);

  // A follow-up per-packet arrival must observe identical estimator state.
  rtp::RtpHeader next = head;
  next.sequence = static_cast<std::uint16_t>(head.sequence + count + 1);
  next.timestamp = head.timestamp + (count + 1) * step;
  const TimePoint late = t0 + spacing * (count + 1) + Duration::millis(3);
  loop.on_packet(next, late);
  batch.on_packet(next, late);
  EXPECT_EQ(loop.expected(), batch.expected());
  EXPECT_NEAR(loop.jitter().to_seconds(), batch.jitter().to_seconds(), 1e-12);
}

TEST(FluidClosedForm, JitterBufferBatchMatchesPerPacketLoop) {
  const rtp::Codec codec = rtp::g711_ulaw();
  for (const Duration lateness : {Duration::zero(), Duration::millis(75)}) {
    rtp::JitterBuffer loop{codec};
    rtp::JitterBuffer batch{codec};
    rtp::RtpHeader head;
    head.ssrc = 6;
    head.sequence = 100;
    head.marker = true;
    const TimePoint t0 = TimePoint::at(Duration::seconds(2));
    loop.on_packet(head, t0);
    batch.on_packet(head, t0);

    const Duration spacing = codec.packet_interval();
    const std::uint32_t count = 200;
    rtp::RtpHeader h = head;
    h.marker = false;
    for (std::uint32_t i = 1; i <= count; ++i) {
      h.sequence = static_cast<std::uint16_t>(head.sequence + i);
      loop.on_packet(h, t0 + spacing * i + lateness);
    }
    rtp::RtpHeader first = head;
    first.marker = false;
    first.sequence = static_cast<std::uint16_t>(head.sequence + 1);
    batch.on_batch(first, t0 + spacing + lateness, spacing, count);

    EXPECT_EQ(loop.played(), batch.played()) << "lateness " << lateness.to_millis() << "ms";
    EXPECT_EQ(loop.discarded_late(), batch.discarded_late());
    EXPECT_EQ(loop.last_playout().ns(), batch.last_playout().ns());
  }
}

TEST(FluidClosedForm, SummaryAddRepeatedMatchesLoop) {
  stats::Summary loop;
  stats::Summary repeated;
  loop.add(3.5);
  repeated.add(3.5);
  for (int i = 0; i < 1000; ++i) loop.add(0.125);
  repeated.add_repeated(0.125, 1000);
  EXPECT_EQ(loop.count(), repeated.count());
  EXPECT_NEAR(loop.mean(), repeated.mean(), 1e-12);
  EXPECT_NEAR(loop.variance(), repeated.variance(), 1e-9);
  EXPECT_EQ(loop.min(), repeated.min());
  EXPECT_EQ(loop.max(), repeated.max());
}

TEST(FluidClosedForm, CpuModelBatchDepositMatchesLoop) {
  pbx::CpuModel loop;
  pbx::CpuModel batch;
  const TimePoint first = TimePoint::at(Duration::millis(980));  // spans buckets
  const Duration spacing = Duration::millis(20);
  const std::uint32_t count = 400;  // 8 s of one G.711 direction
  for (std::uint32_t i = 0; i < count; ++i) loop.on_rtp_packet(first + spacing * i);
  batch.on_rtp_packets(first, spacing, count);
  const TimePoint to = first + spacing * count + Duration::seconds(1);
  const stats::Summary lu = loop.utilization(TimePoint::origin(), to);
  const stats::Summary bu = batch.utilization(TimePoint::origin(), to);
  ASSERT_EQ(lu.count(), bu.count());
  EXPECT_DOUBLE_EQ(lu.mean(), bu.mean());
  EXPECT_DOUBLE_EQ(lu.max(), bu.max());
}

TEST(FluidClosedForm, SenderFlushChunksLongSegments) {
  // A segment longer than one batch packet can carry (u16 count) must be
  // split without losing sequence/timestamp continuity.
  sim::Simulator simulator;
  rtp::FluidConfig config;
  config.enabled = true;
  rtp::FluidEngine engine{simulator, config};  // not started: one giant segment

  std::uint64_t per_packet = 0;
  struct Batch {
    std::uint16_t first_seq;
    std::uint32_t count;
  };
  std::vector<Batch> batches;
  rtp::RtpSender sender{simulator, rtp::g711_ulaw(), 11,
                        [&per_packet](const rtp::RtpHeader&, std::uint32_t) { ++per_packet; }};
  sender.set_fluid(&engine, [&batches](const rtp::RtpHeader& first, std::uint32_t,
                                       std::uint32_t count, TimePoint) {
    batches.push_back({first.sequence, count});
  });
  sender.start();
  simulator.run_until(TimePoint::at(Duration::millis(25)));  // marker + enter
  ASSERT_TRUE(sender.fluid_active());

  simulator.run_until(TimePoint::at(Duration::seconds(1400)));  // 70k packets due
  engine.flush_stream(11);
  ASSERT_GE(batches.size(), 2u);
  std::uint64_t total = per_packet;
  std::uint16_t expect_seq = batches.front().first_seq;
  for (const Batch& b : batches) {
    EXPECT_LE(b.count, 0xffffu);
    EXPECT_EQ(b.first_seq, expect_seq);
    expect_seq = static_cast<std::uint16_t>(expect_seq + b.count);
    total += b.count;
  }
  EXPECT_EQ(total, sender.packets_sent());
  EXPECT_EQ(total, 70'000u);  // everything due strictly before 1400 s
  sender.stop();
}

}  // namespace
