// Engine microbenchmarks: DES event throughput, Erlang-B evaluation, SIP
// codec, SDP text, transaction matching, RTP receive pipeline. These quantify the simulator itself (not the
// paper), so regressions in the substrate are visible.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <initializer_list>
#include <new>
#include <string>
#include <vector>

#include "core/erlang_b.hpp"
#include "exp/testbed.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"
#include "rtp/stream.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sip/parse.hpp"
#include "sip/sdp.hpp"
#include "sip/transaction.hpp"

// ---- counting allocator hook -----------------------------------------------
// Replaces global new/delete for this binary so the simulator benchmarks can
// report allocs/event. The engine's SBO-callback contract ("the hot path never
// touches the allocator") is verified here, not just claimed.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace pbxcap;

/// Attaches allocs/event and callback-heap-fallbacks/event counters.
class AllocScope {
 public:
  explicit AllocScope(benchmark::State& state) : state_{state} {
    start_allocs_ = g_allocs.load(std::memory_order_relaxed);
    start_cb_heap_ = sim::Callback::heap_allocations();
  }
  ~AllocScope() {
    const auto events =
        static_cast<double>(state_.iterations() * state_.range(0));
    if (events <= 0.0) return;
    const auto allocs = static_cast<double>(g_allocs.load(std::memory_order_relaxed) - start_allocs_);
    const auto cb_heap = static_cast<double>(sim::Callback::heap_allocations() - start_cb_heap_);
    state_.counters["allocs_per_event"] = allocs / events;
    state_.counters["cb_heap_per_event"] = cb_heap / events;
  }

 private:
  benchmark::State& state_;
  std::uint64_t start_allocs_{0};
  std::uint64_t start_cb_heap_{0};
};

void BM_SimulatorEventThroughput(benchmark::State& state) {
  AllocScope allocs{state};
  for (auto _ : state) {
    sim::Simulator simulator;
    const auto n = static_cast<int>(state.range(0));
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      simulator.schedule_in(Duration::micros(i), [&fired] { ++fired; });
    }
    simulator.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorEventThroughput)->Arg(1'000)->Arg(100'000);

void BM_SimulatorSelfScheduling(benchmark::State& state) {
  // The RTP-sender pattern: each event schedules its successor. The closure
  // captures two pointers, exactly the shape rtp::RtpSender's tick takes.
  struct Tick {
    sim::Simulator* simulator;
    std::int64_t* remaining;
    void operator()() const {
      if (--*remaining > 0) simulator->schedule_in(Duration::micros(20), *this);
    }
  };
  static_assert(sim::Callback::stores_inline<Tick>());
  AllocScope allocs{state};
  for (auto _ : state) {
    sim::Simulator simulator;
    std::int64_t remaining = state.range(0);
    simulator.schedule_in(Duration::micros(20), Tick{&simulator, &remaining});
    simulator.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorSelfScheduling)->Arg(100'000);

void BM_SimulatorPeriodicTimerWheel(benchmark::State& state) {
  // Table-I-shaped event mix: `range` concurrent bidirectional G.711 calls,
  // each direction self-scheduling a 20 ms tick — the exact population the
  // timer-wheel fast path exists for. Runs 10 simulated seconds per iteration.
  struct Stream {
    sim::Simulator* simulator;
    std::uint64_t* fired;
    void operator()() const {
      ++*fired;
      simulator->schedule_in(Duration::millis(20), *this);
    }
  };
  static_assert(sim::Callback::stores_inline<Stream>());
  const auto streams = static_cast<int>(state.range(0)) * 2;
  std::uint64_t fired = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator simulator;
    for (int i = 0; i < streams; ++i) {
      simulator.schedule_in(Duration::micros(200) * i, Stream{&simulator, &fired});
    }
    simulator.run_until(TimePoint::origin() + Duration::seconds(10));
    events = simulator.events_processed();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(events) * state.iterations());
}
BENCHMARK(BM_SimulatorPeriodicTimerWheel)->Arg(165);

void BM_SimulatorHopsBehindHoldTimers(benchmark::State& state) {
  // The per-packet shape of a saturated Table-I run: `range` calls, each with
  // a 120 s hold timer re-armed when it fires (first expiries spread evenly
  // over 120 s, as in a steady state, so most sit beyond the wheel horizon),
  // and two 20 ms media streams per call whose every tick sends a packet
  // through a 4-hop chain of 20 us events (link, switch, link, delivery).
  // The hops land in the level-0 slot being drained. Runs 10 simulated
  // seconds per iteration.
  struct Hold {
    sim::Simulator* simulator;
    std::uint64_t* fired;
    void operator()() const {
      ++*fired;
      simulator->schedule_in(Duration::seconds(120), *this);
    }
  };
  struct Hop {
    sim::Simulator* simulator;
    std::uint64_t* fired;
    int left;
    void operator()() const {
      ++*fired;
      if (left > 0) simulator->schedule_in(Duration::micros(20), Hop{simulator, fired, left - 1});
    }
  };
  struct Stream {
    sim::Simulator* simulator;
    std::uint64_t* fired;
    void operator()() const {
      ++*fired;
      simulator->schedule_in(Duration::micros(20), Hop{simulator, fired, 3});
      simulator->schedule_in(Duration::millis(20), *this);
    }
  };
  static_assert(sim::Callback::stores_inline<Hold>() && sim::Callback::stores_inline<Hop>() &&
                sim::Callback::stores_inline<Stream>());
  const auto calls = static_cast<int>(state.range(0));
  std::uint64_t fired = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator simulator;
    for (int i = 0; i < calls; ++i) {
      const std::int64_t first_ns = Duration::seconds(120).ns() * (i + 1) / calls;
      simulator.schedule_in(Duration::nanos(first_ns), Hold{&simulator, &fired});
    }
    for (int i = 0; i < 2 * calls; ++i) {
      simulator.schedule_in(Duration::micros(60) * i, Stream{&simulator, &fired});
    }
    simulator.run_until(TimePoint::origin() + Duration::seconds(10));
    events = simulator.events_processed();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(events) * state.iterations());
}
BENCHMARK(BM_SimulatorHopsBehindHoldTimers)->Arg(165);

void BM_SwitchedHop(benchmark::State& state) {
  // The media path of a Table-I run without the PBX: `range` paced G.711
  // streams (218-byte frames every 20 ms) from one host through a switch to
  // another over Fast Ethernet. A frame costs its pacing tick and one
  // delivery per hop; the switch's processing step schedules no event of its
  // own. Runs 10 simulated seconds per iteration; items are delivered frames.
  class Host final : public net::Node {
   public:
    using Node::Node;
    void on_receive(const net::Packet&) override { ++received; }
    void emit(net::NodeId dst) {
      // A G.711 frame: the RTP header rides in the packet, 160 bytes of
      // audio follow it on the wire.
      net::Packet pkt;
      pkt.dst = dst;
      pkt.kind = net::PacketKind::kRtp;
      pkt.size_bytes = net::wire_size(rtp::kRtpHeaderBytes + 160);
      pkt.rtp = {.ssrc = 1,
                 .timestamp = static_cast<std::uint32_t>(sent * 160),
                 .sequence = static_cast<std::uint16_t>(sent)};
      ++sent;
      send(std::move(pkt));
    }
    std::uint64_t sent{0};
    std::uint64_t received{0};
  };
  struct Stream {
    sim::Simulator* simulator;
    Host* from;
    net::NodeId to;
    void operator()() const {
      from->emit(to);
      simulator->schedule_in(Duration::millis(20), *this);
    }
  };
  static_assert(sim::Callback::stores_inline<Stream>());
  const auto streams = state.range(0);
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  for (auto _ : state) {
    sim::Simulator simulator;
    net::Network network{simulator, sim::Random{1}};
    Host caller{"caller"};
    Host callee{"callee"};
    net::SwitchNode lan{"switch"};
    for (net::Node* node : std::initializer_list<net::Node*>{&caller, &callee, &lan}) {
      network.attach(*node);
    }
    network.connect(caller, lan);
    network.connect(callee, lan);
    for (std::int64_t i = 0; i < streams; ++i) {
      simulator.schedule_in(Duration::nanos(Duration::millis(20).ns() * i / streams),
                            Stream{&simulator, &caller, callee.id()});
    }
    simulator.run_until(TimePoint::origin() + Duration::seconds(10));
    events = simulator.events_processed();
    packets += callee.received;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
  state.counters["sim_events"] = static_cast<double>(events);
  state.counters["events_per_packet"] =
      static_cast<double>(events) * static_cast<double>(state.iterations()) /
      static_cast<double>(packets);
}
BENCHMARK(BM_SwitchedHop)->Arg(165)->Unit(benchmark::kMillisecond);

void BM_RtpSteadyState(benchmark::State& state) {
  // Steady-state media cost, packet vs fluid: the same seeded testbed run
  // (offered load in range(0)), with the hybrid engine off (range(1) == 0)
  // or on (range(1) == 1). `events_per_call_s` is the kernel-event price of
  // one simulated call-second of bidirectional G.711 media — the figure the
  // fluid fast path exists to shrink (~1100 packet-mode: 2 x 50 pps x ~11
  // events/packet, plus signalling).
  const double offered = static_cast<double>(state.range(0));
  const bool fluid = state.range(1) != 0;
  std::uint64_t events = 0;
  double call_seconds = 0.0;
  for (auto _ : state) {
    exp::TestbedConfig config;
    config.scenario = loadgen::CallScenario::for_offered_load(offered);
    config.scenario.placement_window = Duration::seconds(20);
    config.seed = 4242;
    config.fluid.enabled = fluid;
    const auto report = exp::run_testbed(config);
    events += report.events_processed;
    // Media call-seconds actually simulated: the PBX NIC sees 100 pkt/s per
    // established call (50 pps each direction), identically in both modes.
    call_seconds += static_cast<double>(report.rtp_packets_at_pbx) / 100.0;
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["sim_events"] =
      static_cast<double>(events) / static_cast<double>(state.iterations());
  state.counters["events_per_call_s"] =
      call_seconds > 0.0 ? static_cast<double>(events) / call_seconds : 0.0;
}
BENCHMARK(BM_RtpSteadyState)
    ->Args({240, 0})
    ->Args({240, 1})
    ->Unit(benchmark::kMillisecond);

void BM_ErlangB(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  double acc = 0.0;
  for (auto _ : state) {
    acc += erlang::erlang_b(erlang::Erlangs{static_cast<double>(n) * 0.97}, n);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ErlangB)->Arg(165)->Arg(1'000)->Arg(10'000);

void BM_ChannelsForBlocking(benchmark::State& state) {
  std::uint32_t acc = 0;
  for (auto _ : state) {
    acc += erlang::channels_for_blocking(erlang::Erlangs{150.0}, 0.01);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_ChannelsForBlocking);

const std::string kInviteWire = [] {
  sip::Message invite =
      sip::Message::request(sip::Method::kInvite, sip::Uri{"recv-1", "pbx.unb.br"});
  invite.vias().push_back({"client.unb.br", "z9hG4bK-bench-1"});
  invite.from() = {sip::Uri{"caller-1", "client.unb.br"}, "tag-a"};
  invite.to() = {sip::Uri{"recv-1", "pbx.unb.br"}, ""};
  invite.set_call_id("call-1@client.unb.br");
  invite.set_cseq({1, sip::Method::kInvite});
  invite.set_contact(sip::Uri{"caller-1", "client.unb.br"});
  invite.set_body("v=0\r\no=pbxcap 0 0 IN IP4 client\r\ns=x\r\nc=IN IP4 client\r\nt=0 0\r\n"
                  "m=audio 30000 RTP/AVP 0\r\na=ssrc:7 cname:x\r\n",
                  "application/sdp");
  return sip::serialize(invite);
}();

void BM_SipParse(benchmark::State& state) {
  for (auto _ : state) {
    auto parsed = sip::parse_message(kInviteWire);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(kInviteWire.size()));
}
BENCHMARK(BM_SipParse);

void BM_SipSerialize(benchmark::State& state) {
  const auto parsed = sip::parse_message(kInviteWire);
  for (auto _ : state) {
    auto wire = sip::serialize(*parsed.message);
    benchmark::DoNotOptimize(wire);
  }
}
BENCHMARK(BM_SipSerialize);

/// The counted wire size of a built message, the size every sent SipPayload
/// computes once: arg 0 is the INVITE+SDP above, arg 1 the 200 OK with SDP
/// that answers it.
void BM_SipWireBytes(benchmark::State& state) {
  const sip::Message invite = *sip::parse_message(kInviteWire).message;
  sip::Message ok = sip::Message::response_to(invite, sip::status::kOk);
  ok.to().tag = "tag-b";
  ok.set_contact(sip::Uri{"recv-1", "server.unb.br"});
  ok.set_body(invite.body(), "application/sdp");
  const sip::Message& msg = state.range(0) == 0 ? invite : ok;
  for (auto _ : state) {
    auto bytes = sip::wire_bytes(msg);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(sip::wire_bytes(msg)));
}
BENCHMARK(BM_SipWireBytes)->Arg(0)->Arg(1);

/// Heap allocations per benchmark iteration, from the counting allocator.
class AllocsPerOp {
 public:
  explicit AllocsPerOp(benchmark::State& state)
      : state_{state}, start_{g_allocs.load(std::memory_order_relaxed)} {}
  ~AllocsPerOp() {
    if (state_.iterations() == 0) return;
    state_.counters["allocs_per_op"] =
        static_cast<double>(g_allocs.load(std::memory_order_relaxed) - start_) /
        static_cast<double>(state_.iterations());
  }

 private:
  benchmark::State& state_;
  std::uint64_t start_;
};

/// The caller's offer: G.711 ulaw plus two fallbacks and an announced SSRC.
sip::Sdp bench_offer() {
  sip::Sdp sdp;
  sdp.connection_host = "client.unb.br";
  sdp.audio.rtp_port = 30'000;
  sdp.audio.payload_types = {0, 8, 18};
  sdp.audio.ssrc = 0x9e3779b9U;
  return sdp;
}

/// The SDP body of every INVITE and 200 OK, built once per message.
void BM_SdpToString(benchmark::State& state) {
  const sip::Sdp sdp = bench_offer();
  const AllocsPerOp allocs{state};
  for (auto _ : state) {
    auto text = sdp.to_string();
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_SdpToString);

/// The offer/answer parse the PBX and the receivers run on every body.
void BM_SdpParse(benchmark::State& state) {
  const std::string text = bench_offer().to_string();
  const AllocsPerOp allocs{state};
  for (auto _ : state) {
    auto parsed = sip::Sdp::parse(text);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_SdpParse);

/// Matches a request to its server transaction among range(0) live ones:
/// the lookup every received SIP message makes.
void BM_TxnMatch(benchmark::State& state) {
  struct NullTransport final : sip::Transport {
    void send_sip(std::shared_ptr<const sip::SipPayload>, net::NodeId) override {}
  };
  sim::Simulator simulator;
  NullTransport transport;
  sip::TransactionLayer layer{simulator, transport, "pbx.unb.br"};
  sip::TransactionLayer peer{simulator, transport, "client.unb.br"};
  std::vector<sip::Message> requests;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    sip::Message bye = sip::Message::request(sip::Method::kBye, sip::Uri{"recv-1", "pbx.unb.br"});
    bye.vias().push_back({"client.unb.br", peer.new_branch()});
    bye.from() = {sip::Uri{"caller-1", "client.unb.br"}, "tag-a"};
    bye.to() = {sip::Uri{"recv-1", "pbx.unb.br"}, "tag-b"};
    bye.set_call_id("call-" + std::to_string(i) + "@client.unb.br");
    bye.set_cseq({2, sip::Method::kBye});
    layer.on_message(std::make_shared<const sip::SipPayload>(bye), 1);
    requests.push_back(std::move(bye));
  }
  std::size_t next = 0;
  const AllocsPerOp allocs{state};
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.matches_server_transaction(requests[next]));
    if (++next == requests.size()) next = 0;
  }
}
BENCHMARK(BM_TxnMatch)->Arg(1'000);

void BM_RtpReceiverPipeline(benchmark::State& state) {
  for (auto _ : state) {
    rtp::RtpReceiverStats rx{8000};
    TimePoint t = TimePoint::origin();
    rtp::RtpHeader h;
    h.ssrc = 1;
    for (int i = 0; i < 6000; ++i) {  // one 120 s G.711 direction
      h.sequence = static_cast<std::uint16_t>(i);
      h.timestamp = static_cast<std::uint32_t>(i) * 160;
      rx.on_packet(h, t);
      t = t + Duration::millis(20);
    }
    benchmark::DoNotOptimize(rx.jitter());
  }
  state.SetItemsProcessed(state.iterations() * 6000);
}
BENCHMARK(BM_RtpReceiverPipeline);

void BM_RandomExponential(benchmark::State& state) {
  sim::Random rng{1};
  double acc = 0.0;
  for (auto _ : state) acc += rng.exponential(1.0);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RandomExponential);

}  // namespace
