// Property-based and parameterized tests on model invariants.
//
// The centerpiece is the cross-validation the paper rests on: an M/M/N/N
// loss-system simulation (built on the DES kernel alone, no packets) must
// reproduce the Erlang-B formula — and by the insensitivity property, so
// must M/D/N/N with deterministic hold times, which is exactly the paper's
// empirical setup (fixed h = 120 s).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <tuple>

#include "core/engset.hpp"
#include "core/erlang_b.hpp"
#include "core/erlang_c.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sip/parse.hpp"
#include "util/strings.hpp"

namespace {

using namespace pbxcap;
using erlang::Erlangs;

// ---------------------------------------------------------------------------
// Erlang-B invariants over a parameter grid.
// ---------------------------------------------------------------------------

class ErlangBGrid : public ::testing::TestWithParam<std::tuple<double, std::uint32_t>> {};

TEST_P(ErlangBGrid, BlockingIsAProbability) {
  const auto [a, n] = GetParam();
  const double pb = erlang::erlang_b(Erlangs{a}, n);
  EXPECT_GE(pb, 0.0);
  EXPECT_LE(pb, 1.0);
}

TEST_P(ErlangBGrid, MonotoneDecreasingInChannels) {
  const auto [a, n] = GetParam();
  if (a <= 0.0) return;
  EXPECT_LE(erlang::erlang_b(Erlangs{a}, n + 1), erlang::erlang_b(Erlangs{a}, n) + 1e-15);
}

TEST_P(ErlangBGrid, MonotoneIncreasingInLoad) {
  const auto [a, n] = GetParam();
  EXPECT_GE(erlang::erlang_b(Erlangs{a + 1.0}, n), erlang::erlang_b(Erlangs{a}, n) - 1e-15);
}

TEST_P(ErlangBGrid, RecurrenceIdentityHolds) {
  // B(n, A) = A*B(n-1, A) / (n + A*B(n-1, A)) — Equation (2) rewritten.
  const auto [a, n] = GetParam();
  if (n == 0 || a <= 0.0) return;
  const double prev = erlang::erlang_b(Erlangs{a}, n - 1);
  const double expected = a * prev / (static_cast<double>(n) + a * prev);
  EXPECT_NEAR(erlang::erlang_b(Erlangs{a}, n), expected, 1e-12);
}

TEST_P(ErlangBGrid, EngsetConvergesToErlangB) {
  // Note: Engset call congestion under the intended-offered-load convention
  // (alpha = A/(M-A)) can slightly EXCEED Erlang-B at non-negligible
  // blocking — blocked sources return to idle at once and re-offer — so the
  // folklore bound "Engset <= Erlang-B" only holds at light load. The robust
  // property is convergence as the population grows.
  const auto [a, n] = GetParam();
  if (a <= 0.0) return;
  const auto population = static_cast<std::uint32_t>(a * 1000.0 + 100.0);
  const double engset = erlang::engset_blocking_total(Erlangs{a}, population, n);
  const double eb = erlang::erlang_b(Erlangs{a}, n);
  EXPECT_NEAR(engset, eb, 0.002 + 0.02 * eb);
  EXPECT_GE(engset, 0.0);
  EXPECT_LE(engset, 1.0);
}

TEST_P(ErlangBGrid, EngsetBoundedByErlangBAtLightLoad) {
  const auto [a, n] = GetParam();
  if (a <= 0.0) return;
  if (erlang::erlang_b(Erlangs{a}, n) > 0.01) return;  // bound only holds here
  const auto population = static_cast<std::uint32_t>(a * 10.0 + 50.0);
  const double engset = erlang::engset_blocking_total(Erlangs{a}, population, n);
  EXPECT_LE(engset, erlang::erlang_b(Erlangs{a}, n) + 1e-9);
}

TEST_P(ErlangBGrid, ErlangCDominatesErlangB) {
  const auto [a, n] = GetParam();
  EXPECT_GE(erlang::erlang_c(Erlangs{a}, n), erlang::erlang_b(Erlangs{a}, n) - 1e-15);
}

INSTANTIATE_TEST_SUITE_P(
    LoadChannelGrid, ErlangBGrid,
    ::testing::Combine(::testing::Values(0.0, 0.5, 5.0, 20.0, 40.0, 80.0, 120.0, 160.0, 200.0,
                                         240.0),
                       ::testing::Values(1u, 2u, 10u, 42u, 100u, 165u, 200u, 300u)));

// ---------------------------------------------------------------------------
// erlang_b vs an independent long-double recurrence, far past the paper's
// 60-channel regime (N up to 10^4, A up to 5,000 E).
// ---------------------------------------------------------------------------

TEST(ErlangBProperty, MatchesLongDoubleRecurrenceAtScale) {
  // Reference: B(0) = 1; B(n) = A*B(n-1) / (n + A*B(n-1)), evaluated
  // start-to-finish in long double. Pins the production implementation
  // against drift (overflow, cancellation, clamping shortcuts) at loads and
  // channel counts orders of magnitude beyond the grid above.
  const double loads[] = {0.1, 1.0, 17.0, 120.0, 950.0, 2500.0, 5000.0};
  const std::uint32_t channels[] = {1u, 2u, 10u, 60u, 128u, 1000u, 4096u, 10000u};
  for (const double a : loads) {
    long double b = 1.0L;  // B(0)
    std::uint32_t n = 0;
    for (const std::uint32_t target : channels) {
      for (; n < target;) {
        ++n;
        b = (static_cast<long double>(a) * b) /
            (static_cast<long double>(n) + static_cast<long double>(a) * b);
      }
      const double expected = static_cast<double>(b);
      const double got = erlang::erlang_b(Erlangs{a}, target);
      ASSERT_TRUE(std::isfinite(got)) << "A=" << a << " N=" << target;
      EXPECT_GE(got, 0.0) << "A=" << a << " N=" << target;
      EXPECT_LE(got, 1.0) << "A=" << a << " N=" << target;
      EXPECT_NEAR(got, expected, 1e-9) << "A=" << a << " N=" << target;
    }
  }
}

// ---------------------------------------------------------------------------
// M/M/N/N and M/D/N/N loss-system simulation vs the closed form.
// ---------------------------------------------------------------------------

struct LossSimResult {
  double blocking;
  std::uint64_t attempts;
};

LossSimResult simulate_loss_system(double offered_erlangs, std::uint32_t channels,
                                   bool deterministic_hold, std::uint64_t seed,
                                   double horizon_s = 40'000.0) {
  sim::Simulator simulator;
  sim::Random rng{seed};
  const double hold_mean = 100.0;
  const double lambda = offered_erlangs / hold_mean;

  std::uint32_t busy = 0;
  std::uint64_t attempts = 0;
  std::uint64_t blocked = 0;

  // Warmup: ignore the first 10% of attempts when counting.
  std::uint64_t warmup_attempts = 0;

  std::function<void()> arrival = [&] {
    ++attempts;
    if (busy >= channels) {
      ++blocked;
    } else {
      ++busy;
      const double hold = deterministic_hold ? hold_mean : rng.exponential(hold_mean);
      simulator.schedule_in(Duration::from_seconds(hold), [&busy] { --busy; });
    }
    simulator.schedule_in(Duration::from_seconds(rng.exponential(1.0 / lambda)),
                          [&arrival] { arrival(); });
  };
  simulator.schedule_in(Duration::from_seconds(rng.exponential(1.0 / lambda)),
                        [&arrival] { arrival(); });
  // Let the system reach steady state before counting.
  simulator.run_until(TimePoint::origin() + Duration::from_seconds(horizon_s * 0.1));
  warmup_attempts = attempts;
  const std::uint64_t warmup_blocked = blocked;
  simulator.run_until(TimePoint::origin() + Duration::from_seconds(horizon_s));
  simulator.stop();

  const std::uint64_t counted = attempts - warmup_attempts;
  const std::uint64_t counted_blocked = blocked - warmup_blocked;
  return {counted == 0 ? 0.0
                       : static_cast<double>(counted_blocked) / static_cast<double>(counted),
          counted};
}

class LossSystemGrid
    : public ::testing::TestWithParam<std::tuple<double, std::uint32_t, bool>> {};

TEST_P(LossSystemGrid, SimulationMatchesErlangB) {
  const auto [a, n, deterministic] = GetParam();
  const auto result = simulate_loss_system(a, n, deterministic, 0xC0FFEE);
  const double expected = erlang::erlang_b(Erlangs{a}, n);
  ASSERT_GT(result.attempts, 1000u);
  // Statistical tolerance: absolute 1.5 points or 20% relative.
  const double tol = std::max(0.015, expected * 0.20);
  EXPECT_NEAR(result.blocking, expected, tol)
      << "A=" << a << " N=" << n << (deterministic ? " M/D/N/N" : " M/M/N/N");
}

INSTANTIATE_TEST_SUITE_P(
    InsensitivityCheck, LossSystemGrid,
    ::testing::Combine(::testing::Values(8.0, 15.0, 20.0),
                       ::testing::Values(10u, 16u, 20u),
                       ::testing::Bool()));  // exp and deterministic hold

// The paper's own operating point, at reduced scale (A and N scaled by 1/10
// to keep the test fast): A=16 on N=16.5 -> use 16 on 17.
TEST(LossSystem, PaperShapeScaledDown) {
  const auto sim_result = simulate_loss_system(16.0, 17, /*deterministic=*/true, 99);
  const double erlang_pb = erlang::erlang_b(Erlangs{16.0}, 17);
  EXPECT_NEAR(sim_result.blocking, erlang_pb, 0.02);
}

// ---------------------------------------------------------------------------
// SIP codec round-trip property over generated messages.
// ---------------------------------------------------------------------------

class SipRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(SipRoundTrip, SerializeParseIsIdentityOnKeyFields) {
  sim::Random rng{static_cast<std::uint64_t>(GetParam())};
  const auto methods = {sip::Method::kInvite, sip::Method::kBye, sip::Method::kOptions,
                        sip::Method::kRegister, sip::Method::kInfo};
  for (const auto method : methods) {
    sip::Message msg = sip::Message::request(
        method, sip::Uri{util::format("user%llu", (unsigned long long)rng.uniform_int(10000)),
                         "host.example", static_cast<std::uint16_t>(1024 + rng.uniform_int(60000))});
    const int hops = 1 + static_cast<int>(rng.uniform_int(3));
    for (int h = 0; h < hops; ++h) {
      msg.vias().push_back({util::format("hop%d.example", h),
                            util::format("z9hG4bK-%llu", (unsigned long long)rng.uniform_int(1u << 30))});
    }
    msg.from() = {sip::Uri{"alice", "a.example"},
                  util::format("t%llu", (unsigned long long)rng.uniform_int(1u << 20))};
    msg.to() = {sip::Uri{"bob", "b.example"}, rng.chance(0.5) ? "remote-tag" : ""};
    msg.set_call_id(util::format("cid-%llu@x", (unsigned long long)rng.uniform_int(1u << 30)));
    msg.set_cseq({static_cast<std::uint32_t>(1 + rng.uniform_int(100)), method});
    if (rng.chance(0.5)) msg.add_header("User-Agent", "pbxcap-test");
    if (rng.chance(0.5)) msg.set_body("x=1\r\n", "text/plain");

    const auto parsed = sip::parse_message(sip::serialize(msg));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(parsed.message->method(), msg.method());
    EXPECT_EQ(parsed.message->vias().size(), msg.vias().size());
    EXPECT_EQ(parsed.message->vias().front().branch, msg.vias().front().branch);
    EXPECT_EQ(parsed.message->call_id(), msg.call_id());
    EXPECT_EQ(parsed.message->cseq(), msg.cseq());
    EXPECT_EQ(parsed.message->from().tag, msg.from().tag);
    EXPECT_EQ(parsed.message->to().tag, msg.to().tag);
    EXPECT_EQ(parsed.message->body(), msg.body());
    // Round-tripping twice is a fixpoint.
    EXPECT_EQ(sip::serialize(*parsed.message), sip::serialize(msg));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SipRoundTrip, ::testing::Range(1, 9));

}  // namespace
