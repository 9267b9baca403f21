// Unit tests for util: time types, strings, tables, flags, file writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace {

using namespace pbxcap;

TEST(DurationTest, Constructors) {
  EXPECT_EQ(Duration::seconds(1).ns(), 1'000'000'000);
  EXPECT_EQ(Duration::millis(120'000).ns(), Duration::seconds(120).ns());
  EXPECT_EQ(Duration::minutes(3).ns(), Duration::seconds(180).ns());
  EXPECT_EQ(Duration::hours(1).ns(), Duration::minutes(60).ns());
}

TEST(DurationTest, FromSecondsRounds) {
  EXPECT_EQ(Duration::from_seconds(1.5).ns(), 1'500'000'000);
  EXPECT_EQ(Duration::from_seconds(20e-3).ns(), Duration::millis(20).ns());
  EXPECT_EQ(Duration::from_millis(0.5).ns(), 500'000);
}

TEST(DurationTest, Arithmetic) {
  const Duration a = Duration::seconds(2);
  const Duration b = Duration::millis(500);
  EXPECT_EQ((a + b).to_seconds(), 2.5);
  EXPECT_EQ((a - b).to_seconds(), 1.5);
  EXPECT_EQ((a * 3).to_seconds(), 6.0);
  EXPECT_EQ(a / b, 4);
  EXPECT_EQ((-a).ns(), -2'000'000'000);
}

TEST(DurationTest, Comparisons) {
  EXPECT_LT(Duration::millis(1), Duration::seconds(1));
  EXPECT_EQ(Duration::zero(), Duration::nanos(0));
  EXPECT_GT(Duration::max(), Duration::hours(24 * 365));
}

TEST(DurationTest, ToStringPicksUnit) {
  EXPECT_EQ(Duration::seconds(2).to_string(), "2.000s");
  EXPECT_EQ(Duration::millis(12).to_string(), "12.000ms");
  EXPECT_EQ(Duration::micros(7).to_string(), "7.000us");
  EXPECT_EQ(Duration::nanos(42).to_string(), "42ns");
}

TEST(TimePointTest, Arithmetic) {
  const TimePoint t0 = TimePoint::origin();
  const TimePoint t1 = t0 + Duration::seconds(10);
  EXPECT_EQ((t1 - t0).to_seconds(), 10.0);
  EXPECT_EQ((t1 - Duration::seconds(4)).to_seconds(), 6.0);
  EXPECT_LT(t0, t1);
}

TEST(Strings, Split) {
  const auto parts = util::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(util::split("", ',').size(), 1u);
}

TEST(Strings, SplitOnce) {
  const auto [head, rest, found] = util::split_once("CSeq: 1 INVITE", ':');
  EXPECT_TRUE(found);
  EXPECT_EQ(head, "CSeq");
  EXPECT_EQ(rest, " 1 INVITE");
  EXPECT_FALSE(util::split_once("nocolon", ':').found);
}

TEST(Strings, Trim) {
  EXPECT_EQ(util::trim("  x  "), "x");
  EXPECT_EQ(util::trim("\t\r\n"), "");
  EXPECT_EQ(util::trim("abc"), "abc");
}

TEST(Strings, CaseInsensitive) {
  EXPECT_TRUE(util::iequals("Content-Length", "content-length"));
  EXPECT_FALSE(util::iequals("Via", "Vias"));
  EXPECT_TRUE(util::starts_with_i("SIP/2.0 200 OK", "sip/2.0"));
  EXPECT_EQ(util::to_lower("INVITE"), "invite");
  EXPECT_EQ(util::to_upper("ack"), "ACK");
}

TEST(Strings, ParseU64) {
  std::uint64_t v = 0;
  EXPECT_TRUE(util::parse_u64("12345", v));
  EXPECT_EQ(v, 12345u);
  EXPECT_FALSE(util::parse_u64("", v));
  EXPECT_FALSE(util::parse_u64("12a", v));
  EXPECT_FALSE(util::parse_u64("-3", v));
  EXPECT_TRUE(util::parse_u64("18446744073709551615", v));
  EXPECT_FALSE(util::parse_u64("18446744073709551616", v));  // overflow
}

TEST(Strings, ParseDouble) {
  double v = -1.0;
  EXPECT_TRUE(util::parse_double("150", v));
  EXPECT_DOUBLE_EQ(v, 150.0);
  EXPECT_TRUE(util::parse_double("-2.5e-3", v));
  EXPECT_DOUBLE_EQ(v, -2.5e-3);
  EXPECT_TRUE(util::parse_double("0.02", v));
  EXPECT_DOUBLE_EQ(v, 0.02);
  for (const char* bad : {"", "abc", "1.5x", "12 ", " 12", "+1", "nan", "NaN", "inf",
                          "-infinity", "1e999", "0x10"}) {
    v = 7.0;
    EXPECT_FALSE(util::parse_double(bad, v)) << bad;
    EXPECT_DOUBLE_EQ(v, 7.0) << bad;  // untouched on failure
  }
}

TEST(Strings, Format) {
  EXPECT_EQ(util::format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(util::format("%.2f%%", 3.14159), "3.14%");
}

TEST(TextTable, RendersAligned) {
  util::TextTable t{{"name", "value"}};
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(TextTable, RejectsBadArity) {
  util::TextTable t{{"a", "b"}};
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(util::TextTable{std::vector<std::string>{}}, std::invalid_argument);
}

TEST(TextTable, CsvEscaping) {
  util::TextTable t{{"x", "y"}};
  t.add_row({"a,b", "say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
  EXPECT_EQ(util::csv_escape("plain"), "plain");
}

struct BenchFlags {
  bool fast{false};
  std::string json;
  unsigned threads{0};
  util::Flags flags;
  BenchFlags() { flags.flag("--fast", fast).value("--json", json).value("--threads", threads); }
  BenchFlags(const BenchFlags&) = delete;  // `flags` points at this object's members
  BenchFlags& operator=(const BenchFlags&) = delete;
  std::string parse(std::vector<const char*> args) {
    args.insert(args.begin(), "bench_x");
    return flags.try_parse(static_cast<int>(args.size()), args.data());
  }
};

TEST(Flags, ParsesSwitchesValuesAndNumbers) {
  BenchFlags b;
  EXPECT_EQ(b.parse({"--json", "out.json", "--fast", "--threads", "4"}), "");
  EXPECT_TRUE(b.fast);
  EXPECT_EQ(b.json, "out.json");
  EXPECT_EQ(b.threads, 4u);
}

TEST(Flags, NoArgumentsLeavesDefaults) {
  BenchFlags b;
  EXPECT_EQ(b.parse({}), "");
  EXPECT_FALSE(b.fast);
  EXPECT_EQ(b.json, "");
  EXPECT_EQ(b.threads, 0u);
}

TEST(Flags, RejectsUnknownFlag) {
  BenchFlags b;
  EXPECT_EQ(b.parse({"--fsat"}), "unknown argument '--fsat'");
  EXPECT_NE(BenchFlags{}.parse({"--fast", "extra"}), "");
  EXPECT_FALSE(b.fast);
}

TEST(Flags, RejectsMissingValue) {
  EXPECT_EQ(BenchFlags{}.parse({"--fast", "--json"}), "--json needs a value");
  EXPECT_EQ(BenchFlags{}.parse({"--threads"}), "--threads needs a value");
}

TEST(Flags, RejectsMalformedNumbers) {
  for (const char* bad : {"abc", "-1", "", "4x", "4294967296"}) {
    BenchFlags b;
    EXPECT_NE(b.parse({"--threads", bad}), "") << bad;
    EXPECT_EQ(b.threads, 0u) << bad;
  }
  BenchFlags max;
  EXPECT_EQ(max.parse({"--threads", "4294967295"}), "");
  EXPECT_EQ(max.threads, 4294967295u);
}

TEST(Flags, ParseExitsTwoWithUsage) {
  BenchFlags b;
  const char* argv[] = {"build/bench/bench_x", "--fsat"};
  EXPECT_EXIT(b.flags.parse(2, argv), ::testing::ExitedWithCode(2),
              "unknown argument '--fsat'\nusage: bench_x \\[--fast\\] \\[--json PATH\\] "
              "\\[--threads N\\]");
}

TEST(Flags, ParsesSixtyFourBitAndFiniteNumbers) {
  std::uint64_t seed = 1;
  double window = 180.0;
  util::Flags flags;
  flags.value("--seed", seed).value("--window", window);
  const auto parse = [&flags](std::vector<const char*> args) {
    args.insert(args.begin(), "pbxcap");
    return flags.try_parse(static_cast<int>(args.size()), args.data());
  };
  EXPECT_EQ(parse({"--seed", "18446744073709551615", "--window", "2.5"}), "");
  EXPECT_EQ(seed, 18446744073709551615u);
  EXPECT_DOUBLE_EQ(window, 2.5);
  EXPECT_EQ(parse({"--window", "-30"}), "");
  EXPECT_DOUBLE_EQ(window, -30.0);
  EXPECT_EQ(parse({"--seed", "18446744073709551616"}),
            "--seed needs an unsigned number, got '18446744073709551616'");
  EXPECT_EQ(parse({"--seed", "-1"}), "--seed needs an unsigned number, got '-1'");
  EXPECT_EQ(parse({"--window", "x"}), "--window needs a finite number, got 'x'");
  EXPECT_EQ(parse({"--window", "inf"}), "--window needs a finite number, got 'inf'");
  EXPECT_EQ(parse({"--window"}), "--window needs a value");
  EXPECT_EQ(seed, 18446744073709551615u);
  EXPECT_DOUBLE_EQ(window, -30.0);
  const char* argv[] = {"pbxcap", "--bogus"};
  EXPECT_EXIT(flags.parse(2, argv), ::testing::ExitedWithCode(2),
              "usage: pbxcap \\[--seed N\\] \\[--window X\\]");
}

TEST(WriteFile, WritesContentExactly) {
  const std::string path = ::testing::TempDir() + "pbxcap_write_file_test.txt";
  ASSERT_TRUE(util::write_file(path, std::string_view{"a\0b\n", 4}));
  std::ifstream in{path, std::ios::binary};
  std::stringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(), std::string("a\0b\n", 4));
  std::remove(path.c_str());
}

TEST(WriteFile, FailsWhenCloseFails) {
  // /dev/full accepts the buffered fwrite; the flush in fclose gets ENOSPC.
  EXPECT_FALSE(util::write_file("/dev/full", "payload"));
}

TEST(WriteFile, FailsInMissingDirectory) {
  EXPECT_FALSE(util::write_file(::testing::TempDir() + "no-such-dir/out.json", "{}"));
}

}  // namespace
