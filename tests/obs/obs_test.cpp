// obs: the telemetry spine in isolation.  Registry cells (stable
// references, gauge overwrite, sorted snapshot, JSON export), the profile
// tree (nesting, aggregation across repeated spans, the percent-of-total
// report), span runtime gating (a disabled span records nothing), and the
// Chrome-trace emitter (balanced B/E pairs, monotone timestamps, span
// args).  Recording tests skip when the instrumentation is compiled out
// (-DICTL_OBS=OFF): the classes still exist there — only recording stops.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/obs.hpp"

namespace ictl::obs {
namespace {

/// set_enabled + global profiler/registry state is process-wide; every test
/// that arms recording goes through this fixture so it cannot leak an
/// enabled flag or half-built profile tree into its neighbours.
class ObsRecordingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kCompiledIn) GTEST_SKIP() << "instrumentation compiled out";
    Profiler::global().reset();
    set_enabled(true);
  }
  void TearDown() override {
    if (kCompiledIn) {
      set_enabled(false);
      Profiler::global().reset();
    }
  }
};

TEST(ObsRegistry, CounterCellsAreStableAndAccumulate) {
  Registry reg;
  Counter& cell = reg.counter("bdd", "gc_runs");
  cell.add();
  cell.add(2);
  EXPECT_EQ(reg.value("bdd", "gc_runs"), 3u);
  // Same path, same cell.
  EXPECT_EQ(&reg.counter("bdd", "gc_runs"), &cell);
  // Unregistered reads are 0, not a registration.
  EXPECT_EQ(reg.value("bdd", "nope"), 0u);
  EXPECT_EQ(reg.snapshot().size(), 1u);
}

TEST(ObsRegistry, SetIsTheGaugePath) {
  Registry reg;
  reg.set("sym", "saturation_sweeps", 7);
  reg.set("sym", "saturation_sweeps", 5);  // overwrite, not accumulate
  EXPECT_EQ(reg.value("sym", "saturation_sweeps"), 5u);
}

TEST(ObsRegistry, SnapshotIsSortedByPath) {
  Registry reg;
  reg.set("sym", "pre_images", 2);
  reg.set("bdd", "gc_runs", 1);
  reg.set("mc/eval", "instructions", 3);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, "bdd/gc_runs");
  EXPECT_EQ(snap[1].first, "mc/eval/instructions");
  EXPECT_EQ(snap[2].first, "sym/pre_images");
}

TEST(ObsRegistry, ToJsonWrapsCountersObject) {
  Registry reg;
  reg.set("bdd", "gc_runs", 4);
  reg.set("sym", "frontier_rounds", 11);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"bdd/gc_runs\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"sym/frontier_rounds\": 11"), std::string::npos);
}

TEST(ObsRegistry, ToJsonEscapesCounterPaths) {
  // Registry::counter takes any string_view: a quote, a backslash and a
  // control character in a path must come out as JSON escapes.
  Registry reg;
  reg.set("odd", "a\"b\\c\x01" "d", 7);
  EXPECT_EQ(reg.to_json(), "{\"counters\": {\"odd/a\\\"b\\\\c\\u0001d\": 7}}");
}

TEST(ObsJson, AppendJsonStringEscapesEveryControlCharacter) {
  std::ostringstream out;
  append_json_string(out, std::string_view("q\"s\\n\nt\t\x1f.", 10));
  EXPECT_EQ(out.str(), "\"q\\\"s\\\\n\\nt\\t\\u001f.\"");
}

TEST(ObsRegistry, ResetZeroesButKeepsReferencesValid) {
  Registry reg;
  Counter& cell = reg.counter("a", "b");
  cell.add(9);
  reg.reset();
  EXPECT_EQ(reg.value("a", "b"), 0u);
  cell.add();  // the pre-reset reference still points at the live cell
  EXPECT_EQ(reg.value("a", "b"), 1u);
}

TEST(ObsSpan, DisabledSpanRecordsNothing) {
  if (kCompiledIn) set_enabled(false);
  const std::uint64_t before = Profiler::global().snapshot().size();
  {
    SpanGuard span("test", "disabled");
    EXPECT_EQ(span.elapsed_ns(), 0u);
  }
  EXPECT_EQ(Profiler::global().snapshot().size(), before);
}

TEST_F(ObsRecordingTest, SpansAggregateIntoTheProfileTree) {
  for (int i = 0; i < 2; ++i) {
    SpanGuard outer("engine", "solve");
    { SpanGuard inner("engine", "gc"); }
    { SpanGuard inner("engine", "gc"); }
  }
  const auto snap = Profiler::global().snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].label, "engine/solve");
  EXPECT_EQ(snap[0].depth, 0u);
  EXPECT_EQ(snap[0].count, 2u);
  EXPECT_EQ(snap[1].label, "engine/gc");
  EXPECT_EQ(snap[1].depth, 1u);  // nested under solve, aggregated
  EXPECT_EQ(snap[1].count, 4u);
  EXPECT_GE(snap[0].total_ns, snap[1].total_ns);
  EXPECT_EQ(Profiler::global().total_ns(), snap[0].total_ns);
}

TEST_F(ObsRecordingTest, ReportIsPercentOfTotal) {
  {
    SpanGuard outer("ring", "verify");
    SpanGuard inner("ring", "encode");
  }
  const std::string report = Profiler::global().report();
  EXPECT_NE(report.find("ring/verify"), std::string::npos);
  EXPECT_NE(report.find("ring/encode"), std::string::npos);
  EXPECT_NE(report.find('%'), std::string::npos);
  // The root span is 100% of itself.
  EXPECT_NE(report.find("100.00%"), std::string::npos);
}

TEST_F(ObsRecordingTest, MacrosRecordWhenCompiledIn) {
  const std::uint64_t before =
      Registry::global().value("obs_test", "macro_count");
  ICTL_COUNT("obs_test", "macro_count");
  ICTL_COUNT_ADD("obs_test", "macro_count", 2);
  EXPECT_EQ(Registry::global().value("obs_test", "macro_count"), before + 3);
  { ICTL_PROFILE("obs_test", "macro_span"); }
  const auto snap = Profiler::global().snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].label, "obs_test/macro_span");
}

TEST_F(ObsRecordingTest, TraceEmitsBalancedPairsWithArgs) {
  std::stringstream out;
  trace_start();
  EXPECT_TRUE(tracing());
  {
    SpanGuard outer("sym", "reach_fixpoint", "parts", 12);
    {
      SpanGuard inner("sym", "saturation_sweep");
      span_arg("rounds", 3);
    }
  }
  const std::size_t events = trace_stop(out);
  EXPECT_FALSE(tracing());
  EXPECT_EQ(events, 4u);  // two spans, one B + one E each
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"reach_fixpoint\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"sym\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"parts\": 12"), std::string::npos);   // B-event arg
  EXPECT_NE(json.find("\"rounds\": 3"), std::string::npos);   // E-event arg
}

TEST_F(ObsRecordingTest, TraceEscapesSpanNamesScopesAndArgKeys) {
  // Span strings need static storage; these literals carry a quote, a
  // backslash and a control character into every escaped field.
  std::stringstream out;
  trace_start();
  { SpanGuard span("s\\c", "n\"a\\m\x01" "e", "k\"ey", 5); }
  trace_stop(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"name\": \"n\\\"a\\\\m\\u0001e\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"cat\": \"s\\\\c\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"k\\\"ey\": 5"), std::string::npos) << json;
}

TEST_F(ObsRecordingTest, TraceStopRestoresThePriorEnableState) {
  set_enabled(false);
  trace_start();  // arms recording implicitly
  EXPECT_TRUE(enabled());
  { SpanGuard span("t", "s"); }
  std::stringstream out;
  trace_stop(out);
  EXPECT_FALSE(enabled());  // back to the pre-trace state
}

TEST(ObsCompiledOut, MacrosAreInertWithoutTheGate) {
  if (kCompiledIn) GTEST_SKIP() << "instrumentation compiled in";
  // The whole surface stays callable with zero recording.
  EXPECT_FALSE(enabled());
  set_enabled(true);
  EXPECT_FALSE(enabled());  // cannot be armed
  trace_start();
  EXPECT_FALSE(tracing());
  { SpanGuard span("t", "s"); }
  std::stringstream out;
  EXPECT_EQ(trace_stop(out), 0u);
  EXPECT_TRUE(Profiler::global().snapshot().empty());
}

}  // namespace
}  // namespace ictl::obs
