// Tests for the flight recorder (src/obs/flight_recorder.h): the runtime-off
// default, record/collect round trips, ring wraparound accounting, the
// TraceSpan integration, the JSON dump shape, and a concurrent-writer stress
// for the per-slot seqlock (meaningful under TSan).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "obs/obs.h"

namespace cad {
namespace obs {
namespace {

TEST(FlightRecorderTest, DisabledByDefaultAndNotesAreNoOps) {
  ResetFlightRecorder();
  ASSERT_FALSE(FlightRecorderEnabled());
  CAD_FLIGHT_NOTE("test.flight.ignored", 7);
  FlightNote("test.flight.also_ignored", 8.0);
  EXPECT_TRUE(CollectFlightRecorder().empty());
  EXPECT_EQ(GlobalFlightRecorder().total_recorded(), 0u);
}

TEST(FlightRecorderTest, RingOverwritesOldestAndReportsDropped) {
  const ScopedFlightRecorderEnable enable;
  const size_t total = FlightRecorder::kCapacity + 10;
  for (size_t i = 0; i < total; ++i) {
    GlobalFlightRecorder().Record("test.flight.wrap", i, i + 1,
                                  static_cast<double>(i));
  }
  EXPECT_EQ(GlobalFlightRecorder().total_recorded(), total);
  const std::vector<FlightEvent> events = CollectFlightRecorder();
  ASSERT_EQ(events.size(), FlightRecorder::kCapacity);
  // The ten oldest tickets were overwritten; the survivors are contiguous.
  EXPECT_EQ(events.front().ticket, 10u);
  EXPECT_EQ(events.back().ticket, total - 1);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ticket, events[i - 1].ticket + 1);
  }
}

// CAD_FLIGHT_NOTE and CAD_TRACE_SPAN compile away under CAD_OBS_DISABLED,
// so the tests that record through them exist only in instrumented builds.
#ifndef CAD_OBS_DISABLED

TEST(FlightRecorderTest, RecordedEventsRoundTripInTicketOrder) {
  const ScopedFlightRecorderEnable enable;
  CAD_FLIGHT_NOTE("test.flight.first", 1);
  CAD_FLIGHT_NOTE("test.flight.second", 2.5);
  GlobalFlightRecorder().Record("test.flight.span", 100, 250, 0.0);
  const std::vector<FlightEvent> events = CollectFlightRecorder();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "test.flight.first");
  EXPECT_EQ(events[0].value, 1.0);
  EXPECT_EQ(events[0].ticket, 0u);
  // Point events are zero-duration stamps at the current time.
  EXPECT_EQ(events[0].start_ns, events[0].end_ns);
  EXPECT_STREQ(events[1].name, "test.flight.second");
  EXPECT_EQ(events[1].value, 2.5);
  EXPECT_EQ(events[1].ticket, 1u);
  EXPECT_STREQ(events[2].name, "test.flight.span");
  EXPECT_EQ(events[2].start_ns, 100u);
  EXPECT_EQ(events[2].end_ns, 250u);
  EXPECT_EQ(events[2].ticket, 2u);
}

TEST(FlightRecorderTest, ResetDropsHistoryAndRestartsTickets) {
  const ScopedFlightRecorderEnable enable;
  CAD_FLIGHT_NOTE("test.flight.before", 1);
  ResetFlightRecorder();
  EXPECT_TRUE(CollectFlightRecorder().empty());
  EXPECT_EQ(GlobalFlightRecorder().total_recorded(), 0u);
  CAD_FLIGHT_NOTE("test.flight.after", 2);
  const std::vector<FlightEvent> events = CollectFlightRecorder();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.flight.after");
  EXPECT_EQ(events[0].ticket, 0u);
}

TEST(FlightRecorderTest, TraceSpansRecordEvenWithTracingAndMetricsOff) {
  const ScopedFlightRecorderEnable enable;
  ASSERT_FALSE(TracingEnabled());
  ASSERT_FALSE(MetricsEnabled());
  { CAD_TRACE_SPAN("test.flight.traced_span"); }
  const std::vector<FlightEvent> events = CollectFlightRecorder();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.flight.traced_span");
  EXPECT_GE(events[0].end_ns, events[0].start_ns);
  EXPECT_EQ(events[0].value, 0.0);
}

TEST(FlightRecorderTest, JsonDumpCarriesTotalsDroppedAndEventFields) {
  const ScopedFlightRecorderEnable enable;
  CAD_FLIGHT_NOTE("test.flight.json", 42);
  GlobalFlightRecorder().Record("test.flight.json_span", 10, 35, 0.0);
  std::ostringstream out;
  ASSERT_TRUE(WriteFlightRecorderJson(&out).ok());
  const std::string dump = out.str();
  EXPECT_EQ(dump.back(), '\n');
  EXPECT_NE(dump.find("\"total_recorded\":2"), std::string::npos);
  EXPECT_NE(dump.find("\"dropped\":0"), std::string::npos);
  EXPECT_NE(dump.find("\"name\":\"test.flight.json\""), std::string::npos);
  EXPECT_NE(dump.find("\"value\":42"), std::string::npos);
  EXPECT_NE(dump.find("\"name\":\"test.flight.json_span\""),
            std::string::npos);
  EXPECT_NE(dump.find("\"duration_ns\":25"), std::string::npos);
}

#endif  // CAD_OBS_DISABLED

TEST(FlightRecorderTest, JsonDumpFailsCleanlyOnBadSink) {
  const ScopedFlightRecorderEnable enable;
  std::ostringstream out;
  out.setstate(std::ios::badbit);
  EXPECT_FALSE(WriteFlightRecorderJson(&out).ok());
}

TEST(FlightRecorderTest, ConcurrentWritersNeverProduceTornEvents) {
  const ScopedFlightRecorderEnable enable;
  constexpr size_t kWriters = 4;
  constexpr size_t kPerWriter = 2000;
  ParallelFor(kWriters, kWriters, [&](size_t w) {
    for (size_t i = 0; i < kPerWriter; ++i) {
      GlobalFlightRecorder().Record("test.flight.stress",
                                    /*start_ns=*/777, /*end_ns=*/999,
                                    static_cast<double>(w));
    }
  });
  EXPECT_EQ(GlobalFlightRecorder().total_recorded(), kWriters * kPerWriter);
  const std::vector<FlightEvent> events = CollectFlightRecorder();
  EXPECT_LE(events.size(), FlightRecorder::kCapacity);
  for (const FlightEvent& event : events) {
    // Published slots are internally consistent: every field matches what
    // some single Record() call wrote.
    EXPECT_STREQ(event.name, "test.flight.stress");
    EXPECT_EQ(event.start_ns, 777u);
    EXPECT_EQ(event.end_ns, 999u);
    EXPECT_GE(event.value, 0.0);
    EXPECT_LT(event.value, static_cast<double>(kWriters));
  }
}

}  // namespace
}  // namespace obs
}  // namespace cad
