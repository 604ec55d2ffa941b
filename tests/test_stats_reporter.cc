// Tests for the heartbeat emitter (src/obs/stats_reporter.h): count-based
// emission cadence, the line-delimited record schema, delta semantics against
// the global registry, and the non-timer determinism contract (the volatile
// "timer" object is the record's last key, strippable by truncation).
//
// Like the metric-macro tests, these run against the process-global registry
// and therefore use test-unique metric names.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace cad {
namespace obs {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// The deterministic prefix of a heartbeat line: everything before the
/// volatile trailing "timer" object.
std::string StripTimer(const std::string& line) {
  const size_t cut = line.find(",\"timer\":");
  return cut == std::string::npos ? line : line.substr(0, cut);
}

TEST(StatsReporterTest, EmitsEveryNthTickAndCountsRecords) {
  const ScopedMetricsEnable enable;
  std::ostringstream out;
  StatsReporter reporter(&out, 3);
  for (int tick = 1; tick <= 9; ++tick) {
    const Result<bool> emitted = reporter.Tick();
    ASSERT_TRUE(emitted.ok());
    EXPECT_EQ(*emitted, tick % 3 == 0) << "tick " << tick;
  }
  EXPECT_EQ(reporter.ticks(), 9u);
  EXPECT_EQ(reporter.records_emitted(), 3u);
  EXPECT_EQ(Lines(out.str()).size(), 3u);
}

// These read counters recorded through the CAD_METRIC_* macros, which
// compile away under CAD_OBS_DISABLED.
#ifndef CAD_OBS_DISABLED

TEST(StatsReporterTest, RecordCarriesSchemaFieldsWithTimerLast) {
  const ScopedMetricsEnable enable;
  std::ostringstream out;
  StatsReporter reporter(&out, 1);
  CAD_METRIC_INC("test.stats.schema_counter");
  ASSERT_TRUE(reporter.Tick().ok());
  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"v\":1,\"seq\":0,\"window\":1,"), std::string::npos);
  EXPECT_NE(line.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(line.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(line.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(line.find("\"test.stats.schema_counter\":1"), std::string::npos);
  // Exactly one volatile "timer" key, and nothing deterministic after it:
  // consumers strip it by truncating the line there.
  const size_t timer_at = line.find(",\"timer\":{");
  ASSERT_NE(timer_at, std::string::npos);
  EXPECT_EQ(line.find(",\"timer\":{", timer_at + 1), std::string::npos);
  EXPECT_NE(line.find("\"peak_rss_bytes\":", timer_at), std::string::npos);
}

TEST(StatsReporterTest, CountersAreDeltasAndZeroDeltasAreOmitted) {
  const ScopedMetricsEnable enable;
  std::ostringstream out;
  StatsReporter reporter(&out, 1);
  CAD_METRIC_ADD("test.stats.delta_counter", 2);
  ASSERT_TRUE(reporter.Tick().ok());
  CAD_METRIC_ADD("test.stats.delta_counter", 5);
  ASSERT_TRUE(reporter.Tick().ok());
  ASSERT_TRUE(reporter.Tick().ok());  // no activity since the last record
  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"test.stats.delta_counter\":2"),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"test.stats.delta_counter\":5"),
            std::string::npos);
  // The idle heartbeat omits the unchanged counter entirely.
  EXPECT_EQ(lines[2].find("test.stats.delta_counter"), std::string::npos);
}

#endif  // CAD_OBS_DISABLED

TEST(StatsReporterTest, WindowLatencyQuantilesAppearInTheTimerObject) {
  const ScopedMetricsEnable enable;
  std::ostringstream out;
  StatsReporter reporter(&out, 1);
  CAD_METRIC_TIME_HIST_NS("test.stats.latency", 2000000);
  CAD_METRIC_TIME_HIST_NS("test.stats.latency", 4000000);
  ASSERT_TRUE(reporter.Tick().ok());
  const std::string line = Lines(out.str()).at(0);
  const size_t timer_at = line.find(",\"timer\":{");
  ASSERT_NE(timer_at, std::string::npos);
  // Quantiles live inside the volatile section, in milliseconds.
  EXPECT_GT(line.find("\"test.stats.latency\":{\"count\":2,\"p50_ms\":"),
            timer_at);
  EXPECT_GT(line.find("\"p90_ms\":", timer_at), timer_at);
  EXPECT_GT(line.find("\"p99_ms\":", timer_at), timer_at);
  EXPECT_GT(line.find("\"max_ms\":", timer_at), timer_at);
  // And nowhere in the deterministic prefix.
  EXPECT_EQ(StripTimer(line).find("test.stats.latency"), std::string::npos);
}

TEST(StatsReporterTest, NonTimerFieldsAreIdenticalAcrossIdenticalWorkloads) {
  const auto run = [] {
    const ScopedMetricsEnable enable;
    std::ostringstream out;
    StatsReporter reporter(&out, 2);
    for (int tick = 0; tick < 6; ++tick) {
      CAD_METRIC_INC("test.stats.replay");
      CAD_METRIC_OBSERVE("test.stats.replay_hist",
                         static_cast<double>(tick + 1));
      CAD_METRIC_TIME_HIST_NS("test.stats.replay_latency", 1000 * (tick + 1));
      EXPECT_TRUE(reporter.Tick().ok());
    }
    std::string stripped;
    for (const std::string& line : Lines(out.str())) {
      stripped += StripTimer(line);
      stripped += '\n';
    }
    return stripped;
  };
  EXPECT_EQ(run(), run());
}

TEST(StatsReporterTest, SinkFailureSurfacesAsIoError) {
  const ScopedMetricsEnable enable;
  std::ostringstream out;
  StatsReporter reporter(&out, 1);
  out.setstate(std::ios::badbit);
  const Result<bool> emitted = reporter.Tick();
  ASSERT_FALSE(emitted.ok());
  EXPECT_EQ(emitted.status().code(), StatusCode::kIoError);
}

TEST(StatsReporterTest, PeakRssIsPositiveOnSupportedPlatforms) {
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(PeakRssBytes(), 0u);
#else
  EXPECT_EQ(PeakRssBytes(), 0u);
#endif
}

}  // namespace
}  // namespace obs
}  // namespace cad
