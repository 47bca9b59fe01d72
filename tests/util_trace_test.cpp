// Unit tests for the telemetry layer (src/util/trace, src/util/heartbeat):
// span nesting and flush ordering, heartbeat round-trips, temp+rename
// atomicity under a killed writer, and the periodic writer's heartbeat
// as a projection of the live metrics registry.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/heartbeat.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace npd {
namespace {

namespace fs = std::filesystem;

/// Tracing is process-global state; every test starts from "off, empty"
/// and leaves it that way, so suites can run in any order.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::set_enabled(false);
    (void)trace::flush();
  }
  void TearDown() override {
    trace::set_enabled(false);
    (void)trace::flush();
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  {
    const trace::Span span("ignored");
  }
  const trace::TraceSnapshot snapshot = trace::flush();
  EXPECT_TRUE(snapshot.spans.empty());
  EXPECT_EQ(snapshot.flushed_unix, 0.0);
}

TEST_F(TraceTest, NestedSpansCloseInnerFirstAndRecordDepth) {
  trace::set_enabled(true);
  {
    const trace::Span outer("outer");
    {
      const trace::Span inner("inner", "detail-text");
    }
  }
  const trace::TraceSnapshot snapshot = trace::flush();
  ASSERT_EQ(snapshot.spans.size(), 2u);
  // Completion order: the inner span is destroyed (and thus recorded)
  // before the outer one.
  EXPECT_EQ(snapshot.spans[0].name, "inner");
  EXPECT_EQ(snapshot.spans[0].detail, "detail-text");
  EXPECT_EQ(snapshot.spans[0].depth, 1);
  EXPECT_EQ(snapshot.spans[1].name, "outer");
  EXPECT_EQ(snapshot.spans[1].depth, 0);
  // The inner span lies within the outer one on the time axis.
  EXPECT_GE(snapshot.spans[0].start_us, snapshot.spans[1].start_us);
  EXPECT_LE(snapshot.spans[0].start_us + snapshot.spans[0].duration_us,
            snapshot.spans[1].start_us + snapshot.spans[1].duration_us);
  EXPECT_GT(snapshot.flushed_unix, 0.0);
}

TEST_F(TraceTest, FlushDrainsAndSecondFlushIsEmpty) {
  trace::set_enabled(true);
  { const trace::Span span("once"); }
  EXPECT_EQ(trace::flush().spans.size(), 1u);
  EXPECT_TRUE(trace::flush().spans.empty());
}

TEST_F(TraceTest, SpansFromWorkerThreadsCarryDistinctTids) {
  trace::set_enabled(true);
  parallel_for(8, 2, [](Index) { const trace::Span span("work"); },
               /*grain=*/1);
  const trace::TraceSnapshot snapshot = trace::flush();
  ASSERT_EQ(snapshot.spans.size(), 8u);
  for (const trace::SpanEvent& span : snapshot.spans) {
    EXPECT_EQ(span.name, "work");
    EXPECT_EQ(span.depth, 0);
  }
}

TEST_F(TraceTest, ChromeTraceJsonShapeAndRoundTrip) {
  trace::set_enabled(true);
  { const trace::Span span("phase", "k=1"); }
  const Json doc = trace::chrome_trace_json(trace::flush());
  EXPECT_EQ(doc.at("schema").as_string(), "npd.trace/1");
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.size(), 1u);  // spans only: one complete event
  const Json& span_event = events.at(0);
  EXPECT_EQ(span_event.at("ph").as_string(), "X");
  EXPECT_EQ(span_event.at("name").as_string(), "phase");
  EXPECT_EQ(span_event.at("args").at("detail").as_string(), "k=1");
  // The document survives a parse round-trip (what `python3 -m
  // json.tool` checks in CI, minus the subprocess).
  EXPECT_EQ(Json::parse(doc.dump(2)).dump(2), doc.dump(2));
}

// ------------------------------------------------------------- heartbeat

/// The writer projects the process-global metrics registry, so each
/// test records into a fresh, enabled registry and leaves it off.
class HeartbeatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::set_enabled(true);
    metrics::reset();
    dir_ = fs::temp_directory_path() /
           ("npd_heartbeat_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    metrics::set_enabled(false);
    metrics::reset();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

heartbeat::Heartbeat sample_heartbeat() {
  heartbeat::Heartbeat beat;
  beat.shard_index = 1;
  beat.shard_count = 3;
  beat.jobs_done = 4;
  beat.jobs_total = 9;
  beat.cache_hits = 2;
  beat.cache_misses = 7;
  beat.done = false;
  return beat;
}

TEST_F(HeartbeatTest, WriteReadRoundTrip) {
  const fs::path path = dir_ / "beat.json";
  ASSERT_TRUE(heartbeat::write_heartbeat(path, sample_heartbeat()));
  const std::optional<heartbeat::Heartbeat> read =
      heartbeat::read_heartbeat(path);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->shard_index, 1);
  EXPECT_EQ(read->shard_count, 3);
  EXPECT_EQ(read->jobs_done, 4);
  EXPECT_EQ(read->jobs_total, 9);
  EXPECT_EQ(read->cache_hits, 2);
  EXPECT_EQ(read->cache_misses, 7);
  EXPECT_FALSE(read->done);
  // write_heartbeat stamps the write time; a reader computing lag
  // against now_unix_seconds() must see a recent, positive stamp.
  EXPECT_GT(read->updated_unix, 0.0);
  EXPECT_GE(heartbeat::now_unix_seconds() + 1.0, read->updated_unix);
}

TEST_F(HeartbeatTest, MissingCorruptAndWrongSchemaReadAsNone) {
  EXPECT_FALSE(heartbeat::read_heartbeat(dir_ / "absent.json").has_value());

  const fs::path corrupt = dir_ / "corrupt.json";
  std::ofstream(corrupt) << "{\"schema\": \"npd.heartbeat/1\", trunca";
  EXPECT_FALSE(heartbeat::read_heartbeat(corrupt).has_value());

  const fs::path wrong = dir_ / "wrong.json";
  std::ofstream(wrong) << "{\"schema\": \"npd.other/1\", \"jobs_done\": 1}";
  EXPECT_FALSE(heartbeat::read_heartbeat(wrong).has_value());
}

TEST_F(HeartbeatTest, KilledWriterLeavesPreviousBeatReadable) {
  const fs::path path = dir_ / "beat.json";
  ASSERT_TRUE(heartbeat::write_heartbeat(path, sample_heartbeat()));

  // Simulate a writer killed mid-write: the temp file exists next to
  // the real one but the rename never happened.  Readers must see the
  // previous complete heartbeat, unaffected by the stray temp.
  std::ofstream(dir_ / "beat.json.tmp.99999.0") << "{\"half\": tru";
  const std::optional<heartbeat::Heartbeat> read =
      heartbeat::read_heartbeat(path);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->jobs_done, 4);
  EXPECT_EQ(read->cache_hits, 2);
}

/// The projection the writer tests use: two counters summed into
/// `jobs_done`, one counter per cache field.
heartbeat::Projection test_projection() {
  return {{"jobs.executed", "jobs.replayed"}, "cache.hits", "cache.misses"};
}

TEST_F(HeartbeatTest, WriterWritesImmediatelyAndFinishesDone) {
  const fs::path path = dir_ / "live.json";
  {
    heartbeat::PeriodicWriter writer(
        path, /*interval_ms=*/10.0,
        heartbeat::heartbeat_render(2, 5, 3, test_projection()));
    // The constructor writes the first beat synchronously — the file
    // exists before any interval elapses.
    const std::optional<heartbeat::Heartbeat> first =
        heartbeat::read_heartbeat(path);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->shard_index, 2);
    EXPECT_EQ(first->shard_count, 5);
    EXPECT_EQ(first->jobs_done, 0);
    EXPECT_FALSE(first->done);
    metrics::counter("jobs.executed", 3);
    writer.stop();
    writer.stop();  // idempotent
  }
  const std::optional<heartbeat::Heartbeat> last =
      heartbeat::read_heartbeat(path);
  ASSERT_TRUE(last.has_value());
  EXPECT_TRUE(last->done);
  EXPECT_EQ(last->jobs_done, 3);
  EXPECT_EQ(last->jobs_total, 3);
}

TEST_F(HeartbeatTest, WriterProjectsTheRegistryWorkersRecordInto) {
  const fs::path path = dir_ / "projected.json";
  heartbeat::Heartbeat identity;
  identity.shard_index = 1;
  identity.shard_count = 4;
  identity.jobs_total = 96;
  heartbeat::PeriodicWriter writer(
      path, /*interval_ms=*/1.0,
      heartbeat::heartbeat_render(identity.shard_index, identity.shard_count,
                                  identity.jobs_total, test_projection()));
  // Workers record while the writer thread snapshots the registry.
  parallel_for(96, 4, [&path](Index i) {
    if (i % 3 == 0) {
      metrics::counter("cache.hits");
      metrics::counter("jobs.replayed");
    } else {
      metrics::counter("cache.misses");
      metrics::counter("jobs.executed");
    }
    metrics::counter("unrelated.counter", 5);
    const std::optional<heartbeat::Heartbeat> live =
        heartbeat::read_heartbeat(path);
    ASSERT_TRUE(live.has_value());
    EXPECT_LE(live->jobs_done, 96);
  }, /*grain=*/1);
  writer.stop();

  const std::optional<heartbeat::Heartbeat> last =
      heartbeat::read_heartbeat(path);
  ASSERT_TRUE(last.has_value());
  heartbeat::Heartbeat expected =
      heartbeat::project(identity, test_projection(), metrics::snapshot());
  expected.done = true;
  expected.updated_unix = last->updated_unix;
  EXPECT_EQ(heartbeat::to_json(*last).dump(),
            heartbeat::to_json(expected).dump());
  EXPECT_EQ(last->jobs_done, 96);
  EXPECT_EQ(last->cache_hits, 32);
  EXPECT_EQ(last->cache_misses, 64);
  EXPECT_EQ(last->shard_index, 1);
  EXPECT_EQ(last->shard_count, 4);
  EXPECT_EQ(last->jobs_total, 96);
}

TEST_F(HeartbeatTest, JsonCarriesSchemaTag) {
  const Json doc = heartbeat::to_json(sample_heartbeat());
  EXPECT_EQ(doc.at("schema").as_string(), "npd.heartbeat/1");
  const std::optional<heartbeat::Heartbeat> parsed =
      heartbeat::from_json(doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->jobs_total, 9);
  EXPECT_EQ(doc.find("scenario"), nullptr);
  EXPECT_EQ(doc.find("cell"), nullptr);
  // Documents from writers that still carried the current job parse.
  Json legacy = doc;
  legacy.set("scenario", "fig5").set("cell", std::int64_t{6});
  const std::optional<heartbeat::Heartbeat> old =
      heartbeat::from_json(legacy);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->jobs_done, 4);
}

}  // namespace
}  // namespace npd
