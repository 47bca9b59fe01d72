// Unit tests for the metrics registry (src/util/metrics) and the
// sampling profiler (src/util/profiler): thread-count-invariant
// snapshots, deterministic cross-document merges, counter lookup,
// and the profiler's process-lifecycle contract (fork/exec children,
// SIGKILL mid-sampling).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/file.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/profiler.hpp"
#include "util/timer.hpp"

namespace npd {
namespace {

namespace fs = std::filesystem;

/// The registry is process-global; every test starts from "off, empty"
/// and leaves it that way, so suites can run in any order.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::set_enabled(false);
    metrics::reset();
  }
  void TearDown() override {
    metrics::set_enabled(false);
    metrics::reset();
  }
};

/// Snapshot document with the one nondeterministic field zeroed.
std::string canonical_snapshot() {
  Json doc = metrics::snapshot_json(metrics::snapshot());
  doc.set("captured_unix", 0.0);
  return doc.dump(2);
}

void record_workload_a(Index threads) {
  parallel_for(64, threads, [](Index i) {
    metrics::counter("jobs.executed");
    if (i % 2 == 0) {
      metrics::counter("cache.hits", 2);
    }
    metrics::gauge("queue.depth", static_cast<std::int64_t>(i));
    metrics::observe("latency_seconds",
                     1e-4 * static_cast<double>(i % 8 + 1));
  });
}

void record_workload_b(Index threads) {
  parallel_for(48, threads, [](Index i) {
    metrics::counter("jobs.executed", 3);
    metrics::gauge("queue.depth", 200 + static_cast<std::int64_t>(i));
    metrics::observe("latency_seconds",
                     1e-2 * static_cast<double>(i % 5 + 1));
    metrics::observe("batch.jobs", static_cast<double>(i));
  });
}

TEST_F(MetricsTest, DisabledRecordsNothing) {
  metrics::counter("ignored");
  metrics::gauge("ignored.gauge", 7);
  metrics::observe("ignored.histogram", 0.5);
  const metrics::MetricsSnapshot snap = metrics::snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST_F(MetricsTest, SnapshotIsBitIdenticalAcrossThreadCounts) {
  std::vector<std::string> snapshots;
  for (const Index threads : {Index(1), Index(2), Index(7)}) {
    metrics::reset();
    metrics::set_enabled(true);
    record_workload_a(threads);
    snapshots.push_back(canonical_snapshot());
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_EQ(snapshots[0], snapshots[2]);
}

TEST_F(MetricsTest, CountersSumAndComeBackNameSorted) {
  metrics::set_enabled(true);
  metrics::counter("zebra", 5);
  metrics::counter("alpha");
  metrics::counter("zebra");
  const metrics::MetricsSnapshot snap = metrics::snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[0].value, 1);
  EXPECT_EQ(snap.counters[1].name, "zebra");
  EXPECT_EQ(snap.counters[1].value, 6);
  EXPECT_EQ(snap.counter("zebra"), 6);
  EXPECT_EQ(snap.counter("absent"), 0);
}

TEST_F(MetricsTest, GaugeTakesMaximumAcrossThreadCells) {
  metrics::set_enabled(true);
  parallel_for(16, 4,
               [](Index i) {
                 metrics::gauge("depth", static_cast<std::int64_t>(i));
               },
               /*grain=*/1);
  const metrics::MetricsSnapshot snap = metrics::snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].name, "depth");
  EXPECT_EQ(snap.gauges[0].value, 15);
}

TEST_F(MetricsTest, HistogramBucketsCountAndMinMax) {
  metrics::set_enabled(true);
  // Bounds are 1e-6 * 2^i with inclusive upper bounds: 1e-6 lands in
  // bucket 0, 1.5e-6 in bucket 1, and something enormous overflows.
  metrics::observe("h", 1e-6);
  metrics::observe("h", 1.5e-6);
  metrics::observe("h", 1e9);
  const metrics::MetricsSnapshot snap = metrics::snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const metrics::HistogramValue& h = snap.histograms[0];
  EXPECT_EQ(h.count, 3);
  EXPECT_EQ(h.min, 1e-6);
  EXPECT_EQ(h.max, 1e9);
  ASSERT_EQ(h.buckets.size(),
            static_cast<std::size_t>(metrics::kHistogramBuckets + 1));
  EXPECT_EQ(h.buckets[0], 1);
  EXPECT_EQ(h.buckets[1], 1);
  EXPECT_EQ(h.buckets[metrics::kHistogramBuckets], 1);  // overflow
  std::int64_t total = 0;
  for (const std::int64_t b : h.buckets) {
    total += b;
  }
  EXPECT_EQ(total, h.count);
  EXPECT_EQ(metrics::histogram_bound(0), 1e-6);
  EXPECT_EQ(metrics::histogram_bound(1), 2e-6);
}

TEST_F(MetricsTest, SnapshotJsonRoundTrips) {
  metrics::set_enabled(true);
  record_workload_a(2);
  const Json doc = metrics::snapshot_json(metrics::snapshot());
  EXPECT_EQ(doc.at("schema").as_string(), "npd.metrics/1");
  const metrics::MetricsSnapshot parsed = metrics::snapshot_from_json(doc);
  EXPECT_EQ(metrics::snapshot_json(parsed).dump(2), doc.dump(2));
  EXPECT_THROW((void)metrics::snapshot_from_json(Json::object()),
               std::invalid_argument);
}

TEST_F(MetricsTest, MergedShardDocsEqualOneProcessRecordingEverything) {
  // Record workload A and B in separate "shards" (reset between), then
  // both in one registry: the merged documents must be bit-identical to
  // the single-registry snapshot.
  metrics::set_enabled(true);
  record_workload_a(3);
  const Json doc_a = metrics::snapshot_json(metrics::snapshot());
  metrics::reset();
  record_workload_b(2);
  const Json doc_b = metrics::snapshot_json(metrics::snapshot());
  metrics::reset();
  record_workload_a(1);
  record_workload_b(5);
  const std::string combined = canonical_snapshot();

  Json merged = metrics::merge_snapshot_docs({doc_a, doc_b});
  merged.set("captured_unix", 0.0);
  EXPECT_EQ(merged.dump(2), combined);
}

TEST_F(MetricsTest, ResetIsSnapshotEquivalentToFreshRegistry) {
  metrics::set_enabled(true);
  record_workload_a(2);
  metrics::reset();
  const metrics::MetricsSnapshot snap = metrics::snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST_F(MetricsTest, WriteFileAtomicallyLeavesOnlyTheTarget) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("npd_metrics_test_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path target = dir / "snapshot.json";
  ASSERT_TRUE(write_file_atomically(target, "{\"ok\": true}"));
  ASSERT_TRUE(write_file_atomically(target, "{\"ok\": false}"));
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);  // no stray temp files
  std::ifstream in(target);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(text, "{\"ok\": false}");
  fs::remove_all(dir);
}

// -------------------------------------------------------------- profiler

/// Burn CPU until roughly `seconds` of wall time passed — ITIMER_PROF
/// only ticks while the process is on-CPU, so the loop must compute.
std::uint64_t burn_cpu(double seconds) {
  const Timer timer;
  std::uint64_t acc = 1469598103934665603ULL;
  while (timer.elapsed_seconds() < seconds) {
    for (int i = 0; i < 4096; ++i) {
      acc = (acc ^ static_cast<std::uint64_t>(i)) * 1099511628211ULL;
    }
  }
  return acc;
}

TEST(ProfilerTest, CollectWithoutStartIsEmpty) {
  prof::stop();  // idempotent even when never started
  const prof::Profile profile = prof::collect();
  EXPECT_EQ(profile.samples, 0);
  EXPECT_TRUE(profile.stacks.empty());
}

TEST(ProfilerTest, SamplesABusyLoopAndFoldsStacks) {
  ASSERT_TRUE(prof::start(2000));
  EXPECT_TRUE(prof::running());
  EXPECT_FALSE(prof::start(2000));  // one profiler per process
  (void)burn_cpu(0.5);
  prof::stop();
  EXPECT_FALSE(prof::running());
  const prof::Profile profile = prof::collect();
  EXPECT_EQ(profile.hz, 2000);
  EXPECT_GT(profile.samples, 0);
  ASSERT_FALSE(profile.stacks.empty());
  std::int64_t total = 0;
  for (const prof::FoldedStack& folded : profile.stacks) {
    EXPECT_FALSE(folded.stack.empty());
    EXPECT_GT(folded.count, 0);
    total += folded.count;
  }
  EXPECT_EQ(total, profile.samples);
  const Json doc = prof::profile_json(profile);
  EXPECT_EQ(doc.at("schema").as_string(), "npd.profile/1");
  EXPECT_EQ(doc.at("hz").as_int(), 2000);
  EXPECT_EQ(doc.at("samples").as_int(), profile.samples);
  EXPECT_EQ(doc.at("stacks").size(), profile.stacks.size());

  // collect() resets the buffer: a second profile starts fresh.
  ASSERT_TRUE(prof::start(100));
  prof::stop();
  const prof::Profile second = prof::collect();
  EXPECT_LE(second.samples, profile.samples);
}

TEST(ProfilerTest, ForkedChildCanExecWhileParentSamples) {
  ASSERT_TRUE(prof::start(1000));
  const pid_t pid = ::fork();
  if (pid == 0) {
    // POSIX resets ITIMER_PROF in the child: no SIGPROF will arrive,
    // and exec clears the inherited handler.  A failed exec must not
    // return into the test runner.
    ::execl("/bin/true", "true", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ASSERT_GT(pid, 0);
  (void)burn_cpu(0.1);  // keep the parent sampling across the child exec
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  prof::stop();
  (void)prof::collect();
}

TEST(ProfilerTest, ChildKilledMidSamplingDiesCleanly) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: sample itself and spin until killed.  No profile document
    // ever exists — it is only written after stop(), which never runs.
    if (!prof::start(1000)) {
      ::_exit(3);
    }
    for (;;) {
      (void)burn_cpu(0.05);
    }
  }
  ASSERT_GT(pid, 0);
  (void)burn_cpu(0.1);  // let the child take a few samples first
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
}

}  // namespace
}  // namespace npd
