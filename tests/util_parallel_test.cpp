// Tests for the parallel-for helper.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace npd {
namespace {

// ------------------------------------------------------------ parallel_for

TEST(ParallelForTest, CoversEveryIndexExactlyOnceSequential) {
  std::vector<int> hits(100, 0);
  parallel_for(100, 1, [&](Index i) { ++hits[static_cast<std::size_t>(i)]; });
  for (const int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnceParallel) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, 8, [&](Index i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  bool called = false;
  parallel_for(0, 4, [&](Index) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> hits(3);
  parallel_for(3, 64, [&](Index i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, AutoThreadsResolvesPositive) {
  EXPECT_GE(resolve_threads(0), 1);
  EXPECT_EQ(resolve_threads(7), 7);
}

TEST(ParallelForTest, ExceptionIsPropagated) {
  EXPECT_THROW(
      parallel_for(100, 4,
                   [&](Index i) {
                     if (i == 41) {
                       throw std::runtime_error("boom");
                     }
                   }),
      std::runtime_error);
}

TEST(ParallelForTest, ExceptionPropagatedSequentialToo) {
  EXPECT_THROW(
      parallel_for(10, 1,
                   [&](Index i) {
                     if (i == 5) {
                       throw std::logic_error("boom");
                     }
                   }),
      std::logic_error);
}

TEST(ParallelForTest, ResultsIndependentOfThreadCount) {
  // Deterministic per-index work: writing f(i) to slot i must give the
  // same vector for any thread count.
  const auto run = [](Index threads) {
    std::vector<double> out(500);
    parallel_for(500, threads, [&](Index i) {
      out[static_cast<std::size_t>(i)] =
          static_cast<double>(i) * 1.5 + 1.0;
    });
    return out;
  };
  EXPECT_EQ(run(1), run(4));
  EXPECT_EQ(run(4), run(16));
}

TEST(ParallelForTest, NullBodyRejected) {
  EXPECT_THROW(parallel_for(1, 1, nullptr), ContractViolation);
}

TEST(ParallelForTest, NegativeGrainRejected) {
  EXPECT_THROW(parallel_for(1, 1, [](Index) {}, -1), ContractViolation);
}

TEST(ParallelForTest, ChunkedCoversEveryIndexExactlyOnce) {
  // Block-cyclic chunking must neither skip nor duplicate indices, for
  // chunk sizes that divide the count, leave a ragged tail, or exceed it.
  for (const Index grain :
       {Index{1}, Index{3}, Index{7}, Index{64}, Index{250}, Index{1000},
        Index{5000}, std::numeric_limits<Index>::max()}) {
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(
        1000, 8,
        [&](Index i) { hits[static_cast<std::size_t>(i)].fetch_add(1); },
        grain);
    for (const auto& h : hits) {
      ASSERT_EQ(h.load(), 1) << "grain = " << grain;
    }
  }
}

TEST(ParallelForTest, ResultsBitIdenticalAcrossChunkSizesAndThreads) {
  // The harness derives one RNG stream per index, so any (threads, grain)
  // schedule must produce bit-identical output.  Mix a nonlinear float
  // recurrence per index so reordered evaluation of the *wrong* index
  // would be visible in the bits.
  const auto run = [](Index threads, Index grain) {
    std::vector<double> out(777);
    parallel_for(
        777, threads,
        [&](Index i) {
          double acc = static_cast<double>(i) * 0.1 + 1.0;
          for (int r = 0; r < 10; ++r) {
            acc = acc * 1.000001 + static_cast<double>(i % 7) * 1e-9;
          }
          out[static_cast<std::size_t>(i)] = acc;
        },
        grain);
    return out;
  };
  const std::vector<double> reference = run(1, 0);
  for (const Index threads : {2, 4, 16}) {
    for (const Index grain : {0, 1, 5, 128, 4096}) {
      EXPECT_EQ(run(threads, grain), reference)
          << "threads = " << threads << ", grain = " << grain;
    }
  }
}

TEST(ParallelForTest, ExceptionPropagatedWithLargeGrain) {
  EXPECT_THROW(
      parallel_for(
          100, 4,
          [&](Index i) {
            if (i == 63) {
              throw std::runtime_error("boom");
            }
          },
          32),
      std::runtime_error);
}

}  // namespace
}  // namespace npd
