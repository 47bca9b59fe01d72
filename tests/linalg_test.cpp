// Tests for the vector kernels behind the AMP iteration.

#include <gtest/gtest.h>

#include <vector>

#include "linalg/vector_ops.hpp"
#include "util/assert.hpp"

namespace npd::linalg {
namespace {

// ------------------------------------------------------------ vector ops

TEST(VectorOpsTest, DotAndNorms) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> y{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(x, y), 4.0 - 10.0 + 18.0);
  EXPECT_DOUBLE_EQ(norm_squared(x), 14.0);
  EXPECT_DOUBLE_EQ(norm(std::vector<double>{3.0, 4.0}), 5.0);
}

TEST(VectorOpsTest, DotRejectsMismatchedSizes) {
  EXPECT_THROW((void)dot(std::vector<double>{1.0},
                         std::vector<double>{1.0, 2.0}),
               ContractViolation);
}

TEST(VectorOpsTest, AxpyAndScale) {
  const std::vector<double> x{1.0, 2.0};
  std::vector<double> y{10.0, 20.0};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
  scale(0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 12.0);
}

TEST(VectorOpsTest, MeanAndDistance) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(distance_squared(std::vector<double>{1.0, 1.0},
                                    std::vector<double>{4.0, 5.0}),
                   9.0 + 16.0);
}

}  // namespace
}  // namespace npd::linalg
