// Unit tests for src/util: contracts, CLI parsing, CSV, tables, timers.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace npd {
namespace {

// ------------------------------------------------------------- contracts

TEST(AssertTest, CheckPassesOnTrue) {
  EXPECT_NO_THROW(NPD_CHECK(1 + 1 == 2));
}

TEST(AssertTest, CheckThrowsOnFalse) {
  EXPECT_THROW(NPD_CHECK(1 + 1 == 3), ContractViolation);
}

TEST(AssertTest, CheckMsgCarriesMessage) {
  try {
    NPD_CHECK_MSG(false, "the answer is 42");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("the answer is 42"),
              std::string::npos);
  }
}

TEST(AssertTest, ViolationMentionsExpressionAndLocation) {
  try {
    NPD_CHECK(2 < 1);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

// ------------------------------------------------------------------- CLI

TEST(CliTest, DefaultsAreReturnedWithoutArgs) {
  CliParser cli("prog", "test");
  const auto& reps = cli.add_int("reps", 7, "repetitions");
  const auto& rate = cli.add_double("rate", 0.5, "a rate");
  const auto& tag = cli.add_string("tag", "hello", "a tag");
  const auto& flag = cli.add_flag("paper", "full scale");

  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_EQ(reps, 7);
  EXPECT_DOUBLE_EQ(rate, 0.5);
  EXPECT_EQ(tag, "hello");
  EXPECT_FALSE(flag);
}

TEST(CliTest, ParsesSpaceSeparatedValues) {
  CliParser cli("prog", "test");
  const auto& reps = cli.add_int("reps", 1, "repetitions");
  const char* argv[] = {"prog", "--reps", "42"};
  cli.parse(3, argv);
  EXPECT_EQ(reps, 42);
}

TEST(CliTest, ParsesEqualsSeparatedValues) {
  CliParser cli("prog", "test");
  const auto& rate = cli.add_double("rate", 0.0, "a rate");
  const char* argv[] = {"prog", "--rate=0.25"};
  cli.parse(2, argv);
  EXPECT_DOUBLE_EQ(rate, 0.25);
}

TEST(CliTest, FlagWithoutValueBecomesTrue) {
  CliParser cli("prog", "test");
  const auto& flag = cli.add_flag("paper", "full scale");
  const char* argv[] = {"prog", "--paper"};
  cli.parse(2, argv);
  EXPECT_TRUE(flag);
}

TEST(CliTest, FlagAcceptsExplicitBoolean) {
  CliParser cli("prog", "test");
  const auto& flag = cli.add_flag("paper", "full scale");
  const char* argv[] = {"prog", "--paper=false"};
  cli.parse(2, argv);
  EXPECT_FALSE(flag);
}

TEST(CliTest, UnknownOptionThrows) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW(cli.parse(3, argv), std::invalid_argument);
}

TEST(CliTest, MissingValueThrows) {
  CliParser cli("prog", "test");
  (void)cli.add_int("reps", 1, "repetitions");
  const char* argv[] = {"prog", "--reps"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

TEST(CliTest, MalformedIntegerThrows) {
  CliParser cli("prog", "test");
  (void)cli.add_int("reps", 1, "repetitions");
  const char* argv[] = {"prog", "--reps", "12x"};
  EXPECT_THROW(cli.parse(3, argv), std::invalid_argument);
}

TEST(CliTest, PositionalArgumentsRejected) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

TEST(CliTest, DuplicateRegistrationRejected) {
  CliParser cli("prog", "test");
  (void)cli.add_int("reps", 1, "repetitions");
  EXPECT_THROW((void)cli.add_int("reps", 2, "again"), ContractViolation);
}

TEST(CliTest, HelpTextMentionsAllOptions) {
  CliParser cli("prog", "does things");
  (void)cli.add_int("reps", 1, "number of repetitions");
  (void)cli.add_flag("paper", "full scale run");
  const std::string help = cli.help_text();
  EXPECT_NE(help.find("--reps"), std::string::npos);
  EXPECT_NE(help.find("--paper"), std::string::npos);
  EXPECT_NE(help.find("number of repetitions"), std::string::npos);
  EXPECT_NE(help.find("does things"), std::string::npos);
}

TEST(CliTest, ReferencesStayValidAcrossManyRegistrations) {
  CliParser cli("prog", "test");
  const auto& first = cli.add_int("opt0", 0, "x");
  for (int i = 1; i < 50; ++i) {
    (void)cli.add_int("opt" + std::to_string(i), i, "x");
  }
  const char* argv[] = {"prog", "--opt0", "99"};
  cli.parse(3, argv);
  EXPECT_EQ(first, 99);
}

// ------------------------------------------------------------------- CSV

TEST(CsvTest, WritesHeaderAndRows) {
  const std::string path = testing::TempDir() + "npd_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.row({1.0, 2.5});
    csv.row({3.0, 4.0});
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5");
  std::getline(in, line);
  EXPECT_EQ(line, "3,4");
  std::filesystem::remove(path);
}

TEST(CsvTest, ArityMismatchThrows) {
  const std::string path = testing::TempDir() + "npd_csv_arity.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.row({1.0}), ContractViolation);
  csv.close();
  std::filesystem::remove(path);
}

TEST(CsvTest, UnopenablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}),
               std::runtime_error);
}

TEST(CsvTest, FormatDoubleRoundTripsIntegers) {
  EXPECT_EQ(format_double(42.0), "42");
  EXPECT_EQ(format_double(-3.0), "-3");
}

TEST(CsvTest, FormatDoubleKeepsPrecision) {
  EXPECT_EQ(format_double(0.1), "0.1");
  const std::string repr = format_double(1.0 / 3.0);
  EXPECT_NEAR(std::stod(repr), 1.0 / 3.0, 1e-11);
}

// ----------------------------------------------------------------- table

TEST(TableTest, RendersAlignedColumns) {
  ConsoleTable t({"n", "value"});
  t.add_row({"10", "1"});
  t.add_row({"10000", "2"});
  const std::string out = t.render();
  std::istringstream iss(out);
  std::string header;
  std::string sep;
  std::string row1;
  std::string row2;
  std::getline(iss, header);
  std::getline(iss, sep);
  std::getline(iss, row1);
  std::getline(iss, row2);
  // Column 2 starts at the same offset in every row.
  EXPECT_EQ(row1.find('1', 5), row2.find('2', 5));
  EXPECT_EQ(sep.find('-'), 0u);
}

TEST(TableTest, ArityMismatchThrows) {
  ConsoleTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(TableTest, DoubleRowsAreFormatted) {
  ConsoleTable t({"x"});
  t.add_row_doubles({2.0});
  EXPECT_NE(t.render().find("2"), std::string::npos);
  EXPECT_EQ(t.row_count(), 1u);
}

// ----------------------------------------------------------------- timer

TEST(TimerTest, ElapsedIsMonotone) {
  Timer t;
  const double first = t.elapsed_seconds();
  const double second = t.elapsed_seconds();
  EXPECT_GE(second, first);
  EXPECT_GE(first, 0.0);
}

TEST(TimerTest, ResetRestartsClock) {
  Timer t;
  (void)t.elapsed_seconds();
  t.reset();
  EXPECT_LT(t.elapsed_seconds(), 10.0);  // sanity: fresh epoch
  EXPECT_GE(t.elapsed_ms(), 0.0);
}

}  // namespace
}  // namespace npd
