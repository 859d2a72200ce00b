// BenchReport (bench/harness.h) is the one writer and the one gate evaluator
// behind every bench's BENCH_<bench>.json: these tests pin its flag parsing,
// its gate rules, its exit status and the file's top-level shape.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"

namespace s4 {
namespace bench {
namespace {

// Each test runs in its own scratch directory: Finish() writes to the
// working directory.
class BenchReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    home_ = std::filesystem::current_path();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("bench_report_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    std::filesystem::current_path(dir_);
  }
  void TearDown() override {
    std::filesystem::current_path(home_);
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path home_;
  std::filesystem::path dir_;
};

// Finish() of a --check report holding metric m = value and one gate on it:
// 0 when the gate passes, 1 when it fails.
int FinishCheckedGate(double value, const std::string& gate_metric, const char* op,
                      double bound) {
  char prog[] = "bench_x";
  char check[] = "--check";
  char* argv[] = {prog, check};
  int argc = 2;
  BenchReport report("gate", &argc, argv);
  report.Metric("m", value, "x", Better::kHigher);
  report.Gate(gate_metric, op, bound);
  return report.Finish();
}

TEST_F(BenchReportTest, InclusiveOpsPassAtEqualityAndStrictOpFails) {
  EXPECT_EQ(FinishCheckedGate(2.5, "m", ">=", 2.5), 0);
  EXPECT_EQ(FinishCheckedGate(2.5, "m", "<=", 2.5), 0);
  EXPECT_EQ(FinishCheckedGate(2.5, "m", ">", 2.5), 1);
  EXPECT_EQ(FinishCheckedGate(2.4, "m", ">=", 2.5), 1);
  EXPECT_EQ(FinishCheckedGate(2.6, "m", "<=", 2.5), 1);
  EXPECT_EQ(FinishCheckedGate(2.6, "m", ">", 2.5), 0);
}

TEST_F(BenchReportTest, GateOnUnreportedMetricFails) {
  EXPECT_EQ(FinishCheckedGate(1.0, "renamed_m", ">=", 0), 1);
}

TEST_F(BenchReportTest, FailingGateFailsTheRunOnlyUnderCheck) {
  char prog[] = "bench_x";
  char* argv[] = {prog};
  int argc = 1;
  BenchReport report("nocheck", &argc, argv);
  report.Metric("m", 1.0, "x", Better::kHigher);
  report.Gate("m", ">=", 2.0);
  EXPECT_EQ(report.Finish(), 0);
  EXPECT_EQ(FinishCheckedGate(1.0, "m", ">=", 2.0), 1);
  EXPECT_EQ(FinishCheckedGate(3.0, "m", ">=", 2.0), 0);
}

TEST_F(BenchReportTest, OwnFlagsLeaveArgvAndOthersKeepTheirOrder) {
  char prog[] = "bench_x";
  char a[] = "--benchmark_filter=x";
  char quick[] = "--quick";
  char b[] = "--benchmark_min_warmup_time=0";
  char check[] = "--check";
  char c[] = "extra";
  char* argv[] = {prog, a, quick, b, check, c};
  int argc = 6;
  BenchReport report("flags", &argc, argv);
  EXPECT_TRUE(report.quick());
  ASSERT_EQ(argc, 4);
  EXPECT_STREQ(argv[0], "bench_x");
  EXPECT_STREQ(argv[1], "--benchmark_filter=x");
  EXPECT_STREQ(argv[2], "--benchmark_min_warmup_time=0");
  EXPECT_STREQ(argv[3], "extra");

  char* plain[] = {prog, a};
  int plain_argc = 2;
  BenchReport unflagged("flags", &plain_argc, plain);
  EXPECT_FALSE(unflagged.quick());
  EXPECT_EQ(plain_argc, 2);
}

// The keys at the top level of a JSON object, in file order.
std::vector<std::string> TopLevelKeys(const std::string& json) {
  std::vector<std::string> keys;
  int depth = 0;
  bool in_string = false;
  std::string token;
  for (size_t i = 0; i < json.size(); ++i) {
    char ch = json[i];
    if (in_string) {
      if (ch == '\\') {
        token += json[++i];
      } else if (ch == '"') {
        in_string = false;
        size_t next = json.find_first_not_of(" \n", i + 1);
        if (depth == 1 && next != std::string::npos && json[next] == ':') {
          keys.push_back(token);
        }
      } else {
        token += ch;
      }
    } else if (ch == '"') {
      in_string = true;
      token.clear();
    } else if (ch == '{' || ch == '[') {
      ++depth;
    } else if (ch == '}' || ch == ']') {
      --depth;
    }
  }
  EXPECT_EQ(depth, 0) << json;
  return keys;
}

TEST_F(BenchReportTest, FileHasExactlyTheSixTopLevelKeys) {
  BenchReport report("shape");
  report.Metric("a.b", 1.5, "s", Better::kLower);
  report.Row("table", {{"name", "x\"y"}, {"n", uint64_t{7}}, {"full", true}});
  report.Gate("a.b", "<=", 2.0);
  EXPECT_EQ(report.Finish(), 0);

  std::ifstream in("BENCH_shape.json");
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(TopLevelKeys(text.str()),
            (std::vector<std::string>{"bench", "config", "metrics", "layers", "results",
                                      "gates"}));
}

}  // namespace
}  // namespace bench
}  // namespace s4
