// Tests of the benchmark's own reference arithmetic, percentile and
// failure paths. Run with `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "oracle.hpp"

namespace perfbench {
namespace {

TEST(Oracle, CpuOnlyMixGivesExactlyPPlusOne) {
  const OracleTables tables = benchTables(8);
  for (int p = 0; p <= 8; ++p) {
    const std::vector<OracleApp> apps(static_cast<std::size_t>(p), OracleApp{});
    const OracleSlowdowns s = oracleSlowdowns(apps, tables);
    EXPECT_EQ(s.comp, p + 1.0) << "p=" << p;
    EXPECT_EQ(s.p, p);
  }
}

TEST(Oracle, TwoHalfCommunicatingAppsByHand) {
  // pcomm = pcomp = {1/4, 1/2, 1/4}; 500-word messages select the 500 bin.
  const std::vector<OracleApp> apps{{0.5, 500, 0.0, 0}, {0.5, 500, 0.0, 0}};
  const OracleSlowdowns s = oracleSlowdowns(apps, benchTables(4));
  // comp = 1 + (1/2·1 + 1/4·2) + (1/2·0.2 + 1/4·0.4)
  EXPECT_DOUBLE_EQ(s.comp, 2.2);
  // comm = 1 + (1/2·0.12 + 1/4·0.24) + (1/2·0.85 + 1/4·1.7)
  EXPECT_DOUBLE_EQ(s.comm, 1.97);
  // io = 1 + (1/2·0.1 + 1/4·0.2): no app does I/O, only the CPU residual.
  EXPECT_DOUBLE_EQ(s.io, 1.1);
}

TEST(Oracle, SmallMessagesUseTheOneWordBinOnlyBelow95Words) {
  const OracleTables tables = benchTables(2);
  EXPECT_DOUBLE_EQ(oracleSlowdowns({{1.0, 64, 0.0, 0}}, tables).comp, 1.05);
  // 120 words: the 1-word bin is ineligible, 500 is the closest left.
  EXPECT_DOUBLE_EQ(oracleSlowdowns({{1.0, 120, 0.0, 0}}, tables).comp, 1.2);
  EXPECT_DOUBLE_EQ(oracleSlowdowns({{1.0, 2048, 0.0, 0}}, tables).comp, 1.35);
}

TEST(Oracle, PoissonBinomialMatchesEnumeration) {
  const std::vector<double> q{0.1, 0.35, 0.5, 0.8, 0.0, 1.0};
  std::vector<double> want(q.size() + 1, 0.0);
  for (unsigned mask = 0; mask < (1u << q.size()); ++mask) {
    double prob = 1.0;
    int happened = 0;
    for (std::size_t k = 0; k < q.size(); ++k) {
      const bool on = (mask >> k) & 1u;
      prob *= on ? q[k] : 1.0 - q[k];
      happened += on ? 1 : 0;
    }
    want[static_cast<std::size_t>(happened)] += prob;
  }
  const std::vector<double> got = poissonBinomial(q);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_NEAR(got[i], want[i], 1e-15);
}

TEST(Oracle, MixDeeperThanTheTablesThrows) {
  EXPECT_THROW((void)oracleSlowdowns(std::vector<OracleApp>(5), benchTables(4)),
               std::out_of_range);
}

TEST(Oracle, PredictByHand) {
  OracleTask task;
  task.front = 10.0;
  task.back = 1.0;
  task.io = 0.25;
  task.toBackend = {{2, 100}};     // small piece: 2·(0.001 + 100/1e6)
  task.fromBackend = {{1, 2048}};  // large piece: 0.0025 + 2048/7e5
  OracleSlowdowns s;
  s.comp = 2.0;
  s.comm = 3.0;
  s.io = 4.0;
  const OraclePrediction p = oraclePredict(task, s, benchTables(1));
  EXPECT_DOUBLE_EQ(p.front, 7.5 * 2.0 + 2.5 * 4.0);
  EXPECT_DOUBLE_EQ(p.remote, 1.0 + 3.0 * 0.0022 + 3.0 * (0.0025 + 2048 / 7.0e5));
  EXPECT_TRUE(p.offload);
}

TEST(Percentile, NearestRank) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT_EQ(percentile(values, 50.0), 50.0);
  EXPECT_EQ(percentile(values, 99.0), 99.0);
  EXPECT_EQ(percentile(values, 100.0), 100.0);
  EXPECT_EQ(percentile(values, 0.5), 1.0);
  std::vector<double> one{7.0};
  EXPECT_EQ(percentile(one, 50.0), 7.0);
  EXPECT_EQ(percentile(one, 99.0), 7.0);
  std::vector<double> none;
  EXPECT_THROW((void)percentile(none, 50.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(one, 0.0), std::invalid_argument);
}

TEST(Median, MiddleValueOrMeanOfTheMiddleTwo) {
  std::vector<double> odd{5.0, 1.0, 3.0};
  EXPECT_EQ(median(odd), 3.0);
  std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_EQ(median(even), 2.5);
  std::vector<double> none;
  EXPECT_THROW((void)median(none), std::invalid_argument);
}

TEST(Tracer, SelfTimeExcludesChildren) {
  Tracer tracer;
  tracer.beginRequest(7);
  {
    Tracer::Scope root(&tracer, "root");
    { Tracer::Scope child(&tracer, "child"); }
    { Tracer::Scope child(&tracer, "child"); }
  }
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[2].requestId, 7u);
  const Tracer::Totals root = tracer.totals("root");
  const Tracer::Totals child = tracer.totals("child");
  EXPECT_EQ(child.count, 2u);
  EXPECT_NEAR(root.selfSec, root.totalSec - child.totalSec, 1e-12);
}

struct DriverRun {
  int exitCode = -1;
  std::string stdoutText;
  std::string stderrText;
};

/// Runs the driver for one second in `workdir`.
DriverRun runDriver(const std::string& workload, const std::string& workdir,
                    const std::string& extra) {
  const std::string errPath = workdir + ".stderr";
  const std::string command = std::string(PERFBENCH_DRIVER) + " --workload " +
                              workload + " --seed 1 --seconds 1 --trace 0" +
                              " --daemon " + CONTEND_SERVED + " --workdir " +
                              workdir + " " + extra + " 2>" + errPath;
  DriverRun run;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    run.stdoutText.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  run.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  {
    std::ifstream err(errPath);
    std::stringstream text;
    text << err.rdbuf();
    run.stderrText = text.str();
  }
  std::filesystem::remove(errPath);
  return run;
}

std::string scratchDir(const char* name) {
  const std::filesystem::path dir =
      std::filesystem::current_path() / ("perfbench_test_" + std::string(name));
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(Driver, TooShallowProfileFailsLoudly) {
  // Tables for 4 contenders, as `contend_predict --calibrate` writes them:
  // the 5th ARRIVE of the 16-app population is refused.
  const std::string dir = scratchDir("shallow");
  const DriverRun run = runDriver("serve_read", dir, "--profile-depth 4");
  EXPECT_NE(run.exitCode, 0);
  EXPECT_EQ(run.stdoutText.find("\"correct\""), std::string::npos);
  EXPECT_NE(run.stderrText.find("initial population refused"), std::string::npos)
      << run.stderrText;
  EXPECT_NE(run.stderrText.find("ARRIVE: attempted 5, failed 1"), std::string::npos)
      << run.stderrText;
  std::filesystem::remove_all(dir);
}

TEST(Driver, StaleJournalFailsLoudly) {
  const std::string dir = scratchDir("stale");
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/journal.log") << "left over";
  const DriverRun run = runDriver("serve_churn", dir, "");
  EXPECT_NE(run.exitCode, 0);
  EXPECT_EQ(run.stdoutText.find("\"correct\""), std::string::npos);
  EXPECT_NE(run.stderrText.find("not fresh"), std::string::npos) << run.stderrText;
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace perfbench
