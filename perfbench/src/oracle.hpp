// oracle.hpp — the serving workloads' reference arithmetic, written from the
// paper's formulas and independent of the program's model code: a
// from-scratch Poisson-binomial DP, the Paragon slowdowns (§3.2), the
// canonical disk-I/O slowdown and the PREDICT arithmetic (equation 1).
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

struct OracleApp {
  double comm = 0.0;        // fraction of time communicating
  std::int64_t words = 0;   // message size
  double io = 0.0;          // fraction of time in disk I/O
  std::int64_t ioOps = 0;
};

struct OracleLink {
  double smallAlpha = 0.0, smallBeta = 1.0;  // messages <= threshold
  double largeAlpha = 0.0, largeBeta = 1.0;  // messages >  threshold
  std::int64_t threshold = 0;
};

/// The delay-table profile the benchmark writes for its daemon. Entry
/// [i-1] is the excess delay of i contenders.
struct OracleTables {
  std::vector<double> commFromComp;
  std::vector<double> commFromComm;
  std::vector<std::int64_t> jBins;
  std::vector<std::vector<double>> compFromComm;  // [bin][i-1]
  OracleLink toBackend;
  OracleLink fromBackend;
};

/// The benchmark's profile: `depth` contenders, three j bins.
[[nodiscard]] OracleTables benchTables(int depth);

/// P[exactly i of the events happen], i = 0..q.size(), by the O(p²) DP.
[[nodiscard]] std::vector<double> poissonBinomial(
    const std::vector<double>& q);

struct OracleSlowdowns {
  int p = 0;
  double comp = 1.0;
  double comm = 1.0;
  double io = 1.0;
};

/// Throws std::out_of_range when the mix exceeds the tables' depth.
[[nodiscard]] OracleSlowdowns oracleSlowdowns(
    const std::vector<OracleApp>& apps, const OracleTables& tables);

struct OracleDataSet {
  std::int64_t messages = 0;
  std::int64_t words = 0;
};

struct OracleTask {
  double front = 0.0;
  double back = 0.0;
  double io = 0.0;
  std::int64_t ioOps = 0;
  std::vector<OracleDataSet> toBackend;
  std::vector<OracleDataSet> fromBackend;
};

struct OraclePrediction {
  double front = 0.0;
  double remote = 0.0;
  bool offload = false;
};

[[nodiscard]] OraclePrediction oraclePredict(const OracleTask& task,
                                             const OracleSlowdowns& slowdowns,
                                             const OracleTables& tables);

/// |a - b| <= tolerance * max(|a|, |b|), with exact equality for zeros.
[[nodiscard]] bool closeRelative(double a, double b, double tolerance);

}  // namespace perfbench
