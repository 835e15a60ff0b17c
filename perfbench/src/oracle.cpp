#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace perfbench {

OracleTables benchTables(int depth) {
  OracleTables tables;
  tables.jBins = {1, 500, 1000};
  tables.compFromComm.assign(3, {});
  for (int i = 1; i <= depth; ++i) {
    const double n = i;
    tables.commFromComp.push_back(0.12 * n);
    tables.commFromComm.push_back(0.85 * n);
    tables.compFromComm[0].push_back(0.05 * n);
    tables.compFromComm[1].push_back(0.2 * n);
    tables.compFromComm[2].push_back(0.35 * n);
  }
  tables.toBackend = {0.001, 1.0e6, 0.002, 8.0e5, 1024};
  tables.fromBackend = {0.0012, 9.0e5, 0.0025, 7.0e5, 1024};
  return tables;
}

std::vector<double> poissonBinomial(const std::vector<double>& q) {
  // dist[k][i]: probability that exactly i of the first k events happen.
  std::vector<double> dist(q.size() + 1, 0.0);
  dist[0] = 1.0;
  for (std::size_t k = 0; k < q.size(); ++k) {
    for (std::size_t i = k + 1; i > 0; --i) {
      dist[i] = dist[i] * (1.0 - q[k]) + dist[i - 1] * q[k];
    }
    dist[0] *= 1.0 - q[k];
  }
  return dist;
}

namespace {

/// Closest bin to the largest communicating message; the j = 1 bin is only
/// eligible below 95 words (the paper's footnote 2); ties go to the larger
/// bin; with no eligible bin, the largest.
std::size_t jBin(const std::vector<std::int64_t>& bins,
                 std::int64_t maxWords) {
  std::size_t best = bins.size();
  for (std::size_t b = 0; b < bins.size(); ++b) {
    if (bins[b] <= 95 && maxWords >= 95) continue;
    const std::int64_t dist = std::llabs(bins[b] - maxWords);
    if (best == bins.size() || dist < std::llabs(bins[best] - maxWords) ||
        (dist == std::llabs(bins[best] - maxWords) && bins[b] > bins[best])) {
      best = b;
    }
  }
  return best == bins.size() ? bins.size() - 1 : best;
}

double dcomm(const OracleLink& link, const std::vector<OracleDataSet>& sets) {
  double total = 0.0;
  for (const OracleDataSet& set : sets) {
    const bool small = set.words <= link.threshold;
    const double alpha = small ? link.smallAlpha : link.largeAlpha;
    const double beta = small ? link.smallBeta : link.largeBeta;
    total += static_cast<double>(set.messages) *
             (alpha + static_cast<double>(set.words) / beta);
  }
  return total;
}

}  // namespace

OracleSlowdowns oracleSlowdowns(const std::vector<OracleApp>& apps,
                                const OracleTables& tables) {
  const std::size_t p = apps.size();
  if (p > tables.commFromComp.size()) {
    throw std::out_of_range("oracle: " + std::to_string(p) +
                            " apps exceed the table depth");
  }
  std::vector<double> qComm, qComp, qIo;
  std::int64_t maxWords = 0;
  for (const OracleApp& app : apps) {
    qComm.push_back(app.comm);
    qComp.push_back(1.0 - app.comm - app.io);
    qIo.push_back(app.io);
    if (app.comm > 0.0) maxWords = std::max(maxWords, app.words);
  }
  const std::vector<double> pComm = poissonBinomial(qComm);
  const std::vector<double> pComp = poissonBinomial(qComp);
  const std::vector<double> pIo = poissonBinomial(qIo);
  const std::vector<double>& compDelay =
      tables.compFromComm[jBin(tables.jBins, maxWords)];

  OracleSlowdowns out;
  out.p = static_cast<int>(p);
  for (std::size_t i = 1; i <= p; ++i) {
    const double n = static_cast<double>(i);
    // Computing contenders split the CPU evenly: i of them impose delay i.
    out.comp += pComp[i] * n + pComm[i] * compDelay[i - 1];
    out.comm += pComp[i] * tables.commFromComp[i - 1] +
                pComm[i] * tables.commFromComm[i - 1];
    // The daemon's canonical disk tables: device queueing i, CPU residual
    // 0.1 i.
    out.io += pIo[i] * n + pComp[i] * 0.1 * n;
  }
  return out;
}

OraclePrediction oraclePredict(const OracleTask& task,
                               const OracleSlowdowns& slowdowns,
                               const OracleTables& tables) {
  const double toBackend = dcomm(tables.toBackend, task.toBackend) * slowdowns.comm;
  const double fromBackend =
      dcomm(tables.fromBackend, task.fromBackend) * slowdowns.comm;
  OraclePrediction out;
  out.front = task.front * (1.0 - task.io) * slowdowns.comp +
              task.front * task.io * slowdowns.io;
  out.remote = task.back + toBackend + fromBackend;
  // Equation 1: offload when the back-end path is faster.
  out.offload = out.front > out.remote;
  return out;
}

bool closeRelative(double a, double b, double tolerance) {
  if (a == b) return true;
  return std::abs(a - b) <= tolerance * std::max(std::abs(a), std::abs(b));
}

}  // namespace perfbench
