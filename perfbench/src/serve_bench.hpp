// serve_bench.hpp — the serving half of the benchmark: the shipped
// contend_served daemon, run as a separate process and driven over its unix
// socket by a closed loop of client connections.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "oracle.hpp"

namespace perfbench {

enum class ServeMode {
  /// Steady population; PREDICT / PREDICT_BATCH over a fixed task pool,
  /// plus rare ARRIVE+DEPART pairs that restore the mix signature.
  kRead,
  /// Journal on; every iteration departs an app, arrives a new shape and
  /// prices a small batch, so every price misses the cache.
  kChurn,
};

struct ServeConfig {
  ServeMode mode = ServeMode::kRead;
  std::uint64_t seed = 0;
  std::string daemonPath;  // the contend_served binary
  /// Depth of the delay tables the benchmark writes for its daemon.
  int profileDepth = 64;
  double seconds = 1.0;
  /// Requests of connection 0's stream replayed in the traced run.
  std::size_t replayRequests = 20000;
};

/// Rates and latencies are at the reference host's speed: each slice's
/// figure is scaled by the host index measured around it (see
/// reference.hpp), and the median over slices is reported.
struct ServeResult {
  std::uint64_t requests = 0;  // answered OK in the timed window
  std::uint64_t mutations = 0;
  double windowSec = 0.0;
  double requestsPerSec = 0.0;
  double p50Us = 0.0;
  double p99Us = 0.0;
  double rawRequestsPerSec = 0.0;  // as measured
  double hostIndex = 0.0;          // median over the slices
  double overallP50Us = 0.0;  // as measured over the whole window, for server.wire_us
  double peakRssMb = 0.0;
  double serverP50Us = 0.0;
  double rssGrowthBytes = 0.0;
};

/// One serving workload. prepare() writes the profile and generates the
/// request streams; start() launches the daemon and waits for its first OK
/// HEALTH; run() registers the initial population, then is the timed window;
/// check() compares the daemon's answers with the oracle and (for kChurn)
/// restarts it on its journal; traced() replays connection 0's stream
/// in-process with spans around each layer's calls.
/// The daemon is stopped and reaped on every path, including exceptions.
class ServeBench {
 public:
  explicit ServeBench(ServeConfig config);
  ~ServeBench();
  ServeBench(const ServeBench&) = delete;
  ServeBench& operator=(const ServeBench&) = delete;

  void prepare();
  void start();
  ServeResult run();
  /// Returns the failed checks (empty when every answer was right). Stops
  /// the daemon.
  std::vector<std::string> check();
  /// Replays `config.replayRequests` requests untraced and then traced;
  /// adds the per-layer metrics to `out` and returns {untraced, traced}
  /// wall seconds of the replays.
  std::pair<double, double> traced(Tracer& tracer, Metrics& out);

  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
