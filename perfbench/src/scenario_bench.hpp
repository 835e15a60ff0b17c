// scenario_bench.hpp — the scenario half of the benchmark: many seed sets
// of examples/sla_mix.scn's four task classes, each simulated under the
// greedy and the contention-priced scheduler by scenario::Engine::run, spread
// over the machine's cores.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace perfbench {

enum class ScenarioShape {
  /// sla_mix's platform and load as shipped (12 machines, 60 s).
  kShipped,
  /// Ten times the machines at the shipped per-machine load: few residents
  /// per core, so per-task scheduling dominates.
  kWide,
  /// The shipped platform at twice the offered load over a shortened
  /// window: residents pile up and every population change reprices them.
  kOverload,
};

/// examples/sla_mix.scn's platform and task classes, scaled to `shape`.
[[nodiscard]] std::string slaMixText(ScenarioShape shape);

struct ScenarioConfig {
  ScenarioShape shape = ScenarioShape::kShipped;
  std::uint64_t seed = 0;
  double seconds = 1.0;
  int threads = 1;
};

struct ScenarioResult {
  std::uint64_t simulations = 0;
  /// Tasks per second at the reference host's speed (see reference.hpp).
  double greedyTasksPerSec = 0.0;
  double pricedTasksPerSec = 0.0;
  /// The host index the reference bursts measured over the window.
  double hostIndex = 0.0;
  /// Per arm (greedy, priced): tasks per second as measured, and the mean
  /// wall seconds of one simulation.
  std::array<double, 2> rawTasksPerSec{};
  std::array<double, 2> simSec{};
};

/// setup() parses the scenario and builds the run's seed sets; run() is the
/// timed window, in which every simulation is also recounted from its
/// tasks' final state; check() adds the determinism check; traced() runs
/// one seed set in one thread, untraced and then through a timing
/// decorator around each scheduler.
class ScenarioBench {
 public:
  explicit ScenarioBench(ScenarioConfig config);
  ~ScenarioBench();
  ScenarioBench(const ScenarioBench&) = delete;
  ScenarioBench& operator=(const ScenarioBench&) = delete;

  void setup();
  ScenarioResult run();
  std::vector<std::string> check();
  std::pair<double, double> traced(Tracer& tracer, Metrics& out);

  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
