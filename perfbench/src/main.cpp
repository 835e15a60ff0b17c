// perfbench_driver — runs one benchmark workload of contend and prints its
// result as one JSON line (see perfbench/README.md).
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --daemon <contend_served> --workdir <dir>
//                    [--t0 <CLOCK_MONOTONIC seconds>] [--profile-depth <n>]
//
// Every workload runs both halves of contend: the serving daemon and the
// scenario engine. The half the workload is named after gets 70% of the
// timed window, the other half the rest, so every run reports every
// end-to-end metric. Rates and latencies are reported at the reference
// host's speed (reference.hpp). --trace 1 adds an in-process traced replay
// of both halves and prints the per-layer metrics instead.
#include <time.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "scenario_bench.hpp"
#include "serve_bench.hpp"

using namespace perfbench;

namespace {

constexpr double kMainShare = 0.7;

struct Plan {
  bool serveFirst;
  ServeMode serve;
  ScenarioShape scenario;
};

std::optional<Plan> planFor(const std::string& workload) {
  if (workload == "serve_read") {
    return Plan{true, ServeMode::kRead, ScenarioShape::kShipped};
  }
  if (workload == "serve_churn") {
    return Plan{true, ServeMode::kChurn, ScenarioShape::kShipped};
  }
  if (workload == "scenario_wide") {
    return Plan{false, ServeMode::kRead, ScenarioShape::kWide};
  }
  if (workload == "scenario_overload") {
    return Plan{false, ServeMode::kRead, ScenarioShape::kOverload};
  }
  return std::nullopt;
}

double monotonicSec() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload serve_read|serve_churn|"
               "scenario_wide|scenario_overload --seed N --seconds S "
               "--trace 0|1 --daemon PATH --workdir DIR [--t0 SEC] "
               "[--profile-depth N]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const double processStart = monotonicSec();
  std::string workload, daemon, workdir;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  double t0 = processStart;
  int traceMode = -1;
  int profileDepth = 64;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") workload = value;
      else if (flag == "--seed") seed = std::stoull(value);
      else if (flag == "--seconds") seconds = std::stod(value);
      else if (flag == "--trace") traceMode = std::stoi(value);
      else if (flag == "--daemon") daemon = value;
      else if (flag == "--workdir") workdir = value;
      else if (flag == "--t0") t0 = std::stod(value);
      else if (flag == "--profile-depth") profileDepth = std::stoi(value);
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  const std::optional<Plan> plan = planFor(workload);
  if (!plan) usage("unknown workload '" + workload + "'");
  if (seconds <= 0.0 || (traceMode != 0 && traceMode != 1) || daemon.empty() ||
      workdir.empty() || profileDepth < 1) {
    usage("missing or invalid arguments");
  }

  try {
    daemon = std::filesystem::absolute(daemon).string();
    std::filesystem::create_directories(workdir);
    std::filesystem::current_path(workdir);

    const double mainSec = kMainShare * seconds;
    const double otherSec = seconds - mainSec;
    ServeConfig serveConfig;
    serveConfig.mode = plan->serve;
    serveConfig.seed = seed;
    serveConfig.daemonPath = daemon;
    serveConfig.profileDepth = profileDepth;
    serveConfig.seconds = plan->serveFirst ? mainSec : otherSec;
    serveConfig.replayRequests = plan->serveFirst ? 20000 : 5000;
    ScenarioConfig scenarioConfig;
    scenarioConfig.shape = plan->scenario;
    scenarioConfig.seed = seed;
    scenarioConfig.seconds = plan->serveFirst ? otherSec : mainSec;
    scenarioConfig.threads =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

    ServeBench serve(serveConfig);
    ScenarioBench scenario(scenarioConfig);
    // Set-up time is the program's: process start to main(), daemon launch
    // to its first OK HEALTH, and scenario parse plus seed-set build. The
    // benchmark's own input generation is excluded.
    double setupSec = processStart - t0;
    serve.prepare();
    const double started = monotonicSec();
    serve.start();
    scenario.setup();
    setupSec += monotonicSec() - started;

    std::vector<std::string> problems;
    ServeResult served;
    ScenarioResult simulated;
    const auto runServe = [&] {
      served = serve.run();
      for (std::string& p : serve.check()) problems.push_back(std::move(p));
    };
    const auto runScenario = [&] {
      simulated = scenario.run();
      for (std::string& p : scenario.check()) problems.push_back(std::move(p));
    };
    if (plan->serveFirst) {
      runServe();
      runScenario();
    } else {
      runScenario();
      runServe();
    }
    std::cerr << "perfbench: serve " << served.requests << " requests in "
              << served.windowSec << " s, " << served.rawRequestsPerSec
              << " req/s as measured, host index " << served.hostIndex
              << "; scenario " << simulated.simulations
              << " simulations, host index " << simulated.hostIndex;
    for (std::size_t arm = 0; arm < 2; ++arm) {
      std::cerr << (arm == 0 ? ", greedy " : ", priced ") << simulated.simSec[arm]
                << " s each, " << simulated.rawTasksPerSec[arm]
                << " tasks/s as measured";
    }
    std::cerr << '\n';
    for (const std::string& problem : problems) {
      std::cerr << "check failed: " << problem << '\n';
    }

    Metrics metrics;
    if (traceMode == 0) {
      metrics["requests_per_s"] = {served.requestsPerSec, "req/s"};
      metrics["latency_p50_us"] = {served.p50Us, "us"};
      metrics["latency_p99_us"] = {served.p99Us, "us"};
      metrics["daemon_peak_rss_mb"] = {served.peakRssMb, "MB"};
      metrics["greedy_tasks_per_s"] = {simulated.greedyTasksPerSec, "tasks/s"};
      metrics["priced_tasks_per_s"] = {simulated.pricedTasksPerSec, "tasks/s"};
      metrics["setup_s"] = {setupSec, "s"};
    } else {
      Tracer tracer;
      const auto [serveUntraced, serveTraced] = serve.traced(tracer, metrics);
      const auto [simUntraced, simTraced] = scenario.traced(tracer, metrics);
      const double untraced = serveUntraced + simUntraced;
      metrics["trace.overhead_pct"] = {
          100.0 * (serveTraced + simTraced - untraced) / untraced, "%"};
      tracer.write("../trace-" + workload + ".spans");
    }
    std::cout << resultJson(problems.empty(), served.requests + simulated.simulations,
                            0, metrics)
              << std::endl;
    return problems.empty() ? 0 : 1;
  } catch (const BenchFailure& failure) {
    std::cerr << "perfbench: run failed: " << failure.what() << '\n';
  } catch (const std::exception& error) {
    std::cerr << "perfbench: unexpected error: " << error.what() << '\n';
  }
  return 1;
}
