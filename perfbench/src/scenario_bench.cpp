#include "scenario_bench.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <charconv>
#include <cmath>
#include <mutex>
#include <thread>

#include "model/mix.hpp"
#include "model/paragon_model.hpp"
#include "scenario/engine.hpp"
#include "scenario/scenario.hpp"
#include "scenario/schedulers.hpp"
#include "scenario/summary.hpp"
#include "reference.hpp"

namespace perfbench {

namespace model = contend::model;
namespace scenario = contend::scenario;

namespace {

constexpr std::size_t kSeedSets = 1024;
/// Mean stretch is recounted in task order, the engine sums it in
/// completion order: the two agree to rounding.
constexpr double kStretchTolerance = 1e-9;
/// Leave-one-out steps sampled per PeriodicCheck in the traced run.
constexpr std::size_t kLeaveOneOutSamples = 64;
constexpr double kWarmupSec = 1.0;
/// Once at least kReferencePeriodSec has passed since a thread's last
/// burst of reference units (see reference.hpp), it runs the next burst
/// after its current simulation, for kReferenceShare of that time.
constexpr double kReferencePeriodSec = 0.2;
constexpr double kReferenceShare = 0.15;

struct Shape {
  int machineScale;  // machines per shipped machine
  double loadScale;  // offered load per machine, relative to shipped
  double endSec;     // arrival window (shipped: 60 s)
};

Shape shapeOf(ScenarioShape shape) {
  switch (shape) {
    case ScenarioShape::kWide:
      return {10, 1.0, 6.0};
    case ScenarioShape::kOverload:
      return {1, 2.0, 4.0};
    case ScenarioShape::kShipped:
      break;
  }
  return {1, 1.0, 60.0};
}

std::string num(double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

const char* schedulerName(int arm) { return arm == 0 ? "greedy" : "model"; }

std::unique_ptr<scenario::Scheduler> makeScheduler(int arm) {
  if (arm == 0) return std::make_unique<scenario::GreedyScheduler>();
  return std::make_unique<scenario::ContentionPricedScheduler>();
}

/// Recomputes the run's tallies from every task's final Engine::task state.
void recount(const scenario::Engine& engine,
             const scenario::EngineResult& result, const std::string& label,
             std::vector<std::string>& problems) {
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) problems.push_back(label + ": " + what);
  };
  expect(result.spawned == result.completed,
         "spawned " + std::to_string(result.spawned) + " != completed " +
             std::to_string(result.completed));
  std::array<scenario::SlaTally, 4> sla{};
  double stretchSum = 0.0;
  double maxStretch = 0.0;
  double worstSlack = 0.0;
  for (scenario::TaskId id = 0; id < result.spawned; ++id) {
    const scenario::TaskState& task = engine.task(id);
    if (task.phase != scenario::TaskPhase::kDone) {
      expect(false, "task " + std::to_string(id) + " never finished");
      continue;
    }
    const double best = engine.bestDedicatedSec(id);
    const double stretch = (task.finishSec - task.arrivalSec) / best;
    stretchSum += stretch;
    maxStretch = std::max(maxStretch, stretch);
    worstSlack = std::min(worstSlack, task.finishSec - task.arrivalSec - best);
    scenario::SlaTally& tally = sla[static_cast<std::size_t>(task.sla)];
    ++tally.tasks;
    if (stretch > engine.slaStretchBudget(task.sla)) ++tally.violations;
  }
  for (std::size_t tier = 0; tier < sla.size(); ++tier) {
    expect(sla[tier].tasks == result.sla[tier].tasks &&
               sla[tier].violations == result.sla[tier].violations,
           "SLA" + std::to_string(tier) + " tally differs from the recount");
  }
  const double mean =
      result.completed == 0 ? 0.0 : stretchSum / static_cast<double>(result.completed);
  expect(std::abs(mean - result.meanStretch) <=
             kStretchTolerance * std::max(1.0, mean),
         "mean stretch " + num(result.meanStretch) + ", recount " + num(mean));
  expect(maxStretch == result.maxStretch, "max stretch differs from the recount");
  // Nothing beats its dedicated time on the fastest machine, to one tick.
  expect(worstSlack >= -1e-9, "a task finished " + num(-worstSlack) +
                                  " s sooner than its dedicated time");
}

/// The traced run's view of one scheduler: a span around each callback it
/// forwards, plus, at every PeriodicCheck, a sample of the busiest core —
/// its resident count and the leave-one-out repricing step of refreshCore.
class TracingScheduler final : public scenario::Scheduler {
 public:
  TracingScheduler(scenario::Scheduler& inner, Tracer& tracer,
                   const model::DelayTables& tables)
      : inner_(inner), tracer_(tracer), tables_(tables) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void NewTask(scenario::Engine& engine, scenario::TaskId task) override {
    Tracer::Scope span(&tracer_, "sched.new_task");
    inner_.NewTask(engine, task);
  }
  void TaskComplete(scenario::Engine& engine, scenario::TaskId task) override {
    Tracer::Scope span(&tracer_, "sched.task_complete");
    inner_.TaskComplete(engine, task);
  }
  void PeriodicCheck(scenario::Engine& engine) override {
    {
      Tracer::Scope span(&tracer_, "sched.periodic");
      inner_.PeriodicCheck(engine);
    }
    sample(engine);
  }
  void MigrationComplete(scenario::Engine& engine,
                         scenario::TaskId task) override {
    Tracer::Scope span(&tracer_, "sched.migration_complete");
    inner_.MigrationComplete(engine, task);
  }

  [[nodiscard]] int peakResidents() const { return peak_; }
  [[nodiscard]] double sink() const { return sink_; }

 private:
  void sample(const scenario::Engine& engine) {
    Tracer::Scope span(&tracer_, "trace.sample");
    std::size_t busiestMachine = 0, busiestCore = 0;
    int busiest = -1;
    for (std::size_t m = 0; m < engine.machineCount(); ++m) {
      const int cores = engine.machineInfo(m).cores;
      for (std::size_t c = 0; c < static_cast<std::size_t>(cores); ++c) {
        const int active = engine.coreTracker(m, c).activeApplications();
        if (active > busiest) {
          busiest = active;
          busiestMachine = m;
          busiestCore = c;
        }
      }
    }
    peak_ = std::max(peak_, busiest);
    const model::WorkloadMix& mix =
        engine.coreTracker(busiestMachine, busiestCore).mix();
    const auto steps =
        std::min<std::size_t>(static_cast<std::size_t>(mix.p()), kLeaveOneOutSamples);
    for (std::size_t i = 0; i < steps; ++i) {
      Tracer::Scope step(&tracer_, "model.leave_one_out");
      model::WorkloadMix others = mix;
      others.removeAt(i);
      sink_ += model::paragonCompSlowdown(others, tables_) +
               model::paragonCommSlowdown(others, tables_);
    }
  }

  scenario::Scheduler& inner_;
  Tracer& tracer_;
  const model::DelayTables& tables_;
  int peak_ = 0;
  double sink_ = 0.0;
};

}  // namespace

std::string slaMixText(ScenarioShape which) {
  const Shape shape = shapeOf(which);
  const double rate = shape.machineScale * shape.loadScale;
  const auto machines = [&](const char* name, int count, double speed,
                            const char* link) {
    return std::string("machine class:\n{\n    Name: ") + name +
           "\n    Number of machines: " +
           std::to_string(count * shape.machineScale) +
           "\n    Number of cores: 2\n    Speed: " + num(speed) + '\n' + link +
           "}\n";
  };
  const auto tasks = [&](const char* name, double gap, const char* arrival,
                         double runtime, double comm, int words, int state,
                         const char* sla, std::uint64_t seed) {
    return std::string("task class:\n{\n    Name: ") + name +
           "\n    Start time: 0.0\n    End time: " + num(shape.endSec) +
           "\n    Inter arrival: " + num(gap / rate) + "\n    Arrival: " +
           arrival + "\n    Expected runtime: " + num(runtime) +
           "\n    Comm fraction: " + num(comm) + "\n    Message words: " +
           std::to_string(words) + "\n    State words: " +
           std::to_string(state) + "\n    SLA type: " + sla +
           "\n    Seed: " + std::to_string(seed) + "\n}\n";
  };
  return machines("fast", 4, 2.0,
                  "    Comm alpha: 0.0002\n    Comm beta: 4e6\n"
                  "    Comm threshold: 2048\n") +
         machines("slow", 8, 1.0, "    Comm alpha: 0.0005\n    Comm beta: 2e6\n") +
         tasks("interactive", 0.02, "poisson", 0.04, 0.15, 128, 256, "SLA0",
               20260809) +
         tasks("latency", 0.02, "poisson", 0.08, 0.2, 256, 512, "SLA1", 777001) +
         tasks("analytics", 0.04, "burst\n    Burst size: 16", 0.12, 0.3, 512,
               1024, "SLA2", 424242) +
         tasks("batch", 0.015, "poisson", 0.15, 0.1, 64, 128, "SLA3", 90210);
}

struct ScenarioBench::Impl {
  ScenarioConfig config;
  std::vector<scenario::Scenario> seedSets;
  std::mutex mutex;  // guards everything below during run()
  std::vector<std::string> problems;
  std::array<std::string, 2> firstSummary;  // seed set 0, per arm
  ScenarioResult result;

  std::uint64_t seedSet(std::size_t index) const {
    return config.seed * 1000 + index;
  }

  struct Outcome {
    scenario::EngineResult result;
    double wallSec = 0.0;
    std::string summary;
  };

  /// One simulation of seed set `set` under arm 0 (greedy) or 1 (priced),
  /// recounted into `found`.
  Outcome simulate(std::size_t set, int arm, std::vector<std::string>& found) {
    const scenario::Scenario& scn = seedSets[set % seedSets.size()];
    std::unique_ptr<scenario::Scheduler> scheduler = makeScheduler(arm);
    scenario::Engine engine(scn, *scheduler);
    Outcome out;
    const Clock::time_point start = Clock::now();
    out.result = engine.run();
    out.wallSec = secondsSince(start);
    recount(engine, out.result,
            std::string(schedulerName(arm)) + " seed set " +
                std::to_string(seedSet(set % seedSets.size())),
            found);
    if (set == 0) {
      const scenario::SchedulerRun run{schedulerName(arm), out.result};
      out.summary = scenario::summaryJson(scn, std::span(&run, 1));
    }
    return out;
  }
};

ScenarioBench::ScenarioBench(ScenarioConfig config)
    : impl_(std::make_unique<Impl>()) {
  impl_->config = config;
}

ScenarioBench::~ScenarioBench() = default;

void ScenarioBench::setup() {
  Impl& s = *impl_;
  const scenario::Scenario base =
      scenario::parseScenario(slaMixText(s.config.shape), "sla_mix");
  s.seedSets.reserve(kSeedSets);
  // Seed set k adds k * 7919 to every class seed, as the 20-seed study in
  // ROADMAP.md derived them.
  for (std::size_t k = 0; k < kSeedSets; ++k) {
    scenario::Scenario set = base;
    for (scenario::TaskClass& taskClass : set.taskClasses) {
      taskClass.seed += s.seedSet(k) * 7919;
    }
    s.seedSets.push_back(std::move(set));
  }
}

ScenarioResult ScenarioBench::run() {
  Impl& s = *impl_;
  std::atomic<std::size_t> nextJob{0};
  std::array<std::uint64_t, 2> completed{};
  std::array<std::uint64_t, 2> sims{};
  std::array<double, 2> wall{};
  double refUnits = 0.0;
  double refWall = 0.0;
  std::uint64_t sink = 0;
  // Every thread simulates untimed for kWarmupSec first: the allocator's
  // first-touch page faults serialize concurrent threads for about a
  // second, a cost a warm process no longer pays.
  Clock::time_point start = Clock::now();
  const Clock::time_point warmEnd =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(kWarmupSec));
  std::barrier sync(s.config.threads, [&start]() noexcept { start = Clock::now(); });
  const auto worker = [&] {
    std::vector<std::string> found;
    std::array<std::uint64_t, 2> myCompleted{}, mySims{};
    std::array<double, 2> myWall{};
    std::array<std::string, 2> summaries;
    EventReference reference;
    std::uint64_t mySink = 0;
    double myRefUnits = 0.0, myRefWall = 0.0;
    Clock::time_point lastBurst = Clock::now();
    const auto job = [&](bool timed) {
      const std::size_t index = nextJob.fetch_add(1);
      const auto arm = static_cast<std::size_t>(index % 2);
      const Impl::Outcome out = s.simulate(index / 2, static_cast<int>(arm), found);
      if (!out.summary.empty()) summaries[arm] = out.summary;
      if (timed) {
        myCompleted[arm] += out.result.completed;
        myWall[arm] += out.wallSec;
        ++mySims[arm];
      }
      const double sinceBurst = secondsSince(lastBurst);
      if (sinceBurst < kReferencePeriodSec) return;
      const Clock::time_point burstStart = Clock::now();
      double units = 0.0;
      do {
        mySink += reference.unit();
        ++units;
      } while (secondsSince(burstStart) < kReferenceShare * sinceBurst);
      lastBurst = Clock::now();
      if (timed) {
        myRefUnits += units;
        myRefWall += secondsSince(burstStart);
      }
    };
    while (Clock::now() < warmEnd) job(false);
    sync.arrive_and_wait();
    // A job is (seed set, arm); a seed set's two arms run back to back.
    while (secondsSince(start) < s.config.seconds) job(true);
    std::lock_guard lock(s.mutex);
    for (std::size_t arm = 0; arm < 2; ++arm) {
      completed[arm] += myCompleted[arm];
      sims[arm] += mySims[arm];
      wall[arm] += myWall[arm];
      if (!summaries[arm].empty()) s.firstSummary[arm] = summaries[arm];
    }
    s.problems.insert(s.problems.end(), found.begin(), found.end());
    refUnits += myRefUnits;
    refWall += myRefWall;
    sink += mySink;
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < s.config.threads; ++t) threads.emplace_back(worker);
  for (std::thread& thread : threads) thread.join();
  if (sims[0] == 0 || sims[1] == 0) {
    throw BenchFailure("the window ended before both schedulers finished a simulation");
  }
  if (sink == 0 || refWall == 0.0) throw BenchFailure("no reference work was timed");
  ScenarioResult& r = s.result;
  r.hostIndex = refUnits / refWall / EventReference::kNominalUnitsPerSec;
  for (std::size_t arm = 0; arm < 2; ++arm) {
    // Divide by summed per-simulation wall time, so an idle straggler
    // thread at the end of the window does not count.
    r.rawTasksPerSec[arm] = static_cast<double>(completed[arm]) / wall[arm];
    r.simSec[arm] = wall[arm] / static_cast<double>(sims[arm]);
  }
  r.greedyTasksPerSec = r.rawTasksPerSec[0] / r.hostIndex;
  r.pricedTasksPerSec = r.rawTasksPerSec[1] / r.hostIndex;
  r.simulations = sims[0] + sims[1];
  return r;
}

std::vector<std::string> ScenarioBench::check() {
  Impl& s = *impl_;
  std::vector<std::string> problems = s.problems;
  // Seed set 0 again, on a thread of its own: byte-identical summaries.
  std::thread again([&] {
    for (int arm = 0; arm < 2; ++arm) {
      const Impl::Outcome out = s.simulate(0, arm, problems);
      if (out.summary != s.firstSummary[static_cast<std::size_t>(arm)]) {
        problems.push_back(std::string(schedulerName(arm)) +
                           ": seed set 0 simulated twice gave different summaries");
      }
    }
  });
  again.join();
  return problems;
}

std::pair<double, double> ScenarioBench::traced(Tracer& tracer, Metrics& out) {
  Impl& s = *impl_;
  const model::DelayTables tables =
      scenario::canonicalDelayTables(scenario::EngineConfig{}.maxContendersPerCore);
  std::vector<std::string> found;
  double untraced = 0.0, traced = 0.0, sink = 0.0;
  std::uint64_t completed = 0, events = 0, migrations = 0;
  int peak = 0;
  for (int arm = 0; arm < 2; ++arm) {
    untraced += s.simulate(0, arm, found).wallSec;
    std::unique_ptr<scenario::Scheduler> inner = makeScheduler(arm);
    TracingScheduler wrapper(*inner, tracer, tables);
    const scenario::Scenario& scn = s.seedSets[0];
    scenario::Engine engine(scn, wrapper);
    tracer.beginRequest(static_cast<std::uint64_t>(arm) + 1);
    const Clock::time_point start = Clock::now();
    scenario::EngineResult result;
    {
      Tracer::Scope span(&tracer, "engine.run");
      result = engine.run();
    }
    traced += secondsSince(start);
    recount(engine, result, "traced", found);
    completed += result.completed;
    events += result.events;
    migrations += result.migrations;
    peak = std::max(peak, wrapper.peakResidents());
    sink += wrapper.sink();
  }
  if (!found.empty()) throw BenchFailure("traced simulation: " + found.front());
  if (!std::isfinite(sink)) throw BenchFailure("leave-one-out sample not finite");
  const auto mean = [&tracer](std::string_view name) {
    const Tracer::Totals totals = tracer.totals(name);
    return totals.count > 0 ? 1e6 * totals.totalSec / static_cast<double>(totals.count)
                            : 0.0;
  };
  const double tasks = static_cast<double>(std::max<std::uint64_t>(completed, 1));
  out["sched.new_task_us"] = {mean("sched.new_task"), "us"};
  out["sched.periodic_us"] = {mean("sched.periodic"), "us"};
  out["sched.migrations_per_task"] = {static_cast<double>(migrations) / tasks, "count"};
  out["engine.self_us_per_task"] = {1e6 * tracer.totals("engine.run").selfSec / tasks, "us"};
  out["engine.events_per_task"] = {static_cast<double>(events) / tasks, "count"};
  out["engine.peak_residents_per_core"] = {static_cast<double>(peak), "count"};
  out["model.leave_one_out_us"] = {mean("model.leave_one_out"), "us"};
  return {untraced, traced};
}

}  // namespace perfbench
