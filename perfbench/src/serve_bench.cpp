#include "serve_bench.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "calib/profile_io.hpp"
#include "model/mix.hpp"
#include "serve/concurrent_tracker.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "reference.hpp"

namespace perfbench {

namespace calib = contend::calib;
namespace model = contend::model;
namespace serve = contend::serve;

namespace {

// All paths are relative to the run directory main() works in, which keeps
// the unix socket path far below sun_path's limit.
constexpr const char* kSocket = "daemon.sock";
constexpr const char* kProfile = "profile.txt";
constexpr const char* kJournal = "journal.log";
constexpr const char* kDaemonLog = "daemon.log";

constexpr int kConnections = 2;
constexpr std::size_t kOpsPerConnection = 4096;
constexpr std::size_t kTaskPool = 48;
constexpr int kOracleSample = 8;
/// The window is cut into kSlices slices with a burst of reference
/// ping-pong before the first and after each (see reference.hpp); the
/// bursts take kReferenceShare of the window.
constexpr int kSlices = 8;
constexpr double kReferenceShare = 0.12;
/// The daemon's peak RSS is read once the window has answered this many
/// requests, so that it measures a fixed amount of work: the audit logs
/// grow with every mutation, and a faster daemon would otherwise show a
/// higher peak.
constexpr std::uint64_t kPeakSampleRequests = 200000;
constexpr double kOracleTolerance = 1e-9;

std::string fmt(double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

bool startsWith(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

/// The value of ` key=` in an `OK k=v ...` line; empty when absent.
std::string_view field(std::string_view line, std::string_view key) {
  std::size_t pos = 0;
  while ((pos = line.find(key, pos)) != std::string_view::npos) {
    const std::size_t end = pos + key.size();
    if (pos > 0 && line[pos - 1] == ' ' && end < line.size() &&
        line[end] == '=') {
      const std::size_t stop = line.find(' ', end + 1);
      return line.substr(end + 1, stop == std::string_view::npos
                                      ? std::string_view::npos
                                      : stop - end - 1);
    }
    pos = end;
  }
  return {};
}

double numberField(std::string_view line, std::string_view key) {
  const std::string_view text = field(line, key);
  double value = 0.0;
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || result.ec != std::errc{} ||
      result.ptr != text.data() + text.size()) {
    throw BenchFailure("response lacks numeric field '" + std::string(key) +
                       "': " + std::string(line.substr(0, 200)));
  }
  return value;
}

std::uint64_t countField(std::string_view line, std::string_view key) {
  const std::string_view text = field(line, key);
  std::uint64_t value = 0;
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || result.ec != std::errc{} ||
      result.ptr != text.data() + text.size()) {
    throw BenchFailure("response lacks integer field '" + std::string(key) +
                       "': " + std::string(line.substr(0, 200)));
  }
  return value;
}

std::string daemonLogTail() {
  std::ifstream in(kDaemonLog);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text.size() > 2000 ? text.substr(text.size() - 2000) : text;
}

// ---- the daemon process ---------------------------------------------------

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { kill(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void start(const std::vector<std::string>& args) {
    std::vector<char*> argv;
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) throw BenchFailure("fork failed: " + std::string(std::strerror(errno)));
    if (pid == 0) {
      // The daemon must not outlive the benchmark, even if the benchmark
      // itself is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      const int log = ::open(kDaemonLog, O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) {
        ::dup2(log, STDOUT_FILENO);
        ::dup2(log, STDERR_FILENO);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    pid_ = pid;
  }

  [[nodiscard]] int pid() const { return pid_; }

  /// True while the process has not exited.
  bool alive() {
    if (pid_ < 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  /// SIGTERM, then waits for the graceful drain; returns the exit code (or
  /// 128 + signal). Escalates to SIGKILL after 10 s.
  int stop() {
    if (pid_ < 0) return -1;
    ::kill(pid_, SIGTERM);
    const Clock::time_point start = Clock::now();
    for (;;) {
      int status = 0;
      const pid_t done = ::waitpid(pid_, &status, WNOHANG);
      if (done == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status)
                                 : 128 + WTERMSIG(status);
      }
      if (secondsSince(start) > 10.0) {
        kill();
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  void kill() {
    if (pid_ < 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

// ---- one client connection ------------------------------------------------

class Connection {
 public:
  Connection() = default;
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(Connection&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)),
        buffer_(std::move(other.buffer_)),
        start_(other.start_) {}
  Connection& operator=(Connection&& other) noexcept {
    if (this != &other) {
      if (fd_ >= 0) ::close(fd_);
      fd_ = std::exchange(other.fd_, -1);
      buffer_ = std::move(other.buffer_);
      start_ = other.start_;
    }
    return *this;
  }

  /// -1 when nothing listens yet.
  static int tryConnect() {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, kSocket, sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  void send(std::string_view text) {
    while (!text.empty()) {
      const ssize_t n = ::send(fd_, text.data(), text.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw BenchFailure("send to daemon failed");
      text.remove_prefix(static_cast<std::size_t>(n));
    }
  }

  /// The next response line, without its newline; valid until the next call.
  std::string_view readLine() {
    for (;;) {
      const std::size_t newline = buffer_.find('\n', start_);
      if (newline != std::string::npos) {
        const std::string_view line(buffer_.data() + start_, newline - start_);
        start_ = newline + 1;
        return line;
      }
      if (start_ > 0) {
        buffer_.erase(0, start_);
        start_ = 0;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw BenchFailure("daemon closed the connection");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  std::string request(std::string_view text) {
    send(text);
    return std::string(readLine());
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t start_ = 0;
};

// ---- generated inputs -----------------------------------------------------

struct Live {
  std::uint64_t id = 0;
  OracleApp app;
};

struct Op {
  enum class Kind { kPredict, kPair, kChurn };
  Kind kind = Kind::kPredict;
  std::string predictText;  // PREDICT / PREDICT_BATCH (kPredict, kChurn)
  int tasks = 0;            // tasks priced by predictText
  OracleApp app;            // arrived by kPair and kChurn
  std::string arriveText;
  std::size_t slot = 0;     // kChurn: the live-list entry departed
};

OracleApp randomApp(Rng& rng) {
  OracleApp app;
  // A quarter are CPU-bound: their departure cannot take the O(p)
  // deconvolution path, so the mix rebuilds in O(p²).
  if (rng.below(4) != 0) {
    app.comm = rng.hundredths(5, 60);
    static constexpr std::int64_t kWords[] = {64, 256, 500, 800, 1200, 2048};
    app.words = kWords[rng.below(6)];
  }
  if (rng.below(4) == 0) {
    app.io = rng.hundredths(5, 30);
    app.ioOps = 8 + static_cast<std::int64_t>(rng.below(120));
  }
  return app;
}

std::string arriveText(const OracleApp& app) {
  std::string text = "ARRIVE " + fmt(app.comm) + ' ' + std::to_string(app.words);
  if (app.io > 0.0) text += " io " + fmt(app.io) + ' ' + std::to_string(app.ioOps);
  return text + '\n';
}

OracleTask randomTask(Rng& rng) {
  OracleTask task;
  task.front = rng.hundredths(50, 2000);
  task.back = rng.hundredths(10, 1000);
  if (rng.below(4) == 0) {
    task.io = rng.hundredths(5, 40);
    task.ioOps = 1 + static_cast<std::int64_t>(rng.below(200));
  }
  task.toBackend.push_back({1 + static_cast<std::int64_t>(rng.below(1024)),
                            1 + static_cast<std::int64_t>(rng.below(4096))});
  if (rng.below(2) == 0) {
    task.fromBackend.push_back({1 + static_cast<std::int64_t>(rng.below(512)),
                                1 + static_cast<std::int64_t>(rng.below(4096))});
  }
  return task;
}

std::string taskBody(const OracleTask& task) {
  std::string body = "front " + fmt(task.front) + "\nback " + fmt(task.back) + '\n';
  if (task.io > 0.0) body += "io " + fmt(task.io) + ' ' + std::to_string(task.ioOps) + '\n';
  for (const OracleDataSet& set : task.toBackend) {
    body += "to_backend " + std::to_string(set.messages) + " x " +
            std::to_string(set.words) + '\n';
  }
  for (const OracleDataSet& set : task.fromBackend) {
    body += "from_backend " + std::to_string(set.messages) + " x " +
            std::to_string(set.words) + '\n';
  }
  return body;
}

std::string predictText(const std::vector<OracleTask>& pool, Rng& rng,
                        int size) {
  if (size == 1) {
    const std::size_t k = rng.below(pool.size());
    return "PREDICT t" + std::to_string(k) + '\n' + taskBody(pool[k]) + "end\n";
  }
  std::string text = "PREDICT_BATCH\n";
  for (int i = 0; i < size; ++i) {
    const std::size_t k = rng.below(pool.size());
    text += "task t" + std::to_string(k) + '\n' + taskBody(pool[k]) + "end\n";
  }
  return text + "end_batch\n";
}

model::ParagonPlatformModel toPlatform(const OracleTables& tables) {
  const auto link = [](const OracleLink& in) {
    model::PiecewiseCommParams out;
    out.small = {in.smallAlpha, in.smallBeta};
    out.large = {in.largeAlpha, in.largeBeta};
    out.thresholdWords = in.threshold;
    return out;
  };
  model::ParagonPlatformModel platform;
  platform.toBackend = link(tables.toBackend);
  platform.fromBackend = link(tables.fromBackend);
  platform.delays.commFromComp = tables.commFromComp;
  platform.delays.commFromComm = tables.commFromComm;
  platform.delays.jBins = tables.jBins;
  platform.delays.compFromComm = tables.compFromComm;
  return platform;
}

// ---- per-connection accounting -------------------------------------------

struct VerbCount {
  std::uint64_t attempted = 0;
  std::map<std::string, std::uint64_t> errors;  // by ERR code
};

struct Client {
  Connection connection;
  std::vector<Op> ops;
  std::vector<Live> live;
  std::map<std::string, VerbCount> verbs;
  std::size_t next = 0;  // index of the next operation in `ops`
  std::vector<double> latenciesUs;  // of the current slice
  std::uint64_t requests = 0;
  std::uint64_t mutations = 0;
  std::uint64_t tasksPriced = 0;
  std::string failure;  // the first unexpected response

  /// One request/response; false (and `failure` set) on anything but OK.
  bool exchange(const char* verb, std::string_view text,
                std::string_view* reply, bool timed) {
    VerbCount& count = verbs[verb];
    ++count.attempted;
    const Clock::time_point start = Clock::now();
    connection.send(text);
    const std::string_view line = connection.readLine();
    if (timed) {
      latenciesUs.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - start).count());
    }
    if (!startsWith(line, "OK")) {
      std::string code = "(no code)";
      if (startsWith(line, "ERR ")) {
        const std::string_view rest = line.substr(4);
        code = std::string(rest.substr(0, rest.find(' ')));
      }
      ++count.errors[code];
      if (failure.empty()) {
        failure = std::string(verb) + ": " + std::string(line.substr(0, 300));
      }
      return false;
    }
    if (timed) ++requests;
    if (reply != nullptr) *reply = line;
    return true;
  }

  bool arrive(const Op& op, std::size_t slot, bool timed) {
    std::string_view reply;
    if (!exchange("ARRIVE", op.arriveText, &reply, timed)) return false;
    const Live entry{countField(reply, "id"), op.app};
    if (slot < live.size()) {
      live[slot] = entry;
    } else {
      live.push_back(entry);
    }
    if (timed) ++mutations;
    return true;
  }

  bool depart(std::uint64_t id, bool timed) {
    if (!exchange("DEPART", "DEPART " + std::to_string(id) + '\n', nullptr,
                  timed)) {
      return false;
    }
    if (timed) ++mutations;
    return true;
  }

  bool predict(const Op& op, bool timed) {
    if (!exchange(op.tasks == 1 ? "PREDICT" : "PREDICT_BATCH", op.predictText,
                  nullptr, timed)) {
      return false;
    }
    if (timed) tasksPriced += static_cast<std::uint64_t>(op.tasks);
    return true;
  }

  /// Runs one generated operation (1 to 3 requests).
  bool step(const Op& op) {
    switch (op.kind) {
      case Op::Kind::kPredict:
        return predict(op, true);
      case Op::Kind::kPair: {
        const std::size_t slot = live.size();
        if (!arrive(op, slot, true)) return false;
        const std::uint64_t id = live.back().id;
        live.pop_back();
        return depart(id, true);
      }
      case Op::Kind::kChurn:
        return depart(live[op.slot].id, true) && arrive(op, op.slot, true) &&
               predict(op, true);
    }
    return false;
  }
};

std::string accounting(const std::vector<Client>& clients) {
  std::map<std::string, VerbCount> total;
  for (const Client& client : clients) {
    for (const auto& [verb, count] : client.verbs) {
      total[verb].attempted += count.attempted;
      for (const auto& [code, n] : count.errors) total[verb].errors[code] += n;
    }
  }
  std::ostringstream out;
  for (const auto& [verb, count] : total) {
    std::uint64_t failed = 0;
    for (const auto& entry : count.errors) failed += entry.second;
    out << "  " << verb << ": attempted " << count.attempted << ", failed "
        << failed;
    for (const auto& [code, n] : count.errors) out << ", " << code << "=" << n;
    out << '\n';
  }
  return out.str();
}

}  // namespace

// ---- the workload ---------------------------------------------------------

struct ServeBench::Impl {
  ServeConfig config;
  OracleTables tables;
  std::vector<OracleTask> pool;
  std::vector<Client> clients;
  std::vector<OracleApp> initialApps;
  Daemon daemon;
  ServeResult result;
  std::string stats;  // the STATS line read right after the window
  std::atomic<std::uint64_t> answered{0};  // OK responses in the window
  std::atomic<bool> peakSampled{false};
  std::uint64_t peakRssKb = 0;  // written once, by the thread that sampled

  std::vector<std::string> daemonArgs() const {
    std::vector<std::string> args{config.daemonPath, kProfile, "--listen",
                                  std::string("unix:") + kSocket};
    if (config.mode == ServeMode::kChurn) {
      args.insert(args.end(), {"--journal", kJournal, "--fsync", "off"});
    }
    return args;
  }

  void launch() {
    daemon.start(daemonArgs());
    const Clock::time_point start = Clock::now();
    for (;;) {
      const int fd = Connection::tryConnect();
      if (fd >= 0) {
        Connection probe(fd);
        const std::string reply = probe.request("HEALTH\n");
        if (startsWith(reply, "OK")) return;
        throw BenchFailure("daemon answered HEALTH with: " + reply);
      }
      if (!daemon.alive()) {
        throw BenchFailure("daemon exited during start-up:\n" + daemonLogTail());
      }
      if (secondsSince(start) > 10.0) {
        throw BenchFailure("daemon did not answer HEALTH within 10 s");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  Connection connect() {
    const int fd = Connection::tryConnect();
    if (fd < 0) throw BenchFailure("cannot connect to the daemon");
    return Connection(fd);
  }

  std::vector<OracleApp> liveApps() const {
    std::vector<OracleApp> apps;
    for (const Client& client : clients) {
      for (const Live& entry : client.live) apps.push_back(entry.app);
    }
    return apps;
  }

  void generate() {
    Rng rng(config.seed * 0x100000001b3ull +
            (config.mode == ServeMode::kRead ? 11 : 17));
    for (std::size_t k = 0; k < kTaskPool; ++k) pool.push_back(randomTask(rng));
    // serve_churn keeps the population a few apps short of the default
    // table depth (64).
    const int population = config.mode == ServeMode::kRead ? 16 : 60;
    for (int i = 0; i < population; ++i) initialApps.push_back(randomApp(rng));
    clients.resize(kConnections);
    const std::size_t perClient = initialApps.size() / kConnections;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      Rng stream(rng.next());
      for (std::size_t i = 0; i < kOpsPerConnection; ++i) {
        Op op;
        if (config.mode == ServeMode::kChurn) {
          op.kind = Op::Kind::kChurn;
          op.slot = stream.below(perClient);
          op.app = randomApp(stream);
          op.arriveText = arriveText(op.app);
          op.tasks = 4;
          op.predictText = predictText(pool, stream, op.tasks);
        } else if (i % 100 == 99) {
          // Exactly 1% of operations, so every seed mutates equally often.
          op.kind = Op::Kind::kPair;
          op.app = randomApp(stream);
          op.arriveText = arriveText(op.app);
        } else {
          // Batch sizes 1/4/16 in turn, like the scenario SLA tiers'
          // fan-outs; the tasks are drawn from the pool.
          static constexpr int kSizes[] = {1, 4, 16};
          op.tasks = kSizes[i % 3];
          op.predictText = predictText(pool, stream, op.tasks);
        }
        clients[c].ops.push_back(std::move(op));
      }
    }
  }

  void fail(const std::string& what) {
    throw BenchFailure(what + "\nper-verb accounting:\n" + accounting(clients));
  }

  /// Runs every client's closed loop for `seconds`; returns the seconds
  /// until the last client's last response.
  double runSlice(double seconds) {
    std::atomic<bool> stop{false};
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    std::vector<Clock::time_point> ends(clients.size(), start);
    for (std::size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        Client& client = clients[c];
        try {
          while (!stop.load(std::memory_order_relaxed)) {
            const std::uint64_t before = client.requests;
            if (!client.step(client.ops[client.next++ % client.ops.size()])) break;
            const std::uint64_t done = client.requests - before;
            if (answered.fetch_add(done) + done >= kPeakSampleRequests &&
                !peakSampled.exchange(true)) {
              peakRssKb = procStatusKb(daemon.pid(), "VmHWM");
            }
            if (Clock::now() >= deadline) break;
          }
        } catch (const std::exception& error) {
          if (client.failure.empty()) client.failure = error.what();
        }
        ends[c] = Clock::now();
        if (!client.failure.empty()) stop.store(true);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const Client& client : clients) {
      if (!client.failure.empty()) fail("unexpected response: " + client.failure);
    }
    return std::chrono::duration<double>(
               *std::max_element(ends.begin(), ends.end()) - start)
        .count();
  }

  /// Opens the window's connections and registers the initial population
  /// through them (untimed).
  void registerPopulation() {
    const std::size_t perClient = initialApps.size() / kConnections;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      clients[c].connection = connect();
      for (std::size_t i = 0; i < perClient; ++i) {
        Op op;
        op.app = initialApps[c * perClient + i];
        op.arriveText = arriveText(op.app);
        if (!clients[c].arrive(op, clients[c].live.size(), false)) {
          fail("initial population refused: " + clients[c].failure);
        }
      }
    }
  }
};

ServeBench::ServeBench(ServeConfig config) : impl_(std::make_unique<Impl>()) {
  impl_->config = std::move(config);
  impl_->tables = benchTables(impl_->config.profileDepth);
}

ServeBench::~ServeBench() = default;

void ServeBench::prepare() {
  Impl& s = *impl_;
  if (std::filesystem::exists(kJournal) ||
      std::filesystem::exists(std::string(kJournal) + ".snapshot")) {
    throw BenchFailure("journal directory is not fresh: '" +
                       std::string(kJournal) + "' already exists");
  }
  calib::PlatformProfile profile;
  profile.platformName = "perfbench";
  profile.paragon = toPlatform(s.tables);
  calib::saveProfile(profile, kProfile);
  s.generate();
}

void ServeBench::start() { impl_->launch(); }

ServeResult ServeBench::run() {
  Impl& s = *impl_;
  s.registerPopulation();
  const std::uint64_t rssBeforeKb = procStatusKb(s.daemon.pid(), "VmRSS");
  const double sliceSec = (1.0 - kReferenceShare) * s.config.seconds / kSlices;
  const double referenceSec = kReferenceShare * s.config.seconds / (kSlices + 1);
  (void)EchoReference::measure(0.05);  // first-touch faults of fresh threads
  std::vector<double> references{EchoReference::measure(referenceSec)};
  ServeResult& r = s.result;
  std::vector<double> all, rates, p50s, p99s, indices;
  for (int slice = 0; slice < kSlices; ++slice) {
    const std::uint64_t requestsBefore = r.requests;
    const double elapsed = s.runSlice(sliceSec);
    std::vector<double> latencies;
    for (Client& client : s.clients) {
      r.requests += client.requests;
      client.requests = 0;
      latencies.insert(latencies.end(), client.latenciesUs.begin(),
                       client.latenciesUs.end());
      client.latenciesUs.clear();
    }
    if (latencies.empty()) s.fail("a slice of the window answered no request");
    references.push_back(EchoReference::measure(referenceSec));
    const double index = std::sqrt(references[references.size() - 2] *
                                   references.back()) /
                         EchoReference::kNominalTripsPerSec;
    indices.push_back(index);
    rates.push_back(static_cast<double>(r.requests - requestsBefore) / elapsed / index);
    p50s.push_back(percentile(latencies, 50.0) * index);
    p99s.push_back(percentile(latencies, 99.0) * index);
    all.insert(all.end(), latencies.begin(), latencies.end());
    r.windowSec += elapsed;
  }
  for (const Client& client : s.clients) r.mutations += client.mutations;
  r.overallP50Us = percentile(all, 50.0);
  r.rawRequestsPerSec = static_cast<double>(r.requests) / r.windowSec;
  // Each slice's figures are scaled by the host index measured around it;
  // the median over slices ignores a slice the host disturbed.
  r.requestsPerSec = median(rates);
  r.p50Us = median(p50s);
  r.p99Us = median(p99s);
  r.hostIndex = median(indices);
  if (!s.peakSampled) {
    std::cerr << "perfbench: the window answered fewer than "
              << kPeakSampleRequests << " requests; peak RSS read at its end\n";
    s.peakRssKb = procStatusKb(s.daemon.pid(), "VmHWM");
  }
  r.peakRssMb = static_cast<double>(s.peakRssKb) / 1024.0;
  r.rssGrowthBytes =
      1024.0 * (static_cast<double>(procStatusKb(s.daemon.pid(), "VmRSS")) -
                static_cast<double>(rssBeforeKb));
  Connection control = s.connect();
  s.stats = control.request("STATS\n");
  if (!startsWith(s.stats, "OK")) s.fail("STATS failed: " + s.stats);
  r.serverP50Us = numberField(s.stats, "p50_us");
  return r;
}

std::vector<std::string> ServeBench::check() {
  Impl& s = *impl_;
  std::vector<std::string> problems;
  const auto expect = [&problems](bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  };
  const std::vector<OracleApp> live = s.liveApps();
  std::uint64_t mutations = s.initialApps.size();
  std::uint64_t tasksPriced = 0;
  for (const Client& client : s.clients) {
    mutations += client.mutations;
    tasksPriced += client.tasksPriced;
  }
  const std::string& stats = s.stats;
  expect(countField(stats, "epoch") == mutations,
         "STATS epoch " + std::string(field(stats, "epoch")) +
             " != mutations counted by the clients " + std::to_string(mutations));
  const std::uint64_t arrivals = countField(stats, "arrivals");
  const std::uint64_t departures = countField(stats, "departures");
  expect(arrivals - departures == countField(stats, "p") &&
             countField(stats, "p") == live.size(),
         "arrivals - departures, active and the clients' live count disagree: " +
             std::to_string(arrivals) + " - " + std::to_string(departures) +
             ", p=" + std::string(field(stats, "p")) + ", live=" +
             std::to_string(live.size()));
  expect(countField(stats, "cache_hits") + countField(stats, "cache_misses") ==
             tasksPriced,
         "cache hits + misses != tasks priced by the clients (" +
             std::to_string(tasksPriced) + ")");

  Connection control = s.connect();
  const OracleSlowdowns want = oracleSlowdowns(live, s.tables);
  const std::string slowdown = control.request("SLOWDOWN\n");
  if (!startsWith(slowdown, "OK")) s.fail("SLOWDOWN failed: " + slowdown);
  expect(countField(slowdown, "p") == live.size(), "SLOWDOWN p != live count");
  for (const auto& [key, value] : {std::pair{"comp", want.comp},
                                   std::pair{"comm", want.comm},
                                   std::pair{"io", want.io}}) {
    expect(closeRelative(numberField(slowdown, key), value, kOracleTolerance),
           std::string("SLOWDOWN ") + key + "=" +
               std::string(field(slowdown, key)) + ", oracle " + fmt(value));
  }
  for (int k = 0; k < kOracleSample; ++k) {
    const std::size_t index = static_cast<std::size_t>(k) * s.pool.size() / kOracleSample;
    const OracleTask& task = s.pool[index];
    const std::string reply = control.request(
        "PREDICT t" + std::to_string(index) + '\n' + taskBody(task) + "end\n");
    if (!startsWith(reply, "OK")) s.fail("PREDICT failed: " + reply);
    const OraclePrediction p = oraclePredict(task, want, s.tables);
    const double front = numberField(reply, "front");
    const double remote = numberField(reply, "remote");
    expect(closeRelative(front, p.front, kOracleTolerance) &&
               closeRelative(remote, p.remote, kOracleTolerance),
           "PREDICT t" + std::to_string(index) + " front/remote " +
               fmt(front) + "/" + fmt(remote) + ", oracle " + fmt(p.front) +
               "/" + fmt(p.remote));
    // A near-tie may flip on the last ulp; only clear decisions are checked.
    if (!closeRelative(p.front, p.remote, 1e-6)) {
      expect((field(reply, "decision") == "back-end") == p.offload,
             "PREDICT t" + std::to_string(index) + " decision differs");
    }
  }

  if (s.config.mode == ServeMode::kChurn) {
    // Restart on the journal: the recovered state must be bit-identical.
    const std::string before = control.request("SLOWDOWN\n");
    control = Connection();
    const int code = s.daemon.stop();
    expect(code == 0, "daemon exit code " + std::to_string(code) + " on SIGTERM");
    s.launch();
    Connection after = s.connect();
    const std::string slowdownAfter = after.request("SLOWDOWN\n");
    const std::string statsAfter = after.request("STATS\n");
    for (const char* key : {"epoch", "p", "comp", "comm", "io"}) {
      expect(field(before, key) == field(slowdownAfter, key),
             std::string("restart changed SLOWDOWN ") + key + ": " +
                 std::string(field(before, key)) + " -> " +
                 std::string(field(slowdownAfter, key)));
    }
    for (const char* key : {"epoch", "signature"}) {
      expect(field(stats, key) == field(statsAfter, key),
             std::string("restart changed STATS ") + key);
    }
  }
  control = Connection();
  const int code = s.daemon.stop();
  expect(code == 0, "daemon exit code " + std::to_string(code) + " on SIGTERM");
  return problems;
}

namespace {

/// In-process replay state: the tracker, the benchmark's own mirror of the
/// population and a scratch journal, exercised through their public calls.
struct Replay {
  serve::ConcurrentTracker tracker;
  model::WorkloadMix mirror;
  std::vector<std::uint64_t> mirrorIds;  // parallel to mirror.apps()
  serve::Journal journal;
  std::vector<std::uint64_t> liveIds;  // connection 0's live list
  std::uint64_t tasksPriced = 0;

  Replay(const model::ParagonPlatformModel& platform, const std::string& path)
      : tracker(platform),
        journal(serve::JournalConfig{path, 4096, serve::FsyncPolicy::kOff, 100}) {
    (void)journal.load();
    journal.start(0);
  }
};

/// Mirrors the daemon's response fields for the verbs the streams use.
serve::Response respond(const serve::Request& request,
                        const std::vector<serve::TaskPrediction>& predictions,
                        const serve::MutationResult& mutation) {
  serve::Response response;
  response.add("verb", std::string(serve::verbName(request.verb)));
  const auto addSnapshot = [&response](const serve::MixSnapshot& snapshot) {
    response.add("epoch", snapshot.epoch);
    response.add("p", static_cast<std::uint64_t>(snapshot.active));
    response.add("comp", snapshot.comp);
    response.add("comm", snapshot.comm);
    response.add("io", snapshot.io);
  };
  switch (request.verb) {
    case serve::Verb::kArrive:
    case serve::Verb::kDepart:
      response.add("id", mutation.id);
      addSnapshot(mutation.after);
      break;
    case serve::Verb::kPredict: {
      const serve::TaskPrediction& p = predictions.front();
      response.add("name", request.task.name);
      response.add("epoch", p.epoch);
      response.add("front", p.frontSec);
      response.add("remote", p.remoteSec);
      response.add("decision", std::string(p.offload ? "back-end" : "front-end"));
      response.add("cache", std::string(p.cacheHit ? "hit" : "miss"));
      break;
    }
    default: {
      response.add("count", static_cast<std::uint64_t>(predictions.size()));
      response.add("epoch", predictions.front().epoch);
      for (std::size_t i = 0; i < predictions.size(); ++i) {
        const std::string suffix = '.' + std::to_string(i);
        const serve::TaskPrediction& p = predictions[i];
        response.add("name" + suffix, request.batch[i].name);
        response.add("front" + suffix, p.frontSec);
        response.add("remote" + suffix, p.remoteSec);
        response.add("decision" + suffix,
                     std::string(p.offload ? "back-end" : "front-end"));
        response.add("cache" + suffix, std::string(p.cacheHit ? "hit" : "miss"));
      }
    }
  }
  return response;
}

/// One wire request through parse -> tracker -> mirror/journal -> format.
/// Returns the id an ARRIVE assigned (0 otherwise).
std::uint64_t replayRequest(Replay& r, Tracer* tracer, std::uint64_t requestId,
                            const std::string& text) {
  if (tracer != nullptr) tracer->beginRequest(requestId);
  Tracer::Scope root(tracer, "request");
  std::optional<serve::Request> request;
  {
    Tracer::Scope s(tracer, "protocol.parse");
    request = serve::parseRequestText(text);
  }
  if (!request) throw BenchFailure("replay: empty request");
  std::vector<serve::TaskPrediction> predictions;
  serve::MutationResult mutation;
  switch (request->verb) {
    case serve::Verb::kPredict: {
      Tracer::Scope s(tracer, "tracker.predict");
      predictions.push_back(r.tracker.predict(request->task));
      r.tasksPriced += 1;
      break;
    }
    case serve::Verb::kPredictBatch: {
      Tracer::Scope s(tracer, "tracker.predict");
      predictions = r.tracker.predictBatch(request->batch);
      r.tasksPriced += predictions.size();
      break;
    }
    case serve::Verb::kArrive: {
      {
        Tracer::Scope s(tracer, "tracker.mutate");
        mutation = r.tracker.arrive(request->app);
      }
      {
        Tracer::Scope s(tracer, "model.mix_update");
        r.mirror.add(request->app);
      }
      r.mirrorIds.push_back(mutation.id);
      Tracer::Scope s(tracer, "journal.append");
      r.journal.appendArrive(mutation.after.epoch, mutation.id, request->app,
                             0.0);
      break;
    }
    case serve::Verb::kDepart: {
      {
        Tracer::Scope s(tracer, "tracker.mutate");
        mutation = r.tracker.depart(request->applicationId);
      }
      const auto it = std::find(r.mirrorIds.begin(), r.mirrorIds.end(),
                                request->applicationId);
      {
        Tracer::Scope s(tracer, "model.mix_update");
        r.mirror.removeAt(static_cast<std::size_t>(it - r.mirrorIds.begin()));
      }
      r.mirrorIds.erase(it);
      Tracer::Scope s(tracer, "journal.append");
      r.journal.appendDepart(mutation.after.epoch, request->applicationId, 0.0);
      break;
    }
    default:
      throw BenchFailure("replay: unexpected verb");
  }
  if (r.journal.snapshotDue()) {
    const serve::SnapshotImage image = r.tracker.exportImage();
    Tracer::Scope s(tracer, "journal.snapshot");
    r.journal.writeSnapshot(image);
  }
  Tracer::Scope s(tracer, "protocol.format");
  const std::string line = serve::formatResponse(respond(*request, predictions, mutation));
  if (line.empty()) throw BenchFailure("replay: empty response");
  return request->verb == serve::Verb::kArrive ? mutation.id : 0;
}

}  // namespace

std::pair<double, double> ServeBench::traced(Tracer& tracer, Metrics& out) {
  Impl& s = *impl_;
  const model::ParagonPlatformModel platform =
      calib::loadProfileFile(kProfile).paragon;
  // Connection 0's stream as the daemon saw it, in one thread: the same
  // initial population (ids assigned in the same order), then its ops.
  const auto replayOnce = [&](Tracer* t, int round) {
    Replay r(platform, "replay" + std::to_string(round) + ".journal");
    const std::size_t perClient = s.initialApps.size() / kConnections;
    for (std::size_t i = 0; i < s.initialApps.size(); ++i) {
      const std::uint64_t id =
          replayRequest(r, nullptr, 0, arriveText(s.initialApps[i]));
      if (i < perClient) r.liveIds.push_back(id);
    }
    const Clock::time_point start = Clock::now();
    std::uint64_t requests = 0;
    for (std::size_t i = 0; requests < s.config.replayRequests; ++i) {
      const Op& op = s.clients[0].ops[i % s.clients[0].ops.size()];
      switch (op.kind) {
        case Op::Kind::kPredict:
          replayRequest(r, t, ++requests, op.predictText);
          break;
        case Op::Kind::kPair: {
          const std::uint64_t id = replayRequest(r, t, ++requests, op.arriveText);
          replayRequest(r, t, ++requests, "DEPART " + std::to_string(id) + '\n');
          break;
        }
        case Op::Kind::kChurn:
          replayRequest(r, t, ++requests,
                        "DEPART " + std::to_string(r.liveIds[op.slot]) + '\n');
          r.liveIds[op.slot] = replayRequest(r, t, ++requests, op.arriveText);
          replayRequest(r, t, ++requests, op.predictText);
          break;
      }
    }
    // Every traced run measures at least one snapshot write.
    if (t != nullptr && t->totals("journal.snapshot").count == 0) {
      const serve::SnapshotImage image = r.tracker.exportImage();
      Tracer::Scope snapshot(t, "journal.snapshot");
      r.journal.writeSnapshot(image);
    }
    const double wall = secondsSince(start);
    if (t != nullptr) {
      const serve::TrackerStats stats = r.tracker.stats();
      const auto lookups = static_cast<double>(stats.cacheHits + stats.cacheMisses);
      out["tracker.cache_hit_ratio"] = {
          lookups > 0 ? static_cast<double>(stats.cacheHits) / lookups : 0.0,
          "ratio"};
      const auto perTask = t->totals("tracker.predict").totalSec;
      out["tracker.predict_us"] = {
          r.tasksPriced > 0 ? 1e6 * perTask / static_cast<double>(r.tasksPriced) : 0.0,
          "us"};
    }
    return wall;
  };
  replayOnce(nullptr, 0);  // warms caches and the allocator
  const double untraced = replayOnce(nullptr, 1);
  const double traced = replayOnce(&tracer, 2);

  const auto mean = [&tracer](std::string_view name, double scale) {
    const Tracer::Totals totals = tracer.totals(name);
    return totals.count > 0 ? scale * totals.totalSec / static_cast<double>(totals.count)
                            : 0.0;
  };
  out["protocol.parse_us"] = {mean("protocol.parse", 1e6), "us"};
  out["protocol.format_us"] = {mean("protocol.format", 1e6), "us"};
  out["tracker.mutate_us"] = {mean("tracker.mutate", 1e6), "us"};
  out["model.mix_update_us"] = {mean("model.mix_update", 1e6), "us"};
  out["journal.append_us"] = {mean("journal.append", 1e6), "us"};
  out["journal.snapshot_ms"] = {mean("journal.snapshot", 1e3), "ms"};
  out["server.wire_us"] = {s.result.overallP50Us - s.result.serverP50Us, "us"};
  out["tracker.bytes_per_mutation"] = {
      s.result.mutations > 0
          ? s.result.rssGrowthBytes / static_cast<double>(s.result.mutations)
          : 0.0,
      "bytes"};
  return {untraced, traced};
}

}  // namespace perfbench
