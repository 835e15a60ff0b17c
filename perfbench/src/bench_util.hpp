// bench_util.hpp — pieces every perfbench workload shares: the failure type,
// the seeded input generator, percentiles, the in-memory span tracer, and the
// JSON result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A run that cannot produce a trustworthy result (an unexpected ERR, a
/// capacity refusal, a daemon that would not start, a stale journal). main()
/// turns it into a non-zero exit without printing a result line.
class BenchFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// SplitMix64: the benchmark's own input generator, so the inputs a seed
/// produces never depend on the program under test.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// k / 100 for k uniform in [lo, hi]: hundredths print and parse back to
  /// the same double, so the wire carries exactly what the oracle uses.
  double hundredths(int lo, int hi) {
    return static_cast<double>(lo + static_cast<int>(below(
                                        static_cast<std::uint64_t>(hi - lo + 1)))) /
           100.0;
  }

 private:
  std::uint64_t state_;
};

/// Nearest-rank percentile of `values` (sorted in place); p in (0, 100].
/// Throws std::invalid_argument on an empty input or p outside (0, 100].
double percentile(std::vector<double>& values, double p);

/// The median of `values` (sorted in place); the mean of the middle two
/// for an even count. Throws std::invalid_argument on an empty input.
double median(std::vector<double>& values);

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// In-memory span recorder for the traced run: name, start, end, parent and
/// the request id shared by the spans of one request. Spans are kept in
/// memory and written out once, when the run ends.
class Tracer {
 public:
  struct Span {
    std::string_view name;  // string literals only
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t parent = -1;  // index into spans(), -1 for a root
    std::uint64_t requestId = 0;
  };

  /// RAII span: opens on construction, closes on destruction. Children
  /// opened while it is live get it as their parent. A null tracer records
  /// nothing, so one code path serves the traced and the untraced replay.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
    std::int64_t savedParent_ = -1;
  };

  /// Starts a new request: spans opened from now on carry this id.
  void beginRequest(std::uint64_t requestId) { requestId_ = requestId; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Spans named `name`: how many, and their summed duration and summed
  /// self time (duration minus the time their direct children cover).
  struct Totals {
    std::uint64_t count = 0;
    double totalSec = 0.0;
    double selfSec = 0.0;
  };
  [[nodiscard]] Totals totals(std::string_view name) const;

  /// Writes every span as one tab-separated line.
  void write(const std::string& path) const;

 private:
  static std::int64_t nowNs();
  std::vector<Span> spans_;
  std::int64_t current_ = -1;
  std::uint64_t requestId_ = 0;
};

/// Reads one `VmHWM`/`VmRSS`-style field (kB) of /proc/<pid>/status.
[[nodiscard]] std::uint64_t procStatusKb(int pid, std::string_view field);

/// One named metric of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The last stdout line the benchmark prints.
[[nodiscard]] std::string resultJson(bool correct, std::uint64_t attempted,
                                     std::uint64_t failed,
                                     const Metrics& metrics);

}  // namespace perfbench
