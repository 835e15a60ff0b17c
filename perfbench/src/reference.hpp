// reference.hpp — the benchmark's own reference work, timed next to the
// program's so that every rate can be expressed at a fixed host speed.
//
// The host this benchmark runs on is shared: for tens of seconds at a time
// other tenants slow every vCPU by up to a half, mostly through the caches.
// A rate measured alone then moves by more than any bound a regression test
// could use. Each window therefore alternates the program's work with a
// fixed piece of reference work of the same kind, and divides the program's
// rate by the reference's rate relative to its nominal rate on the
// reference host (the host index). None of this code is the program's, so a
// change to the program moves only the numerator.
#pragma once

#include <cstdint>
#include <memory>

namespace perfbench {

/// A small discrete-event loop of the benchmark's own, with a 2 MiB state
/// array touched at random, like the scenario engine's event queue and task
/// table. One unit takes about a millisecond on the reference host.
class EventReference {
 public:
  EventReference();
  /// Runs one unit; the returned value only keeps the work from being
  /// optimized away.
  std::uint64_t unit();

  /// Units per second on the reference host.
  static constexpr double kNominalUnitsPerSec = 1100.0;

 private:
  std::unique_ptr<double[]> state_;
  std::uint64_t rng_;
};

/// Closed-loop ping-pong over two unix socketpairs between four threads of
/// the benchmark: a 512-byte request of numbers out, the numbers parsed and
/// formatted back into a 512-byte answer, two context switches — the shape
/// of a served request with none of the program.
class EchoReference {
 public:
  /// Round trips per second on the reference host.
  static constexpr double kNominalTripsPerSec = 100000.0;

  /// Round trips per second over `seconds` of ping-pong.
  static double measure(double seconds);
};

}  // namespace perfbench
