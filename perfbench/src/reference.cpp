#include "reference.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <charconv>
#include <functional>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kStateSize = std::size_t{1} << 18;  // 2 MiB of doubles
constexpr std::size_t kPending = 1024;
constexpr int kStepsPerUnit = 12000;
constexpr std::size_t kEchoBytes = 512;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

bool sendAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool recvAll(int fd, char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::recv(fd, data, size, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

EventReference::EventReference()
    : state_(std::make_unique<double[]>(kStateSize)), rng_(0x2545f4914f6cdd1dull) {
  for (std::size_t i = 0; i < kStateSize; ++i) {
    state_[i] = static_cast<double>(xorshift(rng_) % 1000);
  }
}

std::uint64_t EventReference::unit() {
  using Event = std::pair<double, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> pending;
  for (std::size_t i = 0; i < kPending; ++i) {
    pending.emplace(static_cast<double>(xorshift(rng_) % 4096),
                    static_cast<std::uint32_t>(xorshift(rng_) % kStateSize));
  }
  double sum = 0.0;
  for (int step = 0; step < kStepsPerUnit; ++step) {
    const auto [time, slot] = pending.top();
    pending.pop();
    double& cell = state_[slot];
    cell = 0.5 * cell + time;
    sum += cell;
    const auto next = static_cast<std::uint32_t>(xorshift(rng_) % kStateSize);
    pending.emplace(time + 1.0 + state_[next] * 1e-3, next);
  }
  return static_cast<std::uint64_t>(sum) ^ rng_;
}

double EchoReference::measure(double seconds) {
  constexpr int kPairs = 2;
  std::array<std::array<int, 2>, kPairs> fds{};
  for (auto& pair : fds) {
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, pair.data()) != 0) {
      throw BenchFailure("socketpair failed");
    }
  }
  std::array<std::uint64_t, kPairs> trips{};
  std::array<double, kPairs> elapsed{};
  std::array<bool, kPairs> ok{};
  std::vector<std::thread> threads;
  for (int p = 0; p < kPairs; ++p) {
    threads.emplace_back([fd = fds[static_cast<std::size_t>(p)][1]] {
      std::array<char, kEchoBytes> buffer{};
      while (recvAll(fd, buffer.data(), buffer.size())) {
        // Parse the request's numbers and format them back, as a server
        // parses a request and formats its answer.
        std::array<char, kEchoBytes> reply{};
        reply.fill(' ');
        const char* in = buffer.data();
        const char* const inEnd = buffer.data() + buffer.size();
        char* out = reply.data();
        char* const outEnd = reply.data() + reply.size();
        double value = 0.0;
        while (in < inEnd) {
          const auto parsed = std::from_chars(in, inEnd, value);
          if (parsed.ec != std::errc{}) {
            ++in;
            continue;
          }
          in = parsed.ptr;
          const auto formatted = std::to_chars(out, outEnd, value * 1.5);
          if (formatted.ec != std::errc{} || formatted.ptr == outEnd) break;
          out = formatted.ptr + 1;
        }
        if (!sendAll(fd, reply.data(), reply.size())) break;
      }
    });
  }
  for (int p = 0; p < kPairs; ++p) {
    threads.emplace_back([&, p] {
      const auto i = static_cast<std::size_t>(p);
      std::array<char, kEchoBytes> buffer{};
      buffer.fill(' ');
      char* out = buffer.data();
      for (int k = 1; out + 24 < buffer.data() + buffer.size(); ++k) {
        out = std::to_chars(out, out + 24, 1.0 / k).ptr + 1;
      }
      const Clock::time_point start = Clock::now();
      ok[i] = true;
      std::array<char, kEchoBytes> reply{};
      while (secondsSince(start) < seconds) {
        if (!sendAll(fds[i][0], buffer.data(), buffer.size()) ||
            !recvAll(fds[i][0], reply.data(), reply.size())) {
          ok[i] = false;
          break;
        }
        ++trips[i];
      }
      elapsed[i] = secondsSince(start);
      ::shutdown(fds[i][0], SHUT_WR);  // the echo thread sees EOF and ends
    });
  }
  for (std::thread& thread : threads) thread.join();
  double rate = 0.0;
  for (std::size_t i = 0; i < fds.size(); ++i) {
    ::close(fds[i][0]);
    ::close(fds[i][1]);
    if (!ok[i]) throw BenchFailure("reference ping-pong failed");
    rate += static_cast<double>(trips[i]) / elapsed[i];
  }
  return rate;
}

}  // namespace perfbench
