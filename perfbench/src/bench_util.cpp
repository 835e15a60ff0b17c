#include "bench_util.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>

namespace perfbench {

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile: no samples");
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile: p outside (0, 100]");
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

double median(std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("median: no samples");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

std::int64_t Tracer::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, std::string_view name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = tracer_->spans_.size();
  savedParent_ = tracer_->current_;
  tracer_->spans_.push_back(
      Span{name, nowNs(), 0, tracer_->current_, tracer_->requestId_});
  tracer_->current_ = static_cast<std::int64_t>(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].endNs = nowNs();
  tracer_->current_ = savedParent_;
}

Tracer::Totals Tracer::totals(std::string_view name) const {
  std::vector<std::int64_t> childNs(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      childNs[static_cast<std::size_t>(span.parent)] +=
          span.endNs - span.startNs;
    }
  }
  Totals out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    const std::int64_t duration = spans_[i].endNs - spans_[i].startNs;
    ++out.count;
    out.totalSec += 1e-9 * static_cast<double>(duration);
    out.selfSec += 1e-9 * static_cast<double>(duration - childNs[i]);
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "# index\tname\tstart_ns\tend_ns\tparent\trequest\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << i << '\t' << span.name << '\t' << span.startNs << '\t'
        << span.endNs << '\t' << span.parent << '\t' << span.requestId
        << '\n';
  }
  if (!out) throw BenchFailure("cannot write span file '" + path + "'");
}

std::uint64_t procStatusKb(int pid, std::string_view field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > field.size() && line.compare(0, field.size(), field) == 0 &&
        line[field.size()] == ':') {
      return std::stoull(line.substr(field.size() + 1));
    }
  }
  throw BenchFailure("no " + std::string(field) + " in /proc/" +
                     std::to_string(pid) + "/status");
}

namespace {
std::string number(double value) {
  if (!std::isfinite(value)) throw BenchFailure("non-finite metric value");
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}
}  // namespace

std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += '"' + name + "\": {\"value\": " + number(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
