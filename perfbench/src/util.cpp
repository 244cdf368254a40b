#include "util.h"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void ResetPeakRss() {
  // Hand freed heap back first, so every repetition starts from the same
  // resident baseline rather than from what the last one left cached.
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, n) - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double TrimmedMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t drop = values.size() >= 3 ? 1 : 0;
  double sum = 0.0;
  for (std::size_t i = drop; i + drop < values.size(); ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

int Tracer::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.cpu_start = ProcessCpuSeconds();
  span.start = Clock::now();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  spans_[id].end = Clock::now();
  spans_[id].cpu_end = ProcessCpuSeconds();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::Record(const std::string& name, Clock::time_point start,
                   Clock::time_point end, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

const Tracer::Span* Tracer::Latest(const std::string& name) const {
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->name == name) return &*it;
  }
  return nullptr;
}

bool WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary);
  return out.write(bytes.data(), static_cast<std::streamsize>(bytes.size())) &&
         out.flush();
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double ts =
        std::chrono::duration<double, std::micro>(span.start - origin_)
            .count();
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << span.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << ts
        << ",\"dur\":" << span.wall() * 1e6 << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << span.parent << ",\"cpu_s\":" << span.cpu()
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

CpuTimeline::CpuTimeline() {
  samples_.emplace_back(Clock::now(), ProcessCpuSeconds());
  sampler_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      std::lock_guard<std::mutex> lock(mutex_);
      samples_.emplace_back(Clock::now(), ProcessCpuSeconds());
    }
  });
}

CpuTimeline::~CpuTimeline() { Stop(); }

void CpuTimeline::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (sampler_.joinable()) sampler_.join();
  samples_.emplace_back(Clock::now(), ProcessCpuSeconds());
}

double CpuTimeline::CpuAt(Clock::time_point when) const {
  auto after = std::lower_bound(
      samples_.begin(), samples_.end(), when,
      [](const auto& sample, Clock::time_point t) { return sample.first < t; });
  if (after == samples_.begin()) return after->second;
  if (after == samples_.end()) return samples_.back().second;
  auto before = after - 1;
  const double span = SecondsBetween(before->first, after->first);
  const double part = span <= 0.0 ? 0.0 : SecondsBetween(before->first, when) / span;
  return before->second + part * (after->second - before->second);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::RequireIdentical(const std::string& a, const std::string& b) {
  identical_.emplace_back(a, b);
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  ++failures_;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

std::string Report::Json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value_unit] = metrics_[i];
    out << (i == 0 ? "" : ", ") << "\"" << name
        << "\": {\"value\": " << value_unit.first << ", \"unit\": \""
        << value_unit.second << "\"}";
  }
  out << "}";
  if (!identical_.empty()) {
    out << ", \"identical_files\": [";
    for (std::size_t i = 0; i < identical_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "[\"" << identical_[i].first << "\", \""
          << identical_[i].second << "\"]";
    }
    out << "]";
  }
  out << "}";
  return out.str();
}

}  // namespace perfbench
