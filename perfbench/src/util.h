// util.h — clocks, order statistics, the span tracer and the result
// report shared by the benchmark's workloads.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU of the whole process, all threads.
double ProcessCpuSeconds();
/// Peak resident set of the process since the last ResetPeakRss (or
/// since it started), in MiB.
double PeakRssMb();
/// Returns freed heap to the system and restarts the peak-RSS high-water
/// mark from the current RSS (Linux /proc/self/clear_refs).
void ResetPeakRss();

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
/// The median (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> values);

/// Mean after dropping the lowest and the highest value (plain mean
/// below three values); 0 when empty.  Repetition times of a campaign
/// are bimodal on a busy host (two scheduling modes about 15% apart),
/// which a median turns into a coin flip and this averages.
double TrimmedMean(std::vector<double> values);

/// Writes `bytes` to `path`; false on any I/O error.
bool WriteFile(const std::string& path, std::string_view bytes);

/// 64-bit FNV-1a, for cheap byte-identity checks between repetitions.
std::uint64_t Fnv1a(const std::string& bytes);

/// Spans recorded around the benchmark's calls into each layer: name,
/// parent, wall interval and process CPU interval.  Kept in memory and
/// written out as a Chrome trace-event file when the run ends.  A null
/// Tracer* means "untraced"; Traced() then just runs the call.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
    double cpu_start = 0.0;
    double cpu_end = 0.0;

    double wall() const { return SecondsBetween(start, end); }
    double cpu() const { return cpu_end - cpu_start; }
  };

  int Begin(const std::string& name);
  void End(int id);
  /// Adds a span timed elsewhere (no CPU interval); returns its id.
  int Record(const std::string& name, Clock::time_point start,
             Clock::time_point end, int parent);
  /// The most recent span called `name`, or null.
  const Span* Latest(const std::string& name) const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Runs `call` inside a span named `name` when `tracer` is non-null.
template <typename Call>
decltype(auto) Traced(Tracer* tracer, const std::string& name, Call&& call) {
  if (tracer == nullptr) return call();
  const int id = tracer->Begin(name);
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    tracer->End(id);
  } else {
    decltype(auto) result = call();
    tracer->End(id);
    return result;
  }
}

/// Samples process CPU every few milliseconds on a background thread, so
/// the CPU spent between two instants inside one library call (the
/// stages of core::RunPipeline) can be read back by interpolation.
class CpuTimeline {
 public:
  CpuTimeline();
  ~CpuTimeline();
  CpuTimeline(const CpuTimeline&) = delete;
  CpuTimeline& operator=(const CpuTimeline&) = delete;

  /// Stops sampling; CpuAt is valid afterwards.
  void Stop();
  /// Process CPU seconds at `when`, interpolated between samples.
  double CpuAt(Clock::time_point when) const;

 private:
  std::vector<std::pair<Clock::time_point, double>> samples_;
  std::mutex mutex_;
  std::atomic<bool> stop_{false};
  std::thread sampler_;
};

/// The result object the benchmark prints as its last line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Pairs of files whose bytes must be identical; the launcher compares
  /// their md5 digests.
  void RequireIdentical(const std::string& a, const std::string& b);
  void Check(bool ok, const std::string& what);

  bool correct() const { return failures_ == 0; }
  void set_counts(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> identical_;
  std::uint64_t attempted_ = 1;
  std::uint64_t failed_ = 0;
  int failures_ = 0;
};

}  // namespace perfbench
