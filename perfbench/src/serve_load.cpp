// serve_load.cpp — the serving layers under an open-loop load, run inside
// campaign-mcl's traced run on that campaign's blocks.
//
// This is not an end-to-end workload of its own.  On the 4-vCPU VM the
// benchmark was built on, the tail latency and the saturation rate of a
// one-thread loopback server moved by 2-6x between runs minutes apart
// (host scheduling: a halted vCPU can take milliseconds to wake), far
// beyond any regression bound, so they are reported only as per-layer
// figures.
//
// The generator is one process with two threads (a sender and a
// receiver) and four connections.  The sender issues requests on a fixed
// schedule whatever the server does; each request is timed from its
// intended send time, so a stall is charged to every request it delays
// (no coordinated omission).  The sender never blocks on a socket, and
// how late it ran is recorded per request: a rung where the generator
// fell behind is invalid rather than a pass.  The receiver checks every
// reply line against replies rendered in process from LookupEngine.
#include "serve_load.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "hobbit/resultio.h"
#include "netsim/rng.h"
#include "serve/lookup.h"
#include "serve/metrics.h"
#include "serve/reactor.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/store.h"

namespace perfbench {
namespace {

using namespace hobbit;

constexpr int kConnections = 4;
constexpr std::size_t kTapeRequests = 16384;
constexpr std::size_t kBatchSize = 64;
/// Shares of the mix: BATCH requests among requests, and misses among
/// the queried keys.
constexpr double kBatchShare = 0.10;
constexpr double kMissShare = 0.10;
/// The fixed nominal rate p50_us and p99_us are taken at, requests/s.
constexpr double kFixedRate = 20000.0;
/// The p99 limit a ladder rung must meet.  Well above the tail that
/// loopback and scheduler noise give an unloaded server (0.1-0.8 ms at
/// the fixed rate), so rungs fail on saturation, not on noise.
constexpr double kP99LimitUs = 5000.0;
/// A rung whose generator ran later than this at its p99 is invalid.
constexpr double kMaxGeneratorLagUs = 1000.0;
/// The offered-rate ladder, requests/s, climbed in order until two valid
/// rungs in a row fail: coarse up to 80k, then 7% steps far past the
/// saturation point (about 140k requests/s on a 4-core AVX-512 VM).
constexpr double kLadder[] = {
    40000,  60000,  80000,  86000,  92000,  99000,  106000, 113000,
    121000, 130000, 139000, 149000, 159000, 170000, 182000, 195000,
    209000, 224000, 240000, 257000, 275000, 294000, 315000, 337000,
    361000, 386000, 413000, 442000, 473000, 506000};
/// A rung lasts one reload period.  It passes when the median of its
/// windows' p99 meets the limit: a burst of host scheduling delay (which
/// on this kind of VM comes and goes within a second) spoils a window,
/// not the rung, while overload spoils them all.  p50_us and p99_us are
/// such medians over the fixed-rate phase's windows too.
constexpr double kRungSeconds = 2.0;
constexpr double kWindowS = 0.25;
/// One RELOAD every period, alternating the two snapshot files.  A reload
/// stalls the reactor for about 3 ms, which at this period delays some
/// 0.15% of requests: clear of the p99, which a 1 s period is not.
constexpr double kReloadPeriodS = 2.0;
constexpr double kDrainTimeoutS = 5.0;
constexpr double kFixedSeconds = 4.0;
constexpr int kCompiles = 3;
constexpr int kLoadSamples = 20;

struct Request {
  std::string wire;
  std::string expected;
};

std::string_view ClassName(std::uint8_t token) {
  if (token == serve::kNoClass) return "-";
  return core::ClassificationToken(static_cast<core::Classification>(token));
}

/// The protocol's exact-lookup reply (service.h), rendered from an
/// in-process LookupEngine answer.
std::string ExpectedReply(const serve::Snapshot& snapshot,
                          const serve::LookupResult& result,
                          const std::string& shown) {
  std::ostringstream out;
  if (!result.found) {
    out << "MISS " << shown << "\n";
    return out.str();
  }
  out << "HIT "
      << netsim::Prefix::Of(netsim::Ipv4Address(result.key), 24).ToString()
      << " block=";
  if (result.block == serve::kNoBlock) {
    out << "- class=" << ClassName(result.class_token)
        << " members=- hops=-\n";
  } else {
    out << result.block << " class=" << ClassName(result.class_token)
        << " members=" << snapshot.BlockMemberCount(result.block)
        << " hops=" << snapshot.BlockHopCount(result.block) << "\n";
  }
  return out.str();
}

/// The seeded request tape: ~90% single LOOKUPs and ~10% BATCH 64; keys
/// are measured /24s, written as the /24 or as one of its addresses, with
/// ~10% misses.  `keys` collects every queried key, in order.
std::vector<Request> BuildTape(const serve::Snapshot& snapshot,
                               std::uint64_t seed,
                               std::vector<std::uint32_t>* keys) {
  netsim::Rng rng = netsim::Rng(seed).Fork(0x7A9EULL);
  serve::LookupEngine engine(snapshot);
  auto draw = [&](std::string* shown) {
    std::uint32_t key = 0;
    if (rng.NextUnit() < kMissShare) {
      do {
        key = static_cast<std::uint32_t>(rng.Next()) & 0xFFFFFF00u;
      } while (engine.Lookup(netsim::Ipv4Address(key)).found);
    } else {
      key = snapshot.EntryKey(rng.NextBelow(snapshot.entry_count()));
    }
    const netsim::Ipv4Address base(key);
    *shown = rng.NextBelow(2) == 0
                 ? netsim::Prefix::Of(base, 24).ToString()
                 : netsim::Ipv4Address(key | rng.NextBelow(256)).ToString();
    keys->push_back(key);
    return ExpectedReply(snapshot, engine.Lookup(base), *shown);
  };
  std::vector<Request> tape(kTapeRequests);
  for (Request& request : tape) {
    std::string shown;
    if (rng.NextUnit() < kBatchShare) {
      request.wire = "BATCH " + std::to_string(kBatchSize) + "\n";
      for (std::size_t i = 0; i < kBatchSize; ++i) {
        request.expected += draw(&shown);
        request.wire += shown + "\n";
      }
      request.expected += "OK " + std::to_string(kBatchSize) + "\n";
    } else {
      request.expected = draw(&shown);
      request.wire = "LOOKUP " + shown + "\n";
    }
  }
  return tape;
}

/// Per-phase results.  The sender writes `lag_us` and `sent`; the
/// receiver writes the rest while holding the connection lock of the
/// request it completes, and the main thread reads them only after the
/// phase drained (observed under the same locks).
struct Phase {
  double rate = 0.0;
  bool traced = false;
  std::vector<double> lag_us;
  std::uint64_t sent = 0;
  std::vector<double> latency_us;
  /// Intended send time of each latency sample, seconds into the phase.
  std::vector<float> latency_at_s;
  std::vector<double> reload_ms;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  Clock::time_point start;
  Clock::time_point last_reply;
  std::int64_t backlog_at_end = 0;
  bool drained = false;
  /// Traced phases: one span per request (intended, sent, replied).
  struct RequestSpan {
    Clock::time_point intended, sent, replied;
  };
  std::vector<RequestSpan> spans;
};

struct Pending {
  Clock::time_point intended;
  Clock::time_point sent;
  const std::string* expected = nullptr;
  std::size_t offset = 0;
  bool ok = true;
  bool reload = false;
  Phase* phase = nullptr;
};

struct Connection {
  int fd = -1;
  std::string out;  // sender only
  std::size_t out_sent = 0;
  std::string in;   // receiver only
  std::mutex mutex;
  std::deque<Pending> pending;  // guarded by mutex
};

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// The generator's two threads busy-poll instead of sleeping: on a
/// virtual machine, waking a halted vCPU takes from tens of microseconds
/// to milliseconds, which would be charged to the server as latency (a
/// late receiver) or show as a lagging schedule (a late sender).
inline void CpuRelax() { __builtin_ia32_pause(); }

/// The open-loop load generator.
class Generator {
 public:
  /// RELOADs alternate `paths[1]` (epoch 2) and `paths[0]` (epoch 1);
  /// the store has served `generation` snapshots before the first one.
  Generator(const std::vector<Request>& tape, const std::string paths[2],
            std::uint64_t generation, std::size_t entries, std::size_t blocks)
      : tape_(tape),
        reload_paths_{paths[0], paths[1]},
        generation_(generation),
        entries_(entries),
        blocks_(blocks) {}

  ~Generator() {
    Stop();
    for (Connection& c : connections_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  bool Connect(std::uint16_t port, std::string* error) {
    for (int i = 0; i < kConnections; ++i) {
      Connection& c = connections_[i];
      c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in address{};
      address.sin_family = AF_INET;
      address.sin_port = htons(port);
      address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (c.fd < 0 || ::connect(c.fd, reinterpret_cast<sockaddr*>(&address),
                                sizeof(address)) != 0) {
        *error = std::string("connect: ") + std::strerror(errno);
        return false;
      }
      int one = 1;
      setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (!SetNonBlocking(c.fd)) {
        *error = "non-blocking";
        return false;
      }
    }
    receiver_ = std::thread([this] { ReceiveLoop(); });
    return true;
  }

  /// Offers `rate` requests/s for `seconds`, then waits for the replies.
  /// A phase that does not drain stops the receiver, so no further phase
  /// may run.
  Phase& Run(double rate, double seconds, bool traced) {
    phases_.emplace_back();
    Phase& phase = phases_.back();
    phase.rate = rate;
    phase.traced = traced;
    const Clock::duration interval =
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / rate));
    const Clock::duration reload_period =
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(kReloadPeriodS));
    phase.start = Clock::now() + std::chrono::milliseconds(2);
    const Clock::time_point end =
        phase.start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds));
    Clock::time_point next_request = phase.start;
    Clock::time_point next_reload = phase.start + reload_period / 2;
    std::size_t k = 0;
    while (next_request < end || next_reload < end) {
      const Clock::time_point now = Clock::now();
      while (next_request < end && next_request <= now) {
        const Request& request = tape_[cursor_++ % tape_.size()];
        Enqueue(phase, request.wire, &request.expected,
                static_cast<int>(k % kConnections), next_request, now, false);
        ++k;
        next_request = phase.start + interval * k;
      }
      while (next_reload < end && next_reload <= now) {
        ++reloads_;
        const int file = static_cast<int>(reloads_ % 2);
        reload_expected_.push_back(
            "OK generation=" + std::to_string(generation_ + reloads_) +
            " entries=" + std::to_string(entries_) +
            " blocks=" + std::to_string(blocks_) +
            " epoch=" + std::to_string(file + 1) + "\n");
        Enqueue(phase, "RELOAD " + reload_paths_[file] + "\n",
                &reload_expected_.back(), 0, next_reload, now, true);
        next_reload += reload_period;
      }
      const bool backlogged = !FlushAll();
      Clock::time_point wake = std::min(next_request < end ? next_request : end,
                                        next_reload < end ? next_reload : end);
      if (backlogged) wake = std::min(wake, now + std::chrono::microseconds(20));
      while (Clock::now() < wake) CpuRelax();
    }
    const Clock::time_point flush_deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kDrainTimeoutS));
    while (!FlushAll() && Clock::now() < flush_deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    phase.backlog_at_end = outstanding_.load(std::memory_order_relaxed);
    while (Clock::now() < flush_deadline) {
      if (Outstanding() == 0) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    phase.drained = Outstanding() == 0;
    if (!phase.drained) Stop();
    return phase;
  }

  void Stop() {
    if (!receiver_.joinable()) return;
    stop_.store(true, std::memory_order_relaxed);
    receiver_.join();
  }

  std::uint64_t protocol_errors() const { return protocol_errors_; }

 private:
  void Enqueue(Phase& phase, const std::string& wire,
               const std::string* expected, int conn,
               Clock::time_point intended, Clock::time_point now,
               bool reload) {
    Connection& c = connections_[conn];
    phase.lag_us.push_back(
        std::chrono::duration<double, std::micro>(now - intended).count());
    ++phase.sent;
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(c.mutex);
      c.pending.push_back(
          Pending{intended, now, expected, 0, true, reload, &phase});
    }
    c.out += wire;
  }

  /// Non-blocking flush of every connection; false while bytes remain.
  bool FlushAll() {
    bool done = true;
    for (Connection& c : connections_) {
      while (c.out_sent < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_sent,
                                 c.out.size() - c.out_sent,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
          c.out_sent += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          break;
        }
      }
      if (c.out_sent == c.out.size()) {
        c.out.clear();
        c.out_sent = 0;
      } else {
        done = false;
      }
    }
    return done;
  }

  std::int64_t Outstanding() {
    std::int64_t total = 0;
    for (Connection& c : connections_) {
      std::lock_guard<std::mutex> lock(c.mutex);
      total += static_cast<std::int64_t>(c.pending.size());
    }
    return total;
  }

  void ReceiveLoop() {
    char buffer[64 * 1024];
    bool open[kConnections];
    std::fill(std::begin(open), std::end(open), true);
    while (!stop_.load(std::memory_order_relaxed)) {
      bool idle = true;
      for (int i = 0; i < kConnections; ++i) {
        Connection& c = connections_[i];
        while (open[i]) {
          const ssize_t got =
              ::recv(c.fd, buffer, sizeof(buffer), MSG_DONTWAIT);
          if (got == 0) {
            // The server closed the connection: every request pending on
            // it stays unanswered and fails the drain.
            open[i] = false;
            ++protocol_errors_;
          }
          if (got <= 0) break;
          idle = false;
          const Clock::time_point now = Clock::now();
          c.in.append(buffer, static_cast<std::size_t>(got));
          Consume(c, now);
        }
      }
      if (idle) CpuRelax();
    }
  }

  /// Matches every complete line in `c.in` against the oldest pending
  /// request of the connection.
  void Consume(Connection& c, Clock::time_point now) {
    std::size_t pos = 0;
    std::lock_guard<std::mutex> lock(c.mutex);
    for (;;) {
      const std::size_t newline = c.in.find('\n', pos);
      if (newline == std::string::npos) break;
      const std::string_view line(c.in.data() + pos, newline - pos);
      pos = newline + 1;
      if (c.pending.empty()) {
        ++protocol_errors_;
        continue;
      }
      Pending& p = c.pending.front();
      const std::string& expected = *p.expected;
      const bool match =
          p.offset + line.size() < expected.size() &&
          expected.compare(p.offset, line.size(), line) == 0 &&
          expected[p.offset + line.size()] == '\n';
      p.ok = p.ok && match;
      p.offset = match ? p.offset + line.size() + 1 : expected.size();
      if (p.offset < expected.size()) continue;
      Phase& phase = *p.phase;
      const double micros =
          std::chrono::duration<double, std::micro>(now - p.intended).count();
      if (p.reload) {
        phase.reload_ms.push_back(micros / 1e3);
      } else {
        phase.latency_us.push_back(micros);
        phase.latency_at_s.push_back(static_cast<float>(
            SecondsBetween(phase.start, p.intended)));
      }
      (p.ok ? phase.ok : phase.failed) += 1;
      phase.last_reply = std::max(phase.last_reply, now);
      if (phase.traced) {
        phase.spans.push_back({p.intended, p.sent, now});
      }
      c.pending.pop_front();
      outstanding_.fetch_sub(1, std::memory_order_relaxed);
    }
    c.in.erase(0, pos);
  }

  const std::vector<Request>& tape_;
  std::string reload_paths_[2];
  std::uint64_t generation_;
  std::size_t entries_;
  std::size_t blocks_;
  std::size_t cursor_ = 0;
  std::uint64_t reloads_ = 0;
  std::deque<std::string> reload_expected_;
  std::deque<Phase> phases_;
  Connection connections_[kConnections];
  std::atomic<std::int64_t> outstanding_{0};
  std::uint64_t protocol_errors_ = 0;  // receiver only until Stop()
  std::atomic<bool> stop_{false};
  std::thread receiver_;
};

/// The reactor on its own thread, stopped and joined on destruction.
class Server {
 public:
  explicit Server(serve::SnapshotStore* store)
      : reactor_(store, &metrics_, nullptr) {}
  ~Server() {
    if (thread_.joinable()) {
      reactor_.Stop();
      thread_.join();
    }
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  bool Start(std::string* error) {
    if (!reactor_.Listen(error)) return false;
    thread_ = std::thread([this] { reactor_.Run(); });
    return pthread_getcpuclockid(thread_.native_handle(), &cpu_clock_) == 0;
  }
  /// CPU time of the reactor thread.
  double cpu_seconds() const {
    timespec ts{};
    clock_gettime(cpu_clock_, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
  }
  std::uint16_t port() const { return reactor_.port(); }
  const serve::ReactorStats& stats() const { return reactor_.stats(); }

 private:
  serve::ServeMetrics metrics_;
  serve::Reactor reactor_;
  clockid_t cpu_clock_{};
  std::thread thread_;
};

std::string_view AsChars(const std::vector<std::byte>& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// Quantile `q` of the phase's latencies in each `window_s` window of
/// intended send time, then the median over the windows: a burst of
/// interference from outside the benchmark spoils one window, not the
/// figure.
double WindowedQuantile(const Phase& phase, double q, double window_s) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < phase.latency_us.size(); ++i) {
    const std::size_t w =
        static_cast<std::size_t>(phase.latency_at_s[i] / window_s);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(phase.latency_us[i]);
  }
  std::vector<double> per_window;
  for (std::vector<double>& window : windows) {
    if (!window.empty()) per_window.push_back(Quantile(std::move(window), q));
  }
  return Median(per_window);
}

bool RungPasses(const Phase& phase, double p99_us, double lag_p99_us) {
  return phase.failed == 0 && phase.drained && p99_us <= kP99LimitUs &&
         lag_p99_us <= kMaxGeneratorLagUs &&
         phase.backlog_at_end <=
             std::max<std::int64_t>(
                 64, static_cast<std::int64_t>(phase.rate * kP99LimitUs / 1e6));
}

/// In-process layer timings for the traced run: lookups, batched lookups
/// and the line service over the request tape, without sockets.
void AddInProcessLayers(const serve::Snapshot& snapshot,
                        const std::vector<Request>& tape,
                        const std::vector<std::uint32_t>& keys,
                        serve::SnapshotStore* store, double* service_p50_us,
                        Report& report) {
  const serve::EytzingerIndex index = serve::EytzingerIndex::Build(snapshot);
  const serve::LookupEngine engine(snapshot, &index);
  constexpr int kPasses = 20;
  std::uint64_t found = 0;
  Clock::time_point start = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::uint32_t key : keys) {
      found += engine.Lookup(netsim::Ipv4Address(key)).found;
    }
  }
  const double lookups = static_cast<double>(keys.size()) * kPasses;
  report.Add("serve.lookup_ns",
             SecondsBetween(start, Clock::now()) * 1e9 / lookups, "ns");
  std::vector<serve::LookupResult> answers(keys.size());
  start = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    engine.LookupBatch(keys, answers, nullptr);
    found += answers.front().found;
  }
  report.Add("serve.batch_lookup_ns",
             SecondsBetween(start, Clock::now()) * 1e9 / lookups, "ns");
  report.Check(found > 0, "in-process lookups found nothing");

  serve::ServeMetrics metrics;
  serve::LineService service(store, &metrics, nullptr);
  std::string wire;
  std::string expected;
  for (const Request& request : tape) {
    wire += request.wire;
    expected += request.expected;
  }
  std::vector<double> per_request_us;
  for (int pass = 0; pass < 5; ++pass) {
    std::istringstream in(wire);
    std::ostringstream out;
    start = Clock::now();
    service.Run(in, out);
    per_request_us.push_back(SecondsBetween(start, Clock::now()) * 1e6 /
                             static_cast<double>(tape.size()));
    report.Check(out.str() == expected,
                 "in-process LineService replies differ from LookupEngine");
  }
  report.Add("serve.service_us", Median(per_request_us), "us");
  std::vector<double> each_us;
  for (const Request& request : tape) {
    const std::size_t newline = request.wire.find('\n');
    std::istringstream in(request.wire.substr(newline + 1));
    std::ostringstream out;
    start = Clock::now();
    service.HandleCommand(request.wire.substr(0, newline), in, out);
    each_us.push_back(SecondsBetween(start, Clock::now()) * 1e6);
  }
  *service_p50_us = Median(each_us);
}

}  // namespace

void MeasureServeLayers(std::span<const cluster::AggregateBlock> blocks,
                        std::span<const serve::ClassifiedPrefix> classified,
                        std::uint64_t seed, const std::string& work_dir,
                        Report& report) {
  std::vector<double> compile_s;
  std::vector<std::byte> snapshot_bytes;
  for (int i = 0; i < kCompiles; ++i) {
    const Clock::time_point start = Clock::now();
    snapshot_bytes = serve::CompileSnapshotV2(blocks, classified, 1);
    compile_s.push_back(SecondsBetween(start, Clock::now()));
  }
  report.Add("serve.compile_s", Median(compile_s), "s");
  const std::string paths[2] = {work_dir + "/serve-epoch1.snap",
                                work_dir + "/serve-epoch2.snap"};
  const std::vector<std::byte> epoch2 =
      serve::CompileSnapshotV2(blocks, classified, 2);
  report.Check(WriteFile(paths[0], AsChars(snapshot_bytes)) &&
                   WriteFile(paths[1], AsChars(epoch2)),
               "write snapshot files");
  std::string error;
  std::optional<serve::Snapshot> snapshot =
      serve::Snapshot::FromBuffer(snapshot_bytes, &error);
  if (!snapshot) {
    report.Check(false, "compiled snapshot rejected: " + error);
    return;
  }
  std::vector<std::uint32_t> keys;
  const std::vector<Request> tape = BuildTape(*snapshot, seed, &keys);

  serve::SnapshotStore store;
  std::vector<double> load_ms;
  for (int i = 0; i < kLoadSamples; ++i) {
    const Clock::time_point start = Clock::now();
    report.Check(store.ReloadFromFile(paths[0], &error), "load: " + error);
    load_ms.push_back(SecondsBetween(start, Clock::now()) * 1e3);
  }
  report.Add("serve.load_ms", Median(load_ms), "ms");
  double service_p50_us = 0.0;
  AddInProcessLayers(*snapshot, tape, keys, &store, &service_p50_us, report);

  Server server(&store);
  if (!server.Start(&error)) {
    report.Check(false, "reactor: " + error);
    return;
  }
  Generator generator(tape, paths, store.generation(),
                      snapshot->entry_count(), snapshot->block_count());
  if (!generator.Connect(server.port(), &error)) {
    report.Check(false, error);
    return;
  }
  std::vector<Phase*> phases;
  // Warm-up: index build, caches, TCP windows.
  phases.push_back(&generator.Run(kFixedRate, 1.0, false));

  // The fixed rate, untraced and then with a span per request.
  Phase& fixed = generator.Run(kFixedRate, kFixedSeconds, false);
  phases.push_back(&fixed);
  const double p50 = WindowedQuantile(fixed, 0.50, kWindowS);
  const double p99 = WindowedQuantile(fixed, 0.99, kWindowS);
  std::cout << "serve, fixed rate " << kFixedRate << "/s: p50 " << p50
            << " us, p99 " << p99 << " us, generator lag p99 "
            << Quantile(fixed.lag_us, 0.99) << " us\n";
  const serve::ReactorStats& stats = server.stats();
  const double cpu_before = server.cpu_seconds();
  const std::uint64_t commands_before = stats.commands.load();
  const std::uint64_t bytes_before = stats.bytes_out.load();
  const std::uint64_t pauses_before = stats.backpressure_pauses.load();
  Tracer tracer;
  Phase& traced = generator.Run(kFixedRate, kFixedSeconds, true);
  phases.push_back(&traced);
  const double traced_p50 = WindowedQuantile(traced, 0.50, kWindowS);
  report.Add("serve.client_p50_us", p50, "us");
  report.Add("serve.client_p99_us", p99, "us");
  report.Add("serve.transport_us", traced_p50 - service_p50_us, "us");
  report.Add("serve.reactor_busy",
             (server.cpu_seconds() - cpu_before) /
                 SecondsBetween(traced.start, traced.last_reply),
             "ratio");
  report.Add("serve.backpressure_pauses",
             static_cast<double>(stats.backpressure_pauses.load() -
                                 pauses_before),
             "count");
  report.Add("serve.bytes_out_per_request",
             static_cast<double>(stats.bytes_out.load() - bytes_before) /
                 static_cast<double>(stats.commands.load() - commands_before),
             "B");
  report.Add("serve.generator_lag_us", Quantile(traced.lag_us, 0.99), "us");
  report.Add("trace.p50_overhead", traced_p50 / p50, "ratio");
  std::cout << "tracing overhead: serve p50 traced " << traced_p50
            << " us vs untraced " << p50 << " us\n";
  for (const Phase::RequestSpan& span : traced.spans) {
    const int request =
        tracer.Record("serve.request", span.intended, span.replied, -1);
    tracer.Record("serve.generator_lag", span.intended, span.sent, request);
  }
  report.Check(tracer.WriteChromeTrace(work_dir + "/serve-trace.json"),
               "write serve trace");

  // The ladder.  An invalid rung (the generator fell behind) neither
  // passes nor counts toward the two failures that end the climb.
  double sustained = 0.0;
  int misses = 0;
  bool failing_rung_seen = false;
  std::cout << "  rate/s      p50_us     p99_us  lag_p99_us  backlog  "
               "failed  verdict\n";
  for (double rate : kLadder) {
    Phase& rung = generator.Run(rate, kRungSeconds, false);
    phases.push_back(&rung);
    const double rung_p99 = WindowedQuantile(rung, 0.99, kWindowS);
    const double lag_p99 = Quantile(rung.lag_us, 0.99);
    const bool passes = RungPasses(rung, rung_p99, lag_p99);
    const bool invalid = lag_p99 > kMaxGeneratorLagUs;
    std::cout << std::setw(8) << rate << std::setw(12)
              << WindowedQuantile(rung, 0.50, kWindowS) << std::setw(11)
              << rung_p99 << std::setw(12) << lag_p99 << std::setw(9)
              << rung.backlog_at_end << std::setw(8) << rung.failed << "  "
              << (passes ? "pass" : invalid ? "invalid" : "FAIL") << "\n";
    if (passes) {
      sustained = rate;
      misses = 0;
    } else if (!invalid) {
      failing_rung_seen = true;
      if (++misses == 2) break;
    }
    if (!rung.drained) break;
  }
  generator.Stop();
  report.Check(failing_rung_seen, "the rate ladder never reached saturation");
  report.Add("serve.sustained_rps", sustained, "1/s");

  std::vector<double> reload_ms;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  for (const Phase* phase : phases) {
    reload_ms.insert(reload_ms.end(), phase->reload_ms.begin(),
                     phase->reload_ms.end());
    sent += phase->sent;
    ok += phase->ok;
  }
  report.Add("serve.reload_ms", Median(reload_ms), "ms");
  report.Check(ok == sent, "failed or unanswered requests");
  report.Check(generator.protocol_errors() == 0, "unmatched reply lines");
}

}  // namespace perfbench
