// neats_perfbench — the repo benchmark's load generator (README.md beside
// this file has the workloads, the metrics and the layer table).
//
//   neats_perfbench --workload point_lookup|range_scan
//                   --seed N --seconds S --trace 0|1 --work-dir DIR
//                   [--plant-wrong-expected]
//
// One process hosts a NeatsServer with default options over a store built
// from seeded synthetic datasets, drives it over loopback with net::Client
// from at most two load threads, and checks every answer against ground
// truth kept in memory. --trace 0 measures the end-to-end metrics; --trace 1
// runs the same workload untraced and traced (half the time each, for the
// tracing overhead) and then replays the same seeded operations through the
// public functions of each layer below the socket.
//
// Human-readable lines go to stdout first; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. The exit code is 0
// only when every answer matched; a wrong, shed or failed request counts in
// "failed" and makes the exit code 1. --plant-wrong-expected corrupts the
// first expected scalar so the self-test can prove mismatches are caught.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "codecs/codec_registry.hpp"
#include "core/neats.hpp"
#include "datasets/generators.hpp"
#include "io/fs.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "store/neats_store.hpp"
#include "store/wal.hpp"
#include "succinct/elias_fano.hpp"

namespace {

using neats::CodecId;
using neats::CodecRegistry;
using neats::NeatsStore;
using neats::NeatsStoreOptions;
using neats::SealedSeries;
using neats::net::Client;
using neats::net::NeatsServer;
using neats::net::Opcode;
using neats::net::WireStatus;
using neats::obs::MetricsSnapshot;

constexpr uint64_t kDatasetValues = uint64_t{1} << 18;  // 256Ki per dataset
constexpr uint64_t kShardValues = uint64_t{1} << 16;    // store default
constexpr uint64_t kRangeLen = uint64_t{1} << 16;       // range_scan ranges
constexpr size_t kBulkDepth = 8;        // point_lookup connection B
constexpr uint64_t kWalRecordValues = 256;  // io.fsync_us record size
constexpr int kServedSetups = 3;  // bulk-load setups per run (median)

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- ground truth -----------------------------------------------------------

struct Truth {
  std::vector<std::string> codes;  // one dataset per kDatasetValues segment
  std::vector<int64_t> values;
  std::vector<uint64_t> prefix;  // wrapping prefix sums, size n + 1

  uint64_t size() const { return values.size(); }
  int64_t Sum(uint64_t from, uint64_t len) const {
    return static_cast<int64_t>(prefix[from + len] - prefix[from]);
  }
};

/// The stored series: the generators' default-seed datasets (the corpus
/// bench_report measures), so bits_per_value is a property of the code and
/// not of the run's seed. The seed drives only the load.
Truth MakeTruth(std::vector<std::string> codes) {
  Truth t;
  t.codes = std::move(codes);
  for (const std::string& code : t.codes) {
    const neats::Dataset ds = neats::MakeDataset(code, kDatasetValues);
    t.values.insert(t.values.end(), ds.values.begin(), ds.values.end());
  }
  t.prefix.assign(t.values.size() + 1, 0);
  for (size_t i = 0; i < t.values.size(); ++i) {
    t.prefix[i + 1] = t.prefix[i] + static_cast<uint64_t>(t.values[i]);
  }
  return t;
}

// The self-test hook: when set, the first scalar expectation is corrupted.
std::atomic<bool> g_plant_wrong{false};

int64_t Expected(int64_t truth) {
  if (g_plant_wrong.load(std::memory_order_relaxed) &&
      g_plant_wrong.exchange(false)) {
    return truth ^ 1;
  }
  return truth;
}

bool ValueOk(const Client::Response& r, int64_t want) {
  if (r.status != WireStatus::kOk || r.payload.size() != 8) return false;
  int64_t got = 0;
  std::memcpy(&got, r.payload.data(), 8);
  return got == Expected(want);
}

bool RangeOk(const Client::Response& r, const int64_t* want, uint64_t len) {
  return r.status == WireStatus::kOk && r.payload.size() == len * 8 &&
         std::memcmp(r.payload.data(), want, len * 8) == 0;
}

std::vector<uint8_t> U64Payload(uint64_t a) {
  std::vector<uint8_t> p;
  neats::net::PayloadWriter(&p).U64(a);
  return p;
}

std::vector<uint8_t> RangePayload(uint64_t from, uint64_t len) {
  std::vector<uint8_t> p;
  neats::net::PayloadWriter w(&p);
  w.U64(from);
  w.U64(len);
  return p;
}

// --- per-stream accounting ---------------------------------------------------

/// One client-side span: a request from send to response.
struct Span {
  Opcode op;
  uint64_t start_ns;
  uint64_t end_ns;
};

/// Nearest-rank percentile of raw samples (exact, no bucketing).
double Percentile(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const size_t k = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Throughput and latency percentiles of one measurement window.
struct Summary {
  double ops_per_s = 0;
  double p50_ns = 0;
  double p90_ns = 0;
};

Summary Summarize(const std::vector<uint64_t>& lat, uint64_t begin_ns,
                  uint64_t end_ns) {
  Summary out;
  if (end_ns > begin_ns) {
    out.ops_per_s = static_cast<double>(lat.size()) /
                    (static_cast<double>(end_ns - begin_ns) / 1e9);
  }
  out.p50_ns = Percentile(lat, 0.50);
  out.p90_ns = Percentile(lat, 0.90);
  return out;
}

// A window spans at least half a second and holds at least 100 samples, so
// its p90 has ten samples beyond it. The sample floor binds only on
// range_scan's DecompressRange stream (~180 requests/s); it still gets ~50
// windows in a 30 s run. Keeping only the open window's samples
// keeps the benchmark's own memory independent of how fast the server runs
// (rss_mb measures the program).
constexpr uint64_t kWindowNs = 500'000'000;
constexpr size_t kWindowSamples = 100;

/// One load stream (a connection): every attempted request and its
/// failures, and per-window summaries of the per-request latency. With
/// tracing on it also keeps a span per request in memory.
struct Stream {
  bool traced = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t begin_ns = 0;          // start of the open window
  std::vector<uint64_t> lat_ns;   // samples of the open window
  std::vector<Summary> windows;   // closed windows, in time order
  std::vector<Span> spans;
  std::string error;  // exception text that ended the stream early

  void Start(uint64_t now) { begin_ns = now; }

  void Record(Opcode op, uint64_t start, uint64_t end, bool ok) {
    ++attempted;
    if (!ok) ++failed;
    lat_ns.push_back(end - start);
    if (traced) spans.push_back({op, start, end});
    if (lat_ns.size() >= kWindowSamples && end - begin_ns >= kWindowNs) {
      Close(end);
    }
  }

  /// Ends the measurement. A remainder too short to be a window is dropped
  /// unless no window closed at all (a run too short for one).
  void Finish(uint64_t now) {
    if (windows.empty() && !lat_ns.empty()) Close(now);
    lat_ns.clear();
  }

 private:
  void Close(uint64_t end) {
    windows.push_back(Summarize(lat_ns, begin_ns, end));
    lat_ns.clear();
    begin_ns = end;
  }
};

/// A run's figure for one summary field: the window at the better decile,
/// the 90th percentile (nearest rank) of throughput or the 10th of latency.
/// On a shared VM, CPU steal arrives in stretches of seconds to minutes that
/// can slow most of a run's windows to a third of their speed; the better
/// decile stays put unless a slowdown covers nine tenths of the windows
/// (README.md, "Windows").
double BetterDecile(const std::vector<Summary>& windows,
                    double Summary::*field) {
  std::vector<double> v;
  for (const Summary& w : windows) v.push_back(w.*field);
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double q = field == &Summary::ops_per_s ? 0.9 : 0.1;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/// Nearest-rank percentile of the latency of every span a traced stream kept.
double SpanPercentile(const std::vector<Span>& spans, double q) {
  std::vector<uint64_t> lat;
  lat.reserve(spans.size());
  for (const Span& s : spans) lat.push_back(s.end_ns - s.start_ns);
  return Percentile(std::move(lat), q);
}

/// Runs `body(stream)` on its own thread, converting an escaping exception
/// into a recorded stream failure.
template <typename Body>
std::thread StreamThread(Stream* s, Body body) {
  return std::thread([s, body]() mutable {
    try {
      body(*s);
    } catch (const std::exception& e) {
      s->error = e.what();
      ++s->attempted;
      ++s->failed;
    }
  });
}

struct PhaseResult {
  Stream a;  // see README.md: the interactive / RangeSum stream
  Stream b;  // the pipelined / DecompressRange stream
};

// --- the served store --------------------------------------------------------

/// A store directory reopened with OpenDir and fronted by a NeatsServer
/// with the shipped defaults. The server is declared last so it is
/// destroyed (stopped) before the store it serves.
struct Served {
  std::unique_ptr<NeatsStore> store;
  std::unique_ptr<NeatsServer> server;

  uint16_t port() const { return server->port(); }
  void Reset() {
    server.reset();
    store.reset();
  }
};

void StartServer(Served* s) {
  s->server = std::make_unique<NeatsServer>(*s->store);
  s->server->Start();
  Client c = Client::Connect("127.0.0.1", s->server->port());
  c.Ping();
}

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// Bulk-loads `t` into a fresh directory store (CreateDir -> Append per
/// dataset -> Flush, seal_threads = nproc), reopens it with OpenDir and
/// starts the server; returns the seconds from CreateDir until the first
/// ping succeeded. `build_stats` receives the loading store's metrics.
double SetupServed(const Truth& t, const std::string& dir, Served* out,
                   MetricsSnapshot* build_stats) {
  out->Reset();
  std::filesystem::remove_all(dir);
  const uint64_t t0 = NowNs();
  {
    NeatsStoreOptions options;
    options.seal_threads = HardwareThreads();
    NeatsStore loader = NeatsStore::CreateDir(dir, options);
    for (size_t d = 0; d < t.codes.size(); ++d) {
      loader.Append(std::span<const int64_t>(
          t.values.data() + d * kDatasetValues, kDatasetValues));
    }
    loader.Flush();
    *build_stats = loader.StatsSnapshot();
  }
  out->store = std::make_unique<NeatsStore>(NeatsStore::OpenDir(dir));
  StartServer(out);
  return static_cast<double>(NowNs() - t0) / 1e9;
}

// --- workloads ---------------------------------------------------------------

/// point_lookup: connection A keeps one kAccess in flight, connection B
/// keeps kBulkDepth in flight (a sliding window, so the server's coalescer
/// sees runs of probes). Each request is timed from its own send.
PhaseResult RunPointLookup(uint16_t port, const Truth& t, uint64_t seed,
                           double seconds, bool traced) {
  PhaseResult res;
  res.a.traced = res.b.traced = traced;
  const uint64_t n = t.size();
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  res.a.Start(start);
  res.b.Start(start);
  std::thread ta = StreamThread(&res.a, [&, seed](Stream& s) {
    Client c = Client::Connect("127.0.0.1", port);
    std::mt19937_64 rng(seed * 4 + 1);
    while (NowNs() < deadline) {
      const uint64_t i = rng() % n;
      const std::vector<uint8_t> payload = U64Payload(i);
      const uint64_t t0 = NowNs();
      const Client::Response r = c.Call(Opcode::kAccess, payload);
      s.Record(Opcode::kAccess, t0, NowNs(), ValueOk(r, t.values[i]));
    }
  });
  std::thread tb = StreamThread(&res.b, [&, seed](Stream& s) {
    struct Pending {
      uint64_t id, index, sent_ns;
    };
    Client c = Client::Connect("127.0.0.1", port);
    std::mt19937_64 rng(seed * 4 + 2);
    std::deque<Pending> window;
    for (;;) {
      const bool open = NowNs() < deadline;
      while (open && window.size() < kBulkDepth) {
        const uint64_t i = rng() % n;
        const std::vector<uint8_t> payload = U64Payload(i);
        const uint64_t sent = NowNs();
        window.push_back({c.SendRequest(Opcode::kAccess, payload), i, sent});
      }
      if (window.empty()) break;
      const Client::Response r = c.ReadResponse();
      const uint64_t done = NowNs();
      auto it = std::find_if(window.begin(), window.end(),
                             [&](const Pending& p) { return p.id == r.id; });
      if (it == window.end()) throw std::runtime_error("unmatched response id");
      s.Record(Opcode::kAccess, it->sent_ns, done,
               ValueOk(r, t.values[it->index]));
      window.erase(it);
    }
  });
  ta.join();
  tb.join();
  const uint64_t end = NowNs();
  res.a.Finish(end);
  res.b.Finish(end);
  return res;
}

/// range_scan: two unpipelined connections over 64Ki-value ranges at
/// uniform random starts; A asks RangeSum, B asks DecompressRange.
PhaseResult RunRangeScan(uint16_t port, const Truth& t, uint64_t seed,
                         double seconds, bool traced) {
  PhaseResult res;
  res.a.traced = res.b.traced = traced;
  const uint64_t starts = t.size() - kRangeLen + 1;
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  res.a.Start(start);
  res.b.Start(start);
  auto loop = [&](Opcode op, uint64_t stream_seed) {
    return [&, op, stream_seed](Stream& s) {
      Client c = Client::Connect("127.0.0.1", port);
      std::mt19937_64 rng(stream_seed);
      while (NowNs() < deadline) {
        const uint64_t from = rng() % starts;
        const std::vector<uint8_t> payload = RangePayload(from, kRangeLen);
        const uint64_t t0 = NowNs();
        const Client::Response r = c.Call(op, payload);
        const uint64_t t1 = NowNs();
        const bool ok =
            op == Opcode::kRangeSum
                ? ValueOk(r, t.Sum(from, kRangeLen))
                : RangeOk(r, t.values.data() + from, kRangeLen);
        s.Record(op, t0, t1, ok);
      }
    };
  };
  std::thread ta = StreamThread(&res.a, loop(Opcode::kRangeSum, seed * 4 + 1));
  std::thread tb =
      StreamThread(&res.b, loop(Opcode::kDecompressRange, seed * 4 + 2));
  ta.join();
  tb.join();
  const uint64_t end = NowNs();
  res.a.Finish(end);
  res.b.Finish(end);
  return res;
}

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Count(const Stream& s, const char* label) {
    attempted += s.attempted;
    failed += s.failed;
    if (!s.error.empty()) {
      std::printf("stream %s stopped: %s\n", label, s.error.c_str());
    }
  }
};

double Us(double ns) { return ns / 1e3; }

double RssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// A stream's figures: the better-decile window of each summary field
/// (README.md, "Metrics"). Only the p50s are gated end-to-end metrics; the
/// throughput and p90 of the same windows are reported unbounded by traced
/// runs (README.md says why).
struct Figures {
  double ops_per_s;
  double p50_us;
  double p90_us;
};

Figures FiguresOf(const std::vector<Summary>& windows) {
  return {BetterDecile(windows, &Summary::ops_per_s),
          Us(BetterDecile(windows, &Summary::p50_ns)),
          Us(BetterDecile(windows, &Summary::p90_ns))};
}

/// Prints the workload's numbers under their per-operation names (read_*,
/// sum_*, scan_*); informational only.
void PrintNamedView(const std::string& workload, const Figures& a,
                    const Figures& b, const Report& rep) {
  auto line = [](const char* n, double v, const char* unit) {
    std::printf("  %-20s %14.3f %s\n", n, v, unit);
  };
  std::printf("named view (%s):\n", workload.c_str());
  const double range = static_cast<double>(kRangeLen);
  if (workload == "point_lookup") {
    line("read_ops_per_s", a.ops_per_s + b.ops_per_s, "1/s");
    line("read_p50_us", a.p50_us, "us");
    line("read_p90_us", a.p90_us, "us");
  } else {
    line("sum_values_per_s", a.ops_per_s * range, "1/s");
    line("sum_p50_us", a.p50_us, "us");
    line("sum_p90_us", a.p90_us, "us");
    line("scan_values_per_s", b.ops_per_s * range, "1/s");
    line("scan_p50_us", b.p50_us, "us");
    line("scan_p90_us", b.p90_us, "us");
  }
  line("error_ratio",
       rep.attempted > 0 ? static_cast<double>(rep.failed) /
                               static_cast<double>(rep.attempted)
                         : 0,
       "ratio");
}

void PrintResult(const Report& rep) {
  bool finite = true;
  std::string json = "{\"correct\": ";
  std::string body;
  for (size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    finite = finite && std::isfinite(m.value);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    body += buf;
  }
  const bool correct = rep.failed == 0 && finite;
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {" + body + "}}";
  std::printf("%s\n", json.c_str());
}

// --- the layer replay (--trace 1) --------------------------------------------

uint64_t g_sink = 0;  // keeps timed loops observable

/// Median over `reps` runs of `body()`, which returns elapsed ns.
template <typename Body>
double MedianNs(int reps, Body body) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) v.push_back(static_cast<double>(body()));
  return Median(v);
}

/// Times `a` and `b` alternately, `reps` times each, so drift and cache
/// state hit both alike; returns the median elapsed ns of each.
template <typename A, typename B>
std::pair<double, double> PairedMedianNs(int reps, A a, B b) {
  std::vector<double> va, vb;
  for (int r = 0; r < reps; ++r) {
    va.push_back(static_cast<double>(a()));
    vb.push_back(static_cast<double>(b()));
  }
  return {Median(va), Median(vb)};
}

/// A timed loop calling `one(x)` for every x of `inputs`; returns elapsed ns.
template <typename T, typename One>
auto TimedLoop(const std::vector<T>& inputs, One one) {
  return [&inputs, one] {
    uint64_t sink = 0;
    const uint64_t t0 = NowNs();
    for (const T& x : inputs) sink += static_cast<uint64_t>(one(x));
    g_sink ^= sink;
    return NowNs() - t0;
  };
}

struct ReplayInputs {
  std::vector<uint64_t> probes;                 // global point indices
  std::vector<neats::IndexRange> ranges;        // kRangeLen each
  std::vector<std::vector<uint64_t>> segment;   // probes per store quarter
};

/// The probes are the first ones point_lookup's connection A sends and the
/// ranges the first ones range_scan's connection A sends (the same streams,
/// seed * 4 + 1), so each workload's replay repeats its own operations. The
/// per-quarter probes come from a stream of their own.
ReplayInputs MakeReplayInputs(uint64_t n, uint64_t seed) {
  ReplayInputs in;
  std::mt19937_64 points(seed * 4 + 1);
  for (int i = 0; i < 20000; ++i) in.probes.push_back(points() % n);
  std::mt19937_64 ranges(seed * 4 + 1);
  for (int i = 0; i < 32; ++i) {
    in.ranges.push_back({ranges() % (n - kRangeLen + 1), kRangeLen});
  }
  std::mt19937_64 rng(seed * 4 + 5);
  in.segment.resize(4);
  for (uint64_t q = 0; q < 4; ++q) {
    const uint64_t lo = q * n / 4, hi = (q + 1) * n / 4;
    for (int i = 0; i < 20000; ++i) {
      in.segment[q].push_back(lo + rng() % (hi - lo));
    }
  }
  return in;
}

/// What the traced end-to-end phase observed, for the net.* rows.
struct TracedPhase {
  MetricsSnapshot server;       // a server that served only the traced phase
  MetricsSnapshot store_build;  // seal/flush/WAL activity of the load
  double trace_overhead_us = 0;
  Figures a{}, b{};     // the untraced phase's streams
  double a_p99_us = 0;  // the traced phase's tails (all of its requests)
  double b_p99_us = 0;
};

/// Replays the seeded probes and ranges through EliasFano, the codec, the
/// store and the socket, checking every answer, and adds the per-layer rows.
void LayerReplay(const Truth& t, const std::string& dir, const Served& srv,
                 const std::string& work, uint64_t seed, const TracedPhase& tp,
                 Report* rep) {
  const uint64_t n = t.size();
  const ReplayInputs in = MakeReplayInputs(n, seed);
  const NeatsStore& store = *srv.store;
  uint64_t checks = 0, wrong = 0;
  auto check = [&](bool ok) {
    ++checks;
    if (!ok) ++wrong;
  };

  // core: compress each shard-sized chunk exactly as the store seals it.
  std::vector<std::unique_ptr<SealedSeries>> core;
  std::vector<neats::EliasFano> efs;
  std::vector<std::vector<uint64_t>> starts;
  uint64_t compress_ns = 0, fragments = 0;
  for (uint64_t from = 0; from < n; from += kShardValues) {
    const std::span<const int64_t> chunk(t.values.data() + from,
                                         std::min(kShardValues, n - from));
    const uint64_t c0 = NowNs();
    core.push_back(CodecRegistry::Compress(CodecId::kNeats, chunk, {}));
    compress_ns += NowNs() - c0;
    std::vector<uint8_t> blob;
    core.back()->Serialize(&blob);
    const neats::Neats nz = neats::Neats::Deserialize(blob);
    std::vector<uint64_t> s;
    for (size_t f = 0; f < nz.num_fragments(); ++f) {
      s.push_back(nz.GetFragment(f).start);
    }
    fragments += s.size();
    efs.emplace_back(s, chunk.size());
    starts.push_back(std::move(s));
  }
  rep->Add("core.compress_mb_per_s",
           static_cast<double>(n * 8) /
               (static_cast<double>(compress_ns) / 1e9) / 1e6,
           "MB/s");
  rep->Add("core.fragments_per_shard",
           static_cast<double>(fragments) / static_cast<double>(core.size()),
           "count");

  const double np = static_cast<double>(in.probes.size());
  // succinct: the fragment lookup at the workload's probes.
  for (uint64_t i : in.probes) {
    const auto& s = starts[i / kShardValues];
    const uint64_t local = i % kShardValues;
    const size_t want = static_cast<size_t>(
        std::upper_bound(s.begin(), s.end(), local) - s.begin() - 1);
    check(efs[i / kShardValues].Predecessor(local).first == want);
  }
  const double ef_ns = MedianNs(5, TimedLoop(in.probes, [&](uint64_t i) {
    return efs[i / kShardValues].Predecessor(i % kShardValues).second;
  }));
  rep->Add("succinct.ef_predecessor_ns", ef_ns / np, "ns");

  // core and store scalar access.
  for (uint64_t i : in.probes) {
    check(core[i / kShardValues]->Access(i % kShardValues) == t.values[i]);
    check(store.Access(i) == t.values[i]);
  }
  auto [core_access, store_access] = PairedMedianNs(
      7, TimedLoop(in.probes, [&](uint64_t i) {
        return core[i / kShardValues]->Access(i % kShardValues);
      }),
      TimedLoop(in.probes, [&](uint64_t i) { return store.Access(i); }));
  core_access /= np;
  store_access /= np;
  rep->Add("core.access_ns", core_access, "ns");
  rep->Add("store.access_ns", store_access, "ns");
  rep->Add("store.overhead_ns", store_access - core_access, "ns");

  // Batches at the size the server's coalescer formed (8 when it formed none).
  const auto* hb = tp.server.histogram("coalesce.batch");
  const uint64_t coalesced = hb != nullptr ? hb->p50() : 0;
  const size_t batch = coalesced >= 2 ? coalesced : kBulkDepth;
  std::vector<uint64_t> sorted_local(in.probes.size());
  struct Run {
    size_t shard, off, len;
  };
  std::vector<Run> runs;
  for (size_t g = 0; g < in.probes.size(); g += batch) {
    const size_t end = std::min(in.probes.size(), g + batch);
    std::vector<uint64_t> grp(in.probes.begin() + static_cast<ptrdiff_t>(g),
                              in.probes.begin() + static_cast<ptrdiff_t>(end));
    std::sort(grp.begin(), grp.end());
    for (size_t j = 0; j < grp.size(); ++j) {
      const size_t shard = grp[j] / kShardValues;
      sorted_local[g + j] = grp[j] % kShardValues;
      if (j == 0 || runs.back().shard != shard) {
        runs.push_back({shard, g + j, 0});
      }
      ++runs.back().len;
    }
  }
  std::vector<int64_t> out(in.probes.size());
  auto core_batch = [&] {
    const uint64_t t0 = NowNs();
    for (const Run& r : runs) {
      core[r.shard]->AccessBatch(
          std::span<const uint64_t>(sorted_local.data() + r.off, r.len),
          out.data() + r.off);
    }
    return NowNs() - t0;
  };
  core_batch();
  for (const Run& r : runs) {
    for (size_t j = r.off; j < r.off + r.len; ++j) {
      check(out[j] == t.values[r.shard * kShardValues + sorted_local[j]]);
    }
  }
  auto store_batch = [&] {
    const uint64_t t0 = NowNs();
    for (size_t g = 0; g < in.probes.size(); g += batch) {
      const size_t len = std::min(batch, in.probes.size() - g);
      store.AccessBatch(
          std::span<const uint64_t>(in.probes.data() + g, len),
          std::span<int64_t>(out.data() + g, len));
    }
    return NowNs() - t0;
  };
  store_batch();
  for (size_t j = 0; j < in.probes.size(); ++j) {
    check(out[j] == t.values[in.probes[j]]);
  }
  const auto [core_batch_ns, store_batch_ns] =
      PairedMedianNs(7, core_batch, store_batch);
  rep->Add("core.batch_access_ns_per_probe", core_batch_ns / np, "ns");
  rep->Add("store.batch_access_ns_per_probe", store_batch_ns / np, "ns");

  // Ranges: the core answers shard by shard, the store stitches itself.
  const double nv = static_cast<double>(in.ranges.size() * kRangeLen);
  std::vector<int64_t> buf(kRangeLen);
  auto core_range = [&](const neats::IndexRange& r, bool scan) {
    int64_t sum = 0;
    for (uint64_t from = r.from, left = r.len, at = 0; left > 0;) {
      const uint64_t local = from % kShardValues;
      const uint64_t take = std::min(left, kShardValues - local);
      const SealedSeries& s = *core[from / kShardValues];
      if (scan) {
        s.DecompressRange(local, take, buf.data() + at);
      } else {
        sum += s.RangeSum(local, take);
      }
      from += take;
      left -= take;
      at += take;
    }
    return sum;
  };
  for (const neats::IndexRange& r : in.ranges) {
    check(core_range(r, false) == t.Sum(r.from, r.len));
    core_range(r, true);
    check(std::memcmp(buf.data(), t.values.data() + r.from, r.len * 8) == 0);
    check(store.RangeSum(r.from, r.len) == t.Sum(r.from, r.len));
    store.DecompressRange(r.from, r.len, buf.data());
    check(std::memcmp(buf.data(), t.values.data() + r.from, r.len * 8) == 0);
  }
  using Range = neats::IndexRange;
  auto [core_sum, store_sum] = PairedMedianNs(
      5,
      TimedLoop(in.ranges,
                [&](const Range& r) { return core_range(r, false); }),
      TimedLoop(in.ranges,
                [&](const Range& r) { return store.RangeSum(r.from, r.len); }));
  auto [core_scan, store_scan] = PairedMedianNs(
      5, TimedLoop(in.ranges, [&](const Range& r) {
        core_range(r, true);
        return buf[0];
      }),
      TimedLoop(in.ranges, [&](const Range& r) {
        store.DecompressRange(r.from, r.len, buf.data());
        return buf[0];
      }));
  core_sum /= nv;
  store_sum /= nv;
  core_scan /= nv;
  store_scan /= nv;
  rep->Add("core.sum_ns_per_value", core_sum, "ns");
  rep->Add("core.scan_ns_per_value", core_scan, "ns");
  rep->Add("store.sum_ns_per_value", store_sum, "ns");
  rep->Add("store.scan_ns_per_value", store_scan, "ns");

  // obs: metrics-on minus metrics-off scalar access, per store quarter.
  NeatsStoreOptions off_options;
  off_options.metrics = false;
  const NeatsStore quiet = NeatsStore::OpenDir(dir, off_options);
  for (size_t q = 0; q < in.segment.size(); ++q) {
    const std::vector<uint64_t>& probes = in.segment[q];
    const auto [on, off] = PairedMedianNs(
        7, TimedLoop(probes, [&](uint64_t i) { return store.Access(i); }),
        TimedLoop(probes, [&](uint64_t i) { return quiet.Access(i); }));
    rep->Add("obs.access_overhead_ns.seg" + std::to_string(q),
             (on - off) / static_cast<double>(probes.size()), "ns");
    std::printf("obs segment seg%zu = %s\n", q, t.codes[q].c_str());
  }
  const auto cs = store.block_cache_stats();
  const auto qs = quiet.block_cache_stats();
  rep->Add("store.cache_lookups",
           static_cast<double>(cs.hits + cs.misses + qs.hits + qs.misses),
           "count");

  // store background work of the load: seals, flushes, WAL fsyncs.
  const MetricsSnapshot& sb = tp.store_build;
  const auto* seal = sb.histogram("seal");
  const auto* flush = sb.histogram("flush");
  rep->Add("store.seal_ms", seal != nullptr ? seal->mean() / 1e6 : 0, "ms");
  rep->Add("store.flush_ms",
           flush != nullptr
               ? flush->mean() * static_cast<double>(flush->count()) / 1e6
               : 0,
           "ms");
  const uint64_t* seals = sb.counter("seal.count");
  const uint64_t* fsyncs = sb.counter("wal.fsyncs");
  rep->Add("store.seals", seals != nullptr ? static_cast<double>(*seals) : 0,
           "count");
  rep->Add("store.wal_fsyncs",
           fsyncs != nullptr ? static_cast<double>(*fsyncs) : 0, "count");

  // io: one WAL-sized record written and fsync'd, and OpenDir.
  {
    std::vector<uint8_t> record;
    neats::AppendWalRecord(&record, 0,
                           std::span<const int64_t>(t.values.data(),
                                                    kWalRecordValues));
    neats::io::FileSystem& fs = neats::io::PosixFileSystem();
    const std::string path = work + "/fsync_probe";
    std::unique_ptr<neats::io::WritableFile> f = fs.Create(path);
    std::vector<uint64_t> lat;
    for (int r = 0; r < 200; ++r) {
      const uint64_t t0 = NowNs();
      f->Write(record);
      f->Sync();
      lat.push_back(NowNs() - t0);
    }
    f->Close();
    fs.Remove(path);
    rep->Add("io.fsync_us", Us(Percentile(lat, 0.5)), "us");
  }
  rep->Add("io.open_dir_ms", MedianNs(3, [&] {
             const uint64_t t0 = NowNs();
             const NeatsStore s = NeatsStore::OpenDir(dir);
             return NowNs() - t0;
           }) / 1e6,
           "ms");

  // net: the same probes and ranges over the socket, minus the store cost.
  Client c = Client::Connect("127.0.0.1", srv.port());
  std::vector<uint64_t> ping, access, sums, scans;
  for (int r = 0; r < 2000; ++r) {
    const uint64_t t0 = NowNs();
    c.Ping();
    ping.push_back(NowNs() - t0);
  }
  for (size_t j = 0; j < 5000; ++j) {
    const uint64_t i = in.probes[j];
    const std::vector<uint8_t> payload = U64Payload(i);
    const uint64_t t0 = NowNs();
    const Client::Response r = c.Call(Opcode::kAccess, payload);
    access.push_back(NowNs() - t0);
    check(ValueOk(r, t.values[i]));
  }
  for (const neats::IndexRange& rg : in.ranges) {
    const std::vector<uint8_t> payload = RangePayload(rg.from, rg.len);
    uint64_t t0 = NowNs();
    const Client::Response s = c.Call(Opcode::kRangeSum, payload);
    sums.push_back(NowNs() - t0);
    check(ValueOk(s, t.Sum(rg.from, rg.len)));
    t0 = NowNs();
    const Client::Response d = c.Call(Opcode::kDecompressRange, payload);
    scans.push_back(NowNs() - t0);
    check(RangeOk(d, t.values.data() + rg.from, rg.len));
  }
  const double range = static_cast<double>(kRangeLen);
  rep->Add("net.ping_p50_us", Us(Percentile(ping, 0.5)), "us");
  rep->Add("net.read_self_us", Us(Percentile(access, 0.5) - store_access),
           "us");
  rep->Add("net.sum_self_us",
           Us(Percentile(sums, 0.5) - store_sum * range), "us");
  rep->Add("net.scan_self_us",
           Us(Percentile(scans, 0.5) - store_scan * range), "us");

  const auto* exec = tp.server.histogram("op.access");
  rep->Add("net.coalesce_batch_p50", static_cast<double>(coalesced), "count");
  rep->Add("net.exec_access_p50_us",
           exec != nullptr ? Us(static_cast<double>(exec->p50())) : 0, "us");
  const uint64_t* shed = tp.server.counter("req.shed");
  rep->Add("net.shed", shed != nullptr ? static_cast<double>(*shed) : 0,
           "count");
  rep->Add("loadgen.a_ops_per_s", tp.a.ops_per_s, "1/s");
  rep->Add("loadgen.a_p90_us", tp.a.p90_us, "us");
  rep->Add("loadgen.b_ops_per_s", tp.b.ops_per_s, "1/s");
  rep->Add("loadgen.b_p90_us", tp.b.p90_us, "us");
  rep->Add("loadgen.a_p99_us", tp.a_p99_us, "us");
  rep->Add("loadgen.b_p99_us", tp.b_p99_us, "us");
  rep->Add("loadgen.trace_overhead_us", tp.trace_overhead_us, "us");

  std::printf("layer replay: %llu checks, %llu wrong, sink %llu\n",
              static_cast<unsigned long long>(checks),
              static_cast<unsigned long long>(wrong),
              static_cast<unsigned long long>(g_sink & 1));
  rep->attempted += checks;
  rep->failed += wrong;
}

// --- main ------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string work_dir;
};

int Usage() {
  std::fprintf(stderr,
               "usage: neats_perfbench --workload "
               "point_lookup|range_scan --seed N\n"
               "       --seconds S --trace 0|1 --work-dir DIR "
               "[--plant-wrong-expected]\n");
  return 2;
}

/// Bulk-loads and serves the store, measures the workload and, with --trace
/// 1, replays it layer by layer.
void RunWorkload(const Args& args, const Truth& t, Report* rep) {
  const std::string dir = args.work_dir + "/store";
  Served srv;
  TracedPhase tp;
  std::vector<double> setups;
  const int repeats = args.trace == 1 ? 1 : kServedSetups;
  for (int r = 0; r < repeats; ++r) {
    setups.push_back(SetupServed(t, dir, &srv, &tp.store_build));
  }
  std::printf("setup: %d bulk loads of %llu values, median %.3f s\n", repeats,
              static_cast<unsigned long long>(t.size()), Median(setups));
  auto run = [&](double seconds, bool traced) {
    return args.workload == "point_lookup"
               ? RunPointLookup(srv.port(), t, args.seed, seconds, traced)
               : RunRangeScan(srv.port(), t, args.seed, seconds, traced);
  };
  if (args.trace == 0) {
    const PhaseResult p = run(args.seconds, false);
    rep->Count(p.a, "a");
    rep->Count(p.b, "b");
    rep->Add("setup_s", Median(setups), "s");
    rep->Add("rss_mb", RssMb(), "MB");
    rep->Add("bits_per_value",
             static_cast<double>(srv.store->SizeInBits()) /
                 static_cast<double>(srv.store->size()),
             "bits");
    const Figures a = FiguresOf(p.a.windows);
    const Figures b = FiguresOf(p.b.windows);
    rep->Add("a_p50_us", a.p50_us, "us");
    rep->Add("b_p50_us", b.p50_us, "us");
    PrintNamedView(args.workload, a, b, *rep);
    return;
  }
  const PhaseResult plain = run(args.seconds / 2, false);
  // A fresh server over the same store, so its /stats registry counts the
  // traced phase alone.
  srv.server.reset();
  StartServer(&srv);
  const PhaseResult traced = run(args.seconds / 2, true);
  tp.server = srv.server->StatsSnapshot();
  for (const PhaseResult* p : {&plain, &traced}) {
    rep->Count(p->a, "a");
    rep->Count(p->b, "b");
  }
  std::printf("traced phase kept %zu spans\n",
              traced.a.spans.size() + traced.b.spans.size());
  tp.a = FiguresOf(plain.a.windows);
  tp.b = FiguresOf(plain.b.windows);
  tp.trace_overhead_us = FiguresOf(traced.a.windows).p50_us - tp.a.p50_us;
  tp.a_p99_us = Us(SpanPercentile(traced.a.spans, 0.99));
  tp.b_p99_us = Us(SpanPercentile(traced.b.spans, 0.99));
  LayerReplay(t, dir, srv, args.work_dir, args.seed, tp, rep);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--plant-wrong-expected") {
      g_plant_wrong.store(true);
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    if (arg == "--workload") {
      args.workload = v;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(v);
    } else if (arg == "--trace") {
      args.trace = std::atoi(v);
    } else if (arg == "--work-dir") {
      args.work_dir = v;
    } else {
      return Usage();
    }
  }
  if ((args.workload != "point_lookup" && args.workload != "range_scan") ||
      !(args.seconds > 0) || (args.trace != 0 && args.trace != 1) ||
      args.work_dir.empty()) {
    return Usage();
  }

  Report rep;
  try {
    std::filesystem::create_directories(args.work_dir);
    const Truth t = MakeTruth({"ECG", "DP", "UK", "CT"});
    std::printf("workload %s seed %llu: %llu values (%zu datasets), "
                "%d hardware threads\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(t.size()), t.codes.size(),
                HardwareThreads());
    RunWorkload(args, t, &rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "neats_perfbench: %s\n", e.what());
    std::filesystem::remove_all(args.work_dir);
    return 2;
  }
  std::filesystem::remove_all(args.work_dir);
  std::fflush(stdout);
  PrintResult(rep);
  return rep.failed == 0 ? 0 : 1;
}
