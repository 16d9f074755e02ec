// neats_loadgen — socket-level load driver for neats_server.
//
// Replays the scenario engine's workload shapes over real TCP connections
// and reports RPS + per-opcode p50/p99/p999 (obs::LatencyHistogram, the
// same percentile machinery the scenario runner uses). Phases run on the
// SAME server process back to back, so the headline comparison the wire
// layer exists for is apples to apples: batched access (one kAccessBatch
// carrying B probes) versus one-request-per-probe access, per-probe.
//
//   ./neats_loadgen --port 7777                          # mixed, 2s/phase
//   ./neats_loadgen --port 7777 --workload point_storm --threads 4
//   ./neats_loadgen --port 7777 --pipeline 64            # fill the window
//   ./neats_loadgen --port 7777 --out loadgen_report.json
//
// --out writes the BENCH_neats.json schema-9 "server" block: per-phase
// rps/probes-per-second/percentiles plus the server's own view (shed
// count, coalesced batch-size summary) diffed from the /stats document
// before and after the run.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "obs/latency_histogram.hpp"

namespace {

using neats::IndexRange;
using neats::net::Client;
using neats::net::JsonValue;
using neats::net::Opcode;
using neats::net::ParseJson;
using neats::obs::LatencyHistogram;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct PhaseResult {
  std::string name;
  uint64_t requests = 0;
  uint64_t probes = 0;  // values touched (batch/range phases amortize)
  uint64_t errors = 0;
  double seconds = 0;
  LatencyHistogram latency;  // per body call (a pipelined group), ns

  double rps() const { return seconds > 0 ? requests / seconds : 0; }
  double probes_per_sec() const { return seconds > 0 ? probes / seconds : 0; }
  double ns_per_probe() const {
    return probes > 0 ? seconds * 1e9 / static_cast<double>(probes) : 0;
  }
};

struct Config {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int threads = 2;
  double seconds_per_phase = 2.0;
  std::string workload = "mixed";
  uint32_t batch = 256;
  uint32_t range_len = 512;
  int pipeline = 1;  // requests in flight per connection (access phase)
  uint64_t seed = 42;
  std::string out;
};

/// One phase: `threads` connections each running `body(client, rng)` in a
/// closed loop until the deadline; returns merged stats. Each body call
/// sends `requests_per_call` requests of `probes_per_request` probes each.
template <typename Body>
PhaseResult RunPhase(const Config& cfg, const std::string& name,
                     uint64_t probes_per_request, Body body,
                     uint64_t requests_per_call = 1) {
  PhaseResult result;
  result.name = name;
  std::vector<std::thread> threads;
  std::vector<PhaseResult> parts(static_cast<size_t>(cfg.threads));
  const uint64_t t_start = NowNs();
  const uint64_t deadline =
      t_start + static_cast<uint64_t>(cfg.seconds_per_phase * 1e9);
  for (int t = 0; t < cfg.threads; ++t) {
    threads.emplace_back([&, t] {
      PhaseResult& mine = parts[static_cast<size_t>(t)];
      try {
        Client client = Client::Connect(cfg.host, cfg.port);
        std::mt19937_64 rng(cfg.seed + static_cast<uint64_t>(t) * 7919);
        while (NowNs() < deadline) {
          const uint64_t t0 = NowNs();
          const bool ok = body(client, rng);
          mine.latency.Record(NowNs() - t0);
          mine.requests += requests_per_call;
          mine.probes += requests_per_call * probes_per_request;
          if (!ok) ++mine.errors;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "loadgen thread %d: %s\n", t, e.what());
        ++mine.errors;
      }
    });
  }
  for (auto& th : threads) th.join();
  result.seconds = static_cast<double>(NowNs() - t_start) / 1e9;
  for (const PhaseResult& p : parts) {
    result.requests += p.requests;
    result.probes += p.probes;
    result.errors += p.errors;
    result.latency.Merge(p.latency);
  }
  return result;
}

/// The access phase honors --pipeline: K raw kAccess requests in flight
/// per connection. K > 1 is what fills the server's coalescing window —
/// a strictly serial client can never present a batchable run. Each group
/// of K counts as K requests and K probes; its latency is recorded once.
PhaseResult RunAccessPhase(const Config& cfg, uint64_t store_size) {
  const int k = cfg.pipeline < 1 ? 1 : cfg.pipeline;
  return RunPhase(
      cfg, "access", 1,
      [&, k](Client& client, std::mt19937_64& rng) {
        bool ok = true;
        std::vector<uint8_t> payload;
        for (int j = 0; j < k; ++j) {
          payload.clear();
          neats::net::PayloadWriter w(&payload);
          w.U64(rng() % store_size);
          client.SendRequest(Opcode::kAccess, payload);
        }
        for (int j = 0; j < k; ++j) {
          Client::Response r = client.ReadResponse();
          ok = ok && r.status == neats::net::WireStatus::kOk;
        }
        return ok;
      },
      static_cast<uint64_t>(k));
}

// --- stats-document helpers (reusing the protocol's JSON parser) ----------

double JsonPath(const JsonValue& root, const std::string& a,
                const std::string& b, const std::string& c = "") {
  const JsonValue* v = root.Find(a);
  if (v != nullptr) v = v->Find(b);
  if (v != nullptr && !c.empty()) v = v->Find(c);
  return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->number : 0;
}

void AppendPhaseJson(std::string* out, const PhaseResult& r,
                     const std::string& indent) {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "{\"requests\": %llu, \"probes\": %llu, \"errors\": %llu,\n"
      "%s \"rps\": %.0f, \"probes_per_sec\": %.0f, \"ns_per_probe\": %.1f,\n"
      "%s \"p50_ns\": %llu, \"p99_ns\": %llu, \"p999_ns\": %llu}",
      static_cast<unsigned long long>(r.requests),
      static_cast<unsigned long long>(r.probes),
      static_cast<unsigned long long>(r.errors), indent.c_str(), r.rps(),
      r.probes_per_sec(), r.ns_per_probe(), indent.c_str(),
      static_cast<unsigned long long>(r.latency.p50()),
      static_cast<unsigned long long>(r.latency.p99()),
      static_cast<unsigned long long>(r.latency.p999()));
  *out += buf;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port P [--host H] [--threads T] [--seconds S]\n"
               "          [--workload mixed|point_storm|dashboard]\n"
               "          [--batch B] [--range-len L] [--pipeline K]\n"
               "          [--seed S] [--out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      cfg.host = next();
    } else if (arg == "--port") {
      cfg.port = static_cast<uint16_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--threads") {
      cfg.threads = std::atoi(next());
    } else if (arg == "--seconds") {
      cfg.seconds_per_phase = std::atof(next());
    } else if (arg == "--workload") {
      cfg.workload = next();
    } else if (arg == "--batch") {
      cfg.batch = static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--range-len") {
      cfg.range_len =
          static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--pipeline") {
      cfg.pipeline = std::atoi(next());
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--out") {
      cfg.out = next();
    } else {
      return Usage(argv[0]);
    }
  }
  if (cfg.port == 0) return Usage(argv[0]);
  if (cfg.threads < 1) cfg.threads = 1;

  try {
    Client control = Client::Connect(cfg.host, cfg.port);
    control.Ping();
    const uint64_t size = control.Size();
    if (size == 0) {
      std::fprintf(stderr, "server holds an empty store\n");
      return 1;
    }
    JsonValue stats_before;
    ParseJson(control.Stats(), &stats_before);

    const bool points = cfg.workload != "dashboard";
    const bool ranges = cfg.workload != "point_storm";
    std::vector<PhaseResult> phases;

    if (points) {
      phases.push_back(RunAccessPhase(cfg, size));
      phases.push_back(RunPhase(
          cfg, "access_batch", cfg.batch,
          [&](Client& client, std::mt19937_64& rng) {
            std::vector<uint64_t> idx(cfg.batch);
            for (uint64_t& v : idx) v = rng() % size;
            client.AccessBatch(idx);
            return true;
          }));
    }
    if (ranges) {
      const uint64_t len = std::min<uint64_t>(cfg.range_len, size);
      phases.push_back(RunPhase(
          cfg, "range", len, [&](Client& client, std::mt19937_64& rng) {
            client.DecompressRange(rng() % (size - len + 1), len);
            return true;
          }));
      phases.push_back(RunPhase(
          cfg, "range_sum", len,
          [&](Client& client, std::mt19937_64& rng) {
            client.RangeSum(rng() % (size - len + 1), len);
            return true;
          }));
    }
    if (cfg.workload == "mixed") {
      phases.push_back(RunPhase(
          cfg, "stats", 1, [&](Client& client, std::mt19937_64&) {
            return !client.Stats().empty();
          }));
    }

    JsonValue stats_after;
    ParseJson(control.Stats(), &stats_after);
    const double shed =
        JsonPath(stats_after, "server", "counters", "req.shed") -
        JsonPath(stats_before, "server", "counters", "req.shed");
    const double coalesced_batches =
        JsonPath(stats_after, "server", "counters", "coalesce.batches") -
        JsonPath(stats_before, "server", "counters", "coalesce.batches");
    const double coalesced_probes =
        JsonPath(stats_after, "server", "counters", "coalesce.probes") -
        JsonPath(stats_before, "server", "counters", "coalesce.probes");
    const JsonValue* batch_hist = stats_after.Find("server");
    if (batch_hist != nullptr) batch_hist = batch_hist->Find("ops");
    if (batch_hist != nullptr) batch_hist = batch_hist->Find("coalesce.batch");

    const PhaseResult* access = nullptr;
    const PhaseResult* batched = nullptr;
    for (const PhaseResult& p : phases) {
      std::printf(
          "%-12s %8.0f req/s %10.0f probes/s %8.1f ns/probe "
          "p50=%llu p99=%llu p999=%llu ns (%llu errors)\n",
          p.name.c_str(), p.rps(), p.probes_per_sec(), p.ns_per_probe(),
          static_cast<unsigned long long>(p.latency.p50()),
          static_cast<unsigned long long>(p.latency.p99()),
          static_cast<unsigned long long>(p.latency.p999()),
          static_cast<unsigned long long>(p.errors));
      if (p.name == "access") access = &p;
      if (p.name == "access_batch") batched = &p;
    }
    if (access != nullptr && batched != nullptr &&
        batched->probes > 0 && access->probes > 0) {
      std::printf("batched access per-probe speedup: %.1fx\n",
                  access->ns_per_probe() / batched->ns_per_probe());
    }
    std::printf("server: shed=%.0f coalesced_batches=%.0f "
                "coalesced_probes=%.0f\n",
                shed, coalesced_batches, coalesced_probes);

    if (!cfg.out.empty()) {
      std::string json = "{\n  \"workload\": \"" + cfg.workload + "\",\n";
      json += "  \"threads\": " + std::to_string(cfg.threads) + ",\n";
      json += "  \"pipeline\": " + std::to_string(cfg.pipeline) + ",\n";
      json += "  \"batch\": " + std::to_string(cfg.batch) + ",\n";
      json += "  \"store_size\": " + std::to_string(size) + ",\n";
      json += "  \"phases\": {\n";
      for (size_t i = 0; i < phases.size(); ++i) {
        json += "    \"" + phases[i].name + "\": ";
        AppendPhaseJson(&json, phases[i], "    ");
        json += i + 1 < phases.size() ? ",\n" : "\n";
      }
      json += "  },\n";
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "  \"shed\": %.0f,\n"
                    "  \"coalesced_batches\": %.0f,\n"
                    "  \"coalesced_probes\": %.0f,\n",
                    shed, coalesced_batches, coalesced_probes);
      json += buf;
      auto field = [&](const char* k) {
        if (batch_hist == nullptr) return 0.0;
        const JsonValue* f = batch_hist->Find(k);
        return f != nullptr && f->kind == JsonValue::Kind::kNumber
                   ? f->number
                   : 0.0;
      };
      // The batch-size histogram rides the ns-named fields of the generic
      // op schema; here the unit is probes per coalesced batch.
      std::snprintf(
          buf, sizeof(buf),
          "  \"coalesce_batch_hist\": {\"count\": %.0f, \"p50\": %.0f, "
          "\"p99\": %.0f, \"max\": %.0f}\n",
          field("count"), field("p50_ns"), field("p99_ns"),
          field("max_ns"));
      json += buf;
      json += "}\n";
      std::ofstream f(cfg.out, std::ios::trunc);
      f << json;
      std::fprintf(stderr, "wrote %s\n", cfg.out.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "neats_loadgen: %s\n", e.what());
    return 1;
  }
  return 0;
}
