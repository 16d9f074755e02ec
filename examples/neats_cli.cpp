// neats_cli — command-line front end for the NeaTS compressor.
//
//   neats_cli compress   <input.txt> <output.neats>   one decimal per line
//   neats_cli decompress <input.neats> <output.txt>
//   neats_cli access     <input.neats> <index> [count]
//   neats_cli info       <input.neats>
//   neats_cli stats      <store-dir> [probes] [--json]
//
// The text format is one decimal value per line; values are scaled to
// integers by the detected fractional precision (stored in the container).
// Files are opened zero-copy: the file is mmap'd and queries run straight
// against the mapping.
//
// Built on the public facade (neats/neats.hpp): every open/load path is
// Status-returning, so a bad path or corrupt blob prints a diagnostic and
// exits 1 instead of crashing.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "neats/neats.hpp"
#include "obs/stats_json.hpp"

namespace {

using neats::Neats;

// Container: 8-byte digit count + the Neats blob (keeps 8-byte alignment).
std::vector<uint8_t> Pack(const Neats& compressed, int digits) {
  std::vector<uint8_t> blob;
  compressed.Serialize(&blob);
  std::vector<uint8_t> out;
  out.reserve(blob.size() + 8);
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<uint8_t>(static_cast<uint64_t>(digits) >> (8 * b)));
  }
  out.insert(out.end(), blob.begin(), blob.end());
  return out;
}

// An opened container file. The Neats object borrows the mapping (`map` must
// stay alive).
struct OpenedBlob {
  neats::MmapFile map;
  Neats neats;
  int digits = 0;
};

/// Status-returning open (neats::Checked turns any loader rejection into a
/// failed Result instead of a crash).
neats::Result<OpenedBlob> OpenBlob(const char* path) {
  return neats::Checked([&] {
    OpenedBlob b;
    b.map = neats::MmapFile::Open(path);
    std::span<const uint8_t> bytes = b.map.bytes();
    NEATS_REQUIRE(bytes.size() >= 16, "not a NeaTS container file");
    uint64_t d = 0;
    std::memcpy(&d, bytes.data(), 8);
    b.digits = static_cast<int>(d);
    b.neats = Neats::View(bytes.subspan(8));
    return b;
  });
}

/// Unwraps a facade Result or exits with the failure message.
template <typename T>
T MustOpen(neats::Result<T> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().message().c_str());
    std::exit(1);
  }
  return std::move(result.value());
}

void PrintValue(int64_t scaled, int digits) {
  if (digits == 0) {
    std::printf("%" PRId64 "\n", scaled);
    return;
  }
  int64_t scale = 1;
  for (int i = 0; i < digits; ++i) scale *= 10;
  int64_t whole = scaled / scale;
  int64_t frac = scaled % scale;
  if (scaled < 0 && whole == 0) {
    std::printf("-%" PRId64 ".%0*" PRId64 "\n", whole, digits, -frac);
  } else {
    if (frac < 0) frac = -frac;
    std::printf("%" PRId64 ".%0*" PRId64 "\n", whole, digits, frac);
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: neats_cli compress   <input.txt> <output.neats>\n"
               "       neats_cli decompress <input.neats> <output.txt>\n"
               "       neats_cli access     <input.neats> <index> [count]\n"
               "       neats_cli info       <input.neats>\n"
               "       neats_cli stats      <store-dir> [probes] [--json]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string cmd = argv[1];

  if (cmd == "compress" && argc == 4) {
    neats::ParsedSeries series = MustOpen(neats::LoadDecimalSeries(argv[2]));
    neats::Timer timer;
    Neats compressed = Neats::Compress(series.values);
    double secs = timer.ElapsedSeconds();
    std::vector<uint8_t> packed = Pack(compressed, series.digits);
    neats::WriteFile(argv[3], packed);
    std::printf("%zu values -> %zu bytes (%.2f%% of raw, %zu fragments) "
                "in %.2f s\n",
                series.values.size(), packed.size(),
                100.0 * static_cast<double>(packed.size()) /
                    (8.0 * static_cast<double>(series.values.size())),
                compressed.num_fragments(), secs);
    return 0;
  }

  if (cmd == "decompress" && argc == 4) {
    OpenedBlob blob = MustOpen(OpenBlob(argv[2]));
    int digits = blob.digits;
    std::vector<int64_t> values;
    blob.neats.Decompress(&values);
    std::FILE* out = std::fopen(argv[3], "w");
    if (out == nullptr) return Usage();
    int64_t scale = 1;
    for (int i = 0; i < digits; ++i) scale *= 10;
    for (int64_t v : values) {
      if (digits == 0) {
        std::fprintf(out, "%" PRId64 "\n", v);
      } else {
        int64_t frac = v % scale;
        std::fprintf(out, "%s%" PRId64 ".%0*" PRId64 "\n",
                     (v < 0 && v / scale == 0) ? "-" : "", v / scale, digits,
                     frac < 0 ? -frac : frac);
      }
    }
    std::fclose(out);
    std::printf("wrote %zu values\n", values.size());
    return 0;
  }

  if (cmd == "access" && (argc == 4 || argc == 5)) {
    OpenedBlob blob = MustOpen(OpenBlob(argv[2]));
    const Neats& compressed = blob.neats;
    uint64_t index = std::strtoull(argv[3], nullptr, 10);
    uint64_t count = argc == 5 ? std::strtoull(argv[4], nullptr, 10) : 1;
    // Overflow-safe bounds check: index + count must not wrap.
    if (index > compressed.size() || count > compressed.size() - index) {
      std::fprintf(stderr, "index out of range (n=%" PRIu64 ")\n",
                   compressed.size());
      return 1;
    }
    std::vector<int64_t> values(count);
    compressed.DecompressRange(index, count, values.data());
    for (int64_t v : values) PrintValue(v, blob.digits);
    return 0;
  }

  if (cmd == "info" && argc == 3) {
    OpenedBlob blob = MustOpen(OpenBlob(argv[2]));
    const Neats& compressed = blob.neats;
    std::printf("values:      %" PRIu64 "\n", compressed.size());
    std::printf("fragments:   %zu\n", compressed.num_fragments());
    std::printf("digits:      %d\n", blob.digits);
    std::printf("size:        %zu bits (%.2f%% of raw)\n",
                compressed.SizeInBits(),
                100.0 * static_cast<double>(compressed.SizeInBits()) /
                    (64.0 * static_cast<double>(compressed.size())));
    std::printf("kind histogram:\n");
    size_t counts[neats::kNumFunctionKinds] = {};
    for (size_t i = 0; i < compressed.num_fragments(); ++i) {
      ++counts[static_cast<int>(compressed.GetFragment(i).kind)];
    }
    for (int k = 0; k < neats::kNumFunctionKinds; ++k) {
      if (counts[k] > 0) {
        std::printf("  %-14s %zu\n",
                    std::string(
                        neats::KindName(static_cast<neats::FunctionKind>(k)))
                        .c_str(),
                    counts[k]);
      }
    }
    return 0;
  }

  if (cmd == "stats" && (argc == 3 || argc == 4 || argc == 5)) {
    // Opens a store directory and prints its StatsSnapshot(). The optional
    // probe count runs seeded point lookups first, so a cold store shows
    // live access counters and latency percentiles, not a page of zeros.
    uint64_t probes = 0;
    bool json = false;
    for (int a = 3; a < argc; ++a) {
      if (std::strcmp(argv[a], "--json") == 0) {
        json = true;
      } else {
        probes = std::strtoull(argv[a], nullptr, 10);
      }
    }
    neats::NeatsStoreOptions options;
    options.latency_sample_every = 1;  // a CLI probe run wants every sample
    neats::NeatsStore store = MustOpen(neats::OpenStoreDir(argv[2], options));
    if (store.size() > 0 && probes > 0) {
      uint64_t state = 0x9e3779b97f4a7c15ull;
      for (uint64_t p = 0; p < probes; ++p) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        (void)store.Access((state >> 11) % store.size());
      }
    }
    const neats::obs::MetricsSnapshot snap = store.StatsSnapshot();
    if (json) {
      std::printf("%s\n", neats::obs::MetricsJson(snap).c_str());
    } else {
      std::printf("%s", neats::obs::MetricsText(snap).c_str());
      if (store.degraded()) {
        std::printf("recent trace events:\n%s",
                    neats::obs::TraceText(store.TraceDump()).c_str());
      }
    }
    return 0;
  }
  return Usage();
}
