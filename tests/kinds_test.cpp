// Exactness of the predictor every NeaTS blob depends on. A round-trip test
// cannot catch a changed predictor — any deterministic predictor round-trips
// its own encoding — so these tests pin PredictFloor to the reference
// expression ⌊clamp(f(x))⌋ computed with std::floor, and pin PredictValue to
// unfused double arithmetic (one rounding per multiply and per add), which
// is what blobs written by a default build were encoded with.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "core/neats.hpp"
#include "datasets/generators.hpp"
#include "functions/kinds.hpp"

namespace neats {
namespace {

// ⌊f(x)⌋ as the compressor computed it before the integer floor: clamp to
// ±kMaxAbsValue (NaN -> 0), then std::floor.
int64_t ReferenceFloor(double v) {
  v = std::isnan(v) ? 0.0 : v;
  v = std::min(v, static_cast<double>(kMaxAbsValue));
  v = std::max(v, -static_cast<double>(kMaxAbsValue));
  return static_cast<int64_t>(std::floor(v));
}

// PredictFloor of the linear kind with m = ±0 at x = 1 evaluates to exactly
// v (the zero takes v's sign so that -0.0 survives the add).
int64_t FloorThroughPredictor(double v) {
  const double params[2] = {std::copysign(0.0, v), v};
  return PredictFloor(FunctionKind::kLinear, params, 1);
}

TEST(PredictFloor, MatchesStdFloorOnEdgeInputs) {
  const double inf = std::numeric_limits<double>::infinity();
  const double p52 = 4503599627370496.0;  // 2^52
  const double p53 = 2 * p52;
  const double p61 = static_cast<double>(kMaxAbsValue);
  std::vector<double> inputs = {
      0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 0.49999999999999994,
      -0.49999999999999994, p52 - 0.5, -(p52 - 0.5), p52 + 1, p52 - 1,
      -(p52 + 1), -(p52 - 1), p53, -p53, p53 + 2, -(p53 + 2), p61, -p61,
      2 * p61, -2 * p61, 1e300, -1e300, inf, -inf,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), DBL_MIN, -DBL_MIN, 1e-300,
      -1e-300};
  // Both neighbours of small integers, of 2^52 / 2^53 and of the clamp.
  for (double n : {0.0, 1.0, 2.0, 3.0, 1e6, p52, p53, p61}) {
    for (double s : {n, -n}) {
      inputs.push_back(std::nextafter(s, inf));
      inputs.push_back(std::nextafter(s, -inf));
    }
  }
  for (double v : inputs) {
    EXPECT_EQ(FloorThroughPredictor(v), ReferenceFloor(v)) << v;
  }
}

TEST(PredictFloor, MatchesStdFloorOnRandomBitPatterns) {
  std::mt19937_64 rng(5);
  for (int t = 0; t < 200000; ++t) {
    const uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    ASSERT_EQ(FloorThroughPredictor(v), ReferenceFloor(v)) << v;
  }
}

// Every (kind, params, x) that decoding visits, on corpora compressed with a
// single kind at a time so that all 11 kinds are exercised.
TEST(PredictFloor, MatchesStdFloorOnEveryDecodedCoordinate) {
  std::vector<size_t> fragments_of_kind(kNumFunctionKinds, 0);
  for (int kind = 0; kind < kNumFunctionKinds; ++kind) {
    for (const char* name : {"ECG", "CT", "BP"}) {
      Dataset ds = MakeDataset(name, 3000);
      NeatsOptions options;
      options.partition.kinds = {static_cast<FunctionKind>(kind)};
      Neats blob = Neats::Compress(ds.values, options);
      for (size_t i = 0; i < blob.num_fragments(); ++i) {
        const Neats::FragmentInfo f = blob.GetFragment(i);
        ++fragments_of_kind[static_cast<int>(f.kind)];
        for (uint64_t k = f.start; k < f.end; ++k) {
          const int64_t x = static_cast<int64_t>(k - f.origin) + 1;
          ASSERT_EQ(PredictFloor(f.kind, f.params, x),
                    ReferenceFloor(PredictValue(f.kind, f.params, x)))
              << KindName(f.kind) << " " << name << " k=" << k;
        }
      }
      std::vector<int64_t> decoded;
      blob.Decompress(&decoded);
      ASSERT_EQ(decoded, ds.values) << KindName(options.partition.kinds[0]);
      int64_t sum = 0;
      for (int64_t v : ds.values) sum += v;
      ASSERT_EQ(blob.RangeSum(0, ds.values.size()), sum);
    }
  }
  for (int kind = 0; kind < kNumFunctionKinds; ++kind) {
    EXPECT_GT(fragments_of_kind[kind], 0u)
        << KindName(static_cast<FunctionKind>(kind));
  }
}

// With contraction (-ffp-contract=fast on an FMA target) the compiler fuses
// m * x + b into one rounding and decodes differently from the encoder of a
// default build. The inputs are read through volatiles so the arithmetic
// happens at run time, where contraction would apply, and the unfused
// reference re-reads them so that it shares no product with the predictor.
TEST(PredictValue, IsNotContractedIntoFusedMultiplyAdd) {
  volatile double vm = 0.1;
  volatile double vb = -0.3;
  volatile int64_t vx = 3;
  const double params[3] = {vm, vb, vb};
  const int64_t xi = vx;
  volatile double product = vm * static_cast<double>(vx);
  volatile double linear = product + vb;
  volatile double linear_times_x = linear * static_cast<double>(vx);
  volatile double quad_full = linear_times_x + vb;
  ASSERT_NE(std::fma(0.1, 3.0, -0.3), linear)
      << "inputs no longer separate fused from unfused arithmetic";
  EXPECT_EQ(PredictValue(FunctionKind::kLinear, params, xi), linear);
  EXPECT_EQ(PredictValue(FunctionKind::kQuadMixed, params, xi),
            linear_times_x);
  EXPECT_EQ(PredictValue(FunctionKind::kQuadraticFull, params, xi),
            quad_full);
}

}  // namespace
}  // namespace neats
