// The catalogue of two/three-parameter function kinds (paper, Table I).
//
// Every kind is described by the change of variables that turns its
// eps-approximation constraints into half-plane constraints
// alpha_k <= t_k*m + b <= omega_k (paper, Theorem 1):
//
//   kind                f(x)                   t_k        alpha_k / omega_k
//   -------------------------------------------------------------------------
//   Linear              m*x + b                x          y -+ eps
//   Quadratic           m*x^2 + b              x^2        y -+ eps
//   Radical             m*sqrt(x) + b          sqrt(x)    y -+ eps
//   Exponential         e^b * e^(m*x)          x          ln(y -+ eps)
//   Power               e^b * x^m              ln(x)      ln(y -+ eps)
//   Logarithm           m*ln(x) + b            ln(x)      y -+ eps
//   QuadMixed           m*x^2 + b*x            x          (y -+ eps)/x
//   CubicOdd            m*x^3 + b*x            x^2        (y -+ eps)/x
//   CubicMixed          m*x^3 + b*x^2          x          (y -+ eps)/x^2
//   QuadraticFull (3p)  m*x^2 + b*x + c        x + x_i    (y - y_i -+ eps)/(x - x_i)
//   Gaussian (3p)       e^(m*x^2 + b*x + c)    x + x_i    (ln(y -+ eps) - ln y_i)/(x - x_i)
//
// The two 3-parameter kinds are constrained to pass through the fragment's
// first data point (x_i, y_i), which fixes the third parameter c and reduces
// the feasible set to a 2D polygon (paper, Sec. III-A). All kinds operate on
// fragment-local coordinates x = (index - start + 1) >= 1 (paper, footnote 4),
// which both conditions the arithmetic and makes ln(x) well defined.
//
// Kinds taking ln(y -+ eps) require y - eps > 0; the NeaTS compressor
// guarantees positivity of values via a global shift (paper, footnote 2), and
// the approximator stops fragments of such kinds at any point where the
// current eps makes the logarithm undefined.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string_view>

#include "common/assert.hpp"

namespace neats {

/// Identifier of an approximation function kind. Stable numbering: these ids
/// are stored inside the compressed representation (K array).
enum class FunctionKind : uint8_t {
  kLinear = 0,
  kQuadratic = 1,
  kRadical = 2,
  kExponential = 3,
  kPower = 4,
  kLogarithm = 5,
  kQuadMixed = 6,
  kCubicOdd = 7,
  kCubicMixed = 8,
  kQuadraticFull = 9,  // 3 parameters, through the first point
  kGaussian = 10,      // 3 parameters, through the first point
};

/// Number of kinds (size of the full catalogue).
inline constexpr int kNumFunctionKinds = 11;

/// Human-readable kind name.
inline std::string_view KindName(FunctionKind kind) {
  switch (kind) {
    case FunctionKind::kLinear: return "linear";
    case FunctionKind::kQuadratic: return "quadratic";
    case FunctionKind::kRadical: return "radical";
    case FunctionKind::kExponential: return "exponential";
    case FunctionKind::kPower: return "power";
    case FunctionKind::kLogarithm: return "logarithm";
    case FunctionKind::kQuadMixed: return "quad_mixed";
    case FunctionKind::kCubicOdd: return "cubic_odd";
    case FunctionKind::kCubicMixed: return "cubic_mixed";
    case FunctionKind::kQuadraticFull: return "quadratic_full";
    case FunctionKind::kGaussian: return "gaussian";
  }
  return "?";
}

/// Number of stored parameters for a kind (2, or 3 for through-first kinds).
inline constexpr int NumParams(FunctionKind kind) {
  return (kind == FunctionKind::kQuadraticFull ||
          kind == FunctionKind::kGaussian)
             ? 3
             : 2;
}

/// True for the 3-parameter kinds constrained through the first data point.
inline constexpr bool IsThroughFirst(FunctionKind kind) {
  return NumParams(kind) == 3;
}

/// One half-plane constraint pair in the transformed space.
struct TransformedConstraint {
  long double t;
  long double alpha;
  long double omega;
};

/// Computes the transformed constraint of `kind` for the data point with
/// fragment-local coordinate `xi` (>= 1) and value `y`, under error bound
/// `eps`. For through-first kinds, `y_first` is the value at the fragment's
/// first point and `xi` must be >= 2 (the first point carries no constraint).
/// Returns false if the point is outside the kind's domain (e.g. a
/// non-positive ln argument), in which case the fragment cannot cover it.
inline bool TransformConstraint(FunctionKind kind, int64_t xi, int64_t y,
                                int64_t eps, int64_t y_first,
                                TransformedConstraint* out) {
  const long double x = static_cast<long double>(xi);
  const long double lo = static_cast<long double>(y) - static_cast<long double>(eps);
  const long double hi = static_cast<long double>(y) + static_cast<long double>(eps);
  switch (kind) {
    case FunctionKind::kLinear:
      *out = {x, lo, hi};
      return true;
    case FunctionKind::kQuadratic:
      *out = {x * x, lo, hi};
      return true;
    case FunctionKind::kRadical:
      *out = {sqrtl(x), lo, hi};
      return true;
    case FunctionKind::kExponential:
      if (lo <= 0) return false;
      *out = {x, logl(lo), logl(hi)};
      return true;
    case FunctionKind::kPower:
      if (lo <= 0) return false;
      *out = {logl(x), logl(lo), logl(hi)};
      return true;
    case FunctionKind::kLogarithm:
      *out = {logl(x), lo, hi};
      return true;
    case FunctionKind::kQuadMixed:
      *out = {x, lo / x, hi / x};
      return true;
    case FunctionKind::kCubicOdd:
      *out = {x * x, lo / x, hi / x};
      return true;
    case FunctionKind::kCubicMixed:
      *out = {x, lo / (x * x), hi / (x * x)};
      return true;
    case FunctionKind::kQuadraticFull: {
      NEATS_DCHECK(xi >= 2);
      const long double dx = x - 1.0L;  // x_i == 1 in local coordinates
      const long double dy = static_cast<long double>(y - y_first);
      *out = {x + 1.0L, (dy - eps) / dx, (dy + eps) / dx};
      return true;
    }
    case FunctionKind::kGaussian: {
      NEATS_DCHECK(xi >= 2);
      if (lo <= 0 || y_first <= 0) return false;
      const long double dx = x - 1.0L;
      const long double ly0 = logl(static_cast<long double>(y_first));
      *out = {x + 1.0L, (logl(lo) - ly0) / dx, (logl(hi) - ly0) / dx};
      return true;
    }
  }
  return false;
}

/// True if a fragment of `kind` may start at a point with value `y_first`
/// under error bound `eps` (domain check for the first covered point).
inline bool KindApplicableAtStart(FunctionKind kind, int64_t y_first,
                                  int64_t eps) {
  switch (kind) {
    case FunctionKind::kExponential:
    case FunctionKind::kPower:
      return y_first - eps > 0;
    case FunctionKind::kGaussian:
      return y_first > 0;
    default:
      return true;
  }
}

/// Evaluates the approximation of `kind` with stored parameters `params`
/// (as produced by the approximator) at fragment-local coordinate `x`, an
/// integer >= 1 held exactly in a double (so below 2^53). Deterministic
/// double-precision arithmetic: the compressor and the decompressor call this
/// exact routine, so residuals computed at encode time reproduce bit-exactly
/// at decode time — provided every multiply and add rounds on its own (the
/// library builds with -ffp-contract=off, so no fused multiply-add) and the
/// nonlinear kinds see the same libm exp/log on both sides.
inline double PredictValueAt(FunctionKind kind, const double* params,
                             double x) {
  const double m = params[0];
  const double b = params[1];
  switch (kind) {
    case FunctionKind::kLinear: return m * x + b;
    case FunctionKind::kQuadratic: return m * x * x + b;
    case FunctionKind::kRadical: return m * std::sqrt(x) + b;
    case FunctionKind::kExponential: return std::exp(m * x + b);
    case FunctionKind::kPower: return std::exp(m * std::log(x) + b);
    case FunctionKind::kLogarithm: return m * std::log(x) + b;
    case FunctionKind::kQuadMixed: return (m * x + b) * x;
    case FunctionKind::kCubicOdd: return (m * x * x + b) * x;
    case FunctionKind::kCubicMixed: return (m * x + b) * x * x;
    case FunctionKind::kQuadraticFull: return (m * x + b) * x + params[2];
    case FunctionKind::kGaussian: return std::exp((m * x + b) * x + params[2]);
  }
  return 0.0;
}

/// PredictValueAt at the integer coordinate `xi` (>= 1).
inline double PredictValue(FunctionKind kind, const double* params,
                           int64_t xi) {
  return PredictValueAt(kind, params, static_cast<double>(xi));
}

/// Largest magnitude the compressor accepts for input values; predictions are
/// clamped to this band so residuals never overflow int64.
inline constexpr int64_t kMaxAbsValue = int64_t{1} << 61;

/// Floor of the prediction, clamped to the valid band (NaN maps to 0).
/// This is the ⌊f(x)⌋ of the paper, shared by Algorithms 2 and 3.
/// The floor is integer arithmetic, not a libm call: on the clamped band
/// truncation to int64 is in range, and converting the truncated value back
/// to double is exact (below 2^52 it fits the mantissa, and from 2^52 up v
/// already is an integer), so stepping down by one where truncation rounded
/// up gives exactly std::floor(v).
inline int64_t PredictFloorAt(FunctionKind kind, const double* params,
                              double x) {
  double v = PredictValueAt(kind, params, x);
  v = std::isnan(v) ? 0.0 : v;
  v = std::min(v, static_cast<double>(kMaxAbsValue));
  v = std::max(v, -static_cast<double>(kMaxAbsValue));
  const int64_t t = static_cast<int64_t>(v);
  return t - static_cast<int64_t>(static_cast<double>(t) > v);
}

/// PredictFloorAt at the integer coordinate `xi` (>= 1).
inline int64_t PredictFloor(FunctionKind kind, const double* params,
                            int64_t xi) {
  return PredictFloorAt(kind, params, static_cast<double>(xi));
}

/// Calls `fn.template operator()<K>()` with K == kind, so a per-kind loop
/// written as a template lambda is instantiated once per kind and the kind
/// switch inside PredictValueAt folds away in each instantiation.
template <class Fn>
decltype(auto) DispatchKind(FunctionKind kind, Fn&& fn) {
  switch (kind) {
    case FunctionKind::kLinear: break;
    case FunctionKind::kQuadratic: return fn.template operator()<FunctionKind::kQuadratic>();
    case FunctionKind::kRadical: return fn.template operator()<FunctionKind::kRadical>();
    case FunctionKind::kExponential: return fn.template operator()<FunctionKind::kExponential>();
    case FunctionKind::kPower: return fn.template operator()<FunctionKind::kPower>();
    case FunctionKind::kLogarithm: return fn.template operator()<FunctionKind::kLogarithm>();
    case FunctionKind::kQuadMixed: return fn.template operator()<FunctionKind::kQuadMixed>();
    case FunctionKind::kCubicOdd: return fn.template operator()<FunctionKind::kCubicOdd>();
    case FunctionKind::kCubicMixed: return fn.template operator()<FunctionKind::kCubicMixed>();
    case FunctionKind::kQuadraticFull: return fn.template operator()<FunctionKind::kQuadraticFull>();
    case FunctionKind::kGaussian: return fn.template operator()<FunctionKind::kGaussian>();
  }
  // kLinear; also any id outside the enum (the loaders reject those), since
  // the linear kind reads only the two parameters every fragment stores.
  return fn.template operator()<FunctionKind::kLinear>();
}

/// Σ ⌊f(x)⌋ over the `count` coordinates x, x + 1, ... in the accumulator
/// type Acc (uint64_t wraps modulo 2^64; a wider type sums exactly). The
/// coordinate runs as a double stepped by 1.0, which is exact below 2^53 and
/// saves an int64 -> double conversion per value.
template <FunctionKind KIND, class Acc>
Acc SumPredictFloor(const double* params, double x, uint64_t count) {
  Acc sum = 0;
  for (uint64_t j = 0; j < count; ++j, x += 1.0) {
    sum += static_cast<Acc>(PredictFloorAt(KIND, params, x));
  }
  return sum;
}

}  // namespace neats
