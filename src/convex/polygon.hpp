// Feasible-parameter convex polygon — the generalised O'Rourke algorithm.
//
// Computing the longest fragment that admits an eps-approximation by a
// two-parameter function reduces (paper, Theorem 1) to maintaining the convex
// region of parameters (m, b) satisfying
//
//     alpha_k <= t_k * m + b <= omega_k      for every covered point k,
//
// where t_k is strictly increasing in k. Each point contributes two parallel
// half-planes whose boundary slope -t_k is more negative than every edge of
// the current polygon (O'Rourke, Lemma 1), so the upper constraint only ever
// clips the right end of the polygon and the lower constraint the left end.
// This class maintains the polygon as two monotone chains (concave top,
// convex bottom, sharing their extreme vertices) stored in deques, achieving
// O(1) amortised cost per added point.
//
// Emptiness is detected in O(1) before mutating: along every edge the linear
// functional g(m, b) = t*m + b (for the incoming t) is strictly increasing
// left-to-right, hence g ranges over [g(leftmost), g(rightmost)] on the whole
// polygon, and the new constraint pair is satisfiable iff that interval
// intersects [alpha, omega].

#pragma once

#include <cstddef>
#include <deque>

#include "common/assert.hpp"

namespace neats {

/// A point in the transformed parameter space (m horizontal, b vertical).
struct DualPoint {
  long double m;
  long double b;
};

/// Convex polygon of feasible (m, b) parameter pairs under constraints
/// alpha_k <= t_k*m + b <= omega_k with strictly increasing t_k.
class FeasiblePolygon {
 public:
  FeasiblePolygon() = default;

  /// Removes all constraints.
  void Reset() {
    num_constraints_ = 0;
    top_.clear();
    bottom_.clear();
  }

  /// Tries to add the constraint alpha <= t*m + b <= omega.
  /// Requires alpha <= omega and t strictly greater than any t added before.
  /// Returns true on success; returns false (leaving the polygon unchanged)
  /// if the constraint would make the feasible set empty.
  bool AddConstraint(long double t, long double alpha, long double omega) {
    NEATS_DCHECK(alpha <= omega);
    if (num_constraints_ == 0) {
      strip_t_ = t;
      strip_alpha_ = alpha;
      strip_omega_ = omega;
      ++num_constraints_;
      return true;
    }
    if (num_constraints_ == 1) {
      // The first constraint defines an unbounded strip; the second bounds it
      // into a parallelogram (the strips are not parallel since t differs).
      NEATS_DCHECK(t > strip_t_);
      DualPoint lv = Corner(strip_omega_, t, alpha);     // on upper0, lower1
      DualPoint rv = Corner(strip_alpha_, t, omega);     // on lower0, upper1
      DualPoint top_mid = Corner(strip_omega_, t, omega);
      DualPoint bottom_mid = Corner(strip_alpha_, t, alpha);
      top_ = {lv, top_mid, rv};
      bottom_ = {lv, bottom_mid, rv};
      ++num_constraints_;
      return true;
    }

    // General case: O(1) emptiness test via the functional g = t*m + b.
    const DualPoint& lv = top_.front();
    const DualPoint& rv = top_.back();
    long double g_min = t * lv.m + lv.b;
    long double g_max = t * rv.m + rv.b;
    if (g_min > omega || g_max < alpha) return false;

    if (g_max > omega) ClipRight(t, omega);
    if (g_min < alpha) ClipLeft(t, alpha);
    ++num_constraints_;
    return true;
  }

  /// Returns a feasible (m, b). Requires at least one constraint.
  DualPoint PickPoint() const {
    NEATS_REQUIRE(num_constraints_ > 0, "no constraints added");
    if (num_constraints_ == 1) {
      // Strip: m = 0 works since alpha <= b <= omega is satisfiable directly.
      return {0.0L, (strip_alpha_ + strip_omega_) / 2.0L};
    }
    const DualPoint& lv = top_.front();
    const DualPoint& rv = top_.back();
    // The segment between the two extreme vertices lies inside the polygon.
    return {(lv.m + rv.m) / 2.0L, (lv.b + rv.b) / 2.0L};
  }

  size_t num_constraints() const { return num_constraints_; }

 private:
  // Intersection of b = -t0*m + c0 with b = -t1*m + c1 (t0 != t1).
  DualPoint Corner(long double c0, long double t1, long double c1) const {
    long double m = (c1 - c0) / (t1 - strip_t_);
    return {m, -strip_t_ * m + c0};
  }

  // Crossing of the segment a->b (with g(a) <= bound < g(b)) with the line
  // g(m, b) = t*m + b = bound.
  static DualPoint Crossing(const DualPoint& a, const DualPoint& b,
                            long double t, long double bound) {
    long double ga = t * a.m + a.b;
    long double gb = t * b.m + b.b;
    long double s = (bound - ga) / (gb - ga);
    return {a.m + s * (b.m - a.m), a.b + s * (b.b - a.b)};
  }

  // Rounding can put a clip line past the polygon's far extreme even though
  // the O(1) test found the constraint pair feasible (seen with values near
  // 2^60, where the ClipLeft loop then emptied its chain). The feasible set
  // is then, numerically, that one extreme vertex; a one-vertex polygon is
  // stable, since no later constraint can need a clip.
  void CollapseTo(DualPoint p) {
    top_ = {p};
    bottom_ = {p};
  }

  // Applies b <= -t*m + omega, i.e. keeps g = t*m + b <= omega.
  // Precondition: g(leftmost) <= omega < g(rightmost).
  void ClipRight(long double t, long double omega) {
    auto g = [t](const DualPoint& p) { return t * p.m + p.b; };
    if (g(top_.front()) > omega) return CollapseTo(top_.front());
    DualPoint popped_top = top_.back();
    top_.pop_back();
    while (g(top_.back()) > omega) {
      popped_top = top_.back();
      top_.pop_back();
    }
    DualPoint cross_top = Crossing(top_.back(), popped_top, t, omega);
    DualPoint popped_bottom = bottom_.back();
    bottom_.pop_back();
    while (g(bottom_.back()) > omega) {
      popped_bottom = bottom_.back();
      bottom_.pop_back();
    }
    DualPoint cross_bottom = Crossing(bottom_.back(), popped_bottom, t, omega);
    // New rightmost vertex is the bottom-chain crossing; the final top edge
    // runs along the clip line from the top crossing to it.
    top_.push_back(cross_top);
    top_.push_back(cross_bottom);
    bottom_.push_back(cross_bottom);
  }

  // Applies b >= -t*m + alpha, i.e. keeps g = t*m + b >= alpha.
  // Precondition: g(leftmost) < alpha <= g(rightmost).
  void ClipLeft(long double t, long double alpha) {
    auto g = [t](const DualPoint& p) { return t * p.m + p.b; };
    if (g(top_.back()) < alpha) return CollapseTo(top_.back());
    DualPoint popped_top = top_.front();
    top_.pop_front();
    while (g(top_.front()) < alpha) {
      popped_top = top_.front();
      top_.pop_front();
    }
    DualPoint cross_top = Crossing(top_.front(), popped_top, t, alpha);
    DualPoint popped_bottom = bottom_.front();
    bottom_.pop_front();
    while (g(bottom_.front()) < alpha) {
      popped_bottom = bottom_.front();
      bottom_.pop_front();
    }
    DualPoint cross_bottom = Crossing(bottom_.front(), popped_bottom, t, alpha);
    // New leftmost vertex is the top-chain crossing; the first bottom edge
    // runs along the clip line from it to the bottom crossing.
    bottom_.push_front(cross_bottom);
    bottom_.push_front(cross_top);
    top_.push_front(cross_top);
  }

  size_t num_constraints_ = 0;
  long double strip_t_ = 0;
  long double strip_alpha_ = 0;
  long double strip_omega_ = 0;
  std::deque<DualPoint> top_;     // concave chain, shared extremes with bottom_
  std::deque<DualPoint> bottom_;  // convex chain
};

}  // namespace neats
