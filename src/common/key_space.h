#ifndef PEPPER_COMMON_KEY_SPACE_H_
#define PEPPER_COMMON_KEY_SPACE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace pepper {

// The totally ordered domain K of search-key values, and the peer-value
// domain PV (Section 2.1/2.2 of the paper).  P-Ring's map M is
// order-preserving; we use the identity map, so both domains share the
// representation below.
using Key = uint64_t;

// A closed interval [lo, hi] of search-key values on the *linear* domain K.
// Range queries (Section 2.1) are expressed as Spans.
struct Span {
  Key lo = 0;
  Key hi = 0;

  bool Contains(Key k) const { return lo <= k && k <= hi; }
  bool Empty() const { return lo > hi; }
  std::string ToString() const;

  friend bool operator==(const Span& a, const Span& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

// A half-open arc (lo, hi] on the *circular* peer-value domain PV
// (Section 2.2: peer p is responsible for (pred(p).val, p.val]).  The arc
// may wrap past the top of the domain.  The degenerate arc (a, a] denotes
// either the empty set or the full circle, disambiguated by `full`.
class RingRange {
 public:
  RingRange() : lo_(0), hi_(0), full_(false) {}

  // The arc (lo, hi], wrapping if lo >= hi.
  static RingRange OpenClosed(Key lo, Key hi) {
    RingRange r;
    r.lo_ = lo;
    r.hi_ = hi;
    r.full_ = false;
    return r;
  }
  // The whole circle, "anchored" at hi (a single peer owns everything; its
  // value is hi).
  static RingRange Full(Key hi) {
    RingRange r;
    r.lo_ = hi;
    r.hi_ = hi;
    r.full_ = true;
    return r;
  }
  static RingRange Empty() { return RingRange(); }

  Key lo() const { return lo_; }
  Key hi() const { return hi_; }
  bool full() const { return full_; }
  bool IsEmpty() const { return !full_ && lo_ == hi_; }

  bool Contains(Key k) const;

  // True iff this arc overlaps the closed interval [span.lo, span.hi].
  bool Intersects(const Span& span) const;

  // The intersection of this arc with a closed linear interval, as up to two
  // disjoint closed linear intervals (two when the arc wraps across the top
  // of the domain inside the span).  Results are sorted by lo.
  std::vector<Span> IntersectClosed(const Span& span) const;

  std::string ToString() const;

  friend bool operator==(const RingRange& a, const RingRange& b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_ && a.full_ == b.full_;
  }

 private:
  Key lo_;
  Key hi_;
  bool full_;
};

// True iff b lies on the clockwise arc (a, c] of the circular domain.  Used
// for ordering peers on the ring.  When a == c the arc is the full circle.
bool InArc(Key a, Key b, Key c);

// Visits the entries of an ordered map keyed by Key whose keys lie in `arc`,
// in ascending key order — exactly the entries, and the order, of a full
// walk filtered by arc.Contains — but touching only the in-arc entries: one
// bounded segment, or two for an arc that wraps past the top of the domain
// (keys <= hi first, then keys > lo).  `fn(entry)` returns false to stop;
// the walk returns false iff it was stopped.
template <typename OrderedMap, typename Fn>
bool ForEachInArc(OrderedMap& map, const RingRange& arc, Fn&& fn) {
  auto visit = [&fn](auto first, auto last) {
    for (; first != last; ++first) {
      if (!fn(*first)) return false;
    }
    return true;
  };
  if (arc.full()) return visit(map.begin(), map.end());
  if (arc.IsEmpty()) return true;
  if (arc.lo() < arc.hi()) {
    return visit(map.upper_bound(arc.lo()), map.upper_bound(arc.hi()));
  }
  return visit(map.begin(), map.upper_bound(arc.hi())) &&
         visit(map.upper_bound(arc.lo()), map.end());
}

// Merges overlapping/adjacent closed intervals and reports whether their
// union equals [target.lo, target.hi].  Used by the range-query coverage
// tracker (scanRange correctness, Definition 6 condition 4).
class SpanCoverage {
 public:
  explicit SpanCoverage(Span target) : target_(target) {}

  void Add(const Span& span);
  bool Complete() const;
  // The smallest key of the target not yet covered; nullopt when complete.
  std::optional<Key> FirstUncovered() const;
  // True if some added span overlaps a previously added one (would violate
  // Definition 6 condition 3).
  bool saw_overlap() const { return saw_overlap_; }
  const std::vector<Span>& merged() const { return merged_; }

 private:
  Span target_;
  bool saw_overlap_ = false;
  std::vector<Span> merged_;  // disjoint, sorted by lo
};

}  // namespace pepper

#endif  // PEPPER_COMMON_KEY_SPACE_H_
