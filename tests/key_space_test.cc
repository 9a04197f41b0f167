#include "common/key_space.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <vector>

namespace pepper {
namespace {

constexpr Key kMax = std::numeric_limits<Key>::max();

TEST(SpanTest, ContainsAndEmpty) {
  Span s{10, 20};
  EXPECT_TRUE(s.Contains(10));
  EXPECT_TRUE(s.Contains(20));
  EXPECT_TRUE(s.Contains(15));
  EXPECT_FALSE(s.Contains(9));
  EXPECT_FALSE(s.Contains(21));
  EXPECT_FALSE(s.Empty());
  EXPECT_TRUE((Span{5, 4}).Empty());
}

TEST(RingRangeTest, SimpleArcContains) {
  auto r = RingRange::OpenClosed(10, 20);  // (10, 20]
  EXPECT_FALSE(r.Contains(10));
  EXPECT_TRUE(r.Contains(11));
  EXPECT_TRUE(r.Contains(20));
  EXPECT_FALSE(r.Contains(21));
  EXPECT_FALSE(r.IsEmpty());
}

TEST(RingRangeTest, WrappingArcContains) {
  auto r = RingRange::OpenClosed(20, 10);  // (20, 10] wrapping
  EXPECT_TRUE(r.Contains(21));
  EXPECT_TRUE(r.Contains(kMax));
  EXPECT_TRUE(r.Contains(0));
  EXPECT_TRUE(r.Contains(10));
  EXPECT_FALSE(r.Contains(20));
  EXPECT_FALSE(r.Contains(15));
}

TEST(RingRangeTest, FullAndEmpty) {
  auto full = RingRange::Full(42);
  EXPECT_TRUE(full.Contains(0));
  EXPECT_TRUE(full.Contains(42));
  EXPECT_TRUE(full.Contains(kMax));
  EXPECT_FALSE(full.IsEmpty());

  auto empty = RingRange::Empty();
  EXPECT_FALSE(empty.Contains(0));
  EXPECT_TRUE(empty.IsEmpty());
}

TEST(RingRangeTest, IntersectSimple) {
  auto r = RingRange::OpenClosed(10, 20);
  auto spans = r.IntersectClosed(Span{5, 15});
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], (Span{11, 15}));

  spans = r.IntersectClosed(Span{15, 30});
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], (Span{15, 20}));

  EXPECT_TRUE(r.IntersectClosed(Span{21, 30}).empty());
  EXPECT_TRUE(r.IntersectClosed(Span{0, 10}).empty());
}

TEST(RingRangeTest, IntersectWrappingProducesTwoSpans) {
  auto r = RingRange::OpenClosed(kMax - 10, 10);  // wraps past the top
  auto spans = r.IntersectClosed(Span{0, kMax});
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0], (Span{0, 10}));
  EXPECT_EQ(spans[1], (Span{kMax - 9, kMax}));
}

TEST(RingRangeTest, IntersectArcAnchoredAtMax) {
  // (kMax, 10]: the wrap segment above kMax is empty.
  auto r = RingRange::OpenClosed(kMax, 10);
  auto spans = r.IntersectClosed(Span{0, kMax});
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], (Span{0, 10}));
}

TEST(RingRangeTest, IntersectsPredicate) {
  auto r = RingRange::OpenClosed(10, 20);
  EXPECT_TRUE(r.Intersects(Span{20, 25}));
  EXPECT_FALSE(r.Intersects(Span{21, 25}));
  EXPECT_TRUE(r.Intersects(Span{0, 11}));
  EXPECT_FALSE(r.Intersects(Span{0, 10}));
}

TEST(InArcTest, Basic) {
  EXPECT_TRUE(InArc(10, 15, 20));
  EXPECT_TRUE(InArc(10, 20, 20));
  EXPECT_FALSE(InArc(10, 10, 20));
  EXPECT_FALSE(InArc(10, 25, 20));
  // Wrapping arc (20, 10]
  EXPECT_TRUE(InArc(20, 25, 10));
  EXPECT_TRUE(InArc(20, 5, 10));
  EXPECT_FALSE(InArc(20, 15, 10));
  // Full circle
  EXPECT_TRUE(InArc(7, 1000, 7));
}

// ForEachInArc visits exactly the keys a Contains-filtered full walk keeps,
// in the same ascending order, for every arc shape: empty, full, plain,
// wrapping, and arcs whose bounds sit on stored keys or the domain ends.
TEST(ForEachInArcTest, MatchesContainsFilter) {
  const std::map<Key, int> stored{{0, 0},   {5, 1},    {10, 2},
                                  {20, 3},  {30, 4},   {kMax - 1, 5},
                                  {kMax, 6}};
  const std::vector<RingRange> arcs = {
      RingRange::Empty(),
      RingRange::OpenClosed(7, 7),        // empty, anchored off key
      RingRange::OpenClosed(10, 10),      // empty, anchored on a key
      RingRange::Full(10),
      RingRange::Full(kMax),
      RingRange::OpenClosed(6, 19),       // plain, bounds between keys
      RingRange::OpenClosed(5, 20),       // plain, bounds on keys
      RingRange::OpenClosed(0, kMax),     // plain, the whole domain but 0
      RingRange::OpenClosed(30, kMax),    // plain, up to the top
      RingRange::OpenClosed(21, 29),      // plain, no key inside
      RingRange::OpenClosed(25, 3),       // wraps, bounds between keys
      RingRange::OpenClosed(20, 5),       // wraps, bounds on keys
      RingRange::OpenClosed(kMax, 0),     // wraps, just key 0
      RingRange::OpenClosed(kMax - 1, 10),
      RingRange::OpenClosed(kMax, 30),    // wraps, lo at the top
      RingRange::OpenClosed(30, 0),       // wraps, hi at the bottom
  };
  for (const RingRange& arc : arcs) {
    std::vector<Key> expected;
    for (const auto& kv : stored) {
      if (arc.Contains(kv.first)) expected.push_back(kv.first);
    }
    std::vector<Key> walked;
    EXPECT_TRUE(ForEachInArc(stored, arc, [&walked](const auto& kv) {
      walked.push_back(kv.first);
      return true;
    }));
    EXPECT_EQ(walked, expected) << arc.ToString();

    // Stopping at the first visit returns false iff the arc holds a key.
    std::vector<Key> first;
    const bool finished = ForEachInArc(stored, arc, [&first](const auto& kv) {
      first.push_back(kv.first);
      return false;
    });
    EXPECT_EQ(finished, expected.empty()) << arc.ToString();
    if (!expected.empty()) {
      EXPECT_EQ(first, std::vector<Key>{expected.front()}) << arc.ToString();
    }

    const std::map<Key, int> none;
    EXPECT_TRUE(ForEachInArc(none, arc, [](const auto&) { return false; }));
  }
}

TEST(SpanCoverageTest, CompletesWithAdjacentPieces) {
  SpanCoverage cov(Span{10, 30});
  EXPECT_FALSE(cov.Complete());
  cov.Add(Span{10, 15});
  EXPECT_FALSE(cov.Complete());
  cov.Add(Span{21, 30});
  EXPECT_FALSE(cov.Complete());
  cov.Add(Span{16, 20});
  EXPECT_TRUE(cov.Complete());
  EXPECT_FALSE(cov.saw_overlap());
}

TEST(SpanCoverageTest, DetectsOverlap) {
  SpanCoverage cov(Span{0, 100});
  cov.Add(Span{0, 50});
  cov.Add(Span{50, 100});  // 50 covered twice
  EXPECT_TRUE(cov.saw_overlap());
  EXPECT_TRUE(cov.Complete());
}

TEST(SpanCoverageTest, HoleNeverCompletes) {
  SpanCoverage cov(Span{0, 100});
  cov.Add(Span{0, 40});
  cov.Add(Span{42, 100});
  EXPECT_FALSE(cov.Complete());
  EXPECT_EQ(cov.merged().size(), 2u);
}

TEST(SpanCoverageTest, TopOfDomainAdjacency) {
  SpanCoverage cov(Span{kMax - 5, kMax});
  cov.Add(Span{kMax - 5, kMax - 1});
  cov.Add(Span{kMax, kMax});
  EXPECT_TRUE(cov.Complete());
  EXPECT_FALSE(cov.saw_overlap());
}

}  // namespace
}  // namespace pepper
