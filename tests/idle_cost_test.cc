// Idle peers cost nothing: the maintenance timers of the index watchdog,
// the rebalancer, replication and the HRF router sleep while their peer has
// no work, so free peers execute no events.  Also pins the two duties of
// the sleeping index watchdog: a stalled query still resumes, and an
// overdue one still fails.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "workload/cluster.h"

namespace pepper::workload {
namespace {

constexpr Key kKeySpan = 1000000;

// A populated cluster, settled: one bootstrap peer, free peers, `n_items`
// uniformly random items, then quiet time for splits to finish.
std::unique_ptr<Cluster> SettledCluster(ClusterOptions options, int n_items) {
  auto c = std::make_unique<Cluster>(options);
  c->Bootstrap(kKeySpan);
  for (int i = 0; i < n_items / 5 + 4; ++i) c->AddFreePeer();
  c->RunFor(sim::kSecond);
  sim::Rng rng(options.seed + 1);
  for (int i = 0; i < n_items; ++i) c->InsertItem(rng.Uniform(0, kKeySpan));
  c->RunFor(30 * sim::kSecond);
  return c;
}

ClusterOptions Options(uint64_t seed) {
  ClusterOptions o = ClusterOptions::FastDefaults();
  o.seed = seed;
  return o;
}

TEST(IdleCostTest, FreePeersAddNoEventsToAQuietMinute) {
  // Two identical settled clusters; one of them gains 100 free peers.  Over
  // the next quiet minute both must execute exactly the same events: the
  // free peers arm no timer and run nothing.
  std::unique_ptr<Cluster> base = SettledCluster(Options(31), 100);
  std::unique_ptr<Cluster> grown = SettledCluster(Options(31), 100);
  ASSERT_GE(base->LiveMembers().size(), 10u);

  const size_t live_timers = grown->sim().wheel().live_count();
  for (int i = 0; i < 100; ++i) grown->AddFreePeer();
  EXPECT_EQ(grown->sim().wheel().live_count(), live_timers);

  const uint64_t reorgs_before = base->metrics().counters().Get("ds.splits") +
                                 base->metrics().counters().Get("ds.merges");
  const uint64_t base_before = base->sim().events_executed();
  const uint64_t grown_before = grown->sim().events_executed();
  base->RunFor(60 * sim::kSecond);
  grown->RunFor(60 * sim::kSecond);
  // The minute is quiet: no reorganization recruited or retired a peer.
  ASSERT_EQ(base->metrics().counters().Get("ds.splits") +
                base->metrics().counters().Get("ds.merges"),
            reorgs_before);
  const uint64_t base_events = base->sim().events_executed() - base_before;
  const uint64_t grown_events = grown->sim().events_executed() - grown_before;
  EXPECT_GT(base_events, 0u);
  EXPECT_EQ(grown_events, base_events);
}

// Peer that owns the middle of the key space, distinct from `not_this`.
PeerStack* OwnerOfMidpoint(Cluster& c, const PeerStack* not_this) {
  for (PeerStack* p : c.LiveMembers()) {
    if (p != not_this && p->ds->range().Contains(kKeySpan / 2)) return p;
  }
  return nullptr;
}

struct QueryResult {
  bool done = false;
  Status status = Status::Internal("not finished");
};

TEST(IdleCostTest, WatchdogStillResumesAStalledQuery) {
  std::unique_ptr<Cluster> c = SettledCluster(Options(32), 100);
  PeerStack* via = c->LiveMembers().front();
  PeerStack* slow = OwnerOfMidpoint(*c, via);
  ASSERT_NE(slow, nullptr);

  // Every request to the midpoint owner stalls for longer than the
  // progress timeout, so the scan makes no progress until the watchdog
  // re-kicks it; the stall lifts after two seconds.
  c->sim().network().set_node_extra_delay(slow->id(), 2 * sim::kSecond);
  const uint64_t resumes_before =
      c->metrics().counters().Get("index.query_resumes");
  auto result = std::make_shared<QueryResult>();
  via->index->RangeQuery(Span{0, kKeySpan},
                         [result](const Status& s, std::vector<datastore::Item>) {
                           result->done = true;
                           result->status = s;
                         });
  c->RunFor(2 * sim::kSecond);
  c->sim().network().set_node_extra_delay(slow->id(), 0);
  c->RunFor(15 * sim::kSecond);

  ASSERT_TRUE(result->done);
  EXPECT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_GT(c->metrics().counters().Get("index.query_resumes"),
            resumes_before);
  EXPECT_EQ(via->index->active_queries(), 0u);
}

TEST(IdleCostTest, WatchdogStillFailsAnOverdueQuery) {
  ClusterOptions o = Options(33);
  o.index.query_timeout = 1 * sim::kSecond;
  std::unique_ptr<Cluster> c = SettledCluster(o, 100);
  PeerStack* via = c->LiveMembers().front();
  PeerStack* slow = OwnerOfMidpoint(*c, via);
  ASSERT_NE(slow, nullptr);

  // The midpoint owner answers nothing within the query deadline.
  c->sim().network().set_node_extra_delay(slow->id(), 10 * sim::kSecond);
  auto result = std::make_shared<QueryResult>();
  via->index->RangeQuery(Span{0, kKeySpan},
                         [result](const Status& s, std::vector<datastore::Item>) {
                           result->done = true;
                           result->status = s;
                         });
  c->RunFor(2 * sim::kSecond);

  ASSERT_TRUE(result->done);
  EXPECT_TRUE(result->status.IsTimedOut()) << result->status.ToString();
  EXPECT_EQ(via->index->active_queries(), 0u);
}

}  // namespace
}  // namespace pepper::workload
