// Idle peers cost nothing: the maintenance timers of the index watchdog,
// the rebalancer, replication and the HRF router sleep while their peer has
// no work, so free peers execute no events, and a settled member runs no
// rebalance check.  Also pins the duties of the sleeping timers: a stalled
// query still resumes, an overdue one still fails, and each wake source of
// the rebalance check (overflow, drop, a replica gained in range) still
// gets its work done — checked against a from-scratch reference under
// churn as well.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "datastore/rebalancer.h"
#include "replication/replication_manager.h"
#include "workload/cluster.h"
#include "workload/workload.h"

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

// --- The dormant rebalance check --------------------------------------------

size_t StorageFactor(const Cluster& c) { return c.options().ds.storage_factor; }

// No split or underflow is due: the count is in [sf, 2*sf], or below sf on
// a peer that owns the whole circle.
bool InBand(const PeerStack& p, size_t sf) {
  const size_t n = p.ds->ItemCount();
  return n <= 2 * sf && (n >= sf || p.ds->range().full());
}

bool Asleep(const PeerStack& p) {
  return !p.ds->rebalancer().maintenance_awake();
}

// A member whose check sleeps and that owns a proper arc.
PeerStack* SleepingMember(Cluster& c) {
  for (PeerStack* p : c.LiveMembers()) {
    if (Asleep(*p) && !p->ds->range().full()) return p;
  }
  return nullptr;
}

// `n` distinct keys inside p's range that p does not store.
std::vector<Key> FreshKeysIn(const PeerStack& p, size_t n, uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<Key> keys;
  while (keys.size() < n) {
    const Key k = rng.Uniform(0, kKeySpan);
    if (p.ds->range().Contains(k) && !p.ds->HasItem(k) &&
        std::find(keys.begin(), keys.end(), k) == keys.end()) {
      keys.push_back(k);
    }
  }
  return keys;
}

std::vector<Key> StoredKeys(const PeerStack& p) {
  std::vector<Key> keys;
  p.ds->ForEachItem(
      [&keys](const datastore::Item& it, uint64_t) { keys.push_back(it.skv); });
  return keys;
}

TEST(IdleCostTest, SettledMembersRunNoRebalanceCheckInAQuietMinute) {
  // A settled cluster's members are all in band with nothing to revive, so
  // every rebalance check sleeps.  The twin cluster is the same run with
  // the checks forced awake once per period from outside (the always-on
  // timer's cost): it holds one more wheel record per member and executes
  // one more event per member and period, and nothing else differs.
  std::unique_ptr<Cluster> c = SettledCluster(Options(34), 250);
  std::unique_ptr<Cluster> twin = SettledCluster(Options(34), 250);
  const size_t sf = StorageFactor(*c);
  const sim::SimTime period = c->options().ds.maintenance_period;
  const std::vector<PeerStack*> members = c->LiveMembers();
  ASSERT_GE(members.size(), 20u);
  for (PeerStack* p : members) {
    ASSERT_TRUE(InBand(*p, sf)) << "peer " << p->id();
    EXPECT_TRUE(Asleep(*p)) << "peer " << p->id();
  }

  const uint64_t reorgs_before = c->metrics().counters().Get("ds.splits") +
                                 c->metrics().counters().Get("ds.merges") +
                                 c->metrics().counters().Get("ds.redistributes");
  const uint64_t events_before = c->sim().events_executed();
  const uint64_t twin_events_before = twin->sim().events_executed();
  constexpr int kSteps = 600;  // one quiet minute at the 100 ms period
  for (int step = 0; step < kSteps; ++step) {
    for (PeerStack* p : twin->LiveMembers()) {
      p->ds->rebalancer().OnProbeInputChanged();
    }
    if (step == 0) {
      EXPECT_EQ(twin->sim().wheel().live_count(),
                c->sim().wheel().live_count() + members.size());
    }
    c->RunFor(period);
    twin->RunFor(period);
    for (PeerStack* p : c->LiveMembers()) {
      ASSERT_TRUE(Asleep(*p)) << "peer " << p->id() << " woke at step " << step;
    }
  }
  ASSERT_EQ(c->metrics().counters().Get("ds.splits") +
                c->metrics().counters().Get("ds.merges") +
                c->metrics().counters().Get("ds.redistributes"),
            reorgs_before);
  const uint64_t events = c->sim().events_executed() - events_before;
  const uint64_t twin_events =
      twin->sim().events_executed() - twin_events_before;
  // A forced tick may straddle a step boundary and absorb the next wake,
  // so the twin fires between (kSteps - 1) and kSteps ticks per member.
  EXPECT_GT(events, 0u);
  EXPECT_GE(twin_events, events + members.size() * (kSteps - 1));
  EXPECT_LE(twin_events, events + members.size() * kSteps);
}

TEST(IdleCostTest, OverflowWakesASleepingMemberToSplit) {
  std::unique_ptr<Cluster> c = SettledCluster(Options(35), 150);
  const size_t sf = StorageFactor(*c);
  PeerStack* p = SleepingMember(*c);
  ASSERT_NE(p, nullptr);
  ASSERT_LE(p->ds->ItemCount(), 2 * sf);

  for (Key k : FreshKeysIn(*p, 2 * sf + 1 - p->ds->ItemCount(), 351)) {
    ASSERT_TRUE(c->InsertItem(k, "", p).ok());
  }
  // The insert that crossed 2*sf woke the check; its next tick, at most one
  // period later, starts the split (which then halves the store).
  c->RunFor(c->options().ds.maintenance_period);
  EXPECT_TRUE(p->ds->rebalancing() || p->ds->ItemCount() <= 2 * sf)
      << p->ds->ItemCount() << " items";
}

TEST(IdleCostTest, UnderflowWakesASleepingMemberToMerge) {
  std::unique_ptr<Cluster> c = SettledCluster(Options(36), 150);
  const size_t sf = StorageFactor(*c);
  PeerStack* p = SleepingMember(*c);
  ASSERT_NE(p, nullptr);
  ASSERT_GE(p->ds->ItemCount(), sf);

  const std::vector<Key> keys = StoredKeys(*p);
  for (size_t i = 0; i + sf <= keys.size(); ++i) {
    ASSERT_TRUE(c->DeleteItem(keys[i], p).ok());
  }
  // The last delete dropped the count below sf; within one period the
  // woken check proposes a merge, which ends in a redistribute (count back
  // in band) or a takeover (we leave).
  c->RunFor(c->options().ds.maintenance_period);
  EXPECT_TRUE(p->ds->rebalancing() || !p->ds->active() ||
              p->ds->ItemCount() >= sf)
      << p->ds->ItemCount() << " items";
}

// Ring order of the live members, by value.
std::vector<PeerStack*> MembersInRingOrder(Cluster& c) {
  std::vector<PeerStack*> m = c.LiveMembers();
  std::sort(m.begin(), m.end(), [](PeerStack* a, PeerStack* b) {
    return a->ring->val() < b->ring->val();
  });
  return m;
}

// A dead owner's replica of a key inside a sleeping member's range, which
// the member does not store, arrives at the member; its sweep must promote
// it.  `as_delta` delivers the key as a delta upsert on top of an earlier
// out-of-range snapshot instead of inside the snapshot itself.
void CheckReplicaGainWakesTheSweep(uint64_t seed, bool as_delta) {
  std::unique_ptr<Cluster> c = SettledCluster(Options(seed), 250);
  std::vector<PeerStack*> ring = MembersInRingOrder(*c);
  ASSERT_GE(ring.size(), 20u);
  // The dead owner sits far from the member on the ring, so its failure
  // and repair never touch the member's range or successor list.
  PeerStack* dead = ring[0];
  const Key dead_val = dead->ring->val();
  c->FailPeer(dead);
  c->RunFor(10 * sim::kSecond);
  ring = MembersInRingOrder(*c);
  PeerStack* p = nullptr;
  for (size_t i = ring.size() / 2 - 2; i < ring.size() / 2 + 2; ++i) {
    if (p == nullptr && Asleep(*ring[i])) p = ring[i];
  }
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->repl->groups().count(dead->id()), 0u);
  PeerStack* sender = ring[1];
  const Key lost = FreshKeysIn(*p, 1, seed)[0];

  auto snapshot = std::make_shared<replication::ReplicaPushMsg>();
  snapshot->owner = dead->id();
  snapshot->owner_val = dead_val;
  snapshot->direct = true;
  snapshot->manifest.version = 10;
  auto delta = std::make_shared<replication::ReplicaDeltaMsg>();
  delta->owner = dead->id();
  delta->owner_val = dead_val;
  delta->from_version = 10;
  delta->manifest.version = 11;
  datastore::Item item;
  item.skv = lost;
  if (as_delta) {
    // Seed the group with a key outside the member's range: no wake.
    datastore::Item outside;
    outside.skv = dead_val;
    snapshot->items = {outside};
    snapshot->epochs = {1};
    sender->ring->node()->Send(p->id(), snapshot);
    c->RunFor(sim::kSecond);
    ASSERT_EQ(p->repl->groups().count(dead->id()), 1u);
    ASSERT_TRUE(Asleep(*p));
    delta->upserts = {item};
    delta->upsert_epochs = {2};
    delta->manifest.count = 2;
    sender->ring->node()->Send(p->id(), delta);
  } else {
    snapshot->items = {item};
    snapshot->epochs = {1};
    sender->ring->node()->Send(p->id(), snapshot);
  }
  // One period to wake, a ping timeout to confirm the owner is dead.
  c->RunFor(sim::kSecond);
  EXPECT_TRUE(p->ds->HasItem(lost));
}

TEST(IdleCostTest, SnapshotGainingAnInRangeKeyWakesTheReviveSweep) {
  CheckReplicaGainWakesTheSweep(37, /*as_delta=*/false);
}

TEST(IdleCostTest, DeltaGainingAnInRangeKeyWakesTheReviveSweep) {
  CheckReplicaGainWakesTheSweep(38, /*as_delta=*/true);
}

// The reference check: under churn, a sleeping check never hides work.
// At every checkpoint, each active member whose check sleeps is idle, in
// band, and a from-scratch revive probe finds nothing missing.
TEST(IdleCostTest, SleepingCheckNeverHidesWorkUnderChurn) {
  for (uint64_t seed : {41u, 42u, 43u}) {
    SCOPED_TRACE(seed);
    std::unique_ptr<Cluster> c = SettledCluster(Options(seed), 150);
    const size_t sf = StorageFactor(*c);
    WorkloadOptions w;
    w.insert_rate_per_sec = 4.0;
    w.delete_rate_per_sec = 3.0;
    w.peer_add_rate_per_sec = 0.5;
    w.fail_rate_per_sec = 0.2;
    w.min_live_members = 8;
    WorkloadDriver driver(c.get(), w, seed * 7 + 1);
    driver.Start();
    size_t asleep_checked = 0;
    for (int step = 0; step < 240; ++step) {
      c->RunFor(250 * sim::kMillisecond);
      for (PeerStack* p : c->LiveMembers()) {
        if (!Asleep(*p)) continue;
        ++asleep_checked;
        ASSERT_FALSE(p->ds->rebalancing()) << "peer " << p->id();
        ASSERT_FALSE(p->ds->rebalancer().merge_busy()) << "peer " << p->id();
        ASSERT_TRUE(InBand(*p, sf))
            << "peer " << p->id() << ": " << p->ds->ItemCount() << " items";
        ASSERT_FALSE(p->repl->AnyReplicaIn(
            p->ds->range(), [&p](Key skv) { return !p->ds->HasItem(skv); }))
            << "peer " << p->id() << " sleeps on a missing replica";
      }
    }
    driver.Stop();
    EXPECT_GT(c->metrics().counters().Get("ds.splits"), 0u);
    EXPECT_GT(c->metrics().counters().Get("ds.merges") +
                  c->metrics().counters().Get("ds.redistributes"),
              0u);
    EXPECT_GT(asleep_checked, 1000u);
  }
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
