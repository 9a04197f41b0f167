// Versioned delta replication: manifest identity, the delta-reconstruction
// equivalence property (a group assembled from any interleaving of deltas is
// byte-identical to a fresh snapshot of the owner), the push-delivery audit
// (every push hop acked or counted), and the byte savings the deltas exist
// for.

#include <gtest/gtest.h>

#include "cluster_test_util.h"
#include "replication/replica_manifest.h"
#include "replication/replication_manager.h"
#include "workload/cluster.h"

namespace pepper::workload {
namespace {

using replication::BuildManifest;
using replication::kManifestWireBytes;
using replication::ReplicaGroup;
using replication::ReplicaManifest;
using replication::WireBytes;

constexpr Key kKeySpan = 1000000;

ClusterOptions TestOptions(uint64_t seed, size_t k) {
  ClusterOptions o = ClusterOptions::FastDefaults();
  o.seed = seed;
  o.repl.replication_factor = k;
  return o;
}

TEST(ReplicaManifestTest, IdentityAndSensitivity) {
  std::map<Key, uint64_t> epochs{{10, 1}, {20, 2}, {30, 5}};
  const ReplicaManifest a = BuildManifest(epochs, 5);
  EXPECT_EQ(a, BuildManifest(epochs, 5));  // deterministic
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.version, 5u);

  // A version bump alone diverges (the == covers version).
  EXPECT_NE(a, BuildManifest(epochs, 6));
  // An epoch change diverges even with identical keys and count.
  std::map<Key, uint64_t> touched = epochs;
  touched[20] = 7;
  EXPECT_NE(a.hash, BuildManifest(touched, 5).hash);
  // A membership change diverges.
  std::map<Key, uint64_t> extra = epochs;
  extra[40] = 9;
  EXPECT_NE(a.hash, BuildManifest(extra, 5).hash);
}

// The set hash moves under every kind of divergence a holder can have —
// including ones that keep the count (a bumped epoch, two keys trading
// epochs, one key replaced by another with the same epoch).
TEST(ReplicaManifestTest, SetHashDetectsEveryDivergence) {
  const std::map<Key, uint64_t> base{{10, 1}, {20, 2}, {30, 5}, {40, 7}};
  const uint64_t h = BuildManifest(base, 9).hash;

  std::map<Key, uint64_t> dropped = base;
  dropped.erase(20);
  EXPECT_NE(BuildManifest(dropped, 9).hash, h);

  std::map<Key, uint64_t> extra = base;
  extra[25] = 8;
  EXPECT_NE(BuildManifest(extra, 9).hash, h);

  std::map<Key, uint64_t> bumped = base;
  bumped[30] = 6;
  EXPECT_NE(BuildManifest(bumped, 9).hash, h);

  std::map<Key, uint64_t> swapped = base;
  std::swap(swapped[10], swapped[20]);
  EXPECT_NE(BuildManifest(swapped, 9).hash, h);

  std::map<Key, uint64_t> replaced = base;
  replaced.erase(40);
  replaced[41] = 7;
  EXPECT_NE(BuildManifest(replaced, 9).hash, h);

  // And it does not depend on how the set was assembled.
  EXPECT_EQ(BuildManifest(std::map<Key, uint64_t>(base.rbegin(), base.rend()),
                          9),
            BuildManifest(base, 9));
}

// A group kept incrementally (snapshot Assign, then any sequence of Upserts
// and Erases) carries exactly the manifest a from-scratch build gives.
TEST(ReplicaManifestTest, IncrementalGroupMatchesFromScratch) {
  sim::Rng rng(4242);
  ReplicaGroup group;
  uint64_t epoch = 0;
  auto item = [](Key k, size_t len) {
    datastore::Item it;
    it.skv = k;
    it.data.assign(len, 'x');
    return it;
  };
  for (int round = 0; round < 20; ++round) {
    // A fresh snapshot (key-ordered, distinct) replaces whatever was held.
    std::vector<datastore::Item> snapshot;
    std::vector<uint64_t> snapshot_epochs;
    Key k = rng.Uniform(0, 50);
    for (int i = 0; i < static_cast<int>(rng.Uniform(0, 30)); ++i) {
      snapshot.push_back(item(k, rng.Uniform(0, 8)));
      snapshot_epochs.push_back(++epoch);
      k += rng.Uniform(1, 20);
    }
    group.Assign(snapshot, snapshot_epochs);
    group.version = epoch;
    ASSERT_EQ(group.manifest(), BuildManifest(group.epochs, group.version));
    for (int op = 0; op < 60; ++op) {
      const Key key = rng.Uniform(0, 400);
      if (rng.Uniform(0, 2) == 0) {
        group.Erase(key);  // present or not
      } else {
        group.Upsert(item(key, rng.Uniform(0, 8)), ++epoch);  // new or not
      }
      group.version = epoch;
      ASSERT_EQ(group.manifest(), BuildManifest(group.epochs, group.version))
          << "round " << round << " op " << op;
      ASSERT_EQ(group.items.size(), group.epochs.size());
    }
  }
}

// The facade stamps a fresh epoch on every mutation, so re-inserting a key
// with different data is visible to manifests.
TEST(ReplicaManifestTest, FacadeEpochsAdvanceOnEveryMutation) {
  Cluster c(TestOptions(90, 2));
  c.Bootstrap(kKeySpan);
  c.RunFor(sim::kSecond);
  PeerStack* p = c.LiveMembers()[0];
  ASSERT_TRUE(c.InsertItem(100, "v1").ok());
  const uint64_t e1 = p->ds->ItemEpochsSnapshot().at(100);
  ASSERT_TRUE(c.InsertItem(100, "v2").ok());
  const uint64_t e2 = p->ds->ItemEpochsSnapshot().at(100);
  EXPECT_GT(e2, e1);
  const uint64_t before = p->ds->mutation_epoch();
  ASSERT_TRUE(c.DeleteItem(100).ok());
  EXPECT_GT(p->ds->mutation_epoch(), before);  // deletes advance the version
  EXPECT_EQ(p->ds->ItemEpochsSnapshot().count(100), 0u);
}

// The delta-push equivalence property: after any interleaving of inserts,
// deletes and the splits/redistributes they trigger, every replica group a
// holder still keeps (once stale copies aged out) is byte-identical to a
// fresh snapshot of its owner — same keys, same data, same manifest.
TEST(ReplicationDeltaTest, DeltaReconstructedGroupsMatchFreshSnapshots) {
  for (uint64_t seed : {11, 12, 13, 14}) {
    ClusterOptions o = TestOptions(seed, 3);
    o.repl.group_ttl = 2 * sim::kSecond;
    Cluster c(o);
    c.Bootstrap(kKeySpan);
    for (int i = 0; i < 30; ++i) c.AddFreePeer();
    c.RunFor(sim::kSecond);

    // Random interleaving of inserts and deletes; inserts overflow peers
    // into splits, deletes underflow them into merges/redistributes.
    sim::Rng rng(seed * 977);
    std::vector<Key> live;
    for (int op = 0; op < 220; ++op) {
      if (live.empty() || rng.Uniform(0, 9) < 7) {
        Key k = rng.Uniform(0, kKeySpan);
        if (c.InsertItem(k).ok()) live.push_back(k);
      } else {
        size_t at = rng.Uniform(0, live.size() - 1);
        (void)c.DeleteItem(live[at]);
        live.erase(live.begin() + static_cast<long>(at));
      }
    }

    // Quiesce: the last deltas propagate, displaced holders' copies age
    // out, every surviving group converges on its owner's current state.
    c.RunFor(6 * sim::kSecond);

    size_t groups_checked = 0;
    for (PeerStack* owner : c.LiveMembers()) {
      const ReplicaManifest fresh = BuildManifest(
          owner->ds->ItemEpochsSnapshot(), owner->ds->mutation_epoch());
      for (const auto& holder : c.peers()) {
        if (!holder->ring->alive() || holder->id() == owner->id()) continue;
        auto it = holder->repl->groups().find(owner->id());
        if (it == holder->repl->groups().end()) continue;
        const ReplicaGroup& group = it->second;
        EXPECT_EQ(group.items, owner->ds->ItemsSnapshot())
            << "holder " << holder->id() << " of owner " << owner->id()
            << " diverged (seed " << seed << ")";
        EXPECT_EQ(BuildManifest(group.epochs, group.version), fresh)
            << "manifest mismatch at holder " << holder->id() << " of owner "
            << owner->id() << " (seed " << seed << ")";
        ++groups_checked;
      }
    }
    EXPECT_GT(groups_checked, 10u) << "seed " << seed;
    // The equivalence must have been reached through deltas, not snapshots
    // alone.
    EXPECT_GT(c.metrics().counters().Get("repl.delta_pushes"), 0u);
  }
}

// The owner book (key -> epoch and wire bytes, the running manifest hash and
// byte sum, the dirty set) is kept from the store's mutation feed alone.
// Drive owners through inserts, overwrites, deletes, a split handoff and a
// Deactivate -> Activate reuse; after every push, what the owner ships must
// equal what a from-scratch walk of its store says — the manifest always,
// and for a snapshot push the bytes charged too.  Run once with deltas and
// once snapshot-only, so both push shapes are priced from the book.
TEST(ReplicationDeltaTest, OwnerBookStaysExact) {
  for (bool delta_pushes : {true, false}) {
    ClusterOptions o = TestOptions(41, 2);
    o.repl.delta_pushes = delta_pushes;
    Cluster c(o);
    PeerStack* first = c.Bootstrap(kKeySpan);
    c.AddFreePeer();
    c.RunFor(sim::kSecond);
    const Counters& counters = c.metrics().counters();
    size_t snapshots_checked = 0;
    size_t shipped_checked = 0;

    // Pushes every active peer, checks each push against its store, then
    // checks what the first holder received once the push landed.
    auto push_and_check = [&](const std::string& step) {
      std::vector<std::pair<PeerStack*, ReplicaManifest>> pushed;
      for (const auto& p : c.peers()) {
        if (!p->ring->alive() || !p->ds->active()) continue;
        const ReplicaManifest fresh = BuildManifest(
            p->ds->ItemEpochsSnapshot(), p->ds->mutation_epoch());
        const uint64_t bytes_before = counters.Get("repl.push_bytes");
        const uint64_t snapshots_before = counters.Get("repl.snapshot_pushes");
        p->repl->PushNow();
        EXPECT_EQ(p->repl->OwnManifest(), fresh) << step;
        if (counters.Get("repl.snapshot_pushes") == snapshots_before + 1) {
          uint64_t store_bytes = kManifestWireBytes;
          p->ds->ForEachItem([&store_bytes](const datastore::Item& it,
                                            uint64_t) {
            store_bytes += WireBytes(it);
          });
          EXPECT_EQ(counters.Get("repl.push_bytes") - bytes_before,
                    store_bytes)
              << step;
          ++snapshots_checked;
        }
        pushed.emplace_back(p.get(), fresh);
      }
      c.RunFor(100 * sim::kMillisecond);
      for (const auto& [owner, fresh] : pushed) {
        if (owner->ds->mutation_epoch() != fresh.version) continue;
        auto succ = owner->ring->GetSuccRelaxed();
        if (!succ.has_value() || succ->id == owner->id()) continue;
        PeerStack* holder = c.FindPeer(succ->id);
        ASSERT_NE(holder, nullptr);
        auto it = holder->repl->groups().find(owner->id());
        ASSERT_NE(it, holder->repl->groups().end()) << step;
        EXPECT_EQ(it->second.manifest(), fresh) << step;
        EXPECT_EQ(BuildManifest(it->second.epochs, it->second.version), fresh)
            << step;
        ++shipped_checked;
      }
    };

    // Overflow past 2*sf: the owner splits, handing a prefix to the free
    // peer (DropItem on the owner, Activate on the recruit).
    for (Key k = 500000; k < 500000 + 12 * 7919; k += 7919) {
      ASSERT_TRUE(c.InsertItem(k, "split-me").ok());
    }
    c.RunFor(2 * sim::kSecond);
    ASSERT_GE(c.LiveMembers().size(), 2u) << "no split happened";
    push_and_check("split");
    for (Key k = 1000; k <= 6000; k += 1000) {
      ASSERT_TRUE(c.InsertItem(k, "v1").ok());
    }
    push_and_check("inserts");
    // Overwrites of existing keys, with payloads of a different size.
    ASSERT_TRUE(c.InsertItem(2000, "a much longer second version").ok());
    ASSERT_TRUE(c.InsertItem(4000, "").ok());
    push_and_check("overwrites");
    ASSERT_TRUE(c.DeleteItem(3000).ok());
    ASSERT_TRUE(c.DeleteItem(5000).ok());
    push_and_check("deletes");

    // A peer reused: Deactivate empties the store (every key becomes a
    // delete for the next delta), Activate refills it with fresh epochs —
    // one key kept, one changed, one new.
    const RingRange range = first->ds->range();
    std::vector<datastore::Item> before = first->ds->GetLocalItems();
    ASSERT_GE(before.size(), 2u);
    first->ds->Deactivate();
    EXPECT_EQ(first->repl->OwnManifest(),
              BuildManifest({}, first->ds->mutation_epoch()));
    datastore::SplitHandoff handoff;
    handoff.range = range;
    handoff.items = {before[0], before[1]};
    handoff.items[1].data = "changed across the reuse";
    datastore::Item fresh_item;
    fresh_item.skv = before[1].skv + 1;
    fresh_item.data = "new";
    if (range.Contains(fresh_item.skv)) handoff.items.push_back(fresh_item);
    first->ds->ActivateFromHandoff(handoff);
    push_and_check("reuse");
    ASSERT_TRUE(c.InsertItem(before[0].skv, "after reuse").ok());
    push_and_check("overwrite after reuse");

    EXPECT_GT(snapshots_checked, 0u);
    EXPECT_GT(shipped_checked, 5u);
    // Every delta that reached a holder at its base verified end to end: a
    // mismatch would mean the dirty set missed a mutation (the snapshot
    // repair that follows would hide it from the checks above).
    EXPECT_EQ(counters.Get("repl.manifest_mismatches"), 0u);
    if (delta_pushes) {
      EXPECT_GT(counters.Get("repl.delta_pushes"), 0u);
    }
  }
}

// The push-delivery audit: in a crash-free run (graceful departures only),
// every ReplicaPushMsg / ReplicaDeltaMsg hop is eventually acked or counted
// as an attempt timeout, and nothing stays outstanding after a quiesce.
TEST(ReplicationDeltaTest, EveryPushHopIsAckedOrCounted) {
  Cluster c(TestOptions(21, 3));
  c.Bootstrap(kKeySpan);
  for (int i = 0; i < 20; ++i) c.AddFreePeer();
  c.RunFor(sim::kSecond);
  sim::Rng rng(55);
  std::vector<Key> live;
  for (int op = 0; op < 150; ++op) {
    if (live.empty() || rng.Uniform(0, 9) < 7) {
      Key k = rng.Uniform(0, kKeySpan);
      if (c.InsertItem(k).ok()) live.push_back(k);
    } else {
      size_t at = rng.Uniform(0, live.size() - 1);
      (void)c.DeleteItem(live[at]);
      live.erase(live.begin() + static_cast<long>(at));
    }
    // A trickle of graceful departures keeps takeover/extra-hop pushes in
    // the mix without ever crashing a sender mid-push.
    if (op % 40 == 39) {
      auto members = c.LiveMembers();
      if (members.size() > 6) c.DepartPeer(members[members.size() / 2]);
    }
  }
  c.RunFor(6 * sim::kSecond);

  const auto& counters = c.metrics().counters();
  const uint64_t sent = counters.Get("repl.push_msgs");
  const uint64_t acked = counters.Get("repl.push_acked");
  const uint64_t attempt_timeouts = counters.Get("repl.push_attempt_timeouts");
  ASSERT_GT(sent, 0u);
  EXPECT_EQ(sent, acked + attempt_timeouts)
      << "push hops unaccounted for (sent=" << sent << " acked=" << acked
      << " timeouts=" << attempt_timeouts << ")";
  size_t outstanding = 0;
  for (const auto& p : c.peers()) outstanding += p->repl->outstanding_pushes();
  EXPECT_EQ(outstanding, 0u);
  // Final drops are a subset of attempt timeouts.
  EXPECT_LE(counters.Get("repl.push_timeouts"), attempt_timeouts);
}

// What the deltas are for: steady refreshes re-send almost nothing.
TEST(ReplicationDeltaTest, DeltasCutPushBytesAgainstSnapshots) {
  Cluster c(TestOptions(31, 3));
  c.Bootstrap(kKeySpan);
  for (int i = 0; i < 10; ++i) c.AddFreePeer();
  c.RunFor(sim::kSecond);
  sim::Rng rng(77);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(c.InsertItem(rng.Uniform(0, kKeySpan), "payload-payload").ok());
  }
  // Many refresh periods with no further mutation: every refresh would have
  // re-sent the full snapshot; deltas send manifests.
  c.RunFor(10 * sim::kSecond);

  const auto& counters = c.metrics().counters();
  const uint64_t saved = counters.Get("repl.bytes_saved");
  const uint64_t sent = counters.Get("repl.push_bytes");
  ASSERT_GT(saved + sent, 0u);
  EXPECT_GT(counters.Get("repl.delta_pushes"),
            counters.Get("repl.snapshot_pushes"));
  // The acceptance bar: at least half the snapshot-only bytes saved.
  EXPECT_GE(saved * 2, saved + sent)
      << "delta pushes saved " << saved << " of " << (saved + sent)
      << " snapshot-equivalent bytes";
}

}  // namespace
}  // namespace pepper::workload
