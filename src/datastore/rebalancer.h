#ifndef PEPPER_DATASTORE_REBALANCER_H_
#define PEPPER_DATASTORE_REBALANCER_H_

#include <optional>
#include <vector>

#include "common/key_space.h"
#include "common/stats.h"
#include "common/status.h"
#include "datastore/ds_messages.h"
#include "datastore/item.h"
#include "sim/component.h"

namespace pepper::datastore {

class DataStoreNode;

// The storage-balance engine (Section 2.3 with the availability-preserving
// departure of Section 5): a periodic local check splits an overflowing peer
// (> 2*sf items) with a recruited free peer and resolves an underflowing one
// (< sf items) by proposing a merge to its successor, which answers with a
// redistribution (both end near total/2) or a full takeover (the proposer
// replicates one extra hop, leaves the ring consistently, and transfers its
// range and items).  The check also triggers the last-resort replica revive
// sweep for items whose owner is confirmed dead.
//
// State machine guards: `rebalancing_` marks an operation this peer
// initiated (item traffic bounces while set); `merge_busy_` marks the
// successor side of a proposed takeover, which holds the write lock until
// the leaver's transfer arrives, aborts, or times out (epoch-guarded).
//
// Dormant check.  The periodic check sleeps while it has nothing to do and
// is woken by the events that can give it work, so a settled member runs
// no tick at all.  A tick pauses the timer only when it got past the
// active/rebalancing_/merge_busy_ gate, the item count is in [sf, 2*sf] (or
// the range is full), and the revive probe is not due.  The probe —
// AnyReplicaIn(range, !HasItem) — stops being due only when a tick ran it
// without the write lock held and it came back false; its inputs are the
// range, the item set and the held replica groups, so it is re-armed
// (`probe_due_`) by every event that can turn its answer to true.  Wake
// sources, each resuming the timer on its original grid (so a woken tick
// fires where the always-on timer would have):
//   - the store grew above 2*sf (OnOverflow, from StoreItem);
//   - a stored key was dropped, the range changed, or the store was
//     activated (OnProbeInputChanged; a drop also covers underflow);
//   - a replica group gained a key inside the range (OnProbeInputChanged,
//     from the replication holder side);
//   - rebalancing_ or merge_busy_ was set, so a sleeping check always
//     means an idle peer.
// Wake checks must never read the item store: on the paged backend a
// lookup touches the buffer pool, so a wake check that called HasItem
// would move the schedule it is meant to leave alone.  They look only at
// the count, the range and the replica key being added.
class Rebalancer : public sim::ProtocolComponent {
 public:
  explicit Rebalancer(DataStoreNode* ds);

  // Triggers the overflow/underflow check now (also runs periodically
  // while work may be due; see the class comment).  True when it found
  // nothing to do and nothing can become due before the next wake.
  bool MaybeRebalance();

  // The data store was activated / deactivated: the periodic check only has
  // work on an active store, so its timer sleeps in between.
  void OnActiveChanged(bool active);

  // Wake sources of the sleeping check; O(1), and neither reads the store.
  // The item count rose above 2*sf.
  void OnOverflow();
  // An input of the revive probe changed: a stored key was dropped, the
  // range moved, or a replica group gained a key inside the range.
  void OnProbeInputChanged();

  // Forced graceful departure (scenario harness: MassLeave): the full
  // availability-preserving exit — replicate one extra hop, leave the ring
  // consistently, hand range and items to the successor — without waiting
  // for an underflow.  A peer already mid-reorganization ignores the
  // request (callers treat departure as best-effort).
  void RequestLeave();

  // Test/bench observability.
  bool rebalancing() const { return rebalancing_; }
  bool merge_busy() const { return merge_busy_; }
  bool maintenance_awake() const { return maintenance_timer_.running(); }

 private:
  // The periodic tick: the check, then sleep if it left nothing due.
  void MaintenanceTick();
  void StartSplit();
  // Continuation once the free-peer pool answers (possibly a window later
  // under the sharded simulator); re-validates before materializing.  The
  // trace op spans the whole reorganization and is threaded through every
  // continuation to its terminal outcome.
  void ContinueSplitWithPeer(std::optional<sim::NodeId> free_peer,
                             sim::SimTime started, const trace::OpToken& op);
  void FinishSplit(sim::NodeId free_peer, Key split_point,
                   std::vector<Item> handed, const Status& status,
                   const trace::OpToken& op);
  void StartUnderflow();
  void DoMergeLeave(sim::NodeId succ_id, const trace::OpToken& op);
  void EndRebalance(bool locked);
  // Runs the revive probe and starts a sweep on a hit; a clean probe clears
  // `probe_due_`.
  void MaybeStartReviveSweep();

  void HandleSplitInsert(const sim::Message& msg,
                         const SplitInsertRequest& req);
  void HandleMergeProposal(const sim::Message& msg, const MergeProposal& req);
  void HandleMergeTakeover(const sim::Message& msg, const MergeTakeover& req);
  void HandleMergeAbort(const sim::Message& msg, const MergeAbort& req);

  DataStoreNode* ds_;

  // Interned metric handles (valid only when the data store has a metrics
  // hub): reorganization outcomes fire under churn, where the string-keyed
  // lookups added up.
  Counters::Id m_revive_sweep_ = 0;
  Counters::Id m_split_no_free_peer_ = 0;
  Counters::Id m_split_failed_ = 0;
  Counters::Id m_splits_ = 0;
  Counters::Id m_redistributes_ = 0;
  Counters::Id m_merges_ = 0;
  Counters::Id m_merge_takeover_failed_ = 0;
  Counters::Id m_takeover_expired_ = 0;
  Counters::Id m_takeover_late_ = 0;
  Histogram* m_split_time_ = nullptr;
  Histogram* m_redistribute_time_ = nullptr;
  Histogram* m_merge_time_ = nullptr;

  bool rebalancing_ = false;
  bool merge_busy_ = false;  // successor side of a proposed merge
  uint64_t takeover_epoch_ = 0;  // guards stale takeover-expiry timers
  sim::NodeId takeover_from_ = sim::kNullNode;
  // The revive probe may find a missing replica (see the class comment).
  bool probe_due_ = true;
  sim::PeriodicTimer maintenance_timer_{this, [this]() { MaintenanceTick(); }};
};

}  // namespace pepper::datastore

#endif  // PEPPER_DATASTORE_REBALANCER_H_
