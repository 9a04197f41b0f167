// One run of a workload: set up the cluster, replay the seeded schedule
// open-loop in simulated time, drain, and enforce the correctness gates.
#include <chrono>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "bench.h"

namespace pepperbench {

namespace {

using pepper::Span;
using pepper::Status;
using pepper::datastore::Item;
using pepper::workload::Cluster;
using pepper::workload::PeerStack;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// Flight-recorder size for traced runs: large enough that the measured
// phase of every workload fits without wraparound.
constexpr size_t kTraceCapacity = size_t{1} << 22;

// FNV-1a over 64-bit words: the replay digest.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  void Add(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ULL;
    }
    Add(s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

// Same rule as the cluster's synchronous drivers: a peer can initiate an
// index operation while it is alive and in (or leaving) the ring.
bool Usable(const PeerStack* p) {
  if (p == nullptr || !p->ring->alive()) return false;
  const pepper::ring::PeerState s = p->ring->state();
  return s == pepper::ring::PeerState::kJoined ||
         s == pepper::ring::PeerState::kInserting ||
         s == pepper::ring::PeerState::kLeaving;
}

enum class OpState : uint8_t { kPending, kOk, kFailed };

struct Op {
  OpType type = OpType::kInsert;
  Key key = 0;
  Key hi = 0;
  double pick = 0;
  SimTime arrival = 0;
  SimTime attempt_start = 0;
  SimTime done = 0;
  PeerStack* via = nullptr;
  uint32_t attempt = 0;
  uint32_t items = 0;
  OpState state = OpState::kPending;
  bool reissued = false;
};

// Closes a host span at scope exit.
class SpanScope {
 public:
  SpanScope(HostSpans* spans, const char* name)
      : spans_(spans), id_(spans->Open(name)) {}
  ~SpanScope() { spans_->Close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  HostSpans* spans_;
  int id_;
};

class Driver {
 public:
  Driver(const WorkloadSpec& spec, uint64_t seed, const RunOptions& options)
      : spec_(spec), seed_(seed), options_(options),
        schedule_(MakeSchedule(spec, seed)) {
    result_.spans = HostSpans(options.trace);
  }

  RunResult Run() {
    const int run = result_.spans.Open("run");
    Setup();
    if (result_.violations.empty() && !options_.setup_only) {
      Measure();
      Drain();
      Gates();
      Collect();
    }
    result_.spans.Close(run);
    return std::move(result_);
  }

 private:
  pepper::sim::Simulator& Sim() { return cluster_->sim(); }
  SimTime Now() { return cluster_->sim().now(); }

  void Violation(const std::string& what) { result_.violations.push_back(what); }

  void RunUntil(SimTime t) {
    SpanScope span(&result_.spans, "sim.run_for");
    Sim().RunUntil(t);
  }

  void Setup() {
    SpanScope span(&result_.spans, "setup");
    const auto start = Clock::now();
    {
      SpanScope build(&result_.spans, "setup.cluster");
      pepper::workload::ClusterOptions opts = spec_.cluster;
      opts.seed = Gen(seed_ ^ 0x636c7573746572ULL).Next();
      opts.trace = options_.trace;
      opts.trace_ring_capacity = kTraceCapacity;
      opts.trace_sample_every = spec_.trace_sample_every;
      cluster_ = std::make_unique<Cluster>(opts);
      cluster_->Bootstrap(spec_.key_max);
      for (size_t i = 0; i < spec_.initial_free_peers; ++i) {
        cluster_->AddFreePeer();
      }
      RunUntil(Now() + kSecond);
    }
    {
      // Load the initial items one at a time; the ring grows by splits.
      SpanScope load(&result_.spans, "setup.load");
      for (Key k : schedule_.initial_keys) {
        SpanScope insert(&result_.spans, "index.insert_sync");
        const Status st = cluster_->InsertItem(k);
        if (!st.ok()) {
          Violation("setup: insert of key " + std::to_string(k) +
                    " failed: " + st.ToString());
          return;
        }
      }
    }
    RunUntil(Now() + spec_.settle);
    result_.setup_s = SecondsSince(start);
  }

  void Measure() {
    SpanScope span(&result_.spans, "measure");
    auto& counters = cluster_->metrics().counters();
    const auto before = counters.Snapshot();
    const pepper::Histogram* hops = cluster_->metrics().FindLatency("router.hops");
    const pepper::Histogram hops_before =
        hops != nullptr ? *hops : pepper::Histogram();
    const uint64_t msgs_before = Sim().network().messages_sent();
    const uint64_t events_before = Sim().events_executed();
    if (options_.trace) {
      // Restart the flight recorder so it holds the measured phase only.
      Sim().EnableTracing(kTraceCapacity, spec_.trace_sample_every);
    }
    result_.members_start = cluster_->LiveMembers().size();
    result_.items_start = cluster_->TotalStoredItems();
    t0_ = Now();
    ops_.reserve(schedule_.events.size());
    audit_s_ = 0;
    const auto start = Clock::now();
    for (const Event& e : schedule_.events) {
      RunUntil(t0_ + e.at);
      Reissue();
      switch (e.type) {
        case OpType::kInsert:
        case OpType::kDelete:
        case OpType::kQuery:
          Issue(e);
          break;
        case OpType::kCrash:
        case OpType::kDepart: {
          const auto members = cluster_->LiveMembers();
          if (members.size() <= spec_.min_members) break;
          PeerStack* victim = members[static_cast<size_t>(
              e.pick * static_cast<double>(members.size()))];
          SpanScope call(&result_.spans, e.type == OpType::kCrash
                                             ? "cluster.fail_peer"
                                             : "cluster.depart_peer");
          if (e.type == OpType::kCrash) {
            cluster_->FailPeer(victim);
          } else {
            cluster_->DepartPeer(victim);
          }
          break;
        }
        case OpType::kArrive: {
          SpanScope call(&result_.spans, "cluster.add_free_peer");
          cluster_->AddFreePeer();
          break;
        }
      }
      // Each call from the benchmark is its own root in the causal trace.
      pepper::trace::Tracer::Clear();
    }
    RunUntil(t0_ + spec_.duration);
    result_.wall_s = SecondsSince(start) - audit_s_;
    result_.members_end = cluster_->LiveMembers().size();
    result_.items_end = cluster_->TotalStoredItems();
    result_.duration = spec_.duration;
    result_.net_msgs = Sim().network().messages_sent() - msgs_before;
    result_.events = Sim().events_executed() - events_before;
    std::map<std::string, uint64_t> base(before.begin(), before.end());
    for (const auto& [name, value] : counters.Snapshot()) {
      result_.counters[name] = value - base[name];
    }
    hops = cluster_->metrics().FindLatency("router.hops");
    if (hops != nullptr) {
      const pepper::Histogram d = hops->DeltaSince(hops_before);
      result_.hops_mean = d.count() > 0 ? d.mean() : 0;
      result_.hops_p99 = d.count() > 0 ? d.Percentile(0.99) : 0;
    }
    if (options_.trace) {
      result_.fold = FoldTrace(Sim().tracer(), t0_, t0_ + spec_.duration);
    }
  }

  PeerStack* Pick(double u) {
    const auto members = cluster_->LiveMembers();
    if (members.empty()) return nullptr;
    return members[static_cast<size_t>(u * static_cast<double>(members.size()))];
  }

  void Issue(const Event& e) {
    Op op;
    op.type = e.type;
    op.key = e.key;
    op.hi = e.hi;
    op.pick = e.pick;
    op.arrival = Now();
    ops_.push_back(op);
    pending_.push_back(ops_.size() - 1);
    Attempt(ops_.size() - 1);
  }

  // (Re)issues op `i` through a live member; latency still runs from the
  // original arrival.
  void Attempt(size_t i) {
    Op& op = ops_[i];
    op.via = Pick(op.pick);
    const uint32_t attempt = ++op.attempt;
    op.attempt_start = Now();
    if (op.via == nullptr) {
      op.state = OpState::kFailed;
      op.done = Now();
      return;
    }
    pepper::index::P2PIndex& index = *op.via->index;
    switch (op.type) {
      case OpType::kInsert: {
        SpanScope call(&result_.spans, "index.insert");
        Item item;
        item.skv = op.key;
        item.data = "v";
        index.InsertItem(item, [this, i, attempt](const Status& s) {
          Finish(i, attempt, s);
        });
        break;
      }
      case OpType::kDelete: {
        SpanScope call(&result_.spans, "index.delete");
        index.DeleteItem(op.key, [this, i, attempt](const Status& s) {
          Finish(i, attempt, s);
        });
        break;
      }
      case OpType::kQuery: {
        SpanScope call(&result_.spans, "index.range_query");
        index.RangeQuery(Span{op.key, op.hi},
                         [this, i, attempt](const Status& s,
                                            std::vector<Item> items) {
                           FinishQuery(i, attempt, s, std::move(items));
                         });
        break;
      }
      default:
        break;
    }
    pepper::trace::Tracer::Clear();
  }

  // A client whose initiating peer crashed or left re-issues the operation
  // elsewhere (inserts are idempotent; deletes treat NotFound as done).
  void Reissue() {
    size_t kept = 0;
    for (size_t r = 0; r < pending_.size(); ++r) {
      const size_t i = pending_[r];
      if (ops_[i].state != OpState::kPending) continue;
      pending_[kept++] = i;
      if (!Usable(ops_[i].via)) {
        ops_[i].reissued = true;
        Attempt(i);
      }
    }
    pending_.resize(kept);
  }

  void Finish(size_t i, uint32_t attempt, Status s) {
    Op& op = ops_[i];
    if (op.state != OpState::kPending || attempt != op.attempt) return;
    if (op.type == OpType::kDelete && op.reissued && s.IsNotFound()) {
      s = Status::OK();  // the first attempt applied before its peer left
    }
    op.done = Now();
    op.state = s.ok() ? OpState::kOk : OpState::kFailed;
    if (op.type == OpType::kInsert && s.ok()) {
      cluster_->oracle().RegisterInsert(op.key);
    }
    // A failed delete may still have been applied, so its item is out of
    // the Definition 7 claim either way.
    if (op.type == OpType::kDelete) cluster_->oracle().RegisterDelete(op.key);
  }

  void FinishQuery(size_t i, uint32_t attempt, const Status& s,
                   std::vector<Item> items) {
    Op& op = ops_[i];
    if (op.state != OpState::kPending || attempt != op.attempt) return;
    op.done = Now();
    if (!s.ok()) {
      op.state = OpState::kFailed;  // an incomplete result claims nothing
      return;
    }
    op.state = OpState::kOk;
    std::vector<Key> keys;
    keys.reserve(items.size());
    for (const Item& it : items) keys.push_back(it.skv);
    const auto& oracle = cluster_->oracle();
    if (options_.inject_drop && !injected_) {
      for (auto it = keys.begin(); it != keys.end(); ++it) {
        if (oracle.LiveThroughout(*it, op.attempt_start, op.done)) {
          keys.erase(it);
          injected_ = true;
          break;
        }
      }
    }
    op.items = static_cast<uint32_t>(keys.size());
    SpanScope span(&result_.spans, "history.check_query");
    const auto start = Clock::now();
    const auto audit =
        oracle.CheckQuery(Span{op.key, op.hi}, op.attempt_start, op.done, keys);
    audit_s_ += SecondsSince(start);
    if (!audit.correct) {
      std::ostringstream os;
      os << "Definition 4: query [" << op.key << ", " << op.hi << "] at t="
         << op.attempt_start << "us missed " << audit.missing.size()
         << " live item(s)";
      if (!audit.missing.empty()) os << " (first " << audit.missing[0] << ")";
      os << " and returned " << audit.unexpected.size() << " unexpected";
      if (!audit.unexpected.empty()) {
        os << " (first " << audit.unexpected[0] << ")";
      }
      Violation(os.str());
    }
  }

  // In-flight operations get drain_limit to finish, and the ring at least
  // `settle` to revive the arcs of the last crashes before the audits.
  void Drain() {
    SpanScope span(&result_.spans, "drain");
    const SimTime start = Now();
    auto busy = [&]() {
      for (size_t i : pending_) {
        if (ops_[i].state == OpState::kPending) return true;
      }
      return false;
    };
    while (Now() < start + spec_.drain_limit &&
           (Now() < start + spec_.settle || busy())) {
      RunUntil(Now() + 100 * kMillisecond);
      Reissue();
    }
    for (Op& op : ops_) {
      if (op.state != OpState::kPending) continue;
      op.state = OpState::kFailed;
      if (op.type == OpType::kDelete) cluster_->oracle().RegisterDelete(op.key);
    }
  }

  void Gates() {
    SpanScope span(&result_.spans, "history.gates");
    const auto start = Clock::now();
    {
      // Definition 7: no inserted, undeleted item is lost.
      const auto avail = cluster_->AuditAvailability();
      if (!avail.ok) {
        Violation("Definition 7: " + std::to_string(avail.lost.size()) +
                  " item(s) lost, first key " + std::to_string(avail.lost[0]));
      }
    }
    {
      // Conservation: every stored item inside its holder's range, held
      // once; every acknowledged item present, every deleted one absent.
      std::set<Key> stored;
      for (const auto& p : cluster_->peers()) {
        if (!p->ring->alive() || !p->ds->active()) continue;
        p->ds->ForEachItem([&](const Item& item, uint64_t) {
          if (!p->ds->range().Contains(item.skv)) {
            Violation("conservation: peer " + std::to_string(p->id()) +
                      " holds out-of-range key " + std::to_string(item.skv));
          }
          if (!stored.insert(item.skv).second) {
            Violation("conservation: key " + std::to_string(item.skv) +
                      " held twice");
          }
        });
      }
      std::set<Key> present(schedule_.initial_keys.begin(),
                            schedule_.initial_keys.end());
      std::set<Key> absent;
      for (const Op& op : ops_) {
        if (op.type == OpType::kInsert && op.state == OpState::kOk) {
          present.insert(op.key);
        }
        if (op.type == OpType::kDelete) {
          present.erase(op.key);
          if (op.state == OpState::kOk) absent.insert(op.key);
        }
      }
      for (Key k : present) {
        if (stored.count(k) == 0) {
          Violation("conservation: acknowledged key " + std::to_string(k) +
                    " is not stored");
        }
      }
      // A deleted item that a later takeover or re-home stored again is
      // live by Definition 3, so no gate covers it; it is counted instead.
      for (Key k : absent) result_.resurrected += stored.count(k);
    }
    {
      const auto ring = cluster_->AuditRing();
      if (!ring.consistent || !ring.connected) {
        Violation(std::string("ring audit: consistent=") +
                  (ring.consistent ? "yes" : "no") +
                  " connected=" + (ring.connected ? "yes" : "no") +
                  (ring.violations.empty() ? "" : ": " + ring.violations[0]));
      }
    }
    result_.audit_s = audit_s_ + SecondsSince(start);
  }

  void Collect() {
    Digest digest;
    uint64_t items = 0;
    uint64_t queries = 0;
    for (const Op& op : ops_) {
      ++result_.attempted;
      if (op.state != OpState::kOk) ++result_.failed;
      const double ms =
          static_cast<double>(op.done - op.arrival) / kMillisecond;
      if (op.state == OpState::kOk && op.type == OpType::kInsert) {
        result_.insert_ms.push_back(ms);
      }
      if (op.state == OpState::kOk && op.type == OpType::kQuery) {
        result_.query_ms.push_back(ms);
        items += op.items;
        ++queries;
      }
      digest.Add(static_cast<uint64_t>(op.type));
      digest.Add(op.key);
      digest.Add(op.hi);
      digest.Add(op.arrival);
      digest.Add(op.done);
      digest.Add(static_cast<uint64_t>(op.state));
      digest.Add(op.items);
    }
    result_.query_items_mean =
        queries > 0 ? static_cast<double>(items) / static_cast<double>(queries)
                    : 0;
    for (const auto& [name, value] : cluster_->metrics().counters().Snapshot()) {
      digest.Add(name);
      digest.Add(value);
    }
    digest.Add(Sim().network().messages_sent());
    result_.digest = digest.value();
  }

  const WorkloadSpec& spec_;
  uint64_t seed_;
  RunOptions options_;
  Schedule schedule_;
  RunResult result_;
  std::vector<Op> ops_;  // reserved up front: callbacks index into it
  std::vector<size_t> pending_;
  bool injected_ = false;
  double audit_s_ = 0;
  SimTime t0_ = 0;
  // Declared last so it is destroyed first, with the callbacks it holds.
  std::unique_ptr<Cluster> cluster_;
};

}  // namespace

RunResult RunOnce(const WorkloadSpec& spec, uint64_t seed,
                  const RunOptions& options) {
  return Driver(spec, seed, options).Run();
}

}  // namespace pepperbench
