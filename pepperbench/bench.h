// Shared declarations of the PEPPER end-to-end benchmark.
//
// The benchmark drives a workload::Cluster only through public calls
// (Bootstrap / AddFreePeer / FailPeer / DepartPeer / RunFor / the audits,
// and each peer's index::P2PIndex).  Every input — keys, arrival instants,
// membership events, the cluster seed — comes from the benchmark's own
// generator, so a change inside the program cannot change what is offered.
#ifndef PEPPERBENCH_BENCH_H_
#define PEPPERBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/key_space.h"
#include "sim/message.h"
#include "workload/cluster.h"

namespace pepperbench {

using pepper::Key;
using pepper::sim::SimTime;
using pepper::sim::kMillisecond;
using pepper::sim::kSecond;

// splitmix64: the benchmark's private generator (the program's sim::Rng is
// deliberately not used, so editing it cannot shift the benchmark inputs).
class Gen {
 public:
  explicit Gen(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Unit();               // uniform in [0, 1)
  double Exp(double mean);     // exponential with the given mean
  Key Uniform(Key lo, Key hi);  // uniform in [lo, hi]

 private:
  uint64_t state_;
};

struct WorkloadSpec {
  pepper::workload::ClusterOptions cluster;
  Key key_max = 1000000000;  // keys are drawn from [1, key_max]
  size_t initial_free_peers = 0;
  size_t initial_items = 0;
  SimTime settle = 0;       // after loading, before the measured phase
  SimTime duration = 0;     // the measured phase
  SimTime drain_limit = 0;  // after it, for in-flight operations
  // Poisson arrival rates per simulated second.
  double insert_rate = 0;
  double delete_rate = 0;
  double query_rate = 0;
  double crash_rate = 0;
  double depart_rate = 0;
  double arrival_rate = 0;
  // Crashes and departures are skipped while the ring has this few members.
  size_t min_members = 8;
  // Balanced streams: inserts alternate with deletes in one Poisson stream,
  // and crashes and departures each alternate with a free-peer arrival, so
  // the item count and the membership do not drift by Poisson noise.
  bool balanced = false;
  // A delete targets an initial item or an insert that arrived at least
  // this long before it.
  SimTime delete_min_age = 20 * kSecond;
  // Query shape: `wide_share` of the queries span `wide_width` keys, the
  // rest `narrow_width`; starts are Zipf(theta) over key buckets when
  // theta > 0, uniform otherwise.
  double wide_share = 0;
  Key narrow_width = 0;
  Key wide_width = 0;
  double zipf_theta = 0;
  // Traced runs record 1 in this many root operations.
  uint64_t trace_sample_every = 1;
};

// False when `name` is not a workload.  `tiny` shrinks the sizes for the
// benchmark's own tests.
bool MakeWorkload(const std::string& name, bool tiny, WorkloadSpec* spec);

enum class OpType : uint8_t { kInsert, kDelete, kQuery, kCrash, kDepart, kArrive };

struct Event {
  SimTime at = 0;  // offset from the start of the measured phase
  OpType type = OpType::kInsert;
  Key key = 0;  // insert / delete key, query lower bound
  Key hi = 0;   // query upper bound
  double pick = 0;  // uniform draw that picks the initiating or victim peer
};

struct Schedule {
  std::vector<Key> initial_keys;
  std::vector<Event> events;  // sorted by time
};
Schedule MakeSchedule(const WorkloadSpec& spec, uint64_t seed);

// Host-time spans around the benchmark's calls into the program; recorded
// only in traced runs, kept in memory and written out when the run ends.
class HostSpans {
 public:
  explicit HostSpans(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}
  // Opens a span under the innermost open one; returns its id (-1 when
  // disabled).
  int Open(const char* name);
  void Close(int id);
  // Total seconds of the spans named `name` nested (at any depth) under a
  // span named `under`.
  double Total(const char* name, const char* under) const;
  std::string Json() const;

 private:
  struct Span {
    const char* name;
    int parent;
    double start_s;
    double end_s;
  };
  double Now() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Simulated-time figures folded from the program's causal tracer.
struct TraceFold {
  uint64_t records = 0;
  uint64_t records_dropped = 0;
  double net_wait_sim_ms = 0;  // mean in-flight time of traced hops
  double ring_insert_p99_ms = 0;
  double ring_leave_p99_ms = 0;
  double ds_split_p99_ms = 0;
  double revive_round_p99_ms = 0;
  double query_peers_mean = 0;
  // Self time per protocol layer (index, router, ring, datastore,
  // replication): span time minus the time its descendant spans cover,
  // summed over operations (scaled up when roots are sampled).
  std::map<std::string, double> self_sim_s;
};

struct RunOptions {
  bool trace = false;
  // Gate self-test: drop one live item from the first completed query
  // result before it is audited.
  bool inject_drop = false;
  // Stop after set-up (extra set-up samples for the setup_s median).
  bool setup_only = false;
};

struct RunResult {
  std::vector<std::string> violations;
  double setup_s = 0;
  double wall_s = 0;  // measured phase, audit time excluded
  double audit_s = 0;  // host time in oracle and ring audits
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Ring members and stored items when the measured phase starts and ends.
  size_t members_start = 0;
  size_t members_end = 0;
  size_t items_start = 0;
  size_t items_end = 0;
  // Items deleted OK yet stored again at the end of the run.
  uint64_t resurrected = 0;
  std::vector<double> insert_ms;  // latency of each OK insert
  std::vector<double> query_ms;   // latency of each OK query
  double query_items_mean = 0;
  SimTime duration = 0;
  uint64_t net_msgs = 0;  // sent during the measured phase
  uint64_t events = 0;    // executed during the measured phase
  std::map<std::string, uint64_t> counters;  // measured-phase deltas
  double hops_mean = 0;
  double hops_p99 = 0;
  uint64_t digest = 0;
  TraceFold fold;  // traced runs only
  HostSpans spans{false};
};

RunResult RunOnce(const WorkloadSpec& spec, uint64_t seed,
                  const RunOptions& options);

// Folds the tracer's records of [from, to] into simulated-time figures;
// sums are scaled by the root sampling rate.
TraceFold FoldTrace(const pepper::trace::Tracer& tracer, SimTime from,
                    SimTime to);

}  // namespace pepperbench

#endif  // PEPPERBENCH_BENCH_H_
