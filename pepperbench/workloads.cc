// Workload definitions and the seeded input schedule.
#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include "bench.h"

namespace pepperbench {

uint64_t Gen::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Gen::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

double Gen::Exp(double mean) { return -mean * std::log1p(-Unit()); }

Key Gen::Uniform(Key lo, Key hi) { return lo + Next() % (hi - lo + 1); }

namespace {

// Paged B+-tree store of `scan` and `ingest`; every page fault costs
// simulated I/O time.
void UsePagedStore(WorkloadSpec* s, size_t storage_factor, size_t pool_pages) {
  s->cluster.ds.storage_factor = storage_factor;
  s->cluster.ds.store.backend = pepper::store::StoreBackend::kPaged;
  s->cluster.ds.store.buffer_pool_pages = pool_pages;
  s->cluster.ds.store.page_io_latency = 100;  // µs per fault / write-back
}

}  // namespace

bool MakeWorkload(const std::string& name, bool tiny, WorkloadSpec* spec) {
  WorkloadSpec s;
  // Paper Section 6.1 defaults: sf 5, successor list 4, stabilization every
  // 4 s, replication factor 6, on the default single-threaded engine.
  s.cluster = pepper::workload::ClusterOptions::PaperDefaults();
  s.settle = 30 * kSecond;
  s.drain_limit = 120 * kSecond;
  if (name == "churn") {
    // Stationary failure-mode churn on the in-memory store: inserts balanced
    // by deletes, crashes and departures balanced by free-peer arrivals.
    // About 10% of operations wait out ~5 s lookup timeouts, so the p99s
    // sit on a 5 s ladder; these rates put both p99s mid-step, where they
    // repeat across seeds (design.json, known_defects).
    s.initial_items = 1000;
    s.initial_free_peers = 200;
    s.duration = 3000 * kSecond;
    s.insert_rate = 2.0;
    s.delete_rate = 2.0;
    s.query_rate = 2.0;
    s.crash_rate = 0.017;
    s.depart_rate = 0.017;
    s.arrival_rate = 0.034;
    s.balanced = true;
    s.narrow_width = 10000000;  // one or two arcs
    // Its maintenance traffic is large: trace 1 in 2 root operations.
    s.trace_sample_every = 2;
  } else if (name == "scan") {
    // Read-dominated, stable membership: Zipf-skewed range queries, most
    // narrow (one peer), 35% wide (about ten peers), over arcs several times
    // larger than the per-peer buffer pool.
    UsePagedStore(&s, 320, 8);
    s.initial_items = 12000;
    s.initial_free_peers = 40;
    s.duration = 120 * kSecond;
    s.insert_rate = 10.0;
    s.delete_rate = 10.0;
    s.query_rate = 15.0;
    s.balanced = true;
    s.wide_share = 0.35;
    s.narrow_width = 5000000;
    s.wide_width = 300000000;
    s.zipf_theta = 0.8;
  } else if (name == "ingest") {
    // Insert-dominated growth: the item count grows about 3.5-fold, so
    // splits and redistributes run throughout; the pool holds every page of
    // a peer.  Queries are narrow so few of them wait behind a split.
    UsePagedStore(&s, 100, 256);
    s.initial_items = 2000;
    s.initial_free_peers = 40;
    s.duration = 200 * kSecond;
    s.insert_rate = 30.0;
    s.delete_rate = 4.0;
    s.query_rate = 10.0;
    s.arrival_rate = 0.35;
    s.narrow_width = 2000000;
  } else {
    return false;
  }
  if (tiny) {
    s.initial_items = std::max<size_t>(s.initial_items / 10, 40);
    s.initial_free_peers = std::min<size_t>(s.initial_free_peers, 8);
    s.duration = 30 * kSecond;
    s.settle = 10 * kSecond;
    s.delete_min_age = 5 * kSecond;
    s.min_members = 4;
  }
  *spec = s;
  return true;
}

namespace {

// Poisson arrival instants in [0, duration) for one stream.
std::vector<SimTime> Arrivals(double rate, SimTime duration, Gen gen) {
  std::vector<SimTime> out;
  if (rate <= 0) return out;
  double t = 0;
  for (;;) {
    t += gen.Exp(1e6 / rate);
    if (t >= static_cast<double>(duration)) return out;
    out.push_back(static_cast<SimTime>(t));
  }
}

// Query start keys: Zipf(theta) over scattered fixed-width buckets (the
// skew lands on a few hot arcs, not on one end of the key space).
class QueryStarts {
 public:
  QueryStarts(const WorkloadSpec& spec, Gen* gen) : spec_(spec), gen_(gen) {
    if (spec.zipf_theta <= 0) return;
    double total = 0;
    cdf_.reserve(kBuckets);
    for (size_t r = 0; r < kBuckets; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_theta);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  Key Next() {
    if (cdf_.empty()) return gen_->Uniform(1, spec_.key_max);
    const double u = gen_->Unit();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    const Key width = spec_.key_max / kBuckets;
    const Key bucket = (static_cast<Key>(std::min(rank, kBuckets - 1)) *
                        2654435761ULL) % kBuckets;
    return 1 + bucket * width + gen_->Uniform(0, width - 1);
  }

 private:
  static constexpr size_t kBuckets = 1000;
  const WorkloadSpec& spec_;
  Gen* gen_;
  std::vector<double> cdf_;
};

}  // namespace

Schedule MakeSchedule(const WorkloadSpec& spec, uint64_t seed) {
  Gen root(seed ^ 0x7065707065726265ULL);
  Schedule out;
  Gen keys(root.Next());
  std::set<Key> used;
  auto fresh_key = [&]() {
    for (;;) {
      const Key k = keys.Uniform(1, spec.key_max);
      if (used.insert(k).second) return k;
    }
  };
  out.initial_keys.reserve(spec.initial_items);
  for (size_t i = 0; i < spec.initial_items; ++i) {
    out.initial_keys.push_back(fresh_key());
  }

  // Independent Poisson streams merged in time order; a stream with several
  // types cycles through them.
  std::vector<std::pair<std::vector<OpType>, double>> streams;
  if (spec.balanced) {
    streams.push_back({{OpType::kInsert, OpType::kDelete},
                       spec.insert_rate + spec.delete_rate});
    streams.push_back({{OpType::kCrash, OpType::kArrive, OpType::kDepart,
                        OpType::kArrive},
                       spec.crash_rate + spec.depart_rate + spec.arrival_rate});
  } else {
    streams.push_back({{OpType::kInsert}, spec.insert_rate});
    streams.push_back({{OpType::kDelete}, spec.delete_rate});
    streams.push_back({{OpType::kCrash}, spec.crash_rate});
    streams.push_back({{OpType::kDepart}, spec.depart_rate});
    streams.push_back({{OpType::kArrive}, spec.arrival_rate});
  }
  streams.push_back({{OpType::kQuery}, spec.query_rate});
  for (const auto& [types, rate] : streams) {
    size_t n = 0;
    for (SimTime at : Arrivals(rate, spec.duration, Gen(root.Next()))) {
      Event e;
      e.at = at;
      e.type = types[n++ % types.size()];
      out.events.push_back(e);
    }
  }
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const Event& a, const Event& b) {
                     return std::tie(a.at, a.type) < std::tie(b.at, b.type);
                   });

  // Keys in time order: a delete picks uniformly among the initial items and
  // the inserts that arrived at least delete_min_age earlier.
  Gen picks(root.Next());
  Gen shapes(root.Next());
  QueryStarts starts(spec, &shapes);
  std::vector<Key> deletable = out.initial_keys;
  std::vector<std::pair<SimTime, Key>> inserted;
  size_t matured = 0;
  for (Event& e : out.events) {
    e.pick = picks.Unit();
    switch (e.type) {
      case OpType::kInsert:
        e.key = fresh_key();
        inserted.emplace_back(e.at, e.key);
        break;
      case OpType::kDelete: {
        while (matured < inserted.size() &&
               inserted[matured].first + spec.delete_min_age <= e.at) {
          deletable.push_back(inserted[matured++].second);
        }
        if (deletable.empty()) break;
        const size_t i = picks.Next() % deletable.size();
        e.key = deletable[i];
        deletable[i] = deletable.back();
        deletable.pop_back();
        break;
      }
      case OpType::kQuery: {
        const bool wide = shapes.Unit() < spec.wide_share;
        const Key width = wide ? spec.wide_width : spec.narrow_width;
        e.key = starts.Next();
        e.hi = std::min(spec.key_max, e.key + width - 1);
        break;
      }
      default:
        break;
    }
  }
  // A delete with nothing to target is dropped from the schedule.
  out.events.erase(std::remove_if(out.events.begin(), out.events.end(),
                                  [](const Event& e) {
                                    return e.type == OpType::kDelete &&
                                           e.key == 0;
                                  }),
                   out.events.end());
  return out;
}

}  // namespace pepperbench
