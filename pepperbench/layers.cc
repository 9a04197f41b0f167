// Host spans and the fold of the program's causal trace into per-layer
// simulated-time figures.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <unordered_map>

#include "bench.h"

namespace pepperbench {

using pepper::trace::SpanRecord;

double HostSpans::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int HostSpans::Open(const char* name) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, parent, Now(), 0});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void HostSpans::Close(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_s = Now();
  // Spans close innermost first (they are scoped).
  while (!open_.empty() && open_.back() >= id) open_.pop_back();
}

double HostSpans::Total(const char* name, const char* under) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) != 0) continue;
    for (int p = s.parent; p >= 0; p = spans_[static_cast<size_t>(p)].parent) {
      if (std::strcmp(spans_[static_cast<size_t>(p)].name, under) == 0) {
        total += s.end_s - s.start_s;
        break;
      }
    }
  }
  return total;
}

std::string HostSpans::Json() const {
  std::ostringstream os;
  os.precision(9);
  os << "{\"unit\": \"s\", \"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "" : ",") << "\n{\"id\": " << i << ", \"name\": \""
       << s.name << "\", \"parent\": " << s.parent << ", \"start\": "
       << s.start_s << ", \"end\": " << s.end_s << "}";
  }
  os << "\n]}\n";
  return os.str();
}

namespace {

// The protocol layer of a traced operation, by its name prefix.
const char* LayerOf(const char* op_name) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"index.", "index"},   {"router.", "router"},
      {"ring.", "ring"},     {"ds.", "datastore"},
      {"repl.", "replication"}};
  for (const auto& [prefix, layer] : kLayers) {
    if (std::strncmp(op_name, prefix, std::strlen(prefix)) == 0) return layer;
  }
  return nullptr;
}

double P99Ms(std::vector<SimTime> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(0.99 * static_cast<double>(v.size())));
  return static_cast<double>(v[std::max<size_t>(rank, 1) - 1]) / kMillisecond;
}

}  // namespace

TraceFold FoldTrace(const pepper::trace::Tracer& tracer, SimTime from,
                    SimTime to) {
  TraceFold fold;
  fold.records_dropped = tracer.records_dropped();
  const std::vector<SpanRecord> recs = tracer.Merged();
  fold.records = recs.size();
  auto in_window = [&](const SpanRecord& r) {
    return r.end >= from && r.end <= to;
  };
  auto is_interval = [](const SpanRecord& r) {
    return r.kind == SpanRecord::Kind::kOpEnd ||
           r.kind == SpanRecord::Kind::kHop;
  };

  // (span id, record index) of every interval record, sorted for lookup.
  std::vector<std::pair<uint64_t, uint32_t>> by_span;
  for (uint32_t i = 0; i < recs.size(); ++i) {
    if (is_interval(recs[i])) by_span.emplace_back(recs[i].span_id, i);
  }
  std::sort(by_span.begin(), by_span.end());
  auto find = [&](uint64_t span) -> const SpanRecord* {
    const auto it = std::lower_bound(by_span.begin(), by_span.end(),
                                     std::make_pair(span, uint32_t{0}));
    return it != by_span.end() && it->first == span ? &recs[it->second]
                                                    : nullptr;
  };

  // Every interval record covers part of each traced operation above it;
  // collect (operation, covered interval) and take unions per operation.
  struct Cover {
    uint32_t op;
    SimTime lo;
    SimTime hi;
  };
  std::vector<Cover> covers;
  std::vector<SimTime> ring_insert, ring_leave, ds_split, revive_round;
  double hop_wait = 0;
  uint64_t hops = 0;
  // Distinct peers that streamed partial results to each traced query.
  std::unordered_map<uint64_t, std::set<uint64_t>> partial_senders;
  for (uint32_t i = 0; i < recs.size(); ++i) {
    const SpanRecord& r = recs[i];
    if (!is_interval(r)) continue;
    if (r.kind == SpanRecord::Kind::kHop && in_window(r)) {
      hop_wait += static_cast<double>(r.end - r.start);
      ++hops;
      if (std::strstr(r.name, "QueryPartial") != nullptr) {
        partial_senders[r.trace_id].insert(r.parent_span_id >> 40);
      }
    }
    if (r.kind == SpanRecord::Kind::kOpEnd && in_window(r)) {
      const SimTime d = r.end - r.start;
      if (std::strcmp(r.name, "ring.insert") == 0) ring_insert.push_back(d);
      if (std::strcmp(r.name, "ring.leave") == 0) ring_leave.push_back(d);
      if (std::strcmp(r.name, "ds.split") == 0) ds_split.push_back(d);
      if (std::strcmp(r.name, "repl.revive_round") == 0) {
        revive_round.push_back(d);
      }
    }
    uint64_t parent = r.parent_span_id;
    for (int depth = 0; parent != 0 && depth < 1024; ++depth) {
      const SpanRecord* a = find(parent);
      if (a == nullptr) break;
      if (a->kind == SpanRecord::Kind::kOpEnd && in_window(*a)) {
        const SimTime lo = std::max(r.start, a->start);
        const SimTime hi = std::min(r.end, a->end);
        if (lo < hi) {
          covers.push_back(Cover{static_cast<uint32_t>(a - recs.data()), lo, hi});
        }
      }
      parent = a->parent_span_id;
    }
  }
  fold.net_wait_sim_ms =
      hops > 0 ? hop_wait / static_cast<double>(hops) / kMillisecond : 0;
  fold.ring_insert_p99_ms = P99Ms(ring_insert);
  fold.ring_leave_p99_ms = P99Ms(ring_leave);
  fold.ds_split_p99_ms = P99Ms(ds_split);
  fold.revive_round_p99_ms = P99Ms(revive_round);

  std::sort(covers.begin(), covers.end(), [](const Cover& a, const Cover& b) {
    return a.op != b.op ? a.op < b.op : a.lo < b.lo;
  });
  std::unordered_map<uint32_t, SimTime> covered;
  for (size_t i = 0; i < covers.size();) {
    const uint32_t op = covers[i].op;
    SimTime total = 0;
    SimTime run_lo = covers[i].lo;
    SimTime run_hi = covers[i].hi;
    for (; i < covers.size() && covers[i].op == op; ++i) {
      if (covers[i].lo > run_hi) {
        total += run_hi - run_lo;
        run_lo = covers[i].lo;
      }
      run_hi = std::max(run_hi, covers[i].hi);
    }
    covered[op] = total + (run_hi - run_lo);
  }

  for (const char* layer :
       {"index", "router", "ring", "datastore", "replication"}) {
    fold.self_sim_s[layer] = 0;
  }
  uint64_t queries = 0;
  uint64_t query_peers = 0;
  for (uint32_t i = 0; i < recs.size(); ++i) {
    const SpanRecord& r = recs[i];
    if (r.kind != SpanRecord::Kind::kOpEnd || !in_window(r)) continue;
    const char* layer = LayerOf(r.name);
    if (layer == nullptr) continue;
    const auto c = covered.find(i);
    const SimTime cov = c == covered.end() ? 0 : c->second;
    fold.self_sim_s[layer] += static_cast<double>(r.end - r.start - cov) /
                              kSecond *
                              static_cast<double>(tracer.sample_every());
    if (std::strcmp(r.name, "index.query") == 0) {
      ++queries;
      const auto p = partial_senders.find(r.trace_id);
      if (p != partial_senders.end()) query_peers += p->second.size();
    }
  }
  fold.query_peers_mean =
      queries > 0 ? static_cast<double>(query_peers) / static_cast<double>(queries)
                  : 0;
  return fold;
}

}  // namespace pepperbench
