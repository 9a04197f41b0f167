// PEPPER benchmark driver.
//
//   pepperbench --workload churn|scan|ingest --seed N --seconds S --trace 0|1
//               [--tiny] [--inject-drop] [--spans-out PATH]
//
// Repeats the workload at the given seed (set-up + measured phase + drain +
// gates) until S host seconds have passed.  Every repetition must replay to
// the same digest.  --trace 0 prints the end-to-end metrics, --trace 1 the
// per-layer ones (untraced repetitions for counts, traced ones for
// simulated-time folds and host spans).  The last stdout line is one JSON
// object.  A correctness-gate violation prints the violations to stderr and
// exits 2 without a result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace pepperbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool inject_drop = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (flag == "--inject-drop") {
      args->inject_drop = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile of exact samples.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

constexpr size_t kMinSetups = 9;

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const std::vector<Metric>& metrics, const RunResult& r) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": true, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              r.attempted, r.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

std::vector<Metric> EndToEnd(const std::vector<RunResult>& reps,
                             const std::vector<double>& setup,
                             double peak_rss_mb) {
  const RunResult& r = reps.front();
  std::vector<double> wall;
  for (const RunResult& x : reps) wall.push_back(x.wall_s);
  const double sim_s = static_cast<double>(r.duration) / kSecond;
  return {
      {"setup_s", Median(setup), "s"},
      {"wall_s", Median(wall), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"insert_p50_ms", Percentile(r.insert_ms, 0.50), "ms"},
      {"insert_p99_ms", Percentile(r.insert_ms, 0.99), "ms"},
      {"query_p50_ms", Percentile(r.query_ms, 0.50), "ms"},
      {"query_p99_ms", Percentile(r.query_ms, 0.99), "ms"},
      {"msgs_per_sim_s", static_cast<double>(r.net_msgs) / sim_s, "1/s"},
  };
}

std::vector<Metric> PerLayer(const std::vector<RunResult>& plain,
                             const std::vector<RunResult>& traced) {
  const RunResult& r = plain.front();
  const RunResult& t = traced.front();
  auto c = [&](const char* name) {
    const auto it = r.counters.find(name);
    return it == r.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double msgs = static_cast<double>(r.net_msgs);
  const double push = c("repl.push_msgs") + c("repl.push_acked");
  const double refresh = c("router.refresh_rpcs") + c("router.refresh_replies");
  const double run_s = t.spans.Total("sim.run_for", "measure") -
                       t.spans.Total("history.check_query", "measure");
  std::vector<double> plain_wall, traced_wall;
  for (const RunResult& x : plain) plain_wall.push_back(x.wall_s);
  for (const RunResult& x : traced) traced_wall.push_back(x.wall_s);
  std::vector<Metric> m = {
      {"sim.events", static_cast<double>(r.events), "count"},
      {"sim.events_per_s", Ratio(static_cast<double>(t.events), run_s), "1/s"},
      {"sim.run_s", run_s, "s"},
      {"sim.net_msgs", msgs, "count"},
      {"sim.net_unattributed_share", Ratio(msgs - push - refresh, msgs), "ratio"},
      {"sim.net_wait_sim_ms", t.fold.net_wait_sim_ms, "ms"},
      {"ring.stab_rounds", c("ring.stab_rounds"), "count"},
      {"ring.stab_timeouts", c("ring.stab_timeouts"), "count"},
      {"ring.insert_succ_p99_ms", t.fold.ring_insert_p99_ms, "ms"},
      {"ring.insert_ok_ratio",
       Ratio(c("ring.inserts_completed"), c("ring.inserts_started")), "ratio"},
      {"ring.leave_p99_ms", t.fold.ring_leave_p99_ms, "ms"},
      {"datastore.splits", c("ds.splits"), "count"},
      {"datastore.merges", c("ds.merges"), "count"},
      {"datastore.redistributes", c("ds.redistributes"), "count"},
      {"datastore.split_failed", c("ds.split_failed"), "count"},
      {"datastore.split_no_free_peer", c("ds.split_no_free_peer"), "count"},
      {"datastore.split_p99_ms", t.fold.ds_split_p99_ms, "ms"},
      {"datastore.scan_stalls", c("ds.scan_stalls"), "count"},
      {"datastore.scan_forward_timeouts", c("ds.scan_forward_timeouts"), "count"},
      {"datastore.revived_items", c("ds.revived_items"), "count"},
      {"store.hits", c("store.hits"), "count"},
      {"store.faults", c("store.faults"), "count"},
      {"store.hit_rate", Ratio(c("store.hits"), c("store.hits") + c("store.faults")),
       "ratio"},
      {"store.faults_per_op",
       Ratio(c("store.faults"), static_cast<double>(r.attempted)), "1/op"},
      {"store.evictions", c("store.evictions"), "count"},
      {"store.writebacks", c("store.writebacks"), "count"},
      {"store.pages_alloc", c("store.pages_alloc"), "count"},
      {"replication.push_msgs", c("repl.push_msgs"), "count"},
      {"replication.msg_share", Ratio(push, msgs), "ratio"},
      {"replication.push_bytes", c("repl.push_bytes"), "B"},
      {"replication.delta_hit_ratio",
       Ratio(c("repl.delta_applies"),
             c("repl.delta_applies") + c("repl.delta_misses")),
       "ratio"},
      {"replication.push_timeouts", c("repl.push_timeouts"), "count"},
      {"replication.push_attempt_timeouts", c("repl.push_attempt_timeouts"),
       "count"},
      {"replication.anti_entropy_repair_ratio",
       Ratio(c("repl.anti_entropy_repairs"), c("repl.anti_entropy_probes")),
       "ratio"},
      {"replication.revive_round_p99_ms", t.fold.revive_round_p99_ms, "ms"},
      {"router.lookups", c("router.lookups"), "count"},
      {"router.hops_mean", r.hops_mean, "hops"},
      {"router.hops_p99", r.hops_p99, "hops"},
      {"router.retries", c("router.retries"), "count"},
      {"router.fwd_dead_end", c("router.fwd_dead_end"), "count"},
      {"router.refresh_msgs", refresh, "count"},
      {"router.refresh_share", Ratio(refresh, msgs), "ratio"},
      {"index.query_resumes", c("index.query_resumes"), "count"},
      {"index.query_peers_mean", t.fold.query_peers_mean, "peers"},
      {"index.query_items_mean", r.query_items_mean, "items"},
  };
  for (const auto& [layer, self] : t.fold.self_sim_s) {
    m.push_back({layer + ".self_sim_s", self, "s"});
  }
  m.push_back({"history.audit_s",
               t.spans.Total("history.check_query", "run") +
                   t.spans.Total("history.gates", "run"),
               "s"});
  m.push_back({"trace.overhead", Ratio(Median(traced_wall), Median(plain_wall)),
               "ratio"});
  m.push_back({"trace.records", static_cast<double>(t.fold.records), "count"});
  m.push_back({"trace.records_dropped",
               static_cast<double>(t.fold.records_dropped), "count"});
  return m;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pepperbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--inject-drop] [--spans-out PATH]\n");
    return 2;
  }
  WorkloadSpec spec;
  if (!MakeWorkload(args.workload, args.tiny, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  std::vector<RunResult> plain, traced;
  // High-water RSS of the first repetition, before repeats can add heap
  // fragmentation to it.
  double peak_rss_mb = 0;
  do {
    // --trace 1 alternates untraced and traced repetitions.
    const bool trace = args.trace && plain.size() > traced.size();
    RunOptions options;
    options.trace = trace;
    options.inject_drop = args.inject_drop;
    RunResult r = RunOnce(spec, args.seed, options);
    if (!r.violations.empty()) {
      std::fprintf(stderr, "GATE FAILED: workload %s seed %" PRIu64 "\n",
                   args.workload.c_str(), args.seed);
      for (const auto& v : r.violations) std::fprintf(stderr, "  %s\n", v.c_str());
      return 2;
    }
    const uint64_t first = plain.empty() ? r.digest : plain.front().digest;
    if (r.digest != first) {
      std::fprintf(stderr,
                   "GATE FAILED: replay digest %016" PRIx64 " differs from "
                   "%016" PRIx64 " (%s repetition)\n",
                   r.digest, first, trace ? "traced" : "untraced");
      return 2;
    }
    std::printf("repetition %zu%s: setup_s %.4f wall_s %.4f\n",
                plain.size() + traced.size() + 1, trace ? " (traced)" : "",
                r.setup_s, r.wall_s);
    (trace ? traced : plain).push_back(std::move(r));
    if (peak_rss_mb == 0) peak_rss_mb = PeakRssMb();
  } while (elapsed() < args.seconds || (args.trace && traced.empty()));

  // Set-up is short next to a repetition; extra set-up-only runs give its
  // median enough samples.
  std::vector<double> setups;
  for (const RunResult& x : plain) setups.push_back(x.setup_s);
  const double setup_budget = elapsed() + 3;
  while (!args.trace && setups.size() < kMinSetups && elapsed() < setup_budget) {
    RunOptions options;
    options.setup_only = true;
    setups.push_back(RunOnce(spec, args.seed, options).setup_s);
  }

  const RunResult& r = plain.front();
  std::printf("workload %s seed %" PRIu64 ": %zu untraced + %zu traced "
              "repetition(s), digest %016" PRIx64 "\n",
              args.workload.c_str(), args.seed, plain.size(), traced.size(),
              r.digest);
  if (!traced.empty()) {
    std::printf("traced digest %016" PRIx64 "\n", traced.front().digest);
  }
  std::printf("op_fail_frac %.6g (failed %" PRIu64 " / attempted %" PRIu64
              ")\n",
              Ratio(static_cast<double>(r.failed),
                    static_cast<double>(r.attempted)),
              r.failed, r.attempted);
  std::printf("samples: %zu inserts, %zu queries (p99 needs 1000)\n",
              r.insert_ms.size(), r.query_ms.size());
  std::printf("ring: %zu -> %zu members, %zu -> %zu items; %" PRIu64
              " deleted item(s) stored again\n",
              r.members_start, r.members_end, r.items_start, r.items_end,
              r.resurrected);
  if (args.trace) {
    if (!args.spans_out.empty()) {
      std::ofstream out(args.spans_out);
      out << traced.front().spans.Json();
    }
    PrintResult(PerLayer(plain, traced), r);
  } else {
    PrintResult(EndToEnd(plain, setups, peak_rss_mb), r);
  }
  return 0;
}

}  // namespace
}  // namespace pepperbench

int main(int argc, char** argv) { return pepperbench::Main(argc, argv); }
