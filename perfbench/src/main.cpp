// debar_perf: one benchmark run of one workload.
//
//   debar_perf --workload <hust-cluster|tenant-files|aged-chain>
//              --seed <n> --seconds <s> --trace <0|1>
//              --workdir <dir> [--trace-out <file>] [--small]
//
// Repeats the workload in rounds until --seconds have passed, then prints
// one JSON object: correctness, operations attempted and failed, the
// end-to-end metrics (from each operation's fastest repeat, with sample
// counts), the per-layer metrics of the traced rounds, and the counts of
// the first round. With --trace 1 rounds alternate untraced / traced, so
// the tracing overhead and the equality of traced and untraced counts are
// measured in the same process.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// No run may come near the 180 s budget, whatever --seconds says.
constexpr double kHardStopSeconds = 150;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t n = 0;  // wall samples behind a median; 0 for counts
};

void usage() {
  std::fprintf(stderr,
               "usage: debar_perf --workload <hust-cluster|tenant-files|"
               "aged-chain> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir> [--trace-out <file>] [--small]\n");
  std::exit(2);
}

double json_number(double v) { return std::isfinite(v) ? v : 0.0; }

/// Names of the counts of `got` that differ from `want`. Integer counts
/// must match exactly. Modeled times add up per-node repository clocks,
/// and which node holds a container follows the order in which phase D
/// interleaves the servers' appends; the same charges then sum in another
/// order, so modeled values may differ in their last bits (1e-15 here).
std::string differing_counts(const std::map<std::string, double>& want,
                             const std::map<std::string, double>& got) {
  std::string out;
  for (const auto& [name, value] : got) {
    const auto it = want.find(name);
    const bool same =
        it != want.end() &&
        std::fabs(it->second - value) <=
            1e-9 * std::max(std::fabs(it->second), std::fabs(value));
    if (!same) out += (out.empty() ? "" : ", ") + name;
  }
  return out;
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::printf("\\%c", c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void print_metrics(const char* key, const std::vector<Metric>& metrics) {
  std::printf("\"%s\": {", key);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"n\": %zu}",
                i == 0 ? "" : ", ", m.name.c_str(), json_number(m.value),
                m.unit.c_str(), m.n);
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string trace_out;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--small") {
      o.small = true;
    } else if (!has_value) {
      usage();
    } else if (arg == "--workload") {
      o.workload = argv[++i];
    } else if (arg == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = true;
    } else if (arg == "--trace") {
      o.trace = std::strcmp(argv[++i], "1") == 0;
      have_trace = true;
    } else if (arg == "--workdir") {
      o.workdir = argv[++i];
    } else if (arg == "--trace-out") {
      trace_out = argv[++i];
    } else {
      usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace || o.workdir.empty()) {
    usage();
  }
  // Serve every allocation from one heap and keep freed memory there:
  // each round then reuses pages an earlier round faulted in, instead of
  // mapping and faulting in fresh ones, whose cost otherwise dominated
  // the run-to-run spread. One arena also keeps the peak RSS from
  // depending on which worker thread allocated first.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  mallopt(M_ARENA_MAX, 1);

  std::unique_ptr<Workload> workload;
  if (o.workload == "hust-cluster") {
    workload = make_hust_cluster(o);
  } else if (o.workload == "tenant-files") {
    workload = make_tenant_files(o);
  } else if (o.workload == "aged-chain") {
    workload = make_aged_chain(o);
  } else {
    usage();
  }

  std::map<std::string, OpSeries> wall;
  std::map<std::string, Series> layer;
  std::map<std::string, double> layer_sum;
  Tracer tracer;
  Series plain_ops_s, traced_ops_s;
  std::vector<double> round_seconds;
  std::map<std::string, double> counts;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  // A traced run needs an untraced round to compare against; the
  // self-test needs a second round to compare counts with.
  const std::size_t min_rounds = o.trace || o.small ? 2 : 1;

  const Clock::time_point start = Clock::now();
  std::size_t rounds = 0, traced_rounds = 0;
  while (rounds < min_rounds ||
         (!o.small && since(start) < o.seconds)) {
    Round r;
    const bool traced = o.trace && rounds % 2 == 1;
    r.tracer = traced ? &tracer : nullptr;
    r.wall = &wall;
    r.layer = &layer;
    r.layer_sum = &layer_sum;
    const Clock::time_point t0 = Clock::now();
    {
      const Scope root(r.tracer, "round", -1);
      r.span = root.id();
      workload->round(r);
    }
    round_seconds.push_back(since(t0));
    (traced ? traced_ops_s : plain_ops_s).add(r.op_seconds);
    traced_rounds += traced ? 1 : 0;
    attempted += r.attempted;
    failed += r.failed;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    if (rounds == 0) {
      counts = r.counts;
    } else if (std::string differing = differing_counts(counts, r.counts);
               !differing.empty() || r.counts.size() != counts.size()) {
      errors.push_back("round " + std::to_string(rounds) +
                       (traced ? " (traced)" : "") +
                       " counts differ from round 0: " +
                       (differing.empty() ? "(count set)" : differing));
    }
    ++rounds;
    if (since(start) > kHardStopSeconds) break;
  }
  if (!trace_out.empty() && traced_rounds > 0 &&
      !tracer.write_jsonl(trace_out)) {
    errors.push_back("cannot write trace " + trace_out);
  }

  const auto count = [&](const std::string& k) {
    const auto it = counts.find(k);
    return it == counts.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };

  std::vector<Metric> e2e;
  const auto rate = [&](const std::string& name, const std::string& op) {
    const OpSeries& s = wall[op];
    e2e.push_back({name, s.rate() / 1e6, "MB/s", s.samples()});
  };
  const OpSeries& setup = wall["setup"];
  e2e.push_back({"setup_s", setup.median_seconds(), "s", setup.samples()});
  rate("backup_first_mbps", "backup_first");
  rate("backup_dup_mbps", "backup_dup");
  rate("dedup2_mbps", "dedup2");
  rate("restore_mbps", "restore");
  rate("restore_aged_mbps", "restore_aged");
  const OpSeries& maint = wall["maint"];
  e2e.push_back({"maint_s", maint.mean_seconds(), "s", maint.samples()});
  const OpSeries& jobs = wall["job"];
  const double tail = workload->tail_percentile();
  e2e.push_back({"job_ms_p50", jobs.quantile_seconds(0.5) * 1e3, "ms",
                 jobs.samples()});
  e2e.push_back({"job_ms_tail", jobs.quantile_seconds(tail / 100.0) * 1e3,
                 "ms", jobs.samples()});
  e2e.push_back({"stored_per_logical", count("stored_per_logical"), "B/B", 0});
  e2e.push_back({"wire_per_logical", count("wire_per_logical"), "B/B", 0});
  e2e.push_back(
      {"modeled_backup_mbps", count("modeled_backup_mbps"), "MB/s", 0});
  e2e.push_back(
      {"modeled_restore_mbps", count("modeled_restore_mbps"), "MB/s", 0});
  e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB", 0});

  std::vector<Metric> pl;
  const double tr = static_cast<double>(traced_rounds);
  const auto sum = [&](const std::string& k) { return layer_sum[k]; };
  const auto layer_median = [&](const std::string& name,
                                const std::string& unit) {
    const Series& s = layer[name];
    pl.push_back({name, s.median(), unit, s.size()});
  };
  const auto counted = [&](const std::string& name, const std::string& unit) {
    pl.push_back({name, count(name), unit, 0});
  };
  pl.push_back({"chunking.mbps",
                ratio(sum("chunking.bytes"), sum("chunking.s")) / 1e6, "MB/s"});
  pl.push_back(
      {"sha1.mbps", ratio(sum("sha1.bytes"), sum("sha1.s")) / 1e6, "MB/s"});
  pl.push_back({"file_store.offer_ns",
                ratio(sum("offer.s"), sum("offer.calls")) * 1e9, "ns"});
  pl.push_back({"file_store.receive_mbps",
                ratio(sum("receive.bytes"), sum("receive.s")) / 1e6, "MB/s"});
  pl.push_back({"filter.suppressed_share",
                ratio(count("fs.suppressed_bytes"), count("fs.logical_bytes")),
                "share"});
  layer_median("ingest.exchange_ms", "ms");
  counted("ingest.frames_per_job", "count");
  counted("ingest.relief_rounds", "count");
  layer_median("ingest.relief_ms", "ms");
  for (const char* phase : {"a", "b", "c", "d", "e"}) {
    layer_median(std::string("dedup2.phase_") + phase + "_s", "s");
  }
  layer_median("dedup2.commit_s", "s");
  counted("dedup2.exchange_model_s", "s");
  counted("dedup2.sil_model_s", "s");
  counted("dedup2.store_model_s", "s");
  counted("dedup2.siu_model_s", "s");
  layer_median("chunk_store.round_s", "s");
  counted("chunk_store.sil_model_s", "s");
  counted("chunk_store.siu_model_s", "s");
  counted("index.entries", "count");
  counted("index.utilization", "share");
  counted("index.overflowed", "count");
  pl.push_back({"lpc.hit_share",
                ratio(count("lpc.hits"), count("lpc.hits") + count("lpc.misses")),
                "share"});
  pl.push_back({"lpc.misses_per_mb",
                ratio(count("lpc.misses"), count("restored_bytes") / 1e6),
                "1/MB"});
  pl.push_back({"storage.read_mbps",
                ratio(sum("storage.bytes"), sum("storage.s")) / 1e6, "MB/s"});
  counted("storage.containers", "count");
  counted("storage.stored_bytes", "B");
  pl.push_back({"restore.locate_us",
                ratio(sum("locate.s"), sum("locate.calls")) * 1e6, "us"});
  layer_median("restore.read_chunk_us", "us");
  for (const char* group : {"routing", "verdicts", "entries", "restore",
                            "ingest"}) {
    counted(std::string("net.frames.") + group, "count");
    counted(std::string("net.bytes.") + group, "B");
  }
  layer_median("maint.plan_s", "s");
  layer_median("maint.execute_s", "s");
  counted("maint.chunks_rewritten", "count");
  counted("maint.bytes_reclaimed", "B");
  for (const char* stage : {"dedup1", "dedup2", "restore"}) {
    pl.push_back({std::string("sim.model_over_wall.") + stage,
                  ratio(count(std::string("model.") + stage + "_s") * tr,
                        sum(std::string("wall.") + stage + "_s")),
                  "ratio"});
  }
  // End-to-end time of a round: its operations, without the replays and
  // restore checks around them.
  const double overhead = traced_ops_s.size() == 0
                              ? 0.0
                              : traced_ops_s.median() - plain_ops_s.median();
  pl.push_back({"trace.overhead_s", overhead, "s", traced_ops_s.size()});
  pl.push_back({"trace.overhead_share", ratio(overhead, plain_ops_s.median()),
                "share", traced_ops_s.size()});
  // Self time per span kind, per traced round.
  const std::map<std::string, double> self = tracer.self_seconds();
  for (const char* span :
       {"round", "setup", "job", "dedup2", "restore", "maintenance",
        "phase.A", "phase.B", "phase.C", "phase.D", "phase.E", "phase.commit",
        "file_store.offer", "file_store.receive", "replay.chunking",
        "replay.sha1", "replay.locate", "replay.storage_read",
        "replay.file_store.offer", "replay.file_store.receive"}) {
    const auto it = self.find(span);
    pl.push_back({std::string("self_s.") + span,
                  ratio(it == self.end() ? 0.0 : it->second, tr), "s"});
  }

  const bool correct = failed == 0 && errors.empty() && attempted > 0;
  std::printf("{\"workload\": ");
  print_json_string(o.workload);
  std::printf(", \"seed\": %llu, \"rounds\": %zu, \"traced_rounds\": %zu, "
              "\"seconds\": %.3f, \"correct\": %s, \"attempted\": %llu, "
              "\"failed\": %llu, \"tail_percentile\": %.17g, "
              "\"job_ops\": %zu, \"errors\": [",
              static_cast<unsigned long long>(o.seed), rounds, traced_rounds,
              since(start), correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), tail, jobs.ops());
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) std::printf(", ");
    print_json_string(errors[i]);
  }
  std::printf("], \"round_seconds\": [");
  for (std::size_t k = 0; k < round_seconds.size(); ++k) {
    std::printf("%s%.4f", k == 0 ? "" : ", ", round_seconds[k]);
  }
  std::printf("], ");
  print_metrics("end_to_end", e2e);
  std::printf(", ");
  print_metrics("per_layer", pl);
  std::printf(", \"counts\": {");
  std::size_t i = 0;
  for (const auto& [name, value] : counts) {
    std::printf("%s\"%s\": %.17g", i++ == 0 ? "" : ", ", name.c_str(),
                json_number(value));
  }
  std::printf("}}\n");
  return 0;
}
