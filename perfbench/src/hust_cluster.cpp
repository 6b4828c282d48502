// hust-cluster: the paper's HUSt-like trace on a two-server cluster.
//
// 32 clients take weekly full and daily incremental backups of
// synthetic fingerprint streams (8 KiB payloads synthesized from the
// fingerprints). Each day every job runs through
// BackupEngine::run_backup_stream on the server Director::assign_server
// picks, one cluster dedup-2 round follows (forced SIU on the last day),
// then each client's newest version and the one from a week earlier are
// restored, alternating the serving server. A maintenance round with
// keep-last retention closes the trace, and every client's newest version
// is restored once more through the compacted store.
//
// Containers are scaled to 512 KiB with the data, keeping the LPC at its
// default 16 containers, so each server stores several LPC-fuls and
// restores miss the cache. The in-memory chunk logs are sized up front
// for the largest day, as a disk would be: otherwise first writes also
// time the growth of a std::vector.
#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/sha1.hpp"
#include "core/backup_engine.hpp"
#include "core/cluster.hpp"
#include "core/maintenance.hpp"
#include "storage/block_device.hpp"
#include "workload/hust_trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kChunk = static_cast<std::uint32_t>(kExpectedChunkSize);
constexpr std::uint64_t kContainer = 512 * 1024;
constexpr std::size_t kClients = 32;
constexpr std::uint64_t kLogBytes = std::uint64_t{160} << 20;
constexpr unsigned kWeek = 7;
constexpr std::uint32_t kKeepLast = 7;
constexpr std::size_t kRepositoryNodes = 4;

class HustCluster final : public Workload {
 public:
  explicit HustCluster(const Options& o) : days_(o.small ? 3 : 14) {
    // The trace's shape (daily volumes, duplicate structure) is HustTrace
    // at its default seed; --seed re-keys every fingerprint, so each seed
    // writes other content with the same duplication. At this scale the
    // volumes come from a few hundred coarse segment draws, and letting
    // the seed pick them moved stored bytes by +-10% between seeds.
    workload::HustTrace trace({.days = days_,
                               .clients = kClients,
                               .mean_daily_chunks = o.small ? 128u : 1024u});
    streams_.resize(kClients);
    std::array<Byte, 8 + Fingerprint::kSize> key{};
    for (std::size_t i = 0; i < 8; ++i) {
      key[i] = static_cast<Byte>(o.seed >> (8 * i));
    }
    for (unsigned d = 1; d <= days_; ++d) {
      for (workload::DayJob& job : trace.day(d)) {
        for (Fingerprint& fp : job.stream) {
          std::copy(fp.bytes.begin(), fp.bytes.end(), key.begin() + 8);
          fp = Sha1::hash(ByteSpan(key.data(), key.size()));
        }
        streams_[job.client].push_back(std::move(job.stream));
      }
    }
  }

  // 32 clients x 14 days = 448 jobs per round: p97 leaves 13 beyond it.
  [[nodiscard]] double tail_percentile() const override { return 97; }

  void round(Round& r) override;

 private:
  struct Totals {
    double logical = 0;
    double wire = 0;
    double model_dedup1 = 0;
    double model_dedup2 = 0;
    double model_restore = 0;
    double restored = 0;
  };

  /// Restore `version` of `client` through server `via`, verify it
  /// against the trace, and file the sample under operation kind `op`
  /// (empty: a verification-only restore outside the end-to-end metrics).
  void restore(Round& r, core::Cluster& cluster, std::uint64_t job,
               std::size_t client, std::uint32_t version, std::size_t via,
               const char* op, Totals& totals) const;

  unsigned days_;
  /// streams_[client][version - 1]: every client backs up every day.
  std::vector<std::vector<std::vector<Fingerprint>>> streams_;
};

void HustCluster::restore(Round& r, core::Cluster& cluster, std::uint64_t job,
                          std::size_t client, std::uint32_t version,
                          std::size_t via, const char* op,
                          Totals& totals) const {
  const std::vector<Fingerprint>& fps = streams_[client][version - 1];
  const ClockSnap c0 = snap(cluster);
  double dt = 0;
  Result<core::Dataset> got = Error{Errc::kNotFound, "not run"};
  {
    const Scope span(r.tracer, "restore", r.span);
    const Clock::time_point t0 = Clock::now();
    got = cluster.restore(job, version, via);
    dt = since(t0);
  }
  if (!got.ok()) {
    r.op("restore client " + std::to_string(client) + " v" +
         std::to_string(version) + ": " + got.error().to_string());
    return;
  }
  r.op(check_synthetic(got.value(), fps, kChunk));
  if (op[0] == '\0') return;
  const double bytes = static_cast<double>(fps.size()) * kChunk;
  totals.model_restore += restore_model_s(c0, snap(cluster), kRepositoryNodes);
  totals.restored += bytes;
  r.sample(op, bytes, dt);
  r.layer_sample("restore.read_chunk_us",
                 dt / static_cast<double>(fps.size()) * 1e6);
  r.layer_add("wall.restore_s", dt);
}

void HustCluster::round(Round& r) {
  PhaseClock phases;
  const Clock::time_point setup0 = Clock::now();
  core::ClusterConfig cfg;
  cfg.routing_bits = 1;
  cfg.repository_nodes = kRepositoryNodes;
  cfg.server_config.index_params = {.prefix_bits = 10,
                                    .blocks_per_bucket = 16};
  cfg.server_config.container_capacity = kContainer;
  cfg.server_config.chunk_store.dedup2.threads = 2;
  cfg.server_config.log_device_factory = [] {
    return std::make_unique<storage::MemBlockDevice>(kLogBytes);
  };
  cfg.director_config.retention = {.keep_last = kKeepLast};
  cfg.phase_hook = phases.hook();
  auto cluster = std::make_unique<core::Cluster>(std::move(cfg));
  core::Director& director = cluster->director();
  std::vector<std::uint64_t> jobs;
  std::vector<std::unique_ptr<core::BackupEngine>> engines;
  for (std::size_t c = 0; c < kClients; ++c) {
    const std::string name = "client-" + std::to_string(c);
    jobs.push_back(director.define_job(name, "hust"));
    engines.push_back(std::make_unique<core::BackupEngine>(name, &director));
  }
  const double setup_s = since(setup0);
  r.sample("setup", 0, setup_s);
  if (r.traced()) {
    r.tracer->add("setup", r.span, r.tracer->to_ns(setup0),
                  static_cast<std::int64_t>(setup_s * 1e9));
  }

  Totals totals;
  std::size_t via = 0;
  for (unsigned d = 1; d <= days_; ++d) {
    director.set_current_day(d);
    const std::uint64_t wire0 = cluster->transport_stats().bytes_sent;
    double day_logical = 0;
    for (std::size_t c = 0; c < kClients; ++c) {
      const std::vector<Fingerprint>& stream = streams_[c][d - 1];
      const double bytes = static_cast<double>(stream.size()) * kChunk;
      const std::size_t target = director.assign_server(
          jobs[c], static_cast<std::uint64_t>(bytes), cluster->server_count());
      core::FileStore& fs = cluster->server(target).file_store();
      const ClockSnap c0 = snap(*cluster);
      std::string error;
      double dt = 0;
      {
        const Scope span(r.tracer, "job", r.span);
        const Clock::time_point t0 = Clock::now();
        if (r.traced()) {
          error = backup_stream_traced(r, span.id(), fs, director,
                                       engines[c]->client_name(), jobs[c],
                                       stream, kChunk);
        } else {
          Result<core::BackupRunStats> run =
              engines[c]->run_backup_stream(jobs[c], stream, fs, kChunk);
          if (!run.ok()) error = run.error().to_string();
        }
        dt = since(t0);
      }
      r.op(error.empty() ? "" : "backup client " + std::to_string(c) +
                                    " day " + std::to_string(d) + ": " + error);
      r.sample(d == 1 ? "backup_first" : "backup_dup", bytes, dt);
      r.sample("job", 0, dt);
      r.layer_add("wall.dedup1_s", dt);
      totals.model_dedup1 += backup_model_s(c0, snap(*cluster));
      day_logical += bytes;
    }

    {
      const Scope span(r.tracer, "dedup2", r.span);
      const Clock::time_point t0 = Clock::now();
      Result<core::ClusterDedup2Result> round =
          cluster->run_dedup2(/*force_siu=*/d == days_);
      const Clock::time_point t1 = Clock::now();
      phases.close(r, t1, span.id());
      const double dt = seconds_between(t0, t1);
      r.op(round.ok() ? "" : "dedup-2 day " + std::to_string(d) + ": " +
                                 round.error().to_string());
      r.sample("dedup2", day_logical, dt);
      r.layer_add("wall.dedup2_s", dt);
      if (round.ok()) {
        const core::ClusterDedup2Result& res = round.value();
        totals.model_dedup2 += res.total_seconds();
        r.counts["dedup2.exchange_model_s"] += res.exchange_seconds;
        r.counts["dedup2.sil_model_s"] += res.sil_seconds;
        r.counts["dedup2.store_model_s"] += res.store_seconds;
        r.counts["dedup2.siu_model_s"] += res.siu_seconds;
        r.counts["dedup2.new_chunks"] += static_cast<double>(res.new_chunks);
      }
    }
    totals.wire +=
        static_cast<double>(cluster->transport_stats().bytes_sent - wire0);
    totals.logical += day_logical;

    for (std::size_t c = 0; c < kClients; ++c) {
      restore(r, *cluster, jobs[c], c, d, via++ % 2, "restore", totals);
      if (d > kWeek) {
        restore(r, *cluster, jobs[c], c, d - kWeek, via++ % 2,
                "restore_aged", totals);
      }
    }
  }

  std::vector<core::BackupServer*> servers;
  for (std::size_t k = 0; k < cluster->server_count(); ++k) {
    servers.push_back(&cluster->server(k));
  }
  count_servers(r, servers, cluster->repository());
  count_transport(r, cluster->transport_stats());
  r.counts["logical_bytes"] = totals.logical;
  r.counts["restored_bytes"] = totals.restored;
  r.counts["model.dedup1_s"] = totals.model_dedup1;
  r.counts["model.dedup2_s"] = totals.model_dedup2;
  r.counts["model.restore_s"] = totals.model_restore;
  r.counts["stored_per_logical"] =
      r.counts["storage.stored_bytes"] / totals.logical;
  r.counts["wire_per_logical"] = totals.wire / totals.logical;
  r.counts["modeled_backup_mbps"] =
      totals.logical / (totals.model_dedup1 + totals.model_dedup2) / 1e6;
  r.counts["modeled_restore_mbps"] =
      totals.restored / totals.model_restore / 1e6;

  core::MaintenanceJob maintenance(
      *cluster, {.locality = false, .container_capacity = kContainer});
  run_maintenance(r, maintenance);
  for (std::size_t c = 0; c < kClients; ++c) {
    restore(r, *cluster, jobs[c], c, days_, via++ % 2, "", totals);
  }

  if (r.traced()) {
    // Labelled replays after the last operation: the chunker and SHA-1
    // over the bytes of two clients' newest versions, and locate + read
    // over every client's newest version.
    for (std::size_t c = 0; c < 2; ++c) {
      const std::vector<Byte> bytes =
          synthetic_bytes(streams_[c][days_ - 1], kChunk);
      replay_chunking(r, ByteSpan(bytes.data(), bytes.size()));
    }
    std::vector<Fingerprint> newest;
    for (std::size_t c = 0; c < kClients; ++c) {
      newest.insert(newest.end(), streams_[c][days_ - 1].begin(),
                    streams_[c][days_ - 1].end());
    }
    replay_locate_and_read(r, *cluster, newest);
  }
}

}  // namespace

std::unique_ptr<Workload> make_hust_cluster(const Options& o) {
  return std::make_unique<HustCluster>(o);
}

}  // namespace perfbench
