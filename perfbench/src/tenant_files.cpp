// tenant-files: many tenants back up small real files through the ingest
// front end.
//
// TenantMix gives every tenant four files of real bytes; each generation
// rewrites a few small regions. Jobs go through IngestService in its
// inline mode (lanes = 0) on a two-server cluster, one job submitted and
// drained at a time, so Rabin CDC, SHA-1 and the IngestOpen/Batch/Close
// exchange dominate. The dedup-2 trigger is low enough that relief rounds
// run inside jobs regularly; their stall is the job-time tail. After
// finalize() every generation of every tenant is restored, a maintenance
// round with keep-last retention runs, and each tenant's newest
// generation is restored again. The stored data fits the LPC: this is the
// cache-resident counterpart of hust-cluster.
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/backup_engine.hpp"
#include "core/cluster.hpp"
#include "core/ingest_service.hpp"
#include "core/maintenance.hpp"
#include "workload/tenant_mix.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kKeepLast = 2;
constexpr std::size_t kRepositoryNodes = 4;

class TenantFiles final : public Workload {
 public:
  explicit TenantFiles(const Options& o)
      : tenants_(o.small ? 8 : 32),
        generations_(o.small ? 2 : 4),
        mix_({.tenants = tenants_,
              .files_per_tenant = 4,
              .file_bytes = 256 * 1024,
              .delta_bytes = 16 * 1024,
              .deltas_per_file = 4,
              .seed = o.seed}) {}

  // 32 tenants x 4 generations = 128 jobs per round: p92 leaves 10
  // beyond it.
  [[nodiscard]] double tail_percentile() const override { return 92; }

  void round(Round& r) override;

 private:
  std::uint64_t tenants_;
  std::uint32_t generations_;
  workload::TenantMix mix_;
};

void TenantFiles::round(Round& r) {
  PhaseClock phases;
  const Clock::time_point setup0 = Clock::now();
  core::ClusterConfig cfg;
  cfg.routing_bits = 1;
  cfg.repository_nodes = kRepositoryNodes;
  cfg.server_config.index_params = {.prefix_bits = 10,
                                    .blocks_per_bucket = 16};
  cfg.server_config.chunk_store.dedup2.threads = 2;
  cfg.director_config.retention = {.keep_last = kKeepLast};
  cfg.phase_hook = phases.hook();
  auto cluster = std::make_unique<core::Cluster>(std::move(cfg));
  core::IngestService::Config service_cfg;  // lanes == 0: inline
  service_cfg.limits.dedup2_trigger = 256;
  auto service = std::make_unique<core::IngestService>(cluster.get(),
                                                       service_cfg);
  const double setup_s = since(setup0);
  r.sample("setup", 0, setup_s);
  if (r.traced()) {
    r.tracer->add("setup", r.span, r.tracer->to_ns(setup0),
                  static_cast<std::int64_t>(setup_s * 1e9));
  }

  double logical = 0;
  double since_round = 0;  // logical bytes the next dedup-2 round covers
  double model_dedup1 = 0;
  double relief_rounds = 0;
  double ingest_frames = 0;
  const auto ingest_frames_now = [&] {
    const net::TransportStats s = cluster->transport_stats();
    std::uint64_t n = 0;
    for (const net::MessageType t :
         {net::MessageType::kIngestOpen, net::MessageType::kIngestBatch,
          net::MessageType::kIngestClose, net::MessageType::kIngestReply}) {
      n += s.frames_by_type[static_cast<std::size_t>(t)];
    }
    return static_cast<double>(n);
  };
  // versions[t][g]: the version generation g of tenant t was recorded as.
  std::vector<std::vector<std::uint32_t>> versions(
      tenants_, std::vector<std::uint32_t>(generations_, 0));

  for (std::uint32_t g = 0; g < generations_; ++g) {
    for (std::uint64_t t = 0; t < tenants_; ++t) {
      core::Dataset dataset = mix_.dataset(t, g);
      const double bytes = static_cast<double>(dataset.total_bytes());
      since_round += bytes;
      double chunking_s = 0;
      if (r.traced()) {
        for (const core::FileData& f : dataset.files) {
          chunking_s += replay_chunking(
              r, ByteSpan(f.content.data(), f.content.size()));
        }
      }
      const double frames0 = ingest_frames_now();
      const ClockSnap c0 = snap(*cluster);
      std::string error;
      double dt = 0;
      double relief_s = 0;
      {
        const Scope span(r.tracer, "job", r.span);
        const Clock::time_point t0 = Clock::now();
        auto submitted =
            service->submit(t, mix_.job_id(t), std::move(dataset));
        if (!submitted.ok()) {
          error = submitted.error().to_string();
        } else if (Status s = service->run_until_drained(); !s.ok()) {
          error = s.to_string();
        }
        const Clock::time_point t1 = Clock::now();
        dt = seconds_between(t0, t1);
        if (error.empty()) {
          Result<core::IngestService::Outcome> outcome =
              submitted.value().get();
          if (outcome.ok()) {
            versions[t][g] = outcome.value().version;
          } else {
            error = outcome.error().to_string();
          }
        }
        if (phases.pending()) {
          // A relief round ran after the job's exchange, inside the job.
          relief_s = seconds_between(phases.round_start(), t1);
          relief_rounds += static_cast<double>(phases.close(r, t1, span.id()));
          r.sample("dedup2", since_round, relief_s);
          r.layer_sample("ingest.relief_ms", relief_s * 1e3);
          since_round = 0;
        }
      }
      r.op(error.empty() ? "" : "ingest tenant " + std::to_string(t) +
                                    " generation " + std::to_string(g) +
                                    ": " + error);
      r.sample(g == 0 ? "backup_first" : "backup_dup", bytes, dt);
      r.sample("job", 0, dt);
      r.layer_sample("ingest.exchange_ms",
                     (dt - relief_s - chunking_s) * 1e3);
      r.layer_add("wall.dedup1_s", dt - relief_s);
      r.layer_add("wall.dedup2_s", relief_s);
      ingest_frames += ingest_frames_now() - frames0;
      model_dedup1 += backup_model_s(c0, snap(*cluster));
      logical += bytes;
    }
  }

  double model_dedup2 = 0;
  {
    const Scope span(r.tracer, "dedup2", r.span);
    const ClockSnap c0 = snap(*cluster);
    const Clock::time_point t0 = Clock::now();
    const Status s = service->finalize();
    const Clock::time_point t1 = Clock::now();
    phases.close(r, t1, span.id());
    r.op(s.ok() ? "" : "finalize: " + s.to_string());
    r.sample("dedup2", since_round, seconds_between(t0, t1));
    r.layer_add("wall.dedup2_s", seconds_between(t0, t1));
    model_dedup2 = backup_model_s(c0, snap(*cluster));
  }
  const double wire = static_cast<double>(cluster->transport_stats().bytes_sent);

  double model_restore = 0;
  double restored = 0;
  std::size_t via = 0;
  const auto restore = [&](std::uint64_t t, std::uint32_t g,
                           const char* op) {
    const ClockSnap c0 = snap(*cluster);
    Result<core::Dataset> got = Error{Errc::kNotFound, "not run"};
    double dt = 0;
    {
      const Scope span(r.tracer, "restore", r.span);
      const Clock::time_point t0 = Clock::now();
      got = cluster->restore(mix_.job_id(t), versions[t][g], via++ % 2);
      dt = since(t0);
    }
    if (!got.ok()) {
      r.op("restore tenant " + std::to_string(t) + " generation " +
           std::to_string(g) + ": " + got.error().to_string());
      return;
    }
    const core::Dataset want = mix_.dataset(t, g);
    r.op(check_dataset(got.value(), want));
    if (op[0] == '\0') return;
    const double bytes = static_cast<double>(want.total_bytes());
    model_restore += restore_model_s(c0, snap(*cluster), kRepositoryNodes);
    restored += bytes;
    r.sample(op, bytes, dt);
    r.layer_sample("restore.read_chunk_us",
                   dt / (bytes / static_cast<double>(kExpectedChunkSize)) *
                       1e6);
    r.layer_add("wall.restore_s", dt);
  };
  for (std::uint32_t g = 0; g < generations_; ++g) {
    for (std::uint64_t t = 0; t < tenants_; ++t) {
      restore(t, g,
              g + 1 == generations_ ? "restore" : "restore_aged");
    }
  }

  std::vector<core::BackupServer*> servers;
  for (std::size_t k = 0; k < cluster->server_count(); ++k) {
    servers.push_back(&cluster->server(k));
  }
  count_servers(r, servers, cluster->repository());
  count_transport(r, cluster->transport_stats());
  r.counts["logical_bytes"] = logical;
  r.counts["restored_bytes"] = restored;
  r.counts["ingest.relief_rounds"] = relief_rounds;
  r.counts["ingest.frames_per_job"] =
      ingest_frames / static_cast<double>(tenants_ * generations_);
  r.counts["model.dedup1_s"] = model_dedup1;
  r.counts["model.dedup2_s"] = model_dedup2;
  r.counts["model.restore_s"] = model_restore;
  r.counts["stored_per_logical"] = r.counts["storage.stored_bytes"] / logical;
  r.counts["wire_per_logical"] = wire / logical;
  r.counts["modeled_backup_mbps"] =
      logical / (model_dedup1 + model_dedup2) / 1e6;
  r.counts["modeled_restore_mbps"] = restored / model_restore / 1e6;

  core::MaintenanceJob maintenance(*cluster, {.locality = false});
  run_maintenance(r, maintenance);
  for (std::uint64_t t = 0; t < tenants_; ++t) {
    restore(t, generations_ - 1, "");
  }

  if (r.traced()) {
    // After the last operation: the FileStore offer/receive path replayed
    // on server 0 with one tenant's newest files under a fresh job chain
    // (inside a job those calls run on the ingest serve thread), then
    // locate + read over every tenant's newest version.
    core::Director& director = cluster->director();
    core::FileStore& fs = cluster->server(0).file_store();
    const std::uint64_t job = director.define_job("replay", "replay");
    const core::FileStore::SessionId session = fs.open_session(job);
    chunking::RabinChunker chunker{chunking::CdcParams{}};
    FileStoreTimer timer(r);
    for (const core::FileData& f : mix_.dataset(0, generations_ - 1).files) {
      const ByteSpan content(f.content.data(), f.content.size());
      const core::BackupEngine::ChunkRun run =
          core::BackupEngine::chunk_run(chunker, content, SimdPolicy::kAuto);
      fs.begin_file(session, {.path = f.path,
                              .size = f.content.size(),
                              .mtime = f.mtime,
                              .mode = 0644});
      for (std::size_t i = 0; i < run.fps.size(); ++i) {
        const auto size = static_cast<std::uint32_t>(run.bounds[i].size);
        if (!timer.offer([&] {
              return fs.offer_fingerprint(session, run.fps[i], size);
            })) {
          continue;
        }
        const Status s = timer.receive(size, [&] {
          return fs.receive_chunk(session, run.fps[i],
                                  content.subspan(run.bounds[i].offset, size));
        });
        if (!s.ok()) r.errors.push_back("receive replay: " + s.to_string());
      }
      fs.end_file(session);
    }
    if (Result<core::JobVersionRecord> rec = fs.close_session(session);
        !rec.ok()) {
      r.errors.push_back("replay close: " + rec.error().to_string());
    }
    timer.finish(r.span, "replay.");

    std::vector<Fingerprint> newest;
    for (std::uint64_t t = 0; t < tenants_; ++t) {
      const std::optional<core::JobVersionRecord> rec =
          director.version(mix_.job_id(t), versions[t][generations_ - 1]);
      if (!rec.has_value()) continue;
      const std::vector<Fingerprint> fps = rec->all_fingerprints();
      newest.insert(newest.end(), fps.begin(), fps.end());
    }
    replay_locate_and_read(r, *cluster, newest);
  }
  service->shutdown();
}

}  // namespace

std::unique_ptr<Workload> make_tenant_files(const Options& o) {
  return std::make_unique<TenantFiles>(o);
}

}  // namespace perfbench
