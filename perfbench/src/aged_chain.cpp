// aged-chain: one job chain ages on a single file-backed server.
//
// Every device is a FileBlockDevice in a fresh directory per round: the
// chunk log, every index device and the four repository nodes. Position
// i of the chain is rewritten whenever v % 8 == i % 8 (bench_retention's
// pattern), so mature versions interleave chunks from eight generations
// of 64 KiB containers. A forced-SIU dedup-2 round follows every version;
// then every retained version is restored, a maintenance round with
// keep-last retention runs, and the survivors are restored again.
//
// FileBlockDevice::write flushes its stream to the kernel on every write
// and never fsyncs; reads are served by the page cache, so latencies are
// this machine's, not a disk's.
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/sha1.hpp"
#include "core/backup_engine.hpp"
#include "core/backup_server.hpp"
#include "core/maintenance.hpp"
#include "storage/block_device.hpp"
#include "storage/chunk_repository.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kChunk = 4096;
constexpr std::uint64_t kContainer = 64 * 1024;
constexpr unsigned kRewritePeriod = 8;
constexpr std::uint32_t kKeepLast = 4;
constexpr std::size_t kRepositoryNodes = 4;

class AgedChain final : public Workload {
 public:
  explicit AgedChain(const Options& o)
      : versions_(o.small ? 12 : 112),
        // The seed also picks the file's length, 256 to 263 chunks, so the
        // chain's volumes (and its modeled times) differ between seeds.
        chunks_(o.small ? 64 : 256 + Sha1::hash_counter(o.seed).bytes[0] % 8),
        workdir_(o.workdir) {
    // The chunk at position i as of version v: rewritten whenever
    // v % kRewritePeriod == i % kRewritePeriod.
    fps_.resize(versions_);
    for (unsigned v = 1; v <= versions_; ++v) {
      for (std::uint64_t i = 0; i < chunks_; ++i) {
        unsigned gen = 1;
        for (unsigned g = 2; g <= v; ++g) {
          if (g % kRewritePeriod == i % kRewritePeriod) gen = g;
        }
        fps_[v - 1].push_back(
            Sha1::hash_counter((o.seed << 40) + i * 1000003 + gen));
      }
    }
  }

  // 112 versions per round: p91 leaves 10 jobs beyond it.
  [[nodiscard]] double tail_percentile() const override { return 91; }

  void round(Round& r) override;

 private:
  unsigned versions_;
  std::uint64_t chunks_;
  std::filesystem::path workdir_;
  std::size_t rounds_ = 0;
  /// fps_[v - 1]: the chain's version v, in stream order.
  std::vector<std::vector<Fingerprint>> fps_;
};

/// A file-backed device under `dir`, or exit: without its devices the
/// benchmark cannot run at all.
std::unique_ptr<storage::BlockDevice> open_device(
    const std::filesystem::path& path) {
  Result<std::unique_ptr<storage::FileBlockDevice>> device =
      storage::FileBlockDevice::open(path);
  if (!device.ok()) {
    std::fprintf(stderr, "cannot open %s: %s\n", path.c_str(),
                 device.error().to_string().c_str());
    std::exit(2);
  }
  return std::move(device).value();
}

void AgedChain::round(Round& r) {
  const std::filesystem::path dir =
      workdir_ / ("aged-round-" + std::to_string(rounds_++));
  std::filesystem::remove_all(dir);
  const Clock::time_point setup0 = Clock::now();
  std::filesystem::create_directories(dir);
  std::vector<std::unique_ptr<storage::BlockDevice>> nodes;
  for (std::size_t n = 0; n < kRepositoryNodes; ++n) {
    nodes.push_back(open_device(dir / ("node" + std::to_string(n) + ".log")));
  }
  auto repository =
      std::make_unique<storage::ChunkRepository>(std::move(nodes));
  auto director = std::make_unique<core::Director>(
      core::DirectorConfig{.retention = {.keep_last = kKeepLast}});
  core::BackupServerConfig cfg;
  cfg.index_params = {.prefix_bits = 10, .blocks_per_bucket = 8};
  cfg.container_capacity = kContainer;
  cfg.chunk_store.siu_threshold = 1;
  cfg.chunk_store.dedup2.threads = 2;
  cfg.log_device_factory = [dir, n = 0]() mutable {
    return open_device(dir / ("log" + std::to_string(n++) + ".bin"));
  };
  cfg.index_device_factory = [dir, n = 0]() mutable {
    return open_device(dir / ("index" + std::to_string(n++) + ".bin"));
  };
  auto server = std::make_unique<core::BackupServer>(0, cfg, repository.get(),
                                                     director.get());
  if (!server->boot_status().ok()) {
    std::fprintf(stderr, "server boot: %s\n",
                 server->boot_status().to_string().c_str());
    std::exit(2);
  }
  const std::uint64_t job = director->define_job("aged", "chain");
  core::BackupEngine engine("aged", director.get());
  const double setup_s = since(setup0);
  r.sample("setup", 0, setup_s);
  if (r.traced()) {
    r.tracer->add("setup", r.span, r.tracer->to_ns(setup0),
                  static_cast<std::int64_t>(setup_s * 1e9));
  }

  const double version_bytes = static_cast<double>(chunks_) * kChunk;
  double logical = 0;
  double model_dedup1 = 0;
  double model_dedup2 = 0;
  for (unsigned v = 1; v <= versions_; ++v) {
    director->set_current_day(v);
    core::FileStore& fs = server->file_store();
    const ClockSnap c0 = snap(*server, *repository);
    std::string error;
    double dt = 0;
    {
      const Scope span(r.tracer, "job", r.span);
      const Clock::time_point t0 = Clock::now();
      if (r.traced()) {
        error = backup_stream_traced(r, span.id(), fs, *director,
                                     engine.client_name(), job, fps_[v - 1],
                                     kChunk);
      } else {
        Result<core::BackupRunStats> run =
            engine.run_backup_stream(job, fps_[v - 1], fs, kChunk);
        if (!run.ok()) error = run.error().to_string();
      }
      dt = since(t0);
    }
    r.op(error.empty() ? ""
                       : "backup v" + std::to_string(v) + ": " + error);
    r.sample(v == 1 ? "backup_first" : "backup_dup", version_bytes, dt);
    r.sample("job", 0, dt);
    r.layer_add("wall.dedup1_s", dt);
    model_dedup1 += backup_model_s(c0, snap(*server, *repository));
    logical += version_bytes;

    const Scope span(r.tracer, "dedup2", r.span);
    const ClockSnap d0 = snap(*server, *repository);
    const Clock::time_point t0 = Clock::now();
    Result<core::Dedup2Result> round = server->run_dedup2(/*force_siu=*/true);
    const double round_s = since(t0);
    const ClockSnap d1 = snap(*server, *repository);
    r.op(round.ok() ? "" : "dedup-2 v" + std::to_string(v) + ": " +
                               round.error().to_string());
    r.sample("dedup2", version_bytes, round_s);
    r.layer_sample("chunk_store.round_s", round_s);
    r.layer_add("wall.dedup2_s", round_s);
    // Single-server dedup-2 runs SIL, chunk storing and SIU one after
    // another: its modeled time is the sum of the devices' busy time.
    model_dedup2 += (d1.servers[0].index_disk - d0.servers[0].index_disk) +
                    (d1.servers[0].log_disk - d0.servers[0].log_disk) +
                    (d1.repo_total - d0.repo_total) / kRepositoryNodes;
    if (round.ok()) {
      r.counts["chunk_store.sil_model_s"] += round.value().sil_seconds;
      r.counts["chunk_store.siu_model_s"] += round.value().siu_seconds;
      r.counts["dedup2.new_chunks"] +=
          static_cast<double>(round.value().new_chunks);
    }
  }

  double model_restore = 0;
  double restored = 0;
  const auto restore = [&](unsigned v, const char* op) {
    const ClockSnap c0 = snap(*server, *repository);
    Result<core::Dataset> got = Error{Errc::kNotFound, "not run"};
    double dt = 0;
    {
      const Scope span(r.tracer, "restore", r.span);
      const Clock::time_point t0 = Clock::now();
      got = engine.restore(job, v, *server, /*verify=*/false);
      dt = since(t0);
    }
    if (!got.ok()) {
      r.op("restore v" + std::to_string(v) + ": " + got.error().to_string());
      return;
    }
    r.op(check_synthetic(got.value(), fps_[v - 1], kChunk));
    model_restore +=
        restore_model_s(c0, snap(*server, *repository), kRepositoryNodes);
    restored += version_bytes;
    r.sample(op, version_bytes, dt);
    r.layer_sample("restore.read_chunk_us",
                   dt / static_cast<double>(chunks_) * 1e6);
    r.layer_add("wall.restore_s", dt);
  };
  for (unsigned v = 1; v <= versions_; ++v) restore(v, "restore_aged");

  core::MaintenanceJob maintenance(*director, *server, *repository,
                                   {.container_capacity = kContainer});
  run_maintenance(r, maintenance);
  for (unsigned v = versions_ - kKeepLast + 1; v <= versions_; ++v) {
    restore(v, "restore");
  }

  count_servers(r, {server.get()}, *repository);
  r.counts["logical_bytes"] = logical;
  r.counts["restored_bytes"] = restored;
  r.counts["model.dedup1_s"] = model_dedup1;
  r.counts["model.dedup2_s"] = model_dedup2;
  r.counts["model.restore_s"] = model_restore;
  r.counts["stored_per_logical"] = r.counts["storage.stored_bytes"] / logical;
  // No cluster wire here: the client's chunk uploads over the server's
  // modeled NIC are the only bytes on a wire.
  r.counts["wire_per_logical"] = r.counts["fs.transferred_bytes"] / logical;
  r.counts["modeled_backup_mbps"] =
      logical / (model_dedup1 + model_dedup2) / 1e6;
  r.counts["modeled_restore_mbps"] = restored / model_restore / 1e6;

  if (r.traced()) {
    const std::vector<Byte> bytes =
        synthetic_bytes(fps_[versions_ - 1], kChunk);
    replay_chunking(r, ByteSpan(bytes.data(), bytes.size()));
    replay_locate_and_read(r, *server, *repository, fps_[versions_ - 1]);
  }

  server.reset();
  repository.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace

std::unique_ptr<Workload> make_aged_chain(const Options& o) {
  return std::make_unique<AgedChain>(o);
}

}  // namespace perfbench
