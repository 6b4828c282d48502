#include "core/backup_server.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <optional>
#include <thread>

#include "common/channel.hpp"
#include "storage/block_device.hpp"

namespace debar::core {

namespace {

using DeviceFactory =
    std::function<std::unique_ptr<storage::BlockDevice>()>;

std::unique_ptr<storage::BlockDevice> mint_device(
    const DeviceFactory& factory, sim::DiskModel* model) {
  auto device = factory != nullptr
                    ? factory()
                    : std::make_unique<storage::MemBlockDevice>();
  device->attach_model(model);
  return device;
}

}  // namespace

BackupServer::BackupServer(std::size_t server_id,
                           const BackupServerConfig& config,
                           storage::ChunkRepository* repository,
                           Director* director)
    : server_id_(server_id),
      config_(config),
      nic_model_(config.nic_profile, &nic_clock_),
      log_model_(config.log_profile, &log_clock_),
      index_model_(config.index_profile, &index_clock_) {
  chunk_log_ = std::make_unique<storage::ChunkLog>(
      mint_device(config.log_device_factory, &log_model_));

  Result<index::DiskIndex> idx = index::DiskIndex::create(
      mint_device(config.index_device_factory, &index_model_),
      config.index_params);
  if (!idx.ok()) {
    // A fault-injecting device factory can fail the very first index
    // create (e.g. a crash point hit while a migration staged this
    // server). Record it and fall back to a plain in-memory device so the
    // object stays constructed; boot_status() gates any real use.
    boot_status_ = Status(idx.error().code, idx.error().message);
    auto fallback = std::make_unique<storage::MemBlockDevice>();
    fallback->attach_model(&index_model_);
    idx = index::DiskIndex::create(std::move(fallback), config.index_params);
  }
  assert(idx.ok() && "index params validated by config construction");

  file_store_ = std::make_unique<FileStore>(config.filter_params,
                                            chunk_log_.get(), &nic_model_,
                                            director);
  // The index cache must agree with the index part on routing bits, and
  // the chunk store seals containers of the server's configured size.
  ChunkStoreConfig cs = config.chunk_store;
  cs.cache_params.skip_bits = config.index_params.skip_bits;
  cs.container_capacity = config.container_capacity;
  chunk_store_ = std::make_unique<ChunkStore>(
      std::move(idx).value(), cs, repository, chunk_log_.get(),
      [factory = config.index_device_factory, model = &index_model_] {
        return mint_device(factory, model);
      });
}

Status BackupServer::attach_replica(std::size_t part) {
  if (replicas_.contains(part)) {
    return {Errc::kInvalidArgument,
            "server already hosts a replica of this part"};
  }
  Result<index::DiskIndex> idx =
      index::DiskIndex::create(mint_index_device(), config_.index_params);
  if (!idx.ok()) return {idx.error().code, idx.error().message};
  adopt_replica(part, std::move(idx).value());
  return Status::Ok();
}

void BackupServer::adopt_replica(std::size_t part, index::DiskIndex idx) {
  replicas_[part] = std::make_unique<IndexPart>(
      std::move(idx), config_.chunk_store.io_buckets,
      config_.chunk_store.siu_threshold, Dedup2Options{.threads = 1},
      [this] { return mint_index_device(); });
}

std::unique_ptr<storage::BlockDevice> BackupServer::mint_index_device() {
  return mint_device(config_.index_device_factory, &index_model_);
}

void BackupServer::install_staged(StagedCopy copy) {
  if (copy.via_store) {
    config_.index_params.skip_bits = copy.idx.params().skip_bits;
    chunk_store_->rebase_index(std::move(copy.idx));
  } else {
    adopt_replica(copy.part, std::move(copy.idx));
  }
}

Result<Dedup2Result> BackupServer::run_dedup2(bool force_siu) {
  Dedup2Result result;
  std::vector<Fingerprint> undetermined = file_store_->take_undetermined();
  result.undetermined = undetermined.size();

  // Process in index-cache-sized batches; the chunk log stays intact until
  // every batch has replayed it (later batches still need its records).
  const std::size_t batch_cap = config_.chunk_store.cache_params.capacity;
  const std::size_t threads = config_.chunk_store.dedup2.resolved_threads();

  // Chunk storing for one batch's SIL survivors.
  Status store_status = Status::Ok();
  auto store = [&](const std::vector<Fingerprint>& new_fps) {
    Result<StoreResult> stored = chunk_store_->store_new_chunks(new_fps);
    if (!stored.ok()) {
      store_status = stored.status();
      return;
    }
    result.new_chunks += stored.value().new_chunks;
    result.new_bytes += stored.value().new_bytes;
    chunk_store_->add_pending(
        std::span<const IndexEntry>(stored.value().entries));
  };
  // Pipelined dedup-2 (threads > 1): SIL for batch b+1 (itself sharded
  // across the pool) overlaps chunk storing for batch b on a dedicated
  // consumer thread. Safe because take_undetermined() deduplicates, so no
  // fingerprint appears in two batches: a batch's SIL outcome cannot
  // depend on an in-flight store of an earlier batch — except through
  // the checking set, which both stages access under its mutex and
  // which only ever flips a duplicate verdict for fingerprints the
  // earlier batch owns. The stages also drive disjoint modeled clocks
  // (index vs log/repository), and the single consumer seals containers
  // in batch order, so container IDs, metadata, and modeled seconds all
  // match the serial schedule exactly.
  std::optional<Channel<std::vector<Fingerprint>>> jobs;
  std::atomic<bool> store_failed{false};
  std::thread store_stage;
  if (threads > 1) {
    jobs.emplace(
        std::max<std::size_t>(config_.chunk_store.dedup2.pipeline_depth, 1));
    store_stage = std::thread([&] {
      while (auto new_fps = jobs->receive()) {
        if (store_failed.load(std::memory_order_relaxed)) continue;  // drain
        store(*new_fps);
        if (!store_status.ok()) {
          store_failed.store(true, std::memory_order_release);
        }
      }
    });
  }

  Status sil_status = Status::Ok();
  for (std::size_t pos = 0; pos < undetermined.size();) {
    if (store_failed.load(std::memory_order_acquire)) break;
    const std::size_t n = std::min(batch_cap, undetermined.size() - pos);
    std::vector<Fingerprint> batch(undetermined.begin() + pos,
                                   undetermined.begin() + pos + n);
    pos += n;
    ++result.sil_runs;

    std::vector<std::uint8_t> found;
    Result<SilResult> sil = chunk_store_->sil(batch, found);
    if (!sil.ok()) {
      sil_status = sil.status();
      break;
    }
    result.sil_seconds += sil.value().seconds;
    result.duplicates += sil.value().found_on_disk + sil.value().found_pending;

    std::vector<Fingerprint> new_fps;
    new_fps.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (found[i] == 0) new_fps.push_back(batch[i]);
    }
    if (jobs.has_value()) {
      jobs->send(std::move(new_fps));
      continue;
    }
    store(new_fps);
    if (!store_status.ok()) break;
  }
  if (jobs.has_value()) {
    jobs->close();
    store_stage.join();
  }
  // The store stage's failure takes precedence: in program order it
  // belongs to an earlier batch than anything the producer saw.
  if (!store_status.ok()) {
    return Error{store_status.code(), store_status.message()};
  }
  if (!sil_status.ok()) return Error{sil_status.code(), sil_status.message()};
  chunk_store_->clear_log();

  if (force_siu || chunk_store_->siu_due()) {
    Result<SiuResult> siu = chunk_store_->siu();
    if (!siu.ok()) return siu.error();
    result.ran_siu = true;
    result.siu_seconds = siu.value().seconds;
  }
  return result;
}

}  // namespace debar::core
