#include "core/index_part.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <utility>

namespace debar::core {

IndexPart::IndexPart(index::DiskIndex idx, std::uint64_t io_buckets,
                     std::uint64_t siu_threshold, Dedup2Options exec,
                     index::DeviceFactory device_factory)
    : index_(std::move(idx)),
      io_buckets_(io_buckets),
      siu_threshold_(siu_threshold),
      exec_(exec),
      device_factory_(std::move(device_factory)) {
  assert(device_factory_ != nullptr);
}

ThreadPool* IndexPart::pool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(exec_.resolved_threads());
  }
  return pool_.get();
}

double IndexPart::index_clock_seconds() const {
  const sim::DiskModel* model = index_.device().model();
  return model == nullptr ? 0.0 : model->clock()->seconds();
}

Result<SilResult> IndexPart::sil(const std::vector<Fingerprint>& sorted_fps,
                                 std::vector<std::uint8_t>& found) {
  SilResult result;
  result.queried = sorted_fps.size();
  found.assign(sorted_fps.size(), 0);

  const double t0 = index_clock_seconds();
  const std::size_t threads = exec_.resolved_threads();
  Status s = Status::Ok();
  if (threads > 1) {
    // Shard workers hit disjoint input indices (found[i] writes never
    // collide); only the counter needs to be atomic.
    std::atomic<std::uint64_t> found_on_disk{0};
    const index::ParallelIoOptions par{pool(), threads, exec_.pipeline_depth};
    s = index_.bulk_lookup_sharded(
        std::span<const Fingerprint>(sorted_fps),
        [&found, &found_on_disk](std::size_t i, ContainerId) {
          found[i] = 1;
          found_on_disk.fetch_add(1, std::memory_order_relaxed);
        },
        io_buckets_, par);
    result.found_on_disk = found_on_disk.load();
  } else {
    s = index_.bulk_lookup(
        std::span<const Fingerprint>(sorted_fps),
        [&](std::size_t i, ContainerId) {
          found[i] = 1;
          ++result.found_on_disk;
        },
        io_buckets_);
  }
  if (!s.ok()) return Error{s.code(), s.message()};
  result.seconds = index_clock_seconds() - t0;

  // Checking-fingerprint pass (Section 5.4): fingerprints already stored
  // by an earlier SIL round but still awaiting SIU must not be stored
  // again. This is an in-memory set, no device time.
  {
    std::lock_guard lock(pending_mutex_);
    for (std::size_t i = 0; i < sorted_fps.size(); ++i) {
      if (found[i] == 0 && pending_.contains(sorted_fps[i])) {
        found[i] = 1;
        ++result.found_pending;
      }
    }
  }
  return result;
}

void IndexPart::add_pending(std::span<const IndexEntry> entries) {
  std::lock_guard lock(pending_mutex_);
  for (const IndexEntry& e : entries) {
    pending_.insert_or_assign(e.fp, e.container);
  }
}

Result<SiuResult> IndexPart::siu() {
  SiuResult result;

  std::vector<IndexEntry> entries;
  {
    std::lock_guard lock(pending_mutex_);
    if (pending_.empty()) return result;
    entries.reserve(pending_.size());
    for (const auto& [fp, cid] : pending_) entries.push_back({fp, cid});
  }
  std::sort(
      entries.begin(), entries.end(),
      [](const IndexEntry& a, const IndexEntry& b) { return a.fp < b.fp; });

  const std::size_t threads = exec_.resolved_threads();
  const index::ParallelIoOptions par =
      threads > 1
          ? index::ParallelIoOptions{pool(), threads, exec_.pipeline_depth}
          : index::ParallelIoOptions{};
  const double t0 = index_clock_seconds();
  if (Status s = index::insert_with_scaling(index_, std::move(entries),
                                            io_buckets_, device_factory_, par,
                                            &result.inserted,
                                            &result.scalings);
      !s.ok()) {
    return Error{s.code(), s.message()};
  }
  result.seconds = index_clock_seconds() - t0;

  {
    std::lock_guard lock(pending_mutex_);
    pending_.clear();
  }
  return result;
}

std::uint64_t IndexPart::pending_count() const {
  std::lock_guard lock(pending_mutex_);
  return pending_.size();
}

bool IndexPart::siu_due() const { return pending_count() >= siu_threshold_; }

Result<ContainerId> IndexPart::locate(const Fingerprint& fp) const {
  {
    std::lock_guard lock(pending_mutex_);
    if (const auto it = pending_.find(fp); it != pending_.end()) {
      return it->second;
    }
  }
  return index_.lookup(fp);
}

}  // namespace debar::core
