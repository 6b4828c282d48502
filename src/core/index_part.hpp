// One copy of a fingerprint index partition, as a service (Sections
// 5.2-5.4, DESIGN.md §5g): the copy's DiskIndex plus its checking
// (pending) set. A partition's primary copy is its server's ChunkStore
// (which is an IndexPart); its backup copy is a replica IndexPart on the
// server the PartitionMap names. Both are created with the same
// DiskIndexParams (hash seed included), so identical entry sequences
// yield byte-identical device images; sharded SIL and pipelined SIU are
// byte-identical to the serial scans (ctest -L parallel), so a primary and
// its always-serial replica never drift.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "index/disk_index.hpp"

namespace debar::core {

/// Execution knobs for the parallel dedup-2 pipeline (sharded SIL,
/// SIL/store overlap, pipelined SIU). All outputs — container IDs, index
/// image, metadata, modeled seconds — are byte-identical for every value
/// of `threads`; the knob only changes how many cores chase them.
struct Dedup2Options {
  /// Worker threads. 0 = one per hardware thread; 1 = today's serial
  /// code paths, unchanged.
  std::size_t threads = 0;
  /// Bounded look-ahead, in batches (SIL->store channel) and in io_buckets
  /// spans (SIU prefetch/write-back), between pipeline stages.
  std::size_t pipeline_depth = 4;

  [[nodiscard]] std::size_t resolved_threads() const noexcept {
    if (threads != 0) return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }
};

struct SilResult {
  std::uint64_t queried = 0;
  std::uint64_t found_on_disk = 0;   // duplicates resolved by the index
  std::uint64_t found_pending = 0;   // duplicates resolved by checking set
  double seconds = 0.0;              // modeled index-device time
};

struct SiuResult {
  std::uint64_t inserted = 0;
  std::uint64_t scalings = 0;  // capacity-scaling passes triggered
  double seconds = 0.0;        // modeled index-device time
};

class IndexPart {
 public:
  /// `device_factory` mints fresh block devices for capacity scaling
  /// (attached to the same disk model as the current index device).
  IndexPart(index::DiskIndex idx, std::uint64_t io_buckets,
            std::uint64_t siu_threshold, Dedup2Options exec,
            index::DeviceFactory device_factory);

  /// Sequential index lookup. `sorted_fps` must be ascending and within
  /// this part's routing prefix. `found[i]` is set true when fps[i] is a
  /// duplicate (on disk or pending SIU).
  [[nodiscard]] Result<SilResult> sil(
      const std::vector<Fingerprint>& sorted_fps,
      std::vector<std::uint8_t>& found);

  /// Queue entries into the checking set; they are immediately visible to
  /// sil() and locate(). Last writer wins: the defragmenter re-maps
  /// pending entries through here, and catch-up resync may re-deliver
  /// entries a copy already holds.
  void add_pending(std::span<const IndexEntry> entries);

  /// Sequential index update: flush every pending entry, scaling capacity
  /// automatically if bucket neighbourhoods fill.
  [[nodiscard]] Result<SiuResult> siu();

  [[nodiscard]] std::uint64_t pending_count() const;
  /// The checking set reached the SIU threshold ("one PSIU servicing more
  /// than one PSIL", Section 5.4). Forced SIU ignores it.
  [[nodiscard]] bool siu_due() const;

  /// Where does this fingerprint's chunk live? Checks the pending set
  /// first, then the disk index (one random modeled I/O).
  [[nodiscard]] Result<ContainerId> locate(const Fingerprint& fp) const;

  [[nodiscard]] const index::DiskIndex& index() const noexcept {
    return index_;
  }
  [[nodiscard]] index::DiskIndex& index() noexcept { return index_; }

 protected:
  /// Swap in a rebuilt index (migration / maintenance commit). Pure
  /// in-memory: the replacement was fully built by the prepare stage.
  void rebase(index::DiskIndex idx) noexcept { index_ = std::move(idx); }

 private:
  /// Lazily-built worker pool for the parallel SIL/SIU paths (never
  /// created when the execution plan resolves to one thread).
  [[nodiscard]] ThreadPool* pool();
  [[nodiscard]] double index_clock_seconds() const;

  index::DiskIndex index_;
  std::uint64_t io_buckets_;
  std::uint64_t siu_threshold_;
  Dedup2Options exec_;
  index::DeviceFactory device_factory_;
  std::unique_ptr<ThreadPool> pool_;

  /// The checking-fingerprint file: entries stored to containers but not
  /// yet registered in the disk index (pending SIU). Guarded by
  /// pending_mutex_: the pipelined single-server dedup-2 reads it from
  /// the SIL stage while the store stage appends via add_pending.
  mutable std::mutex pending_mutex_;
  std::unordered_map<Fingerprint, ContainerId, FingerprintHash> pending_;
};

}  // namespace debar::core
