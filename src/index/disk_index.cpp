#include "index/disk_index.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>
#include <future>
#include <thread>

#include "common/channel.hpp"
#include "common/fmt.hpp"
#include "common/log.hpp"
#include "common/serial.hpp"
#include "common/thread_pool.hpp"
#include "storage/io_retry.hpp"

namespace debar::index {

namespace {

/// Geometry of span s of a sequential scan: homes [a, home_end), read and
/// written as [lo, hi) with the one-bucket overflow margins.
struct SpanGeom {
  std::uint64_t a = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint64_t home_end = 0;
};

SpanGeom span_geom(std::uint64_t span, std::uint64_t io_buckets,
                   std::uint64_t bucket_count) {
  SpanGeom g;
  g.a = span * io_buckets;
  g.lo = (g.a == 0) ? 0 : g.a - 1;
  g.hi = std::min(bucket_count, g.a + io_buckets + 1);
  g.home_end = std::min(bucket_count, g.a + io_buckets);
  return g;
}

/// Detach the device's timing model for the duration of a parallel
/// operation (SimClock/DiskModel are single-threaded); reattached on every
/// exit path. The parallel paths then charge the model the serial access
/// sequence explicitly.
class ModelDetachGuard {
 public:
  explicit ModelDetachGuard(storage::BlockDevice& device)
      : device_(device), model_(device.model()) {
    device_.attach_model(nullptr);
  }
  ~ModelDetachGuard() { device_.attach_model(model_); }
  ModelDetachGuard(const ModelDetachGuard&) = delete;
  ModelDetachGuard& operator=(const ModelDetachGuard&) = delete;

  [[nodiscard]] sim::DiskModel* model() const noexcept { return model_; }

 private:
  storage::BlockDevice& device_;
  sim::DiskModel* model_;
};

/// Entries per 512-byte block and the block-local layout:
///   [u16 count][count * 25-byte entries][padding]
void serialize_block(std::span<const IndexEntry> entries,
                     std::span<Byte> out) {
  assert(out.size() == kIndexBlockSize);
  assert(entries.size() <= kEntriesPerIndexBlock);
  std::fill(out.begin(), out.end(), Byte{0});
  std::vector<Byte> buf;
  buf.reserve(kIndexBlockSize);
  ByteWriter w(buf);
  w.u16(static_cast<std::uint16_t>(entries.size()));
  for (const IndexEntry& e : entries) {
    w.fingerprint(e.fp);
    w.container_id(e.container);
  }
  std::copy(buf.begin(), buf.end(), out.begin());
}

}  // namespace

Result<DiskIndex> DiskIndex::create(
    std::unique_ptr<storage::BlockDevice> device, DiskIndexParams params) {
  if (device == nullptr) {
    return Error{Errc::kInvalidArgument, "null device"};
  }
  if (!params.valid()) {
    return Error{Errc::kInvalidArgument,
                 debar::format("bad index params: n={} skip={} blocks={}",
                             params.prefix_bits, params.skip_bits,
                             params.blocks_per_bucket)};
  }
  // Zero the whole address space: zeroed blocks parse as empty buckets.
  if (Status s = device->resize(0); !s.ok()) return Error{s.code(), s.message()};
  if (Status s = device->resize(params.index_bytes()); !s.ok()) {
    return Error{s.code(), s.message()};
  }
  return DiskIndex(std::move(device), params);
}

Result<DiskIndex> DiskIndex::open(std::unique_ptr<storage::BlockDevice> device,
                                  DiskIndexParams params) {
  if (device == nullptr) {
    return Error{Errc::kInvalidArgument, "null device"};
  }
  if (!params.valid()) {
    return Error{Errc::kInvalidArgument, "bad index params"};
  }
  if (device->size() != params.index_bytes()) {
    return Error{Errc::kCorrupt,
                 debar::format("index device is {} bytes, params imply {}",
                               device->size(), params.index_bytes())};
  }
  DiskIndex idx(std::move(device), params);
  const Result<IndexStats> stats = idx.stats();
  if (!stats.ok()) return stats.error();
  idx.entry_count_ = stats.value().entries;
  return idx;
}

Bucket DiskIndex::parse_bucket(ByteSpan data) const {
  assert(data.size() == params_.bucket_bytes());
  Bucket b;
  for (unsigned blk = 0; blk < params_.blocks_per_bucket; ++blk) {
    ByteReader r(data.subspan(blk * kIndexBlockSize, kIndexBlockSize));
    const std::uint16_t count = r.u16();
    if (count == 0) break;  // blocks fill in order; empty block ends bucket
    const std::uint16_t n =
        std::min<std::uint16_t>(count, kEntriesPerIndexBlock);
    for (std::uint16_t i = 0; i < n; ++i) {
      IndexEntry e;
      e.fp = r.fingerprint();
      e.container = r.container_id();
      b.entries.push_back(e);
    }
    if (count < kEntriesPerIndexBlock) break;  // partially filled last block
  }
  return b;
}

void DiskIndex::serialize_bucket(const Bucket& b, std::span<Byte> out) const {
  assert(out.size() == params_.bucket_bytes());
  assert(b.entries.size() <= params_.bucket_capacity());
  std::size_t taken = 0;
  for (unsigned blk = 0; blk < params_.blocks_per_bucket; ++blk) {
    const std::size_t n =
        std::min(kEntriesPerIndexBlock, b.entries.size() - taken);
    serialize_block(std::span<const IndexEntry>(b.entries).subspan(taken, n),
                    out.subspan(blk * kIndexBlockSize, kIndexBlockSize));
    taken += n;
    if (taken == b.entries.size() && n < kEntriesPerIndexBlock) {
      // Remaining blocks stay zero; also zero them on rewrite.
      for (unsigned z = blk + 1; z < params_.blocks_per_bucket; ++z) {
        std::fill_n(out.begin() + z * kIndexBlockSize, kIndexBlockSize,
                    Byte{0});
      }
      break;
    }
  }
}

Result<Bucket> DiskIndex::read_bucket(std::uint64_t idx) const {
  std::vector<Byte> buf(params_.bucket_bytes());
  if (Status s = storage::read_with_retry(*device_, idx * params_.bucket_bytes(),
                                          std::span<Byte>(buf));
      !s.ok()) {
    return Error{s.code(), s.message()};
  }
  return parse_bucket(ByteSpan(buf.data(), buf.size()));
}

Status DiskIndex::write_bucket(std::uint64_t idx, const Bucket& b) {
  std::vector<Byte> buf(params_.bucket_bytes());
  serialize_bucket(b, std::span<Byte>(buf));
  // Bucket writes ride the shared retry policy: a transiently failing
  // device must not abort an SIU round when a re-issue would land it.
  return storage::write_with_retry(*device_, idx * params_.bucket_bytes(),
                                   ByteSpan(buf.data(), buf.size()));
}

Status DiskIndex::read_bucket_range(std::uint64_t first, std::uint64_t count,
                                    std::vector<Bucket>& out) const {
  const std::uint64_t bb = params_.bucket_bytes();
  std::vector<Byte> buf(count * bb);
  if (Status s = storage::read_with_retry(*device_, first * bb,
                                          std::span<Byte>(buf));
      !s.ok()) {
    return s;
  }
  out.clear();
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(parse_bucket(ByteSpan(buf.data() + i * bb, bb)));
  }
  return Status::Ok();
}

Status DiskIndex::write_bucket_range(std::uint64_t first,
                                     std::span<const Bucket> buckets) {
  const std::uint64_t bb = params_.bucket_bytes();
  std::vector<Byte> buf(buckets.size() * bb);
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    serialize_bucket(buckets[i], std::span<Byte>(buf.data() + i * bb, bb));
  }
  return storage::write_with_retry(*device_, first * bb,
                                   ByteSpan(buf.data(), buf.size()));
}

Result<ContainerId> DiskIndex::lookup(const Fingerprint& fp) const {
  const std::uint64_t home = bucket_of(fp);
  Result<Bucket> rb = read_bucket(home);
  if (!rb.ok()) return rb.error();
  if (auto id = rb.value().find(fp)) return *id;

  // The entry may have overflowed next door. (With bulk_erase in the
  // picture a non-full home no longer proves absence — an erase can
  // leave a previously-overflowed entry stranded in a neighbour — so
  // misses always pay the neighbour reads.)
  for (const std::uint64_t nb : {home - 1, home + 1}) {
    if (nb >= params_.bucket_count()) continue;  // edge bucket
    Result<Bucket> rn = read_bucket(nb);
    if (!rn.ok()) return rn.error();
    if (auto id = rn.value().find(fp)) return *id;
  }
  return Error{Errc::kNotFound, "fingerprint not in index"};
}

Status DiskIndex::insert(const Fingerprint& fp, ContainerId id) {
  const std::uint64_t home = bucket_of(fp);
  Result<Bucket> rb = read_bucket(home);
  if (!rb.ok()) return rb.status();
  Bucket& b = rb.value();
  // Duplicate check covers the neighbourhood: a stranded overflow copy
  // (possible after bulk_erase) must not be silently duplicated.
  const bool left_first = (rng_() & 1) != 0;
  const std::uint64_t order[2] = {left_first ? home - 1 : home + 1,
                                  left_first ? home + 1 : home - 1};
  if (b.find(fp)) {
    return {Errc::kInvalidArgument, "duplicate fingerprint"};
  }
  Result<Bucket> neighbours[2] = {Error{Errc::kNotFound, ""},
                                  Error{Errc::kNotFound, ""}};
  for (int i = 0; i < 2; ++i) {
    if (order[i] >= params_.bucket_count()) continue;  // edge bucket
    neighbours[i] = read_bucket(order[i]);
    if (!neighbours[i].ok()) return neighbours[i].status();
    if (neighbours[i].value().find(fp)) {
      return {Errc::kInvalidArgument, "duplicate fingerprint"};
    }
  }

  if (!bucket_full(b)) {
    b.entries.push_back({fp, id});
    if (Status s = write_bucket(home, b); !s.ok()) return s;
    ++entry_count_;
    return Status::Ok();
  }
  // Overflow: the random-order neighbour with space takes the entry.
  for (int i = 0; i < 2; ++i) {
    if (order[i] >= params_.bucket_count() || !neighbours[i].ok()) continue;
    if (!bucket_full(neighbours[i].value())) {
      neighbours[i].value().entries.push_back({fp, id});
      if (Status s = write_bucket(order[i], neighbours[i].value()); !s.ok()) {
        return s;
      }
      ++entry_count_;
      return Status::Ok();
    }
  }
  needs_scaling_ = true;
  return {Errc::kFull,
          debar::format("bucket {} and both neighbours are full", home)};
}

Status DiskIndex::match_fingerprints_in_span(
    std::span<const Fingerprint> fingerprints,
    const std::vector<Bucket>& span_buckets, std::uint64_t lo, std::uint64_t a,
    std::uint64_t home_end, std::size_t& qi,
    const std::function<void(std::size_t, ContainerId)>& on_found) const {
  const std::uint64_t nb = params_.bucket_count();
  while (qi < fingerprints.size()) {
    const std::uint64_t home = bucket_of(fingerprints[qi]);
    if (home >= home_end) break;
    if (home < a) {
      return {Errc::kInvalidArgument,
              "bulk_lookup bucket order regressed (mixed routing prefixes?)"};
    }
    const Bucket& b = span_buckets[home - lo];
    if (auto id = b.find(fingerprints[qi])) {
      on_found(qi, *id);
    } else {
      // Neighbour buckets are already in memory: checking them
      // unconditionally costs nothing and stays correct after erases.
      for (const std::uint64_t n : {home - 1, home + 1}) {
        if (n >= nb) continue;
        if (auto id = span_buckets[n - lo].find(fingerprints[qi])) {
          on_found(qi, *id);
          break;
        }
      }
    }
    ++qi;
  }
  return Status::Ok();
}

Status DiskIndex::bulk_lookup(
    std::span<const Fingerprint> fingerprints,
    const std::function<void(std::size_t, ContainerId)>& on_found,
    std::uint64_t io_buckets) const {
  const std::uint64_t nb = params_.bucket_count();
  io_buckets = std::max<std::uint64_t>(io_buckets, 3);

  // Validate sorted input (bucket numbers must be non-decreasing, which is
  // what the streaming merge below relies on).
  for (std::size_t i = 1; i < fingerprints.size(); ++i) {
    if (fingerprints[i] < fingerprints[i - 1]) {
      return {Errc::kInvalidArgument, "bulk_lookup input not sorted"};
    }
  }
  if (!fingerprints.empty() &&
      bucket_of(fingerprints.front()) > bucket_of(fingerprints.back())) {
    return {Errc::kInvalidArgument,
            "bulk_lookup input spans mixed routing prefixes"};
  }

  std::size_t qi = 0;
  std::vector<Bucket> span_buckets;
  // Stream the entire index in io_buckets-sized reads, each extended one
  // bucket on both sides so overflow neighbours are always in memory.
  for (std::uint64_t a = 0; a < nb; a += io_buckets) {
    const std::uint64_t lo = (a == 0) ? 0 : a - 1;
    const std::uint64_t hi = std::min(nb, a + io_buckets + 1);
    if (Status s = read_bucket_range(lo, hi - lo, span_buckets); !s.ok()) {
      return s;
    }
    const std::uint64_t home_end = std::min(nb, a + io_buckets);
    if (Status s = match_fingerprints_in_span(fingerprints, span_buckets, lo,
                                              a, home_end, qi, on_found);
        !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

Status DiskIndex::bulk_lookup_sharded(
    std::span<const Fingerprint> fingerprints,
    const std::function<void(std::size_t, ContainerId)>& on_found,
    std::uint64_t io_buckets, const ParallelIoOptions& par) const {
  const std::uint64_t nb = params_.bucket_count();
  io_buckets = std::max<std::uint64_t>(io_buckets, 3);
  const std::uint64_t spans = (nb + io_buckets - 1) / io_buckets;
  const std::size_t shards =
      std::min<std::size_t>(par.parallel() ? par.workers : 1, spans);
  if (shards < 2) return bulk_lookup(fingerprints, on_found, io_buckets);

  for (std::size_t i = 1; i < fingerprints.size(); ++i) {
    if (fingerprints[i] < fingerprints[i - 1]) {
      return {Errc::kInvalidArgument, "bulk_lookup input not sorted"};
    }
  }
  if (!fingerprints.empty() &&
      bucket_of(fingerprints.front()) > bucket_of(fingerprints.back())) {
    return {Errc::kInvalidArgument,
            "bulk_lookup input spans mixed routing prefixes"};
  }

  // Each shard owns a contiguous, span-aligned bucket range and the
  // (contiguous, because the input is sorted) slice of fingerprints homed
  // there. Shards only ever read, and read margins overlapping a
  // neighbouring shard are harmless, so no synchronization is needed
  // beyond the final join. The device runs unmetered while shards race;
  // the serial access pattern is replayed below so modeled time — and the
  // fault injector's op count — stay identical to the serial scan.
  struct Shard {
    std::uint64_t first_span = 0;
    std::uint64_t end_span = 0;
    std::size_t fp_begin = 0;
    std::size_t fp_end = 0;
  };
  std::vector<Shard> plan(shards);
  for (std::size_t w = 0; w < shards; ++w) {
    plan[w].first_span = spans * w / shards;
    plan[w].end_span = spans * (w + 1) / shards;
    const std::uint64_t home_begin = plan[w].first_span * io_buckets;
    const std::uint64_t home_end =
        std::min(nb, plan[w].end_span * io_buckets);
    const auto at_or_after = [&](std::uint64_t bucket) {
      return static_cast<std::size_t>(std::distance(
          fingerprints.begin(),
          std::partition_point(fingerprints.begin(), fingerprints.end(),
                               [&](const Fingerprint& fp) {
                                 return bucket_of(fp) < bucket;
                               })));
    };
    plan[w].fp_begin = at_or_after(home_begin);
    plan[w].fp_end = at_or_after(home_end);
  }

  ModelDetachGuard metering(*device_);
  std::vector<std::future<Status>> pending;
  pending.reserve(shards);
  for (const Shard& shard : plan) {
    pending.push_back(par.pool->submit([this, shard, fingerprints, &on_found,
                                        io_buckets, nb]() -> Status {
      std::vector<Bucket> span_buckets;
      std::size_t qi = shard.fp_begin;
      // fp indices stay global: the worker walks the full input span but
      // clamps its cursor to [fp_begin, fp_end).
      const auto slice = fingerprints.first(shard.fp_end);
      for (std::uint64_t s = shard.first_span; s < shard.end_span; ++s) {
        const SpanGeom g = span_geom(s, io_buckets, nb);
        if (Status st = read_bucket_range(g.lo, g.hi - g.lo, span_buckets);
            !st.ok()) {
          return st;
        }
        if (Status st = match_fingerprints_in_span(
                slice, span_buckets, g.lo, g.a, g.home_end, qi, on_found);
            !st.ok()) {
          return st;
        }
      }
      return Status::Ok();
    }));
  }
  Status overall = Status::Ok();
  for (auto& fut : pending) {
    // First failing shard in shard order wins: deterministic error report.
    if (Status st = fut.get(); overall.ok() && !st.ok()) overall = st;
  }
  if (!overall.ok()) return overall;
  replay_serial_scan_metering(metering.model(), io_buckets, /*rmw=*/false);
  return Status::Ok();
}

Status DiskIndex::bulk_insert(std::span<const IndexEntry> entries,
                              std::uint64_t io_buckets,
                              std::uint64_t* inserted,
                              std::vector<std::size_t>* failed) {
  const std::uint64_t nb = params_.bucket_count();
  io_buckets = std::max<std::uint64_t>(io_buckets, 3);
  if (inserted != nullptr) *inserted = 0;
  if (failed != nullptr) failed->clear();

  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].fp < entries[i - 1].fp) {
      return {Errc::kInvalidArgument, "bulk_insert input not sorted"};
    }
  }
  if (!entries.empty() &&
      bucket_of(entries.front().fp) > bucket_of(entries.back().fp)) {
    return {Errc::kInvalidArgument,
            "bulk_insert input spans mixed routing prefixes"};
  }

  bool overflow_failure = false;
  std::size_t qi = 0;
  std::vector<Bucket> span_buckets;
  // One read-modify-write pass over the whole index. Each span carries a
  // one-bucket margin so every possible overflow target is in memory; the
  // margins are written back too, and the next span re-reads the updated
  // margin bucket, so cross-span overflow composes correctly.
  for (std::uint64_t a = 0; a < nb; a += io_buckets) {
    const std::uint64_t lo = (a == 0) ? 0 : a - 1;
    const std::uint64_t hi = std::min(nb, a + io_buckets + 1);
    if (Status s = read_bucket_range(lo, hi - lo, span_buckets); !s.ok()) {
      return s;
    }
    const std::uint64_t home_end = std::min(nb, a + io_buckets);
    if (Status s =
            place_entries_in_span(entries, span_buckets, lo, a, home_end, qi,
                                  overflow_failure, inserted, failed);
        !s.ok()) {
      return s;
    }
    if (Status s = write_bucket_range(
            lo, std::span<const Bucket>(span_buckets.data(), hi - lo));
        !s.ok()) {
      return s;
    }
  }
  if (overflow_failure) {
    return {Errc::kFull,
            "one or more bucket neighbourhoods full; capacity scaling needed"};
  }
  return Status::Ok();
}

Status DiskIndex::place_entries_in_span(std::span<const IndexEntry> entries,
                                        std::vector<Bucket>& span_buckets,
                                        std::uint64_t lo, std::uint64_t a,
                                        std::uint64_t home_end,
                                        std::size_t& qi,
                                        bool& overflow_failure,
                                        std::uint64_t* inserted,
                                        std::vector<std::size_t>* failed) {
  const std::uint64_t nb = params_.bucket_count();
  while (qi < entries.size()) {
    const IndexEntry& e = entries[qi];
    const std::uint64_t home = bucket_of(e.fp);
    if (home >= home_end) break;
    if (home < a) {
      return {Errc::kInvalidArgument,
              "bulk_insert bucket order regressed (mixed routing prefixes?)"};
    }
    Bucket& b = span_buckets[home - lo];
    // Duplicate check over the whole neighbourhood (all in memory).
    bool duplicate = b.find(e.fp).has_value();
    for (const std::uint64_t n : {home - 1, home + 1}) {
      if (duplicate || n >= nb) continue;
      duplicate = span_buckets[n - lo].find(e.fp).has_value();
    }
    bool placed = false;
    if (!duplicate && !bucket_full(b)) {
      b.entries.push_back(e);
      placed = true;
    } else if (!duplicate) {
      const bool left_first = (rng_() & 1) != 0;
      const std::uint64_t order[2] = {left_first ? home - 1 : home + 1,
                                      left_first ? home + 1 : home - 1};
      for (const std::uint64_t n : order) {
        if (n >= nb) continue;
        Bucket& nbk = span_buckets[n - lo];
        if (!bucket_full(nbk)) {
          nbk.entries.push_back(e);
          placed = true;
          break;
        }
      }
    }
    if (placed) {
      ++entry_count_;
      if (inserted != nullptr) ++(*inserted);
    } else if (!duplicate) {
      overflow_failure = true;
      needs_scaling_ = true;
      if (failed != nullptr) failed->push_back(qi);
    }
    ++qi;
  }
  return Status::Ok();
}

void DiskIndex::replay_serial_scan_metering(sim::DiskModel* model,
                                            std::uint64_t io_buckets,
                                            bool rmw) const {
  if (model == nullptr) return;
  const std::uint64_t nb = params_.bucket_count();
  const std::uint64_t bb = params_.bucket_bytes();
  for (std::uint64_t a = 0; a < nb; a += io_buckets) {
    const std::uint64_t lo = (a == 0) ? 0 : a - 1;
    const std::uint64_t hi = std::min(nb, a + io_buckets + 1);
    model->access(lo * bb, (hi - lo) * bb);
    if (rmw) model->access(lo * bb, (hi - lo) * bb);
  }
}

Status DiskIndex::bulk_insert_pipelined(std::span<const IndexEntry> entries,
                                        std::uint64_t io_buckets,
                                        const ParallelIoOptions& par,
                                        std::uint64_t* inserted,
                                        std::vector<std::size_t>* failed) {
  const std::uint64_t nb = params_.bucket_count();
  io_buckets = std::max<std::uint64_t>(io_buckets, 3);
  const std::uint64_t spans = (nb + io_buckets - 1) / io_buckets;
  if (!par.parallel() || spans < 3) {
    return bulk_insert(entries, io_buckets, inserted, failed);
  }
  if (inserted != nullptr) *inserted = 0;
  if (failed != nullptr) failed->clear();

  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].fp < entries[i - 1].fp) {
      return {Errc::kInvalidArgument, "bulk_insert input not sorted"};
    }
  }
  if (!entries.empty() &&
      bucket_of(entries.front().fp) > bucket_of(entries.back().fp)) {
    return {Errc::kInvalidArgument,
            "bulk_insert input spans mixed routing prefixes"};
  }

  // Three stages: pool workers prefetch+parse upcoming spans, this thread
  // merges entries span-by-span in exact serial order (it is the only
  // thread touching rng_/entry_count_, so the RNG draw sequence and every
  // tie-break match the serial pass), and a writer thread streams mutated
  // spans back out. The serial pass re-reads the margin buckets it just
  // wrote (spans overlap by two buckets); here those buckets are carried
  // forward in memory instead — serialize/parse round-trips losslessly, so
  // the carried image equals what a re-read would return, and prefetch
  // workers never read a bucket the merge stage still has to write.
  ModelDetachGuard metering(*device_);

  struct Prefetched {
    Status status = Status::Ok();
    std::vector<Bucket> buckets;
  };
  struct WriteJob {
    std::uint64_t lo = 0;
    std::vector<Bucket> buckets;
  };
  const std::size_t depth = std::max<std::size_t>(par.pipeline_depth, 1);

  Channel<WriteJob> write_ch(depth);
  Status writer_status = Status::Ok();
  std::atomic<bool> writer_failed{false};
  std::thread writer([&] {
    while (auto job = write_ch.receive()) {
      if (writer_failed.load(std::memory_order_relaxed)) continue;  // drain
      if (Status st = write_bucket_range(
              job->lo, std::span<const Bucket>(job->buckets));
          !st.ok()) {
        writer_status = st;
        writer_failed.store(true, std::memory_order_release);
      }
    }
  });

  std::deque<std::future<Prefetched>> prefetch;
  const auto submit_prefetch = [&](std::uint64_t s) {
    const SpanGeom g = span_geom(s, io_buckets, nb);
    // Spans after the first skip buckets a-1 and a: the merge stage owns
    // their freshest image (the carry), and reading them here would race
    // with the writer flushing the previous span.
    const std::uint64_t first = (s == 0) ? g.lo : g.a + 1;
    prefetch.push_back(
        par.pool->submit([this, first, last = g.hi]() -> Prefetched {
          Prefetched p;
          if (first < last) {
            p.status = read_bucket_range(first, last - first, p.buckets);
          }
          return p;
        }));
  };

  // RAII teardown in reverse order: drain prefetch futures first (their
  // tasks touch the device and must not outlive this call), then close the
  // channel and join the writer, then reattach the model.
  struct WriterJoin {
    Channel<WriteJob>& ch;
    std::thread& t;
    ~WriterJoin() {
      ch.close();
      if (t.joinable()) t.join();
    }
  } writer_join{write_ch, writer};
  struct PrefetchDrain {
    std::deque<std::future<Prefetched>>& q;
    ~PrefetchDrain() {
      for (auto& f : q) f.wait();
    }
  } prefetch_drain{prefetch};

  for (std::uint64_t s = 0; s < std::min<std::uint64_t>(spans, depth); ++s) {
    submit_prefetch(s);
  }

  bool overflow_failure = false;
  bool writer_aborted = false;
  std::size_t qi = 0;
  Bucket carry_low;   // bucket a-1 of the next span
  Bucket carry_high;  // bucket a of the next span
  Status overall = Status::Ok();
  for (std::uint64_t s = 0; s < spans; ++s) {
    Prefetched p = prefetch.front().get();
    prefetch.pop_front();
    if (s + depth < spans) submit_prefetch(s + depth);
    if (!p.status.ok()) {
      overall = p.status;
      break;
    }
    const SpanGeom g = span_geom(s, io_buckets, nb);
    std::vector<Bucket> span_buckets;
    span_buckets.reserve(g.hi - g.lo);
    if (s > 0) {
      span_buckets.push_back(std::move(carry_low));
      span_buckets.push_back(std::move(carry_high));
    }
    for (Bucket& b : p.buckets) span_buckets.push_back(std::move(b));
    assert(span_buckets.size() == g.hi - g.lo);
    if (Status st =
            place_entries_in_span(entries, span_buckets, g.lo, g.a,
                                  g.home_end, qi, overflow_failure, inserted,
                                  failed);
        !st.ok()) {
      overall = st;
      break;
    }
    if (s + 1 < spans) {
      // Next span's margin+first buckets are a+io-1 and a+io — the last
      // two elements of this (interior) span. Copy before the move below.
      carry_low = span_buckets[g.a + io_buckets - 1 - g.lo];
      carry_high = span_buckets[g.a + io_buckets - g.lo];
    }
    if (writer_failed.load(std::memory_order_acquire)) {
      writer_aborted = true;
      break;
    }
    write_ch.send(WriteJob{g.lo, std::move(span_buckets)});
  }

  for (auto& f : prefetch) f.wait();
  prefetch.clear();
  write_ch.close();
  if (writer.joinable()) writer.join();
  if (overall.ok() && (writer_aborted || !writer_status.ok())) {
    overall = writer_status;
  }
  if (!overall.ok()) return overall;

  replay_serial_scan_metering(metering.model(), io_buckets, /*rmw=*/true);
  if (overflow_failure) {
    return {Errc::kFull,
            "one or more bucket neighbourhoods full; capacity scaling needed"};
  }
  return Status::Ok();
}

Status DiskIndex::bulk_erase(std::span<const Fingerprint> fingerprints,
                             std::uint64_t io_buckets, std::uint64_t* erased) {
  const std::uint64_t nb = params_.bucket_count();
  io_buckets = std::max<std::uint64_t>(io_buckets, 3);
  if (erased != nullptr) *erased = 0;

  for (std::size_t i = 1; i < fingerprints.size(); ++i) {
    if (fingerprints[i] < fingerprints[i - 1]) {
      return {Errc::kInvalidArgument, "bulk_erase input not sorted"};
    }
  }

  std::size_t qi = 0;
  std::vector<Bucket> span_buckets;
  for (std::uint64_t a = 0; a < nb; a += io_buckets) {
    const std::uint64_t lo = (a == 0) ? 0 : a - 1;
    const std::uint64_t hi = std::min(nb, a + io_buckets + 1);
    if (Status s = read_bucket_range(lo, hi - lo, span_buckets); !s.ok()) {
      return s;
    }
    const std::uint64_t home_end = std::min(nb, a + io_buckets);
    while (qi < fingerprints.size()) {
      const Fingerprint& fp = fingerprints[qi];
      const std::uint64_t home = bucket_of(fp);
      if (home >= home_end) break;
      if (home < a) {
        return {Errc::kInvalidArgument,
                "bulk_erase bucket order regressed (mixed routing prefixes?)"};
      }
      for (const std::uint64_t b : {home, home - 1, home + 1}) {
        if (b >= nb) continue;
        auto& entries = span_buckets[b - lo].entries;
        const auto it = std::find_if(
            entries.begin(), entries.end(),
            [&](const IndexEntry& e) { return e.fp == fp; });
        if (it != entries.end()) {
          entries.erase(it);
          --entry_count_;
          if (erased != nullptr) ++(*erased);
          break;
        }
      }
      ++qi;
    }
    if (Status s = write_bucket_range(
            lo, std::span<const Bucket>(span_buckets.data(), hi - lo));
        !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

Status DiskIndex::bulk_update(std::span<const IndexEntry> entries,
                              std::uint64_t io_buckets,
                              std::uint64_t* missing) {
  const std::uint64_t nb = params_.bucket_count();
  io_buckets = std::max<std::uint64_t>(io_buckets, 3);
  if (missing != nullptr) *missing = 0;

  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].fp < entries[i - 1].fp) {
      return {Errc::kInvalidArgument, "bulk_update input not sorted"};
    }
  }

  std::size_t qi = 0;
  std::vector<Bucket> span_buckets;
  for (std::uint64_t a = 0; a < nb; a += io_buckets) {
    const std::uint64_t lo = (a == 0) ? 0 : a - 1;
    const std::uint64_t hi = std::min(nb, a + io_buckets + 1);
    if (Status s = read_bucket_range(lo, hi - lo, span_buckets); !s.ok()) {
      return s;
    }
    const std::uint64_t home_end = std::min(nb, a + io_buckets);
    while (qi < entries.size()) {
      const IndexEntry& e = entries[qi];
      const std::uint64_t home = bucket_of(e.fp);
      if (home >= home_end) break;
      if (home < a) {
        return {Errc::kInvalidArgument,
                "bulk_update bucket order regressed (mixed routing prefixes?)"};
      }
      // The entry lives in its home bucket or in a neighbour it
      // overflowed to (or was stranded in by a later erase).
      bool updated = false;
      for (const std::uint64_t b : {home, home - 1, home + 1}) {
        if (b >= nb) continue;
        for (IndexEntry& slot : span_buckets[b - lo].entries) {
          if (slot.fp == e.fp) {
            slot.container = e.container;
            updated = true;
            break;
          }
        }
        if (updated) break;
      }
      if (!updated && missing != nullptr) ++(*missing);
      ++qi;
    }
    if (Status s = write_bucket_range(
            lo, std::span<const Bucket>(span_buckets.data(), hi - lo));
        !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

namespace {

/// Stream every entry out of an index in ascending-fingerprint order.
/// (Entries within a bucket are unordered and overflow displaces entries
/// by one bucket, so a final sort is required regardless.)
Result<std::vector<IndexEntry>> collect_entries(const DiskIndex& idx,
                                                std::uint64_t io_buckets) {
  std::vector<IndexEntry> all;
  all.reserve(idx.entry_count());
  const std::uint64_t nb = idx.params().bucket_count();
  for (std::uint64_t a = 0; a < nb; a += io_buckets) {
    const std::uint64_t count = std::min(io_buckets, nb - a);
    for (std::uint64_t i = 0; i < count; ++i) {
      Result<Bucket> rb = idx.read_bucket(a + i);
      if (!rb.ok()) return rb.error();
      for (const IndexEntry& e : rb.value().entries) all.push_back(e);
    }
  }
  std::sort(all.begin(), all.end(),
            [](const IndexEntry& x, const IndexEntry& y) { return x.fp < y.fp; });
  return all;
}

}  // namespace

Result<DiskIndex> DiskIndex::scaled(
    std::unique_ptr<storage::BlockDevice> new_device) const {
  Result<std::vector<IndexEntry>> entries = collect_entries(*this, 1024);
  if (!entries.ok()) return entries.error();

  DiskIndexParams p = params_;
  p.prefix_bits += 1;
  Result<DiskIndex> fresh = create(std::move(new_device), p);
  if (!fresh.ok()) return fresh;

  // Re-placing each entry by the first n+1 bits re-homes previously
  // overflowed entries exactly as Section 4.1 prescribes.
  if (Status s = fresh.value().bulk_insert(
          std::span<const IndexEntry>(entries.value()));
      !s.ok()) {
    return Error{s.code(), "scaling re-insert failed: " + s.message()};
  }
  return fresh;
}

Result<std::vector<DiskIndex>> DiskIndex::split(
    std::vector<std::unique_ptr<storage::BlockDevice>> devices) const {
  const std::size_t parts = devices.size();
  if (parts == 0 || (parts & (parts - 1)) != 0) {
    return Error{Errc::kInvalidArgument,
                 "split requires a power-of-two device count"};
  }
  unsigned w = 0;
  while ((std::size_t{1} << w) < parts) ++w;
  if (w >= params_.prefix_bits) {
    return Error{Errc::kInvalidArgument,
                 "cannot split into more parts than buckets"};
  }

  Result<std::vector<IndexEntry>> entries = collect_entries(*this, 1024);
  if (!entries.ok()) return entries.error();

  DiskIndexParams p = params_;
  p.prefix_bits -= w;
  p.skip_bits += w;

  std::vector<DiskIndex> out;
  out.reserve(parts);
  // Entries are fingerprint-sorted, so each part's slice is contiguous.
  std::size_t begin = 0;
  for (std::size_t k = 0; k < parts; ++k) {
    Result<DiskIndex> part = create(std::move(devices[k]), p);
    if (!part.ok()) return part.error();
    std::size_t end = begin;
    while (end < entries.value().size() &&
           (entries.value()[end].fp.prefix_bits(params_.skip_bits + w) &
            (parts - 1)) == k) {
      ++end;
    }
    if (Status s = part.value().bulk_insert(std::span<const IndexEntry>(
            entries.value().data() + begin, end - begin));
        !s.ok()) {
      return Error{s.code(),
                   debar::format("split part {} insert failed: {}", k,
                               s.message())};
    }
    begin = end;
    out.push_back(std::move(part).value());
  }
  if (begin != entries.value().size()) {
    return Error{Errc::kCorrupt, "split partition did not consume all entries"};
  }
  return out;
}

Result<IndexStats> DiskIndex::stats() const {
  IndexStats st;
  st.buckets = params_.bucket_count();
  std::vector<Bucket> span_buckets;
  const std::uint64_t io = 1024;
  for (std::uint64_t a = 0; a < st.buckets; a += io) {
    const std::uint64_t count = std::min(io, st.buckets - a);
    if (Status s = read_bucket_range(a, count, span_buckets); !s.ok()) {
      return Error{s.code(), s.message()};
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      const Bucket& b = span_buckets[i];
      st.entries += b.entries.size();
      if (bucket_full(b)) ++st.full_buckets;
      for (const IndexEntry& e : b.entries) {
        if (bucket_of(e.fp) != a + i) ++st.overflowed_entries;
      }
    }
  }
  st.utilization = static_cast<double>(st.entries) /
                   static_cast<double>(params_.entry_capacity());
  st.full_fraction = static_cast<double>(st.full_buckets) /
                     static_cast<double>(st.buckets);
  return st;
}

Status insert_with_scaling(DiskIndex& idx, std::vector<IndexEntry> entries,
                           std::uint64_t io_buckets, const DeviceFactory& mint,
                           const ParallelIoOptions& par,
                           std::uint64_t* inserted, std::uint64_t* scalings) {
  while (!entries.empty()) {
    std::uint64_t applied = 0;
    std::vector<std::size_t> failed;
    const std::span<const IndexEntry> batch(entries);
    Status s = par.parallel()
                   ? idx.bulk_insert_pipelined(batch, io_buckets, par,
                                               &applied, &failed)
                   : idx.bulk_insert(batch, io_buckets, &applied, &failed);
    if (inserted != nullptr) *inserted += applied;
    if (s.ok()) break;
    if (s.code() != Errc::kFull) return s;

    // Capacity scaling (Section 4.1): rebuild at 2^{n+1} buckets, then
    // re-apply only the entries that could not be placed.
    DEBAR_LOG_INFO("disk index full at {} entries; scaling capacity",
                   idx.entry_count());
    Result<DiskIndex> grown = idx.scaled(mint());
    if (!grown.ok()) return grown.status();
    idx = std::move(grown).value();
    if (scalings != nullptr) ++*scalings;

    std::vector<IndexEntry> retry;
    retry.reserve(failed.size());
    for (const std::size_t i : failed) retry.push_back(entries[i]);
    entries = std::move(retry);
  }
  return Status::Ok();
}

Result<std::vector<IndexEntry>> extract_sorted_entries(const DiskIndex& idx) {
  std::vector<IndexEntry> entries;
  entries.reserve(idx.entry_count());
  const std::uint64_t buckets = idx.params().bucket_count();
  for (std::uint64_t b = 0; b < buckets; ++b) {
    Result<Bucket> bucket = idx.read_bucket(b);
    if (!bucket.ok()) return bucket.error();
    entries.insert(entries.end(), bucket.value().entries.begin(),
                   bucket.value().entries.end());
  }
  std::sort(
      entries.begin(), entries.end(),
      [](const IndexEntry& a, const IndexEntry& b) { return a.fp < b.fp; });
  return entries;
}

}  // namespace debar::index
