// Shared machinery of the end-to-end benchmark: sample series, the span
// tracer, per-round bookkeeping, modeled-clock snapshots, restore
// verification and the layer replays every workload uses.
//
// A run repeats one workload in *rounds*. Every round builds a fresh
// system from the same generated inputs and runs the complete scenario,
// so each round's counts and modeled times must repeat exactly, and each
// operation's wall time is taken over its repeats in all the rounds.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/backup_server.hpp"
#include "core/cluster.hpp"
#include "core/maintenance.hpp"
#include "core/metadata.hpp"
#include "storage/chunk_repository.hpp"

namespace perfbench {

using namespace debar;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Samples of one metric, pooled over every round of a run.
class Series {
 public:
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  /// Nearest-rank quantile; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Wall-clock samples of one kind of operation. Every round runs the same
/// operations in the same order, so the i-th sample of a round is the same
/// operation as the i-th of every other round. An operation's time is the
/// fastest of its repeats: other tenants of the host only ever add time,
/// and when they load its CPUs for a while, the median of a multi-threaded
/// dedup-2 round moved by up to 22% between runs, its minimum by 8%.
/// Rates weigh the operations by their bytes.
class OpSeries {
 public:
  void add(std::size_t op, double bytes, double seconds);
  [[nodiscard]] std::size_t ops() const noexcept { return bytes_.size(); }
  [[nodiscard]] std::size_t samples() const noexcept { return samples_; }
  /// Sum of bytes over the sum of the operations' fastest times.
  [[nodiscard]] double rate() const;
  /// Mean of the operations' fastest times.
  [[nodiscard]] double mean_seconds() const;
  /// Nearest-rank quantile of the operations' fastest times.
  [[nodiscard]] double quantile_seconds(double q) const;
  /// Median of every sample (set-up, one per round).
  [[nodiscard]] double median_seconds() const;

 private:
  [[nodiscard]] std::vector<double> fastest() const;

  std::vector<double> bytes_;
  std::vector<Series> seconds_;
  Series all_;
  std::size_t samples_ = 0;
};

/// One span: an operation (job, dedup-2 round, restore, maintenance), a
/// dedup-2 phase, or a group of short layer calls whose durations were
/// summed (`calls` > 1, no meaningful start).
struct Span {
  std::string name;
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint64_t calls = 1;
};

/// In-memory span store; written out once, when the run ends.
class Tracer {
 public:
  [[nodiscard]] std::int64_t now_ns() const;
  [[nodiscard]] std::int64_t to_ns(Clock::time_point t) const;
  int begin(std::string name, int parent);
  void end(int id);
  int add(std::string name, int parent, std::int64_t start_ns,
          std::int64_t dur_ns, std::uint64_t calls = 1);
  /// Self time per span name, summed over all spans of that name: each
  /// span's duration minus the time its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  [[nodiscard]] bool write_jsonl(const std::filesystem::path& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the round is not traced.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, int parent)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(std::move(name), parent) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Everything one round contributes to the run's report.
struct Round {
  /// Non-null on traced rounds only.
  Tracer* tracer = nullptr;
  /// The round's own span (-1 when untraced).
  int span = -1;
  /// End-to-end wall samples per kind of operation, pooled over the run
  /// (traced rounds do not feed these).
  std::map<std::string, OpSeries>* wall = nullptr;
  /// Per-layer samples and sums, pooled over the run's traced rounds.
  std::map<std::string, Series>* layer = nullptr;
  std::map<std::string, double>* layer_sum = nullptr;
  /// Counts and modeled times: must be identical in every round.
  std::map<std::string, double> counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  /// Wall time of all sampled operations: the round's end-to-end time.
  double op_seconds = 0;
  /// Operations of each kind sampled so far this round.
  std::map<std::string, std::size_t> next_op;

  [[nodiscard]] bool traced() const noexcept { return tracer != nullptr; }
  /// One operation attempted; `error` empty means it succeeded.
  void op(const std::string& error);
  /// The next operation of kind `op` moved `bytes` in `seconds`.
  void sample(const std::string& op, double bytes, double seconds);
  void layer_sample(const std::string& metric, double value);
  void layer_add(const std::string& key, double value);
};

/// Receives ClusterConfig::phase_hook calls ("A".."E", then "commit") and
/// turns them into per-phase wall times when the enclosing operation
/// ends. Relief rounds inside ingest jobs are seen only through these
/// marks. Must outlive the cluster it is hooked into.
class PhaseClock {
 public:
  [[nodiscard]] std::function<void(const char*)> hook();
  [[nodiscard]] bool pending() const noexcept { return !marks_.empty(); }
  /// Time of the pending round's phase A mark.
  [[nodiscard]] Clock::time_point round_start() const {
    return marks_.front().second;
  }
  /// Close the pending round at `end`: per-phase samples on traced
  /// rounds, spans under `parent`. Returns the number of rounds closed.
  std::size_t close(Round& r, Clock::time_point end, int parent);

 private:
  std::vector<std::pair<std::string, Clock::time_point>> marks_;
};

/// Modeled-device clocks of every server plus the repository nodes.
struct ClockSnap {
  std::vector<core::ServerClocks> servers;
  double repo_total = 0;
};
[[nodiscard]] ClockSnap snap(core::Cluster& cluster);
[[nodiscard]] ClockSnap snap(core::BackupServer& server,
                             const storage::ChunkRepository& repository);
/// Dedup-1 modeled time of a window: the busiest server device.
[[nodiscard]] double backup_model_s(const ClockSnap& a, const ClockSnap& b);
/// Restore modeled time of a window (the fig14 convention): the busiest
/// server's index disk or NIC, or the repository's balanced node time.
[[nodiscard]] double restore_model_s(const ClockSnap& a, const ClockSnap& b,
                                     std::size_t repository_nodes);

/// Empty when `got` is the concatenation of the synthetic payloads of
/// `fps` (one file); otherwise what differs.
[[nodiscard]] std::string check_synthetic(const core::Dataset& got,
                                          std::span<const Fingerprint> fps,
                                          std::uint32_t chunk_size);
/// Empty when `got` holds exactly `want`'s files, byte for byte.
[[nodiscard]] std::string check_dataset(const core::Dataset& got,
                                        const core::Dataset& want);

/// Labelled replays (traced rounds only, never inside an operation).
/// Chunker then multi-buffer SHA-1 over `content`, as the dedup-1 client
/// runs them; returns the seconds spent.
double replay_chunking(Round& r, ByteSpan content);
/// ChunkStore::locate over `fps` on each fingerprint's serving copy,
/// then ChunkRepository::read over the distinct containers found.
void replay_locate_and_read(Round& r, core::Cluster& cluster,
                            std::span<const Fingerprint> fps);
void replay_locate_and_read(Round& r, core::BackupServer& server,
                            storage::ChunkRepository& repository,
                            std::span<const Fingerprint> fps);

/// Times the FileStore offer and receive calls of one traced job or
/// replay; finish() records them as two aggregate spans and adds the
/// offer/receive sums behind file_store.offer_ns and receive_mbps.
class FileStoreTimer {
 public:
  explicit FileStoreTimer(Round& r) : r_(r), start_(r.tracer->now_ns()) {}

  /// `offer()` returns whether the chunk must be transferred.
  template <typename Offer>
  bool offer(Offer&& offer) {
    const Clock::time_point t0 = Clock::now();
    const bool admitted = offer();
    offer_ns_ += std::chrono::nanoseconds(Clock::now() - t0).count();
    ++offers_;
    return admitted;
  }
  /// `receive()` moves `bytes` of chunk payload into the store.
  template <typename Receive>
  Status receive(std::uint64_t bytes, Receive&& receive) {
    const Clock::time_point t0 = Clock::now();
    Status s = receive();
    receive_ns_ += std::chrono::nanoseconds(Clock::now() - t0).count();
    received_ += bytes;
    return s;
  }
  /// Spans "<prefix>file_store.offer" and "...receive" under `parent`.
  void finish(int parent, const std::string& prefix);

 private:
  Round& r_;
  std::int64_t start_;
  std::int64_t offer_ns_ = 0;
  std::int64_t receive_ns_ = 0;
  std::uint64_t offers_ = 0;
  std::uint64_t received_ = 0;
};

/// Traced-round dedup-1 of one synthetic stream through the same FileStore
/// calls BackupEngine::run_backup_stream makes, with the offer and receive
/// calls timed. Returns an error message, empty on success.
[[nodiscard]] std::string backup_stream_traced(
    Round& r, int parent, core::FileStore& fs, core::Director& director,
    const std::string& client_name, std::uint64_t job_id,
    std::span<const Fingerprint> stream, std::uint32_t chunk_size);

/// The bytes a synthetic stream stands for (chunking replays).
[[nodiscard]] std::vector<Byte> synthetic_bytes(
    std::span<const Fingerprint> stream, std::uint32_t chunk_size);

/// One timed maintenance operation: plan() then execute(). Feeds
/// maint_s, the maint.* layer samples and the report's counts.
void run_maintenance(Round& r, core::MaintenanceJob& job);

/// Counts every workload reports at the end of its round.
void count_transport(Round& r, const net::TransportStats& stats);
void count_servers(Round& r, std::vector<core::BackupServer*> servers,
                   const storage::ChunkRepository& repository);

/// ru_maxrss of this process, MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
