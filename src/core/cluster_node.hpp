// One backup server's share of the cluster protocol (DESIGN.md §5f).
//
// ClusterNode is the only code that does one server's part of a round:
// take and partition its undetermined fingerprints, send and collect the
// FingerprintBatch / VerdictBatch / IndexEntryBatch exchanges (epoch- and
// query_count-checked), run PSIL over the copies it serves, store the
// chunks PSIL declared new and route their entries, and commit. It also
// answers restore locates and maintenance MARK / INSTALL on the copies it
// hosts, and swaps its staged copies in. Two drivers call these steps:
// core::Cluster, one node per server in one process, one parallel_for per
// phase, keeping every decision that spans servers; and the SPMD driver
// here (run_dedup2_round / serve_restores / serve_maintenance), one node
// per thread or OS process (debar_clusterd), where the blocking receives
// are the barriers. Send and collect steps never abort: they report the
// peers they could not reach or hear from, and the driver decides — the
// SPMD one aborts this node's round (kUnavailable), Cluster blames.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/result.hpp"
#include "core/backup_server.hpp"
#include "core/maintenance.hpp"
#include "core/partition_map.hpp"
#include "index/disk_index.hpp"
#include "net/endpoint.hpp"
#include "net/message.hpp"

namespace debar::core {

struct ClusterNodeConfig {
  std::size_t node = 0;
  /// Partition placement every peer must agree on. Empty means the
  /// single-node identity map. Wire batches are stamped with map.epoch();
  /// a node holding a different map rejects them (kInvalidArgument)
  /// instead of silently mis-routing fingerprints.
  PartitionMap map{};
  /// Patience per phase-barrier receive. Generous: a peer process may be
  /// chewing through its own phase (or still booting) before it sends.
  std::chrono::nanoseconds round_timeout = std::chrono::seconds(30);
};

struct NodeRoundResult {
  std::uint64_t undetermined = 0;  // this node's drained queries
  std::uint64_t duplicates = 0;    // verdicts this node's index part issued
  std::uint64_t new_chunks = 0;    // chunks this node containered
  std::uint64_t new_bytes = 0;
  std::uint64_t orphans = 0;       // new fingerprints with no chunk in the log
  bool ran_siu = false;
};

/// Who takes part in a round and where each partition's PSIL runs (the
/// map as it stands, until Cluster excludes a server or fails a partition
/// over).
struct RoundMembership {
  std::vector<bool> alive;            // per server slot
  std::vector<std::size_t> serving;   // per part: the server running PSIL

  [[nodiscard]] static RoundMembership of(const PartitionMap& map);
};

/// What one round step ran into: a local failure (device error, epoch
/// fence, corrupt verdict) and the peers it could not reach or hear from.
struct StepOutcome {
  Status status = Status::Ok();
  std::vector<std::size_t> unreachable;
};

/// Runs a locate round trip's holder side inline, for drivers hosting
/// every node in one thread (SPMD peers answer from serve_restores).
using LocateResponder = std::function<Status(std::size_t holder)>;

/// Driver side of one MARK exchange: send `part`'s sorted live
/// fingerprints from `driver` to the part's primary holder, run `answer`
/// (the holder's side, when the driver hosts it in-process), and return
/// the classified entries, epoch- and part-checked.
[[nodiscard]] Result<std::vector<IndexEntry>> request_mark(
    net::Endpoint& driver, const PartitionMap& map, std::size_t part,
    std::vector<Fingerprint> live_fps, const net::Deadline& deadline,
    const std::function<Status()>& answer = {});

class ClusterNode final : public MaintenanceTarget {
 public:
  /// `server` must already have its endpoint attached to the transport
  /// this node shares with its peers (a node whose every copy is local —
  /// the single-server maintenance form — needs none).
  ClusterNode(ClusterNodeConfig config, BackupServer* server)
      : config_(std::move(config)), server_(server) {
    if (config_.map.empty()) config_.map = PartitionMap::identity(0);
  }

  [[nodiscard]] std::size_t node() const noexcept { return config_.node; }
  [[nodiscard]] const PartitionMap& partition_map() const noexcept override {
    return config_.map;
  }

  [[nodiscard]] std::size_t owner_of(const Fingerprint& fp) const noexcept {
    return config_.map.owner_of(fp);
  }

  // ---- SPMD driver ----

  /// This node's share of one five-phase dedup-2 round. Every peer must
  /// call this once, concurrently; the receives are the barriers.
  [[nodiscard]] Result<NodeRoundResult> run_dedup2_round(bool force_siu);

  /// Answer ChunkLocateRequests from the serving node `via` until it
  /// sends Control{kShutdown} (returns OK) or stays silent past
  /// round_timeout (returns kUnavailable).
  [[nodiscard]] Status serve_restores(net::EndpointId via);

  /// The serving node's side of a restore chunk read: LPC probe, locate
  /// (locally, or a round trip with a copy holder), container read, and
  /// real ChunkData delivery to `client`. Holders this node could not
  /// send to are appended to `unreachable`.
  [[nodiscard]] Result<std::vector<Byte>> read_chunk_via(
      const Fingerprint& fp, net::Endpoint& client,
      const LocateResponder& respond = {},
      std::vector<std::size_t>* unreachable = nullptr);

  // ---- Round steps (phases A..E and commit), shared by both drivers ----

  /// Reset the round state; a node taking part also drains its
  /// undetermined set and partitions it by routing prefix.
  void begin_round(bool take_undetermined);
  /// Phase A: ship this node's subset of each of `parts` to its serving
  /// node (empty batches too), then collect one batch per live origin for
  /// each of `parts` this node serves.
  [[nodiscard]] StepOutcome send_queries(const RoundMembership& members,
                                         std::span<const std::size_t> parts);
  [[nodiscard]] StepOutcome collect_queries(
      const RoundMembership& members, std::span<const std::size_t> parts);
  /// Forget every batch this round received from `origin` (excluded).
  void drop_origin(std::size_t origin);
  /// Give the undetermined set back to the file store.
  void abandon_round();
  /// Phase B: PSIL over every part this node serves.
  [[nodiscard]] StepOutcome run_psil(const RoundMembership& members);
  /// Phase C: verdicts back to their origins.
  [[nodiscard]] StepOutcome send_verdicts(const RoundMembership& members);
  [[nodiscard]] StepOutcome collect_verdicts(const RoundMembership& members);
  /// Phase D: container the chunks PSIL declared new, route their entries.
  [[nodiscard]] StepOutcome store_chunks();
  /// Route more entries into this round's phase-E batches.
  void route_entries(std::span<const IndexEntry> entries);
  /// The entries this round routes to `part`'s copies.
  [[nodiscard]] const std::vector<IndexEntry>& routed(std::size_t part) const {
    return round_.entries_out[part];
  }
  /// Phase E: entries to every live copy of their partition.
  [[nodiscard]] StepOutcome send_entries(const RoundMembership& members);
  [[nodiscard]] StepOutcome collect_entries(const RoundMembership& members);
  /// Checking set of every hosted copy, then SIU when due or forced.
  [[nodiscard]] StepOutcome commit(bool force_siu);
  [[nodiscard]] const NodeRoundResult& round_result() const noexcept {
    return round_.result;
  }

  // ---- Hosted copies ----

  /// This node's copy of `part` — its ChunkStore's primary part or the
  /// replica the map places here — or null when it hosts none.
  [[nodiscard]] IndexPart* hosted(std::size_t part) const;
  /// Catch-up resync: receive one IndexEntryBatch from `sender` and queue
  /// it into the checking set of this node's copy of `part`.
  [[nodiscard]] Status receive_entries(std::size_t sender, std::size_t part);
  /// Locate over whichever copy of fp's partition this node hosts.
  /// kNotFound when it hosts neither copy.
  [[nodiscard]] Result<ContainerId> locate_hosted(const Fingerprint& fp) const;
  /// Holder side of one locate round trip: expect `via`'s request,
  /// answer from the hosted copy, reply. A failed reply lists `via`.
  [[nodiscard]] StepOutcome answer_locate(net::EndpointId via);

  // ---- Maintenance round (DESIGN.md §5k) ----
  //
  // As a MaintenanceTarget this node drives a round whose peers sit in
  // serve_maintenance (GcMarkRequest / GcMarkReply / GcInstall fenced by
  // the map epoch; COMMIT and abort ride Control frames); its own copies
  // are classified and staged locally. Staged state lives on the node
  // that adopts it, so a crashed driver leaves peers untouched.

  /// Refuse a round while this node's own dedup-2 state is in flight
  /// (kBusy), or when its index routes a different width than the map
  /// (kUnsupported). The SPMD form cannot see peers' pending sets — the
  /// script must only run maintenance at a round boundary (clusterd does).
  [[nodiscard]] Status maintenance_preconditions() override;
  [[nodiscard]] Result<std::vector<IndexEntry>> maintenance_mark(
      std::size_t part, std::vector<Fingerprint> live_fps) override;
  [[nodiscard]] Status maintenance_install(
      std::size_t part, std::vector<IndexEntry> sorted) override;
  /// Swap local staged copies in, then commit every peer (acked).
  [[nodiscard]] Status maintenance_commit() override;
  /// Drop local staged copies and abort every peer (fire-and-forget).
  void maintenance_abort() override;

  /// Peer side: answer mark/install requests from `driver` until it
  /// commits, aborts, or shuts the loop down.
  [[nodiscard]] Status serve_maintenance(net::EndpointId driver);
  /// Answer one GcMarkRequest from `driver` (in-process drivers).
  [[nodiscard]] Status answer_mark(net::EndpointId driver);
  /// Stage one GcInstall from `driver`, unacknowledged (in-process
  /// drivers).
  [[nodiscard]] Status accept_install(net::EndpointId driver);
  /// Swap every staged copy in / drop them.
  void commit_staged();
  void drop_staged() noexcept { staged_.clear(); }

 private:
  /// Per-round state, indexed [part] or [part][origin].
  struct Round {
    std::vector<Fingerprint> undetermined;
    std::vector<std::vector<Fingerprint>> outbox;
    std::vector<std::vector<net::FingerprintBatch>> queries;
    std::vector<std::vector<net::VerdictBatch>> verdicts_out;
    std::vector<net::VerdictBatch> verdicts;
    std::vector<std::vector<IndexEntry>> entries_out;
    std::vector<std::vector<net::IndexEntryBatch>> entries;
    NodeRoundResult result;
  };

  /// kInvalidArgument unless the map has this slot live and every
  /// replica it places here is attached.
  [[nodiscard]] Status check_hosting() const;
  /// Flush the phase's buffered sends to every live peer.
  void flush_peers(const RoundMembership& members, StepOutcome& out);
  /// Classify sorted live fingerprints against this node's copy of `part`.
  [[nodiscard]] Result<std::vector<IndexEntry>> classify_hosted(
      std::size_t part, std::span<const Fingerprint> sorted_live) const;
  [[nodiscard]] Result<net::GcMarkReply> mark_reply(
      const net::GcMarkRequest& request, net::EndpointId driver) const;
  /// Validate a GcInstall against this node's map, then stage its copy.
  [[nodiscard]] Status stage_install(net::GcInstall install);
  /// Rebuild this node's copy of `part` from `sorted` on fresh devices.
  [[nodiscard]] Status stage_copy(std::size_t part,
                                  std::vector<IndexEntry> sorted);
  [[nodiscard]] net::ChunkLocateReply locate_reply(
      const Fingerprint& fp) const;
  /// kInvalidArgument unless `got` is this node's map epoch.
  [[nodiscard]] Status check_epoch(std::uint32_t got, const char* what,
                                   std::size_t sender) const;
  [[nodiscard]] net::Deadline barrier_deadline() const {
    return net::Deadline::after(config_.round_timeout);
  }

  ClusterNodeConfig config_;
  BackupServer* server_;
  Round round_;
  std::vector<StagedCopy> staged_;
};

}  // namespace debar::core
