// Multi-server DEBAR cluster: PSIL / PSIU (Section 5.2, Figure 5).
//
// 2^w backup servers each own one disk-index part (fingerprints whose
// first w bits equal the server number) plus their own chunk log and
// container stream. A cluster dedup-2 round is five barrier phases:
//
//   A. exchange     each server partitions its undetermined fingerprints
//                   by the first w bits and ships each subset to its
//                   index-part owner;
//   B. PSIL         every owner runs SIL over its part concurrently and
//                   resolves multi-origin queries to a single designated
//                   storer (the cross-stream analogue of the checking-
//                   fingerprint mechanism — without it two servers would
//                   both store a chunk they share);
//   C. results      lookup results return to their origins;
//   D. storing      every origin replays its chunk log and containers the
//                   chunks PSIL declared new, in parallel;
//   E. PSIU         <fingerprint, containerID> entries route back to the
//                   part owners, which register them — immediately into
//                   the pending (checking) set, and into the on-disk index
//                   when SIU is due or forced.
//
// Cluster is the in-process driver of that protocol: it hosts one
// core::ClusterNode per server and runs each phase as one parallel_for
// over the nodes' steps, the same steps the SPMD driver runs one node per
// process (core/cluster_node.hpp). Cluster keeps only what spans servers:
// round membership and phase-A failover, blame (distilling the peers the
// nodes could not reach into servers to exclude), deferred phase-E
// entries, catch-up, split/drain, the in-process answering of maintenance
// requests, and per-phase modeled time — phases are barriers, so a
// phase's elapsed time is the maximum of the servers' device-clock deltas
// (plus the repository's busiest node during storing).
//
// Every inter-server exchange travels as a typed net::Message through a
// net::Transport: the fingerprints, verdicts and index entries are
// serialized, framed, and metered through both endpoints' NIC models at
// their actual wire size.
//
// Replication (DESIGN.md §5g) and elastic ownership (DESIGN.md §5j):
// partition placement — which server serves each index part, through its
// ChunkStore or through a replica IndexPart — lives in an epoch-versioned
// core::PartitionMap. Phase E dual-writes both copies before the round
// commits; phase A/B and restore-locates fail over to the other copy when
// the serving one is dark. A single unreachable server therefore degrades
// a round — its partition is served by the surviving copy, its own
// batches are excluded, its undetermined fingerprints are restored —
// instead of aborting it. The all-or-nothing abort (undetermined
// restored, routed entries deferred, zero index mutation) remains for
// phase C/D deaths (a mid-PSIL origin cannot be excised safely) and
// whenever BOTH copies of some partition are unreachable. The director is
// told which servers to skip for job assignment, and re-admits them when
// a round-start probe finds the transport reaches them again.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.hpp"
#include "core/backup_engine.hpp"
#include "core/backup_server.hpp"
#include "core/cluster_node.hpp"
#include "core/director.hpp"
#include "core/maintenance.hpp"
#include "core/partition_map.hpp"
#include "net/endpoint.hpp"
#include "net/transport_factory.hpp"
#include "storage/chunk_repository.hpp"

namespace debar::core {

struct ClusterConfig {
  /// w: the cluster runs 2^w backup servers.
  unsigned routing_bits = 2;
  /// Explicit partition placement. Empty (the default) means "build the
  /// identity layout for routing_bits". Non-empty maps override
  /// routing_bits entirely — this is how a differential twin is born at
  /// the exact topology an elastically grown cluster ended up with
  /// (post-split/drain maps are permutations no identity layout matches).
  PartitionMap partition_map{};
  /// Per-server template; index_params.skip_bits is overridden to w.
  BackupServerConfig server_config{};
  /// Director policy (retention, maintenance cadence) for the cluster's
  /// embedded director.
  DirectorConfig director_config{};
  /// Storage nodes in the shared chunk repository.
  std::size_t repository_nodes = 4;
  sim::DiskProfile repository_profile = sim::DiskProfile::PaperRaid();
  /// Retransmission / receive-timeout budget for every cluster endpoint.
  net::RetryPolicy retry{};
  /// Wire-codec policy for every cluster endpoint (net/wire_codec). The
  /// default keeps the v1 wire — one frame per message, paper-model byte
  /// accounting — so existing parity anchors hold; benches and the codec
  /// tests opt in (e.g. net::WireCodecConfig::enabled()). Phases A, C and
  /// E use buffered sends, so with coalescing on each (sender, receiver)
  /// pair exchanges one jumbo frame per phase instead of one frame per
  /// batch.
  net::WireCodecConfig wire_codec{};
  /// How the cluster's wire is built: loopback (default when null),
  /// faulty-over-loopback, or sockets — one selection interface for every
  /// harness (see net/transport_factory.hpp). Shared so a test rig can
  /// keep a handle to the factory (e.g. FaultyTransportFactory::last).
  std::shared_ptr<net::TransportFactory> transport_factory;
  /// Observability/test hook: called at each run_dedup2 phase start
  /// ("A".."E", then "commit" immediately before index and pending-set
  /// mutation begins). The crash rig uses it to bracket the replicated
  /// commit window by device-op counts.
  std::function<void(const char*)> phase_hook;
};

struct ClusterDedup2Result {
  std::uint64_t undetermined = 0;
  std::uint64_t duplicates = 0;      // resolved on disk, pending, or multi-origin
  std::uint64_t new_chunks = 0;
  std::uint64_t new_bytes = 0;
  /// New fingerprints phase D found no chunk for in the origin's log
  /// (dropped, not registered); zero on a healthy round.
  std::uint64_t orphans = 0;
  bool ran_siu = false;
  double exchange_seconds = 0.0;  // phases A + C (network)
  double sil_seconds = 0.0;       // phase B (max over owners)
  double store_seconds = 0.0;     // phase D (max of log replay, repo node)
  double siu_seconds = 0.0;       // phase E (max over owners)

  /// Degraded-round bookkeeping: partitions served by their backup copy
  /// this round, and the servers the round excluded as unreachable.
  std::uint64_t failovers = 0;
  std::vector<std::size_t> skipped_servers;
  [[nodiscard]] bool degraded() const noexcept {
    return failovers > 0 || !skipped_servers.empty();
  }

  [[nodiscard]] double total_seconds() const noexcept {
    return exchange_seconds + sil_seconds + store_seconds + siu_seconds;
  }
};

class Cluster final : public MaintenanceTarget {
 public:
  explicit Cluster(ClusterConfig config);

  [[nodiscard]] std::size_t server_count() const noexcept {
    return servers_.size();
  }
  [[nodiscard]] BackupServer& server(std::size_t k) noexcept {
    return *servers_[k];
  }
  [[nodiscard]] Director& director() noexcept { return director_; }
  [[nodiscard]] storage::ChunkRepository& repository() noexcept {
    return repository_;
  }

  /// The transport every exchange rides on (outermost decorator).
  [[nodiscard]] net::Transport& transport() noexcept { return *transport_; }
  /// Cumulative frame/byte counters from the stack's single meter.
  [[nodiscard]] net::TransportStats transport_stats() const {
    return transport_->meter().stats();
  }
  /// Endpoint id of the restore-stream client. Fixed high id, so servers
  /// appended by a split can keep endpoint id == server slot.
  [[nodiscard]] net::EndpointId client_id() const noexcept {
    return net::kClientEndpointId;
  }

  /// The live partition map (placement + epoch).
  [[nodiscard]] const PartitionMap& partition_map() const noexcept override {
    return map_;
  }
  [[nodiscard]] std::uint32_t epoch() const noexcept { return map_.epoch(); }

  /// Index-part owner of a fingerprint: its first routing_bits bits.
  [[nodiscard]] std::size_t owner_of(const Fingerprint& fp) const noexcept {
    return map_.owner_of(fp);
  }

  /// Online elastic repartitioning (DESIGN.md §5j), between rounds only.
  ///
  /// split(): grow the cluster w -> w+1. Every part p splits into 2p and
  /// 2p+1; the odd halves' primaries land on newly added servers, and
  /// every part gets a fresh backup copy per the post-split map. All
  /// fallible work (index extraction, wire shipment, staged rebuilds)
  /// happens on freshly minted devices before a pure in-memory commit
  /// swaps the map and bumps the epoch — a crash mid-prepare leaves the
  /// old topology byte-intact.
  [[nodiscard]] Status split();

  /// drain(slot): remove a server from the fleet. Both copies it hosts
  /// are handed off (survivor promoted to primary, replacement replica
  /// staged on the least-loaded live server) before the slot is retired.
  /// Works while the slot is dark: migration sources from the surviving
  /// copies, never the draining server.
  [[nodiscard]] Status drain(std::size_t slot);

  /// Run one parallel dedup-2 round across all servers.
  [[nodiscard]] Result<ClusterDedup2Result> run_dedup2(bool force_siu = false);

  // ---- Maintenance protocol (DESIGN.md §5k) ----
  // core::MaintenanceJob drives these between rounds. The shape mirrors
  // split()/drain(): every fallible step (wire exchanges, staged index
  // builds on freshly minted devices) happens before a pure in-memory
  // commit, so a crash anywhere in the prepare window leaves every
  // committed image byte-identical to a never-attempted twin. Requests
  // leave from the client endpoint; the hosting node answers each one
  // inline (ClusterNode::answer_mark / accept_install).

  /// Quiescence gate. Every violated precondition — pending SIU on any
  /// copy, deferred phase-E entries, owed catch-up, an unreachable live
  /// slot — is transient (a forced round / heal clears it), so the error
  /// is the retryable kBusy rather than the migration gate's permanent-
  /// looking codes.
  [[nodiscard]] Status maintenance_preconditions() override;

  /// Mark exchange for one partition: ship its sorted live fingerprints
  /// to the primary host (GcMarkRequest) and return the live
  /// <fp, container> entries the host classified out of its serving copy
  /// (GcMarkReply). Epoch-fenced both ways.
  [[nodiscard]] Result<std::vector<IndexEntry>> maintenance_mark(
      std::size_t part, std::vector<Fingerprint> live_fps) override;

  /// Install exchange for one partition: ship the canonical post-GC entry
  /// stream to every copy host (GcInstall), which stages a rebuilt index
  /// image. Both copies are rebuilt from the same sorted stream, so their
  /// images are byte-identical — this is what closes the GC-era replica
  /// drift.
  [[nodiscard]] Status maintenance_install(
      std::size_t part, std::vector<IndexEntry> sorted) override;

  /// Swap every node's staged images in. Pure in-memory, cannot fail; the
  /// map epoch does not advance because placement did not change.
  [[nodiscard]] Status maintenance_commit() override;

  /// Drop staged maintenance images (failed prepare).
  void maintenance_abort() override;

  /// Restore-path chunk read: locate on the part owner, read and cache on
  /// the serving server.
  [[nodiscard]] Result<std::vector<Byte>> read_chunk(std::size_t via_server,
                                                     const Fingerprint& fp);

  /// Restore a whole job version through `via_server`.
  [[nodiscard]] Result<Dataset> restore(std::uint64_t job_id,
                                        std::uint32_t version,
                                        std::size_t via_server);

  /// Reset every simulated clock (between measurement windows).
  void reset_clocks();

 private:
  /// Re-ship entries a recovered copy missed during degraded commits:
  /// the surviving copy of each owed partition sends them over the wire
  /// as a normal IndexEntryBatch. Runs at every round start; anything
  /// still undeliverable stays owed.
  void deliver_catch_up();

  // ---- Elastic repartitioning internals ----
  /// A migration only runs from a quiescent, fully-consistent cluster:
  /// no deferred phase-E entries, no catch-up owed, every live slot
  /// transport-reachable, and zero pending entries on every live copy
  /// (callers run a forced-SIU round first, so the on-disk indexes are
  /// the whole truth and the rebuilt copies stay byte-identical to a
  /// cluster born at the target topology). `exclude` (a drain's slot, or
  /// none) is exempt: its copies are sourced from the survivors, never
  /// consulted.
  [[nodiscard]] Status migration_preconditions(std::size_t exclude);
  /// Move entries sender -> target.server as an epoch-stamped
  /// IndexEntryBatch over the wire (no self-frames) and stage them there
  /// as `part`'s rebuilt copy, on freshly minted devices at `params`.
  [[nodiscard]] Status stage_migrated(std::size_t sender, std::size_t part,
                                      const PartitionCopy& target,
                                      std::vector<IndexEntry> entries,
                                      const index::DiskIndexParams& params,
                                      std::uint32_t epoch,
                                      std::vector<StagedCopy>& staged);
  /// The server object for a slot, whether committed or still staged.
  [[nodiscard]] BackupServer& server_ref(std::size_t slot);
  /// Ensure BackupServer objects (with registered endpoints) exist for
  /// every slot of `target` beyond the committed fleet. Kept across
  /// failed prepare attempts: endpoints register once.
  [[nodiscard]] Status ensure_staged_servers(const PartitionMap& target);
  /// One node per server slot, on the current map (rebuilt whenever the
  /// map changes).
  void rebuild_nodes();
  /// Register `server`'s endpoint for `slot` on the cluster transport.
  [[nodiscard]] Status attach_endpoint(std::size_t slot, BackupServer& server);

  ClusterConfig config_;
  PartitionMap map_;
  Director director_;
  storage::ChunkRepository repository_;
  // Transport before servers/client endpoint: endpoints hold raw transport
  // pointers, so they must be destroyed first (reverse declaration order).
  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<net::Endpoint> client_endpoint_;
  std::vector<std::unique_ptr<BackupServer>> servers_;
  /// nodes_[k] runs server k's protocol steps.
  std::vector<ClusterNode> nodes_;
  /// Servers created for a split that has not committed yet (slot index =
  /// servers_.size() + position). Their endpoints are registered at
  /// creation and survive failed prepare attempts; commit moves them into
  /// servers_.
  std::vector<std::unique_ptr<BackupServer>> staged_servers_;
  /// Entries routed in a round whose PSIU never committed (phase E abort):
  /// re-shipped by their origin on the next round, so the index stays
  /// all-or-nothing per round without losing entries.
  std::vector<std::vector<IndexEntry>> deferred_entries_;
  /// Entries committed on a partition's surviving copy while the other
  /// copy's holder was dark: catch_up_[server][part], drained by
  /// deliver_catch_up once the holder is reachable again.
  std::vector<std::vector<std::vector<IndexEntry>>> catch_up_;
};

}  // namespace debar::core
