#include "core/cluster.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <functional>
#include <mutex>
#include <numeric>

#include "common/fmt.hpp"
#include "common/thread_pool.hpp"
#include "net/message.hpp"

namespace debar::core {

namespace {

double max_delta(const std::vector<double>& before,
                 const std::vector<double>& after) {
  double m = 0.0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    m = std::max(m, after[i] - before[i]);
  }
  return m;
}

/// One failed exchange: `observer` could not reach (or hear from) `peer`.
struct PeerFailure {
  std::size_t observer;
  std::size_t peer;
};

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

}  // namespace

Cluster::Cluster(ClusterConfig config)
    : config_(config),
      director_(config.director_config),
      repository_(config.repository_nodes, config.repository_profile) {
  map_ = config_.partition_map.empty()
             ? PartitionMap::identity(config_.routing_bits)
             : config_.partition_map;
  // The map is the single source of truth for the routing width; keep the
  // config field in agreement for anyone who reads it back.
  config_.routing_bits = map_.routing_bits();

  const std::size_t n_slots = map_.server_slots();
  const std::size_t m = map_.part_count();
  BackupServerConfig server_config = config_.server_config;
  server_config.index_params.skip_bits = map_.routing_bits();
  servers_.reserve(n_slots);
  for (std::size_t k = 0; k < n_slots; ++k) {
    servers_.push_back(
        std::make_unique<BackupServer>(k, server_config, &repository_,
                                       &director_));
  }
  // Replicated index parts (DESIGN.md §5g): every partition copy the map
  // places off the owner's ChunkStore is hosted as a replica IndexPart.
  // Attach in (slot ascending, part ascending) order so the index-device
  // mint sequence is deterministic — identity maps reproduce the classic
  // "all primaries, then one replica per server" order exactly.
  for (std::size_t k = 0; k < n_slots; ++k) {
    for (const std::size_t p : map_.parts_hosted_by(k)) {
      const PartitionCopy* copy = map_.copy_on(p, k);
      if (copy->via_store) continue;
      Status attached = servers_[k]->attach_replica(p);
      assert(attached.ok() && "index params validated by config construction");
      (void)attached;
    }
  }
  // Slots the map already drained (a twin born at a post-drain topology)
  // are permanently out of job assignment.
  for (std::size_t k = 0; k < n_slots; ++k) {
    if (!map_.is_live(k)) director_.retire_server(k);
  }
  deferred_entries_.resize(n_slots);
  catch_up_.assign(n_slots, std::vector<std::vector<IndexEntry>>(m));

  transport_ = config_.transport_factory
                   ? config_.transport_factory->create()
                   : std::make_unique<net::LoopbackTransport>();
  for (std::size_t k = 0; k < n_slots; ++k) {
    Status attached = attach_endpoint(k, *servers_[k]);
    assert(attached.ok());
    (void)attached;
  }
  // The restore-stream client: no modeled NIC of its own (the serving
  // server's wire is the bottleneck the paper measures).
  Status registered = transport_->register_endpoint(client_id(), nullptr);
  assert(registered.ok());
  (void)registered;
  client_endpoint_ = std::make_unique<net::Endpoint>(transport_.get(),
                                                     client_id(),
                                                     config_.retry,
                                                     config_.wire_codec);
  rebuild_nodes();
}

Status Cluster::attach_endpoint(std::size_t slot, BackupServer& server) {
  const auto id = static_cast<net::EndpointId>(slot);
  if (Status registered = transport_->register_endpoint(id, &server.nic());
      !registered.ok()) {
    return registered;
  }
  server.attach_endpoint(std::make_unique<net::Endpoint>(
      transport_.get(), id, config_.retry, config_.wire_codec));
  return Status::Ok();
}

void Cluster::rebuild_nodes() {
  nodes_.clear();
  nodes_.reserve(servers_.size());
  for (std::size_t k = 0; k < servers_.size(); ++k) {
    // A node's barrier patience is the endpoints' receive budget, so the
    // in-process receives wait exactly as long as a bare expect().
    nodes_.emplace_back(
        ClusterNodeConfig{.node = k,
                          .map = map_,
                          .round_timeout = config_.retry.receive_timeout},
        servers_[k].get());
  }
}

Result<ClusterDedup2Result> Cluster::run_dedup2(bool force_siu) {
  const std::size_t n = servers_.size();
  const std::size_t m = map_.part_count();
  const bool replicated = map_.replicated();
  ClusterDedup2Result result;

  auto phase = [&](const char* tag) {
    if (config_.phase_hook) config_.phase_hook(tag);
  };
  auto reachable = [&](std::size_t k) {
    return transport_->reachable(static_cast<net::EndpointId>(k));
  };
  auto clocks = [&](double ServerClocks::*device) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = servers_[i]->clocks().*device;
    return v;
  };

  // Per-server phase outcome (set by the node steps; checked at barriers).
  std::vector<Status> phase_status(n);
  auto check_phase_status = [&]() -> Status {
    for (const Status& s : phase_status) {
      if (!s.ok()) return s;
    }
    return Status::Ok();
  };
  std::mutex failure_mutex;
  std::vector<PeerFailure> failures;
  // Fold one node step's outcome into the phase's records.
  auto record = [&](std::size_t k, StepOutcome outcome) {
    if (!outcome.status.ok()) phase_status[k] = std::move(outcome.status);
    std::lock_guard lock(failure_mutex);
    for (const std::size_t peer : outcome.unreachable) {
      failures.push_back({k, peer});
    }
  };
  // Distill the phase's failure records into the peers to blame. A dead
  // observer's complaints about healthy peers are noise (its own sends
  // fail too); keep only complaints whose peer the transport also doubts,
  // or complaints from observers the transport still trusts.
  auto blamed_peers = [&] {
    std::lock_guard lock(failure_mutex);
    std::vector<std::size_t> bad;
    for (const PeerFailure& f : failures) {
      if (!reachable(f.observer) && reachable(f.peer)) continue;
      bad.push_back(f.peer);
    }
    failures.clear();
    std::sort(bad.begin(), bad.end());
    bad.erase(std::unique(bad.begin(), bad.end()), bad.end());
    return bad;
  };
  auto degrade = [&](const std::vector<std::size_t>& bad, const char* tag) {
    for (const std::size_t p : bad) director_.mark_unreachable(p);
    return Error{Errc::kUnavailable,
                 format("cluster dedup-2 aborted in phase {}: {} peer(s) "
                        "unreachable",
                        tag, bad.size())};
  };

  // Round-boundary health probe (mark_unreachable used to be permanent):
  // servers the transport reaches again rejoin assignment, and any
  // entries their index copies missed during degraded commits are
  // re-delivered before the next exchange starts.
  director_.probe_reachability(n, reachable);
  deliver_catch_up();

  // Round membership: alive[k] starts from the map (drained slots never
  // participate) and flips when the transport proves server k dark during
  // this round. serving[p] runs partition p's PSIL — the preferred copy's
  // holder until phase-A failover moves it to the other copy's.
  RoundMembership members = RoundMembership::of(map_);
  std::vector<bool>& alive = members.alive;
  // One node step on every live server concurrently (one parallel_for per
  // phase step).
  auto step_all = [&](const std::function<StepOutcome(ClusterNode&)>& step) {
    parallel_for(n, n, [&](std::size_t k) {
      if (alive[k]) record(k, step(nodes_[k]));
    });
  };
  auto sum = [&](std::uint64_t NodeRoundResult::*field) {
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (alive[k]) total += nodes_[k].round_result().*field;
    }
    return total;
  };

  // ---- Phase A: take undetermined sets and exchange by routing prefix.
  phase("A");
  // Re-drain on abort: a round that never reached chunk storing puts the
  // fingerprints back so the next round resolves them.
  auto restore_undetermined = [&] {
    parallel_for(n, n, [&](std::size_t s) { nodes_[s].abandon_round(); });
  };
  // Exclude a server the transport proved dark: restore its undetermined
  // set for a later round, and drop everything it contributed — its
  // queries must not be answered (a dead origin must never become a
  // designated storer, or the chunk would be stored nowhere reachable).
  auto exclude_server = [&](std::size_t b) {
    if (!alive[b]) return;
    alive[b] = false;
    result.skipped_servers.push_back(b);
    director_.mark_unreachable(b);
    nodes_[b].abandon_round();
    for (ClusterNode& node : nodes_) node.drop_origin(b);
  };

  const std::vector<double> nic_a0 = clocks(&ServerClocks::nic);
  parallel_for(n, n, [&](std::size_t s) { nodes_[s].begin_round(alive[s]); });

  // Failover-aware exchange: ship every wanted part to its current host,
  // blame the peers the transport proves dark, re-host their partitions
  // on the surviving copy, and re-run the delta. Each iteration either
  // completes, aborts (some partition lost both copies), or buries at
  // least one server — so the loop runs at most n times.
  std::vector<std::size_t> wanted(m);
  std::iota(wanted.begin(), wanted.end(), std::size_t{0});
  while (!wanted.empty()) {
    step_all([&](ClusterNode& node) {
      return node.send_queries(members, wanted);
    });
    step_all([&](ClusterNode& node) {
      return node.collect_queries(members, wanted);
    });
    const std::vector<std::size_t> bad = blamed_peers();
    if (bad.empty()) break;
    for (const std::size_t b : bad) exclude_server(b);
    std::vector<std::size_t> rerun;
    for (std::size_t p = 0; p < m; ++p) {
      if (alive[members.serving[p]]) continue;
      const std::size_t preferred = map_.copy(p, 0).server;
      const std::size_t other = replicated && members.serving[p] == preferred
                                    ? map_.copy(p, 1).server
                                    : preferred;
      if (!alive[other]) {
        // Both copies of partition p are dark: all-or-nothing abort,
        // exactly as an unreplicated round.
        restore_undetermined();
        return degrade(bad, "A");
      }
      members.serving[p] = other;
      ++result.failovers;
      rerun.push_back(p);
    }
    wanted = std::move(rerun);
  }
  if (Status s = check_phase_status(); !s.ok()) {
    restore_undetermined();
    return Error{s.code(), s.message()};
  }
  result.undetermined = sum(&NodeRoundResult::undetermined);

  // ---- Phase B: PSIL on every partition's current host, concurrently.
  phase("B");
  const std::vector<double> idx_b0 = clocks(&ServerClocks::index_disk);
  step_all([&](ClusterNode& node) { return node.run_psil(members); });
  if (Status s = check_phase_status(); !s.ok()) {
    restore_undetermined();
    return Error{s.code(), s.message()};
  }
  result.duplicates = sum(&NodeRoundResult::duplicates);
  result.sil_seconds = max_delta(idx_b0, clocks(&ServerClocks::index_disk));

  // ---- Phase C: results return to their origins (network only). A peer
  // that dies here aborts the whole round, replicas or not: its queries
  // are already folded into completed PSIL verdicts, so excising it
  // mid-round could leave a designated storer that never stores.
  phase("C");
  step_all([&](ClusterNode& node) { return node.send_verdicts(members); });
  step_all([&](ClusterNode& node) { return node.collect_verdicts(members); });
  if (std::vector<std::size_t> bad = blamed_peers(); !bad.empty()) {
    restore_undetermined();
    return degrade(bad, "C");
  }
  if (Status s = check_phase_status(); !s.ok()) {
    restore_undetermined();
    return Error{s.code(), s.message()};
  }
  result.exchange_seconds = max_delta(nic_a0, clocks(&ServerClocks::nic));

  // ---- Phase D: parallel chunk storing on every origin.
  phase("D");
  const std::vector<double> log_d0 = clocks(&ServerClocks::log_disk);
  const double repo_d0 = repository_.max_node_seconds();
  step_all([&](ClusterNode& node) { return node.store_chunks(); });
  if (Status s = check_phase_status(); !s.ok()) {
    return Error{s.code(), s.message()};
  }
  result.new_chunks = sum(&NodeRoundResult::new_chunks);
  result.new_bytes = sum(&NodeRoundResult::new_bytes);
  result.orphans = sum(&NodeRoundResult::orphans);
  result.store_seconds =
      std::max(max_delta(log_d0, clocks(&ServerClocks::log_disk)),
               repository_.max_node_seconds() - repo_d0);

  // Entries a previous round routed but never registered (phase E abort)
  // ride along with this round's batches. An excluded server's deferrals
  // stay queued for the round that re-admits it.
  for (std::size_t s = 0; s < n; ++s) {
    if (!alive[s]) continue;
    nodes_[s].route_entries(deferred_entries_[s]);
    deferred_entries_[s].clear();
  }
  auto defer = [&](std::size_t s) {
    for (std::size_t p = 0; p < m; ++p) {
      const std::vector<IndexEntry>& routed = nodes_[s].routed(p);
      deferred_entries_[s].insert(deferred_entries_[s].end(), routed.begin(),
                                  routed.end());
    }
  };
  // Nothing commits this round: every surviving origin keeps its entries.
  auto defer_round = [&] {
    for (std::size_t s = 0; s < n; ++s) {
      if (alive[s]) defer(s);
    }
  };

  // ---- Phase E: entries route to both copies of their partition; every
  // copy receives everything before anyone registers. A peer that dies
  // here no longer aborts the round outright: its own entries are
  // deferred and its received batches dropped everywhere (so the
  // surviving copies stay in lockstep), and a partition whose one copy
  // went dark commits on the other copy with the missed entries recorded
  // for catch-up. Only a partition losing BOTH copies still aborts
  // all-or-nothing.
  phase("E");
  step_all([&](ClusterNode& node) { return node.send_entries(members); });
  step_all([&](ClusterNode& node) { return node.collect_entries(members); });
  if (std::vector<std::size_t> late = blamed_peers(); !late.empty()) {
    for (const std::size_t b : late) {
      if (!alive[b]) continue;
      alive[b] = false;
      result.skipped_servers.push_back(b);
      director_.mark_unreachable(b);
      defer(b);
      // Drop what anyone received from the late peer: a copy that never
      // heard from it must match the copies that did.
      for (ClusterNode& node : nodes_) node.drop_origin(b);
    }
    for (std::size_t p = 0; p < m; ++p) {
      const bool preferred_alive = alive[map_.copy(p, 0).server];
      const bool backup_alive = replicated && alive[map_.copy(p, 1).server];
      if (preferred_alive || backup_alive) continue;
      // Both copies of part p are dark: nothing can commit this round.
      defer_round();
      return degrade(late, "E");
    }
  }
  if (Status st = check_phase_status(); !st.ok()) {
    // Epoch mismatch mid-phase-E: nothing committed; keep the routed
    // entries for a round run against a consistent map.
    defer_round();
    return Error{st.code(), st.message()};
  }

  // Commit: every live copy registers entries; PSIU when due or forced.
  phase("commit");
  const std::vector<double> idx_e0 = clocks(&ServerClocks::index_disk);
  step_all([&](ClusterNode& node) { return node.commit(force_siu); });
  if (Status s = check_phase_status(); !s.ok()) {
    return Error{s.code(), s.message()};
  }
  for (std::size_t t = 0; t < n; ++t) {
    if (alive[t] && nodes_[t].round_result().ran_siu) result.ran_siu = true;
  }
  result.siu_seconds = max_delta(idx_e0, clocks(&ServerClocks::index_disk));

  // Record what each dark copy missed: the surviving copy re-ships it
  // once the holder is reachable again (deliver_catch_up).
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t i = 0; i < map_.copy_count(); ++i) {
      const std::size_t t = map_.copy(p, i).server;
      if (alive[t]) continue;
      for (std::size_t s = 0; s < n; ++s) {
        if (!alive[s]) continue;
        const std::vector<IndexEntry>& routed = nodes_[s].routed(p);
        catch_up_[t][p].insert(catch_up_[t][p].end(), routed.begin(),
                               routed.end());
      }
    }
  }

  // The round heard from every peer it did not exclude.
  for (std::size_t k = 0; k < n; ++k) {
    if (!map_.is_live(k)) continue;
    if (alive[k]) {
      director_.mark_reachable(k);
    } else {
      director_.mark_unreachable(k);
    }
  }
  std::sort(result.skipped_servers.begin(), result.skipped_servers.end());

  return result;
}

void Cluster::deliver_catch_up() {
  const std::size_t n = servers_.size();
  const std::size_t m = map_.part_count();
  for (std::size_t t = 0; t < n; ++t) {
    if (!map_.is_live(t)) continue;
    for (std::size_t p = 0; p < m; ++p) {
      std::vector<IndexEntry>& owed = catch_up_[t][p];
      if (owed.empty()) continue;
      if (!transport_->reachable(static_cast<net::EndpointId>(t))) continue;
      if (map_.copy_on(p, t) == nullptr) {
        // A migration moved the copy elsewhere; the rebuild sourced from
        // the surviving copy, which already has these entries.
        owed.clear();
        continue;
      }
      // The surviving holder of part p re-ships: whichever copy of the
      // partition the recovered server does NOT hold.
      const std::size_t sender = map_.copy(p, 0).server == t
                                     ? map_.copy(p, 1).server
                                     : map_.copy(p, 0).server;
      if (!transport_->reachable(static_cast<net::EndpointId>(sender))) {
        continue;
      }
      Status sent = servers_[sender]->endpoint().send(
          static_cast<net::EndpointId>(t),
          net::IndexEntryBatch{owed, map_.epoch()});
      if (!sent.ok()) continue;
      if (!nodes_[t].receive_entries(sender, p).ok()) continue;
      owed.clear();
    }
  }
}

// ---- Elastic repartitioning (DESIGN.md §5j) ----

BackupServer& Cluster::server_ref(std::size_t slot) {
  return slot < servers_.size() ? *servers_[slot]
                                : *staged_servers_[slot - servers_.size()];
}

Status Cluster::migration_preconditions(std::size_t exclude) {
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    if (!deferred_entries_[s].empty()) {
      return {Errc::kInvalidArgument,
              format("server {} holds deferred phase-E entries; run a clean "
                     "round first",
                     s)};
    }
  }
  for (std::size_t t = 0; t < catch_up_.size(); ++t) {
    if (t == exclude) continue;  // a draining slot's debt dies with it
    for (std::size_t p = 0; p < catch_up_[t].size(); ++p) {
      if (!catch_up_[t][p].empty()) {
        return {Errc::kInvalidArgument,
                format("server {} is owed catch-up entries for part {}; let "
                       "a round deliver them first",
                       t, p)};
      }
    }
  }
  for (std::size_t k = 0; k < servers_.size(); ++k) {
    if (!map_.is_live(k) || k == exclude) continue;
    if (!transport_->reachable(static_cast<net::EndpointId>(k))) {
      return {Errc::kUnavailable,
              format("server {} unreachable; migration needs every surviving "
                     "server",
                     k)};
    }
  }
  // Zero pending entries on every surviving copy: migrations rebuild from
  // the on-disk indexes alone, so anything still in a checking set would
  // be silently dropped. Callers run a forced-SIU round first.
  for (std::size_t p = 0; p < map_.part_count(); ++p) {
    for (std::size_t c = 0; c < map_.copy_count(); ++c) {
      const PartitionCopy& copy = map_.copy(p, c);
      if (copy.server == exclude) continue;
      const std::uint64_t pending = nodes_[copy.server].hosted(p)->pending_count();
      if (pending != 0) {
        return {Errc::kInvalidArgument,
                format("part {} copy on server {} has {} pending entries; "
                       "run a forced-SIU round first",
                       p, copy.server, pending)};
      }
    }
  }
  return Status::Ok();
}

Status Cluster::stage_migrated(std::size_t sender, std::size_t part,
                               const PartitionCopy& target,
                               std::vector<IndexEntry> entries,
                               const index::DiskIndexParams& params,
                               std::uint32_t epoch,
                               std::vector<StagedCopy>& staged) {
  if (sender != target.server) {
    const auto sender_id = static_cast<net::EndpointId>(sender);
    const auto target_id = static_cast<net::EndpointId>(target.server);
    if (Status sent = server_ref(sender).endpoint().send(
            target_id, net::IndexEntryBatch{std::move(entries), epoch});
        !sent.ok()) {
      return {Errc::kUnavailable, format("migration shipment {} -> {} failed",
                                         sender, target.server)};
    }
    Result<net::IndexEntryBatch> got =
        server_ref(target.server).endpoint().expect<net::IndexEntryBatch>(
            sender_id);
    if (!got.ok()) {
      return {Errc::kUnavailable, format("migration shipment {} -> {} lost",
                                         sender, target.server)};
    }
    if (got.value().epoch != epoch) {
      return {Errc::kInvalidArgument,
              format("migration shipment {} -> {} carries epoch {}, "
                     "expected {}",
                     sender, target.server, got.value().epoch, epoch)};
    }
    entries = std::move(got.value().entries);
  }
  Result<index::DiskIndex> idx =
      build_staged_index(server_ref(target.server), params, std::move(entries));
  if (!idx.ok()) return idx.status();
  staged.push_back(StagedCopy{part, target.server, target.via_store,
                              std::move(idx).value()});
  return Status::Ok();
}

Status Cluster::ensure_staged_servers(const PartitionMap& target) {
  BackupServerConfig server_config = config_.server_config;
  server_config.index_params.skip_bits = target.routing_bits();
  while (servers_.size() + staged_servers_.size() < target.server_slots()) {
    const std::size_t slot = servers_.size() + staged_servers_.size();
    auto server = std::make_unique<BackupServer>(slot, server_config,
                                                 &repository_, &director_);
    // A device fault during construction abandons this attempt before the
    // slot registers an endpoint; a later retry re-stages from scratch.
    if (!server->boot_status().ok()) return server->boot_status();
    if (Status attached = attach_endpoint(slot, *server); !attached.ok()) {
      return attached;
    }
    staged_servers_.push_back(std::move(server));
  }
  return Status::Ok();
}

Status Cluster::split() {
  Result<PartitionMap> next_map = map_.split();
  if (!next_map.ok()) return next_map.status();
  const PartitionMap& next = next_map.value();
  if (Status ready = migration_preconditions(kNoSlot); !ready.ok()) {
    return ready;
  }
  if (Status staged_fleet = ensure_staged_servers(next); !staged_fleet.ok()) {
    return staged_fleet;
  }

  // ---- Prepare: everything fallible happens here, and only freshly
  // minted devices are ever written. Each old partition is extracted once
  // from its preferred copy, cut into its two split halves by the new
  // routing prefix, shipped (epoch-stamped, over the wire) to every
  // server hosting a copy under the new map, and loaded into a staged
  // index with one sorted bulk insert. A fault at any point abandons the
  // staged objects; the old map, epoch, and every committed image are
  // untouched.
  index::DiskIndexParams new_params = config_.server_config.index_params;
  new_params.skip_bits = next.routing_bits();

  std::vector<StagedCopy> staged;
  for (std::size_t p = 0; p < map_.part_count(); ++p) {
    const PartitionCopy& source = map_.copy(p, 0);
    Result<std::vector<IndexEntry>> extracted =
        index::extract_sorted_entries(nodes_[source.server].hosted(p)->index());
    if (!extracted.ok()) return extracted.status();
    // The sorted stream cuts cleanly: fingerprint order groups the new
    // low half (2p) before the high half (2p+1), and each half stays
    // sorted — exactly the per-generation bulk a twin born at the new
    // topology would insert.
    std::array<std::vector<IndexEntry>, 2> halves;
    for (IndexEntry& e : extracted.value()) {
      halves[next.owner_of(e.fp) & 1].push_back(e);
    }
    for (std::size_t half = 0; half < 2; ++half) {
      const std::size_t q = 2 * p + half;
      for (std::size_t c = 0; c < next.copy_count(); ++c) {
        if (Status s = stage_migrated(source.server, q, next.copy(q, c),
                                      halves[half], new_params, next.epoch(),
                                      staged);
            !s.ok()) {
          return s;
        }
      }
    }
  }

  // ---- Commit: pure in-memory handover, nothing below can fail.
  for (auto& server : staged_servers_) servers_.push_back(std::move(server));
  staged_servers_.clear();
  for (auto& server : servers_) server->detach_all_replicas();
  for (StagedCopy& copy : staged) {
    servers_[copy.server]->install_staged(std::move(copy));
  }
  map_ = std::move(next_map).value();
  rebuild_nodes();
  config_.routing_bits = map_.routing_bits();
  deferred_entries_.assign(map_.server_slots(), {});
  catch_up_.assign(map_.server_slots(),
                   std::vector<std::vector<IndexEntry>>(map_.part_count()));
  return Status::Ok();
}

Status Cluster::drain(std::size_t slot) {
  if (slot >= servers_.size()) {
    return {Errc::kInvalidArgument,
            format("drain: no server slot {}", slot)};
  }
  Result<PartitionMap> next_map = map_.drained(slot);
  if (!next_map.ok()) return next_map.status();
  const PartitionMap& next = next_map.value();
  // The draining slot itself is exempt from the health checks: draining a
  // DARK server is the whole point — its copies are rebuilt from the
  // surviving ones, never read.
  if (Status ready = migration_preconditions(slot); !ready.ok()) {
    return ready;
  }

  index::DiskIndexParams params = config_.server_config.index_params;
  params.skip_bits = map_.routing_bits();

  // ---- Prepare: only the partitions that lost a copy to the drained
  // slot change. Each is extracted from its surviving copy and staged as
  // the replacement replica on the server the new map picked.
  std::vector<StagedCopy> staged;
  for (std::size_t p = 0; p < next.part_count(); ++p) {
    if (map_.copy_on(p, slot) == nullptr) continue;
    const PartitionCopy& source = next.copy(p, 0);  // the promoted survivor
    const PartitionCopy& target = next.copy(p, 1);  // the replacement
    Result<std::vector<IndexEntry>> extracted =
        index::extract_sorted_entries(nodes_[source.server].hosted(p)->index());
    if (!extracted.ok()) return extracted.status();
    if (Status s = stage_migrated(source.server, p, target,
                                  std::move(extracted).value(), params,
                                  next.epoch(), staged);
        !s.ok()) {
      return s;
    }
  }

  // ---- Commit: pure in-memory handover.
  for (StagedCopy& copy : staged) {
    servers_[copy.server]->install_staged(std::move(copy));
  }
  servers_[slot]->detach_all_replicas();
  map_ = std::move(next_map).value();
  rebuild_nodes();
  director_.retire_server(slot);
  // Epoch-scoped dedup state: if this address is ever reused (or the slot
  // somehow reappears), its fresh frames must not be discarded as
  // duplicates of the drained server's sequence space.
  const auto slot_id = static_cast<net::EndpointId>(slot);
  for (std::size_t k = 0; k < servers_.size(); ++k) {
    if (!map_.is_live(k)) continue;
    servers_[k]->endpoint().reset_peer(slot_id);
  }
  client_endpoint_->reset_peer(slot_id);
  for (auto& owed : catch_up_[slot]) owed.clear();
  return Status::Ok();
}

Result<std::vector<Byte>> Cluster::read_chunk(std::size_t via_server,
                                              const Fingerprint& fp) {
  assert(via_server < servers_.size());
  const auto via_id = static_cast<net::EndpointId>(via_server);
  // Each locate round trip's holder side runs inline, on the holder's node.
  const LocateResponder answer = [&](std::size_t holder) {
    StepOutcome answered = nodes_[holder].answer_locate(via_id);
    if (!answered.unreachable.empty()) director_.mark_unreachable(holder);
    return answered.status;
  };
  std::vector<std::size_t> unreachable;
  Result<std::vector<Byte>> bytes = nodes_[via_server].read_chunk_via(
      fp, *client_endpoint_, answer, &unreachable);
  for (const std::size_t holder : unreachable) {
    director_.mark_unreachable(holder);
  }
  return bytes;
}

Result<Dataset> Cluster::restore(std::uint64_t job_id, std::uint32_t version,
                                 std::size_t via_server) {
  const std::optional<JobVersionRecord> record =
      director_.version(job_id, version);
  if (!record.has_value()) {
    return Error{Errc::kNotFound,
                 format("job {} version {} not recorded", job_id, version)};
  }
  Dataset out;
  for (const FileRecord& file : record->files) {
    FileData data;
    data.path = file.meta.path;
    data.content.reserve(file.logical_bytes());
    for (std::size_t i = 0; i < file.chunk_fps.size(); ++i) {
      Result<std::vector<Byte>> chunk = read_chunk(via_server,
                                                   file.chunk_fps[i]);
      if (!chunk.ok()) return chunk.error();
      data.content.insert(data.content.end(), chunk.value().begin(),
                          chunk.value().end());
    }
    out.files.push_back(std::move(data));
  }
  return out;
}

void Cluster::reset_clocks() {
  for (auto& s : servers_) s->reset_clocks();
  repository_.reset_clocks();
}

Status Cluster::maintenance_preconditions() {
  if (Status s = migration_preconditions(kNoSlot); !s.ok()) {
    // Every violated precondition is transient — pending SIU drains with
    // a forced round, deferred/owed entries re-ship, dark copies heal —
    // so maintenance reports the retryable kBusy, not the migration
    // gate's codes.
    return {Errc::kBusy, s.message()};
  }
  return Status::Ok();
}

Result<std::vector<IndexEntry>> Cluster::maintenance_mark(
    std::size_t part, std::vector<Fingerprint> live_fps) {
  const std::size_t host = map_.copy(part, 0).server;
  return request_mark(*client_endpoint_, map_, part, std::move(live_fps),
                      net::Deadline::after(config_.retry.receive_timeout),
                      [&] { return nodes_[host].answer_mark(client_id()); });
}

Status Cluster::maintenance_install(std::size_t part,
                                    std::vector<IndexEntry> sorted) {
  for (std::size_t c = 0; c < map_.copy_count(); ++c) {
    const PartitionCopy& copy = map_.copy(part, c);
    if (Status sent = client_endpoint_->send(
            static_cast<net::EndpointId>(copy.server),
            net::GcInstall{map_.epoch(), static_cast<std::uint32_t>(part),
                           static_cast<std::uint8_t>(copy.via_store ? 1 : 0),
                           sorted});
        !sent.ok()) {
      return sent;
    }
    if (Status staged = nodes_[copy.server].accept_install(client_id());
        !staged.ok()) {
      return staged;
    }
  }
  return Status::Ok();
}

Status Cluster::maintenance_commit() {
  for (ClusterNode& node : nodes_) node.commit_staged();
  return Status::Ok();
}

void Cluster::maintenance_abort() {
  for (ClusterNode& node : nodes_) node.drop_staged();
}

}  // namespace debar::core
