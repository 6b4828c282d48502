#include "core/cluster_node.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "common/fmt.hpp"

namespace debar::core {

namespace {

net::EndpointId endpoint_of(std::size_t slot) {
  return static_cast<net::EndpointId>(slot);
}

/// A step that failed on this node, before it blamed any peer.
StepOutcome local_failure(Status status) {
  StepOutcome out;
  out.status = std::move(status);
  return out;
}

/// Phase B, as one index-part host runs it: fold the per-origin batches
/// (inbox[s] is origin s's queries, in batch order) into sorted unique
/// fingerprints, run SIL once over `copy`, and resolve per-origin
/// verdicts — a fingerprint found on disk or pending is a duplicate for
/// every asker; a new fingerprint asked about by several origins is
/// stored by the smallest origin id only, the rest are told "duplicate".
/// `duplicates` accumulates the verdict count.
Result<std::vector<net::VerdictBatch>> resolve_psil(
    IndexPart& copy, const std::vector<net::FingerprintBatch>& inbox,
    std::uint64_t& duplicates) {
  const std::size_t n = inbox.size();
  std::vector<net::VerdictBatch> verdicts(n);

  struct Query {
    Fingerprint fp;
    std::size_t origin;
    std::uint32_t index;  // position in the origin's batch
  };
  std::vector<Query> queries;
  for (std::size_t s = 0; s < n; ++s) {
    const std::vector<Fingerprint>& fps = inbox[s].fps;
    verdicts[s].query_count = static_cast<std::uint32_t>(fps.size());
    for (std::size_t i = 0; i < fps.size(); ++i) {
      queries.push_back({fps[i], s, static_cast<std::uint32_t>(i)});
    }
  }
  std::sort(queries.begin(), queries.end(),
            [](const Query& a, const Query& b) {
              return a.fp < b.fp || (a.fp == b.fp && a.origin < b.origin);
            });

  std::vector<Fingerprint> unique_fps;
  unique_fps.reserve(queries.size());
  for (const Query& q : queries) {
    if (unique_fps.empty() || unique_fps.back() != q.fp) {
      unique_fps.push_back(q.fp);
    }
  }

  std::vector<std::uint8_t> found;
  Result<SilResult> sil = copy.sil(unique_fps, found);
  if (!sil.ok()) return sil.error();

  // Resolve verdicts per origin. For a fingerprint PSIL declares new
  // that several origins asked about, only the first origin (smallest
  // id among askers) stores it; the rest are told "duplicate".
  std::size_t qi = 0;
  for (std::size_t u = 0; u < unique_fps.size(); ++u) {
    bool designated = false;
    for (; qi < queries.size() && queries[qi].fp == unique_fps[u]; ++qi) {
      const bool is_dup = found[u] != 0 || designated;
      if (!is_dup) {
        designated = true;  // this origin stores the chunk
      } else {
        verdicts[queries[qi].origin].duplicate_indices.push_back(
            queries[qi].index);
        ++duplicates;
      }
    }
  }
  return verdicts;
}

}  // namespace

RoundMembership RoundMembership::of(const PartitionMap& map) {
  RoundMembership members;
  members.alive.resize(map.server_slots());
  for (std::size_t k = 0; k < map.server_slots(); ++k) {
    members.alive[k] = map.is_live(k);
  }
  members.serving.resize(map.part_count());
  for (std::size_t p = 0; p < map.part_count(); ++p) {
    members.serving[p] = map.copy(p, 0).server;
  }
  return members;
}

IndexPart* ClusterNode::hosted(std::size_t part) const {
  const PartitionCopy* copy = config_.map.copy_on(part, config_.node);
  if (copy == nullptr) return nullptr;
  if (copy->via_store) return &server_->chunk_store();
  return server_->has_part_replica(part) ? &server_->part_replica(part)
                                         : nullptr;
}

Status ClusterNode::check_epoch(std::uint32_t got, const char* what,
                                std::size_t sender) const {
  if (got == config_.map.epoch()) return Status::Ok();
  return {Errc::kInvalidArgument,
          format("node {}: {} from {} carries epoch {}, this node's map is "
                 "at {}",
                 config_.node, what, sender, got, config_.map.epoch())};
}

// ---- Round steps ----

void ClusterNode::begin_round(bool take_undetermined) {
  const std::size_t n = config_.map.server_slots();
  const std::size_t m = config_.map.part_count();
  round_ = Round{};
  round_.outbox.resize(m);
  round_.queries.assign(m, std::vector<net::FingerprintBatch>(n));
  round_.verdicts_out.resize(m);
  round_.verdicts.resize(m);
  round_.entries_out.resize(m);
  round_.entries.assign(m, std::vector<net::IndexEntryBatch>(n));
  if (!take_undetermined) return;
  round_.undetermined = server_->file_store().take_undetermined();
  round_.result.undetermined = round_.undetermined.size();
  for (const Fingerprint& fp : round_.undetermined) {
    round_.outbox[owner_of(fp)].push_back(fp);
  }
}

StepOutcome ClusterNode::send_queries(const RoundMembership& members,
                                      std::span<const std::size_t> parts) {
  const std::size_t k = config_.node;
  net::Endpoint& ep = server_->endpoint();
  StepOutcome out;
  // Buffered sends + per-destination flush: with coalescing on, all parts
  // hosted by one peer leave as a single jumbo frame, in the ascending
  // part order the receive barrier expects.
  for (const std::size_t p : parts) {
    const std::size_t j = members.serving[p];
    if (j == k) continue;
    Status sent = ep.send_buffered(
        endpoint_of(j),
        net::FingerprintBatch{round_.outbox[p], config_.map.epoch()});
    if (!sent.ok()) out.unreachable.push_back(j);
  }
  for (const std::size_t p : parts) {
    const std::size_t j = members.serving[p];
    if (j == k) continue;
    if (Status flushed = ep.flush(endpoint_of(j)); !flushed.ok()) {
      out.unreachable.push_back(j);
    }
  }
  return out;
}

StepOutcome ClusterNode::collect_queries(const RoundMembership& members,
                                         std::span<const std::size_t> parts) {
  const std::size_t k = config_.node;
  const std::size_t n = config_.map.server_slots();
  net::Endpoint& ep = server_->endpoint();
  StepOutcome out;
  // Each served part collects one batch per origin (its own subset never
  // crosses the wire).
  for (const std::size_t p : parts) {
    if (members.serving[p] != k) continue;
    round_.queries[p][k].fps = round_.outbox[p];
    for (std::size_t s = 0; s < n; ++s) {
      if (s == k || !members.alive[s]) continue;
      Result<net::FingerprintBatch> batch =
          ep.expect<net::FingerprintBatch>(endpoint_of(s), barrier_deadline());
      if (!batch.ok()) {
        out.unreachable.push_back(s);
        continue;
      }
      if (Status fenced =
              check_epoch(batch.value().epoch, "phase-A batch", s);
          !fenced.ok()) {
        out.status = fenced;
        continue;
      }
      round_.queries[p][s] = std::move(batch.value());
    }
  }
  return out;
}

void ClusterNode::drop_origin(std::size_t origin) {
  for (auto& per_origin : round_.queries) per_origin[origin] = {};
  for (auto& per_origin : round_.entries) per_origin[origin] = {};
}

void ClusterNode::abandon_round() {
  server_->file_store().restore_undetermined(std::move(round_.undetermined));
  round_.undetermined.clear();
  for (auto& fps : round_.outbox) fps.clear();
}

StepOutcome ClusterNode::run_psil(const RoundMembership& members) {
  // Verdicts are positions into each origin's batch; origin batches are
  // sorted (take_undetermined sorts), so walking unique fingerprints in
  // order yields strictly ascending positions per origin — exactly what
  // VerdictBatch's delta encoding wants.
  for (std::size_t p = 0; p < config_.map.part_count(); ++p) {
    if (members.serving[p] != config_.node) continue;
    Result<std::vector<net::VerdictBatch>> verdicts = resolve_psil(
        *hosted(p), round_.queries[p], round_.result.duplicates);
    if (!verdicts.ok()) return local_failure(verdicts.status());
    round_.verdicts_out[p] = std::move(verdicts.value());
  }
  return {};
}

void ClusterNode::flush_peers(const RoundMembership& members,
                              StepOutcome& out) {
  for (std::size_t j = 0; j < config_.map.server_slots(); ++j) {
    if (j == config_.node || !members.alive[j]) continue;
    if (Status flushed = server_->endpoint().flush(endpoint_of(j));
        !flushed.ok()) {
      out.unreachable.push_back(j);
    }
  }
}

StepOutcome ClusterNode::send_verdicts(const RoundMembership& members) {
  const std::size_t k = config_.node;
  const std::size_t n = config_.map.server_slots();
  net::Endpoint& ep = server_->endpoint();
  StepOutcome out;
  for (std::size_t p = 0; p < config_.map.part_count(); ++p) {
    if (members.serving[p] != k) continue;
    for (std::size_t s = 0; s < n; ++s) {
      if (s == k || !members.alive[s]) continue;
      Status sent =
          ep.send_buffered(endpoint_of(s), round_.verdicts_out[p][s]);
      if (!sent.ok()) out.unreachable.push_back(s);
    }
  }
  flush_peers(members, out);
  return out;
}

StepOutcome ClusterNode::collect_verdicts(const RoundMembership& members) {
  const std::size_t k = config_.node;
  net::Endpoint& ep = server_->endpoint();
  StepOutcome out;
  for (std::size_t p = 0; p < config_.map.part_count(); ++p) {
    const std::size_t j = members.serving[p];
    if (j == k) {
      round_.verdicts[p] = std::move(round_.verdicts_out[p][k]);
      continue;
    }
    Result<net::VerdictBatch> verdict =
        ep.expect<net::VerdictBatch>(endpoint_of(j), barrier_deadline());
    if (!verdict.ok()) {
      out.unreachable.push_back(j);
      continue;
    }
    if (verdict.value().query_count != round_.outbox[p].size()) {
      out.status = Status(
          Errc::kCorrupt,
          format("verdict from {} answers {} queries, {} were asked", j,
                 verdict.value().query_count, round_.outbox[p].size()));
      continue;
    }
    round_.verdicts[p] = std::move(verdict.value());
  }
  return out;
}

StepOutcome ClusterNode::store_chunks() {
  std::unordered_set<Fingerprint, FingerprintHash> dups;
  for (std::size_t p = 0; p < config_.map.part_count(); ++p) {
    // Verdict indices are validated against query_count at decode and at
    // collect, so they index outbox[p] safely.
    for (const std::uint32_t idx : round_.verdicts[p].duplicate_indices) {
      dups.insert(round_.outbox[p][idx]);
    }
  }
  std::vector<Fingerprint> new_fps;
  for (const Fingerprint& fp : round_.undetermined) {
    if (!dups.contains(fp)) new_fps.push_back(fp);
  }
  Result<StoreResult> stored =
      server_->chunk_store().store_new_chunks(new_fps);
  if (!stored.ok()) return local_failure(stored.status());
  server_->chunk_store().clear_log();
  round_.result.new_chunks = stored.value().new_chunks;
  round_.result.new_bytes = stored.value().new_bytes;
  round_.result.orphans = stored.value().orphans;
  route_entries(stored.value().entries);
  return {};
}

void ClusterNode::route_entries(std::span<const IndexEntry> entries) {
  for (const IndexEntry& e : entries) {
    round_.entries_out[owner_of(e.fp)].push_back(e);
  }
}

StepOutcome ClusterNode::send_entries(const RoundMembership& members) {
  const std::size_t k = config_.node;
  net::Endpoint& ep = server_->endpoint();
  StepOutcome out;
  // Per peer the batches go out in ascending part order, which is exactly
  // the order the receiver awaits them in (per-pair delivery is FIFO);
  // with coalescing on they leave as one jumbo frame per peer.
  for (std::size_t p = 0; p < config_.map.part_count(); ++p) {
    for (std::size_t c = 0; c < config_.map.copy_count(); ++c) {
      const std::size_t t = config_.map.copy(p, c).server;
      if (t == k || !members.alive[t]) continue;
      Status sent = ep.send_buffered(
          endpoint_of(t),
          net::IndexEntryBatch{round_.entries_out[p], config_.map.epoch()});
      if (!sent.ok()) out.unreachable.push_back(t);
    }
  }
  flush_peers(members, out);
  return out;
}

StepOutcome ClusterNode::collect_entries(const RoundMembership& members) {
  const std::size_t k = config_.node;
  const std::size_t n = config_.map.server_slots();
  net::Endpoint& ep = server_->endpoint();
  StepOutcome out;
  for (const std::size_t p : config_.map.parts_hosted_by(k)) {
    for (std::size_t s = 0; s < n; ++s) {
      if (s == k) {
        round_.entries[p][s].entries = round_.entries_out[p];
        continue;
      }
      if (!members.alive[s]) continue;
      Result<net::IndexEntryBatch> batch =
          ep.expect<net::IndexEntryBatch>(endpoint_of(s), barrier_deadline());
      if (!batch.ok()) {
        out.unreachable.push_back(s);
        continue;
      }
      if (Status fenced =
              check_epoch(batch.value().epoch, "phase-E batch", s);
          !fenced.ok()) {
        out.status = fenced;
        continue;
      }
      round_.entries[p][s] = std::move(batch.value());
    }
  }
  return out;
}

StepOutcome ClusterNode::commit(bool force_siu) {
  // Every copy of a partition applies the same per-(part, origin) batches
  // in the same order, through the same serial bulk paths, so the device
  // images of a partition's copies stay byte-identical while both live.
  const std::vector<std::size_t> parts =
      config_.map.parts_hosted_by(config_.node);
  for (const std::size_t p : parts) {
    for (const net::IndexEntryBatch& batch : round_.entries[p]) {
      hosted(p)->add_pending(batch.entries);
    }
  }
  if (force_siu || server_->chunk_store().siu_due()) {
    Result<SiuResult> siu = server_->chunk_store().siu();
    if (!siu.ok()) return local_failure(siu.status());
    round_.result.ran_siu = true;
  }
  for (const std::size_t p : parts) {
    if (config_.map.copy_on(p, config_.node)->via_store) continue;
    IndexPart& replica = server_->part_replica(p);
    if (!(force_siu || replica.siu_due())) continue;
    Result<SiuResult> siu = replica.siu();
    if (!siu.ok()) return local_failure(siu.status());
  }
  return {};
}

Result<NodeRoundResult> ClusterNode::run_dedup2_round(bool force_siu) {
  const PartitionMap& map = config_.map;
  const std::size_t k = config_.node;
  if (Status hosting = check_hosting(); !hosting.ok()) {
    return Error{hosting.code(), hosting.message()};
  }
  const RoundMembership members = RoundMembership::of(map);
  std::vector<std::size_t> all_parts(map.part_count());
  std::iota(all_parts.begin(), all_parts.end(), std::size_t{0});

  // No blame pass here: the first failed step aborts this node's round.
  begin_round(/*take_undetermined=*/true);
  const std::pair<const char*, std::function<StepOutcome()>> steps[] = {
      {"A", [&] { return send_queries(members, all_parts); }},
      {"A", [&] { return collect_queries(members, all_parts); }},
      {"B", [&] { return run_psil(members); }},
      {"C", [&] { return send_verdicts(members); }},
      {"C", [&] { return collect_verdicts(members); }},
      {"D", [&] { return store_chunks(); }},
      {"E", [&] { return send_entries(members); }},
      {"E", [&] { return collect_entries(members); }},
      {"commit", [&] { return commit(force_siu); }},
  };
  for (const auto& [phase, step] : steps) {
    const StepOutcome o = step();
    if (!o.status.ok()) return Error{o.status.code(), o.status.message()};
    if (!o.unreachable.empty()) {
      return Error{Errc::kUnavailable,
                   format("node {}: phase {}: peer {} unreachable", k, phase,
                          o.unreachable.front())};
    }
  }
  return round_.result;
}

// ---- Hosted copies ----

Status ClusterNode::receive_entries(std::size_t sender, std::size_t part) {
  Result<net::IndexEntryBatch> batch =
      server_->endpoint().expect<net::IndexEntryBatch>(endpoint_of(sender),
                                                       barrier_deadline());
  if (!batch.ok()) return batch.status();
  if (Status fenced = check_epoch(batch.value().epoch, "catch-up batch",
                                  sender);
      !fenced.ok()) {
    return fenced;
  }
  hosted(part)->add_pending(batch.value().entries);
  return Status::Ok();
}

Result<ContainerId> ClusterNode::locate_hosted(const Fingerprint& fp) const {
  const std::size_t owner = owner_of(fp);
  if (IndexPart* copy = hosted(owner)) return copy->locate(fp);
  return Error{Errc::kNotFound, format("node {} hosts no copy of part {}",
                                       config_.node, owner)};
}

net::ChunkLocateReply ClusterNode::locate_reply(const Fingerprint& fp) const {
  net::ChunkLocateReply reply;
  Result<ContainerId> located = locate_hosted(fp);
  if (located.ok()) {
    reply.container = located.value();
  } else {
    reply.status = located.error().code;
  }
  return reply;
}

StepOutcome ClusterNode::answer_locate(net::EndpointId via) {
  net::Endpoint& ep = server_->endpoint();
  StepOutcome out;
  Result<net::ChunkLocateRequest> request =
      ep.expect<net::ChunkLocateRequest>(via, barrier_deadline());
  if (!request.ok()) {
    out.status = {Errc::kUnavailable,
                  format("locate request to holder {} lost", config_.node)};
    return out;
  }
  if (Status sent = ep.send(via, locate_reply(request.value().fp));
      !sent.ok()) {
    out.unreachable.push_back(via);
    out.status = {Errc::kUnavailable,
                  format("copy holder {} unreachable for reply",
                         config_.node)};
  }
  return out;
}

Status ClusterNode::serve_restores(net::EndpointId via) {
  net::Endpoint& ep = server_->endpoint();
  for (;;) {
    std::optional<net::Message> msg =
        ep.receive_from(via, barrier_deadline());
    if (!msg.has_value()) {
      return {Errc::kUnavailable,
              format("node {}: serve loop heard nothing from {} within the "
                     "round timeout",
                     config_.node, via)};
    }
    if (const auto* control = std::get_if<net::Control>(&*msg)) {
      if (control->op == net::Control::kShutdown) return Status::Ok();
      continue;  // unknown control op: ignore
    }
    const auto* request = std::get_if<net::ChunkLocateRequest>(&*msg);
    if (request == nullptr) continue;  // not ours to answer
    if (Status sent = ep.send(via, locate_reply(request->fp)); !sent.ok()) {
      return {Errc::kUnavailable,
              format("node {}: locate reply to {} failed: {}", config_.node,
                     via, sent.message())};
    }
  }
}

Result<std::vector<Byte>> ClusterNode::read_chunk_via(
    const Fingerprint& fp, net::Endpoint& client,
    const LocateResponder& respond, std::vector<std::size_t>* unreachable) {
  const net::EndpointId via_id = endpoint_of(config_.node);
  net::Endpoint& ep = server_->endpoint();

  // LPC first (Section 3.3): only a cache miss pays the owner-side index
  // lookup and the container fetch.
  std::vector<Byte> bytes;
  if (std::optional<std::vector<Byte>> hit =
          server_->chunk_store().lpc_probe(fp)) {
    bytes = std::move(*hit);
  } else {
    // Failover order (DESIGN.md §5g): the partition's preferred copy
    // first, then its backup, when the preferred holder is dark, silent,
    // or answers "not found" (its copy may lag a catch-up the other copy
    // already has). Either copy may be this node (a local lookup) or a
    // peer (a locate round trip).
    const std::size_t owner = owner_of(fp);
    std::optional<ContainerId> container;
    Error last_error{Errc::kUnavailable,
                     format("no copy of part {} reachable for locate", owner)};
    for (std::size_t i = 0; i < config_.map.copy_count() && !container; ++i) {
      const std::size_t h = config_.map.copy(owner, i).server;
      if (h == config_.node) {
        Result<ContainerId> located = locate_hosted(fp);
        if (located.ok()) {
          container = located.value();
        } else {
          last_error = located.error();
        }
        continue;
      }
      const net::EndpointId holder_id = endpoint_of(h);
      if (Status sent = ep.send(holder_id, net::ChunkLocateRequest{fp});
          !sent.ok()) {
        if (unreachable != nullptr) unreachable->push_back(h);
        last_error = Error{Errc::kUnavailable,
                           format("copy holder {} unreachable for locate", h)};
        continue;
      }
      if (respond) {
        if (Status answered = respond(h); !answered.ok()) {
          last_error = Error{answered.code(), answered.message()};
          continue;
        }
      }
      Result<net::ChunkLocateReply> got =
          ep.expect<net::ChunkLocateReply>(holder_id, barrier_deadline());
      if (!got.ok()) {
        last_error = Error{Errc::kUnavailable,
                           format("locate reply from holder {} lost", h)};
        continue;
      }
      if (got.value().status != Errc::kOk) {
        last_error = Error{got.value().status,
                           format("chunk not located on holder {}", h)};
        continue;
      }
      container = got.value().container;
    }
    if (!container) return last_error;
    Result<std::vector<Byte>> chunk =
        server_->chunk_store().read_chunk_at(fp, *container);
    if (!chunk.ok()) return chunk.error();
    bytes = std::move(chunk.value());
  }

  // The restored bytes cross this server's wire to the client as a real
  // ChunkData frame (and round-trip its serialization).
  if (Status sent = ep.send(client.id(), net::ChunkData{fp, std::move(bytes)});
      !sent.ok()) {
    return Error{Errc::kUnavailable,
                 format("restore delivery from server {} failed",
                        config_.node)};
  }
  Result<net::ChunkData> delivered =
      client.expect<net::ChunkData>(via_id, barrier_deadline());
  if (!delivered.ok()) {
    return Error{Errc::kUnavailable,
                 format("restore delivery from server {} lost",
                        config_.node)};
  }
  return std::move(delivered.value().bytes);
}

// ---- Maintenance ----

Status ClusterNode::check_hosting() const {
  const std::size_t k = config_.node;
  if (!config_.map.is_live(k)) {
    return {Errc::kInvalidArgument,
            format("node {}: slot is drained in the map", k)};
  }
  // Replication (DESIGN.md §5g) is part of the wire protocol: every peer
  // dual-writes phase E, so a node missing a replica the map assigns it
  // would desync the round for everyone.
  for (const std::size_t p : config_.map.parts_hosted_by(k)) {
    if (hosted(p) == nullptr) {
      return {Errc::kInvalidArgument,
              format("node {}: no replica attached for part {}", k, p)};
    }
  }
  return Status::Ok();
}

Status ClusterNode::maintenance_preconditions() {
  const std::size_t k = config_.node;
  if (Status hosting = check_hosting(); !hosting.ok()) return hosting;
  const unsigned routed = server_->chunk_store().index().params().skip_bits;
  if (routed != config_.map.routing_bits()) {
    return {Errc::kUnsupported,
            format("node {}: its index part routes {} bits, the map {}; "
                   "routed index parts need the Cluster maintenance form",
                   k, routed, config_.map.routing_bits())};
  }
  for (const std::size_t p : config_.map.parts_hosted_by(k)) {
    if (const std::uint64_t pending = hosted(p)->pending_count(); pending > 0) {
      return {Errc::kBusy,
              format("node {}: {} SIU entries pending on its part-{} copy",
                     k, pending, p)};
    }
  }
  return Status::Ok();
}

Result<std::vector<IndexEntry>> ClusterNode::classify_hosted(
    std::size_t part, std::span<const Fingerprint> sorted_live) const {
  if (IndexPart* copy = hosted(part)) {
    return classify_live_entries(copy->index(), sorted_live);
  }
  return Error{Errc::kInvalidArgument, format("node {} hosts no copy of part {}",
                                              config_.node, part)};
}

Result<net::GcMarkReply> ClusterNode::mark_reply(
    const net::GcMarkRequest& request, net::EndpointId driver) const {
  if (Status fenced = check_epoch(request.epoch, "mark request", driver);
      !fenced.ok()) {
    return Error{fenced.code(), fenced.message()};
  }
  Result<std::vector<IndexEntry>> entries =
      classify_hosted(request.part, request.fps);
  if (!entries.ok()) return entries.error();
  return net::GcMarkReply{config_.map.epoch(), request.part,
                          std::move(entries).value()};
}

Status ClusterNode::stage_copy(std::size_t part,
                               std::vector<IndexEntry> sorted) {
  // Every copy rebuilds at the fleet's configured geometry, so both
  // copies of a partition come out byte-identical whatever scaling
  // history each had.
  Result<index::DiskIndex> idx = build_staged_index(
      *server_, server_->config().index_params, std::move(sorted));
  if (!idx.ok()) return idx.status();
  staged_.push_back(StagedCopy{part, config_.node,
                               config_.map.copy_on(part, config_.node)->via_store,
                               std::move(idx).value()});
  return Status::Ok();
}

Status ClusterNode::stage_install(net::GcInstall install) {
  const PartitionCopy* copy = config_.map.copy_on(install.part, config_.node);
  if (install.epoch != config_.map.epoch() || copy == nullptr ||
      copy->via_store != (install.via_store != 0)) {
    return {Errc::kInvalidArgument,
            format("node {}: install for part {} at epoch {} does not match "
                   "this node's map (epoch {})",
                   config_.node, install.part, install.epoch,
                   config_.map.epoch())};
  }
  return stage_copy(install.part, std::move(install.entries));
}

void ClusterNode::commit_staged() {
  for (StagedCopy& copy : staged_) server_->install_staged(std::move(copy));
  staged_.clear();
}

Result<std::vector<IndexEntry>> request_mark(
    net::Endpoint& driver, const PartitionMap& map, std::size_t part,
    std::vector<Fingerprint> live_fps, const net::Deadline& deadline,
    const std::function<Status()>& answer) {
  const std::size_t j = map.copy(part, 0).server;
  if (Status sent = driver.send(
          endpoint_of(j),
          net::GcMarkRequest{map.epoch(), static_cast<std::uint32_t>(part),
                             std::move(live_fps)});
      !sent.ok()) {
    return Error{sent.code(),
                 format("mark request for part {} to node {} failed: {}",
                        part, j, sent.message())};
  }
  if (answer) {
    if (Status answered = answer(); !answered.ok()) {
      return Error{answered.code(), answered.message()};
    }
  }
  Result<net::GcMarkReply> reply =
      driver.expect<net::GcMarkReply>(endpoint_of(j), deadline);
  if (!reply.ok()) {
    return Error{reply.error().code,
                 format("mark reply for part {} from node {} missing: {}",
                        part, j, reply.error().message)};
  }
  if (reply.value().epoch != map.epoch() || reply.value().part != part) {
    return Error{Errc::kInvalidArgument,
                 format("mark reply from node {} answers part {} epoch {}, "
                        "asked part {} epoch {}",
                        j, reply.value().part, reply.value().epoch, part,
                        map.epoch())};
  }
  return std::move(reply.value().entries);
}

Result<std::vector<IndexEntry>> ClusterNode::maintenance_mark(
    std::size_t part, std::vector<Fingerprint> live_fps) {
  if (config_.map.copy(part, 0).server == config_.node) {
    return classify_hosted(part, live_fps);
  }
  return request_mark(server_->endpoint(), config_.map, part,
                      std::move(live_fps), barrier_deadline());
}

Status ClusterNode::maintenance_install(std::size_t part,
                                        std::vector<IndexEntry> sorted) {
  const std::uint32_t epoch = config_.map.epoch();
  for (std::size_t c = 0; c < config_.map.copy_count(); ++c) {
    const PartitionCopy copy = config_.map.copy(part, c);
    if (copy.server == config_.node) {
      if (Status s = stage_copy(part, sorted); !s.ok()) return s;
      continue;
    }
    net::Endpoint& ep = server_->endpoint();
    const net::EndpointId holder = endpoint_of(copy.server);
    if (Status sent = ep.send(
            holder,
            net::GcInstall{epoch, static_cast<std::uint32_t>(part),
                           static_cast<std::uint8_t>(copy.via_store ? 1 : 0),
                           sorted});
        !sent.ok()) {
      return {Errc::kUnavailable,
              format("install for part {} to node {} failed: {}", part,
                     copy.server, sent.message())};
    }
    Result<net::Control> ack =
        ep.expect<net::Control>(holder, barrier_deadline());
    if (!ack.ok()) {
      return {Errc::kUnavailable,
              format("install ack for part {} from node {} missing: {}",
                     part, copy.server, ack.error().message)};
    }
    if (ack.value().op != net::Control::kMaintenanceAck ||
        ack.value().arg != epoch) {
      return {Errc::kInvalidArgument,
              format("node {} acked install for part {} with op {} arg {}",
                     copy.server, part, ack.value().op, ack.value().arg)};
    }
  }
  return Status::Ok();
}

Status ClusterNode::maintenance_commit() {
  // Local copies swap first (pure in-memory), then the peers are
  // released; their swaps are equally infallible, so a lost ack can only
  // mean a dead peer, not a half-committed fleet.
  commit_staged();
  const std::uint32_t epoch = config_.map.epoch();
  Status rc = Status::Ok();
  for (std::size_t j = 0; j < config_.map.server_slots(); ++j) {
    if (j == config_.node || !config_.map.is_live(j)) continue;
    net::Endpoint& ep = server_->endpoint();
    const net::EndpointId peer = endpoint_of(j);
    Status sent =
        ep.send(peer, net::Control{net::Control::kMaintenanceCommit, epoch});
    if (sent.ok()) {
      Result<net::Control> ack =
          ep.expect<net::Control>(peer, barrier_deadline());
      if (ack.ok() && ack.value().op == net::Control::kMaintenanceAck &&
          ack.value().arg == epoch) {
        continue;
      }
    }
    if (rc.ok()) {
      rc = {Errc::kUnavailable,
            format("node {} did not acknowledge the maintenance commit", j)};
    }
  }
  return rc;
}

void ClusterNode::maintenance_abort() {
  drop_staged();
  for (std::size_t j = 0; j < config_.map.server_slots(); ++j) {
    if (j == config_.node || !config_.map.is_live(j)) continue;
    (void)server_->endpoint().send(
        endpoint_of(j),
        net::Control{net::Control::kMaintenanceAbort, config_.map.epoch()});
  }
}

Status ClusterNode::answer_mark(net::EndpointId driver) {
  net::Endpoint& ep = server_->endpoint();
  Result<net::GcMarkRequest> request =
      ep.expect<net::GcMarkRequest>(driver, barrier_deadline());
  if (!request.ok()) return request.status();
  Result<net::GcMarkReply> reply = mark_reply(request.value(), driver);
  if (!reply.ok()) return reply.status();
  return ep.send(driver, std::move(reply).value());
}

Status ClusterNode::accept_install(net::EndpointId driver) {
  Result<net::GcInstall> install = server_->endpoint().expect<net::GcInstall>(
      driver, barrier_deadline());
  if (!install.ok()) return install.status();
  return stage_install(std::move(install).value());
}

Status ClusterNode::serve_maintenance(net::EndpointId driver) {
  net::Endpoint& ep = server_->endpoint();
  const std::uint32_t epoch = config_.map.epoch();
  const std::size_t k = config_.node;
  // Any failure drops what this round staged: the driver aborts too.
  auto fail = [this](Status s) {
    drop_staged();
    return s;
  };
  for (;;) {
    std::optional<net::Message> msg =
        ep.receive_from(driver, barrier_deadline());
    if (!msg.has_value()) {
      return fail({Errc::kUnavailable,
                   format("node {}: maintenance loop heard nothing from {} "
                          "within the round timeout",
                          k, driver)});
    }
    if (const auto* mark = std::get_if<net::GcMarkRequest>(&*msg)) {
      Result<net::GcMarkReply> reply = mark_reply(*mark, driver);
      if (!reply.ok()) return fail(reply.status());
      if (Status sent = ep.send(driver, std::move(reply).value());
          !sent.ok()) {
        return fail({Errc::kUnavailable,
                     format("node {}: mark reply to {} failed: {}", k, driver,
                            sent.message())});
      }
      continue;
    }
    if (auto* install = std::get_if<net::GcInstall>(&*msg)) {
      if (Status staged = stage_install(std::move(*install)); !staged.ok()) {
        return fail(staged);
      }
      if (Status sent = ep.send(
              driver, net::Control{net::Control::kMaintenanceAck, epoch});
          !sent.ok()) {
        return fail({Errc::kUnavailable,
                     format("node {}: install ack to {} failed: {}", k,
                            driver, sent.message())});
      }
      continue;
    }
    if (const auto* control = std::get_if<net::Control>(&*msg)) {
      switch (control->op) {
        case net::Control::kMaintenanceCommit:
          commit_staged();
          return ep.send(driver,
                         net::Control{net::Control::kMaintenanceAck, epoch});
        case net::Control::kMaintenanceAbort:
        case net::Control::kShutdown:
          drop_staged();
          return Status::Ok();
        default:
          continue;  // unknown control op: ignore
      }
    }
    // Not a maintenance frame: ignore (the driver owns the choreography).
  }
}

}  // namespace debar::core
