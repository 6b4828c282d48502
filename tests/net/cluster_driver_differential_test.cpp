// Orchestrated-vs-SPMD differential (`ctest -L net`): the same multi-round
// ingest driven through a core::Cluster and through one core::ClusterNode
// per server on threads over a shared LoopbackTransport must agree on
// every round's counters, every copy of every partition's index image,
// the wire ledger, every server's modeled clocks and every restored byte
// — at w in {1, 2}, with the wire codec off and on.
//
// Each round ingests through a single origin (rotating across servers):
// phase D stores every origin's new chunks into the shared repository
// concurrently, so multi-origin rounds would make container IDs depend on
// thread interleaving.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/sha1.hpp"
#include "core/cluster.hpp"
#include "core/cluster_node.hpp"
#include "net/loopback_transport.hpp"

namespace debar::core {
namespace {

constexpr int kRounds = 4;
constexpr std::uint32_t kChunkBytes = 512;
// Rounds 1, 2 and 4 leave entries pending (checking fingerprints carry
// the later rounds' duplicates); round 3 flushes them with a forced SIU.
constexpr bool kForceSiu[kRounds] = {false, false, true, false};

BackupServerConfig server_config() {
  BackupServerConfig cfg;
  cfg.index_params = {.prefix_bits = 6, .blocks_per_bucket = 2};
  cfg.filter_params = {.hash_bits = 8, .capacity = 100000};
  cfg.chunk_store.cache_params = {.hash_bits = 4, .capacity = 1000000};
  cfg.chunk_store.io_buckets = 8;
  cfg.chunk_store.siu_threshold = 1u << 20;
  return cfg;
}

/// Per-round fingerprint streams: fresh fingerprints plus duplicates of
/// earlier rounds and of the round itself. Same seed, same workload.
std::vector<std::vector<Fingerprint>> make_streams(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Fingerprint> pool;
  std::vector<std::vector<Fingerprint>> streams(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < 100; ++i) {
      if (!pool.empty() && rng.chance(0.4)) {
        streams[r].push_back(pool[rng.below(pool.size())]);
      } else {
        pool.push_back(Sha1::hash_counter(rng()));
        streams[r].push_back(pool.back());
      }
    }
  }
  return streams;
}

void ingest(FileStore& fs, std::uint64_t job,
            const std::vector<Fingerprint>& fps) {
  fs.begin_job(job);
  fs.begin_file({.path = "s",
                 .size = fps.size() * kChunkBytes,
                 .mtime = 0,
                 .mode = 0644});
  for (const Fingerprint& f : fps) {
    if (fs.offer_fingerprint(f, kChunkBytes)) {
      const auto payload = BackupEngine::synthetic_payload(f, kChunkBytes);
      EXPECT_TRUE(
          fs.receive_chunk(f, ByteSpan(payload.data(), payload.size())).ok());
    }
  }
  fs.end_file();
  EXPECT_TRUE(fs.end_job().ok());
}

std::vector<Byte> device_image(const index::DiskIndex& idx) {
  auto& device = const_cast<index::DiskIndex&>(idx).device();
  std::vector<Byte> image(device.size());
  if (!image.empty()) {
    const Status s = device.read(0, std::span<Byte>(image));
    EXPECT_TRUE(s.ok()) << s.to_string();
  }
  return image;
}

struct Outcome {
  /// Per round: undetermined, duplicates, new chunks, new bytes, orphans,
  /// SIU ran.
  std::vector<std::uint64_t> rounds;
  /// images[part][copy], in the map's copy order.
  std::vector<std::vector<std::vector<Byte>>> images;
  std::vector<Byte> restored;
  net::TransportStats stats{};
  std::vector<ServerClocks> clocks;
};

void record_images(Outcome& out, const PartitionMap& map,
                   const std::vector<BackupServer*>& servers) {
  out.images.assign(map.part_count(), {});
  for (std::size_t p = 0; p < map.part_count(); ++p) {
    for (std::size_t c = 0; c < map.copy_count(); ++c) {
      const PartitionCopy& copy = map.copy(p, c);
      BackupServer& host = *servers[copy.server];
      out.images[p].push_back(
          device_image(copy.via_store ? host.chunk_store().index()
                                      : host.part_replica(p).index()));
    }
  }
}

void append(std::vector<Byte>& into, const std::vector<Byte>& bytes) {
  into.insert(into.end(), bytes.begin(), bytes.end());
}

Outcome run_orchestrated(unsigned w, net::WireCodecConfig codec,
                         std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.routing_bits = w;
  cfg.repository_nodes = 2;
  cfg.server_config = server_config();
  cfg.wire_codec = codec;
  Cluster cluster(std::move(cfg));
  const std::size_t n = cluster.server_count();
  const auto streams = make_streams(seed);

  Outcome out;
  const std::uint64_t job = cluster.director().define_job("c", "d");
  for (int r = 0; r < kRounds; ++r) {
    ingest(cluster.server(r % n).file_store(), job, streams[r]);
    const Result<ClusterDedup2Result> round = cluster.run_dedup2(kForceSiu[r]);
    EXPECT_TRUE(round.ok()) << round.error().to_string();
    if (!round.ok()) return out;
    const ClusterDedup2Result& res = round.value();
    out.rounds.insert(out.rounds.end(),
                      {res.undetermined, res.duplicates, res.new_chunks,
                       res.new_bytes, res.orphans, res.ran_siu ? 1u : 0u});
    EXPECT_FALSE(res.degraded());
    EXPECT_EQ(res.orphans, 0u) << "round " << r;
  }
  for (std::uint32_t v = 1; v <= kRounds; ++v) {
    const Result<Dataset> restored = cluster.restore(job, v, /*via=*/0);
    EXPECT_TRUE(restored.ok()) << restored.error().to_string();
    if (!restored.ok()) continue;
    for (const FileData& f : restored.value().files) {
      append(out.restored, f.content);
    }
  }
  out.stats = cluster.transport_stats();
  std::vector<BackupServer*> servers;
  for (std::size_t k = 0; k < n; ++k) {
    servers.push_back(&cluster.server(k));
    out.clocks.push_back(cluster.server(k).clocks());
  }
  record_images(out, cluster.partition_map(), servers);
  return out;
}

/// The SPMD deployment of the same fleet: one BackupServer + ClusterNode
/// per slot, sharing a repository, a director and a loopback wire, with
/// the Cluster constructor's replica-attach order.
Outcome run_spmd(unsigned w, net::WireCodecConfig codec, std::uint64_t seed) {
  const PartitionMap map = PartitionMap::identity(w);
  const std::size_t n = map.server_slots();
  storage::ChunkRepository repository(2, sim::DiskProfile::PaperRaid());
  Director director;
  BackupServerConfig cfg = server_config();
  cfg.index_params.skip_bits = w;
  std::vector<std::unique_ptr<BackupServer>> servers;
  for (std::size_t k = 0; k < n; ++k) {
    servers.push_back(
        std::make_unique<BackupServer>(k, cfg, &repository, &director));
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (const std::size_t p : map.parts_hosted_by(k)) {
      if (!map.copy_on(p, k)->via_store) {
        EXPECT_TRUE(servers[k]->attach_replica(p).ok());
      }
    }
  }
  net::LoopbackTransport transport;
  for (std::size_t k = 0; k < n; ++k) {
    const auto id = static_cast<net::EndpointId>(k);
    EXPECT_TRUE(transport.register_endpoint(id, &servers[k]->nic()).ok());
    servers[k]->attach_endpoint(std::make_unique<net::Endpoint>(
        &transport, id, net::RetryPolicy{}, codec));
  }
  EXPECT_TRUE(
      transport.register_endpoint(net::kClientEndpointId, nullptr).ok());
  net::Endpoint client(&transport, net::kClientEndpointId, net::RetryPolicy{},
                       codec);
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  for (std::size_t k = 0; k < n; ++k) {
    nodes.push_back(std::make_unique<ClusterNode>(
        ClusterNodeConfig{.node = k, .map = map}, servers[k].get()));
  }
  const auto streams = make_streams(seed);

  Outcome out;
  const std::uint64_t job = director.define_job("c", "d");
  for (int r = 0; r < kRounds; ++r) {
    ingest(servers[r % n]->file_store(), job, streams[r]);
    std::vector<std::optional<Result<NodeRoundResult>>> results(n);
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < n; ++k) {
      threads.emplace_back(
          [&, k] { results[k] = nodes[k]->run_dedup2_round(kForceSiu[r]); });
    }
    for (std::thread& t : threads) t.join();
    NodeRoundResult sum;
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_TRUE(results[k]->ok()) << results[k]->error().to_string();
      if (!results[k]->ok()) return out;
      const NodeRoundResult& res = results[k]->value();
      sum.undetermined += res.undetermined;
      sum.duplicates += res.duplicates;
      sum.new_chunks += res.new_chunks;
      sum.new_bytes += res.new_bytes;
      sum.orphans += res.orphans;
      sum.ran_siu = sum.ran_siu || res.ran_siu;
    }
    out.rounds.insert(out.rounds.end(),
                      {sum.undetermined, sum.duplicates, sum.new_chunks,
                       sum.new_bytes, sum.orphans, sum.ran_siu ? 1u : 0u});
    EXPECT_EQ(sum.orphans, 0u) << "round " << r;
  }

  // Restores through node 0; every peer answers locates from its serve
  // loop until node 0 shuts it down.
  std::vector<std::thread> peers;
  for (std::size_t k = 1; k < n; ++k) {
    peers.emplace_back([&, k] {
      EXPECT_TRUE(nodes[k]->serve_restores(/*via=*/0).ok());
    });
  }
  for (std::uint32_t v = 1; v <= kRounds; ++v) {
    const std::optional<JobVersionRecord> rec = director.version(job, v);
    EXPECT_TRUE(rec.has_value());
    if (!rec.has_value()) continue;
    for (const FileRecord& f : rec->files) {
      for (const Fingerprint& fp : f.chunk_fps) {
        const Result<std::vector<Byte>> bytes =
            nodes[0]->read_chunk_via(fp, client);
        EXPECT_TRUE(bytes.ok()) << bytes.error().to_string();
        if (bytes.ok()) append(out.restored, bytes.value());
      }
    }
  }
  // The ledger and clocks the orchestrated run is compared with end at
  // the last restore; the shutdown frames below are SPMD-only.
  out.stats = transport.meter().stats();
  std::vector<BackupServer*> raw;
  for (std::size_t k = 0; k < n; ++k) {
    raw.push_back(servers[k].get());
    out.clocks.push_back(servers[k]->clocks());
  }
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_TRUE(servers[0]
                    ->endpoint()
                    .send(static_cast<net::EndpointId>(k),
                          net::Control{.op = net::Control::kShutdown})
                    .ok());
  }
  for (std::thread& t : peers) t.join();
  record_images(out, map, raw);
  return out;
}

void expect_near_clock(double a, double b, const char* what, std::size_t k) {
  EXPECT_LE(std::abs(a - b), 1e-9 * std::max(1.0, std::abs(a)))
      << what << " clock of server " << k << ": " << a << " vs " << b;
}

class ClusterDriverDifferentialTest
    : public testing::TestWithParam<std::tuple<unsigned, bool>> {};

TEST_P(ClusterDriverDifferentialTest, OrchestratedMatchesSpmd) {
  const auto [w, codec_on] = GetParam();
  const net::WireCodecConfig codec =
      codec_on ? net::WireCodecConfig::enabled() : net::WireCodecConfig{};
  const std::uint64_t seed = 0xD21FE + w;
  const Outcome cluster = run_orchestrated(w, codec, seed);
  const Outcome spmd = run_spmd(w, codec, seed);

  // Summed per-node counters equal the orchestrated round's.
  ASSERT_EQ(cluster.rounds.size(), static_cast<std::size_t>(kRounds) * 6);
  EXPECT_EQ(cluster.rounds, spmd.rounds);

  // Every copy of every partition: the same image under both drivers, and
  // both copies of a partition identical to each other.
  ASSERT_EQ(cluster.images.size(), spmd.images.size());
  for (std::size_t p = 0; p < cluster.images.size(); ++p) {
    ASSERT_EQ(cluster.images[p].size(), spmd.images[p].size());
    for (std::size_t c = 0; c < cluster.images[p].size(); ++c) {
      EXPECT_EQ(cluster.images[p][c], spmd.images[p][c])
          << "part " << p << " copy " << c;
      EXPECT_EQ(cluster.images[p][c], cluster.images[p][0])
          << "part " << p << " copy " << c << " drifted from copy 0";
    }
  }

  // Restores are byte-identical (and not vacuous).
  ASSERT_FALSE(cluster.restored.empty());
  EXPECT_EQ(cluster.restored, spmd.restored);

  // Same messages, frames and bytes on the wire, per type.
  EXPECT_EQ(cluster.stats.messages_by_type, spmd.stats.messages_by_type);
  EXPECT_EQ(cluster.stats.raw_bytes_by_type, spmd.stats.raw_bytes_by_type);
  EXPECT_EQ(cluster.stats.frames_by_type, spmd.stats.frames_by_type);
  EXPECT_EQ(cluster.stats.bytes_by_type, spmd.stats.bytes_by_type);

  // Same modeled device time on every server.
  ASSERT_EQ(cluster.clocks.size(), spmd.clocks.size());
  for (std::size_t k = 0; k < cluster.clocks.size(); ++k) {
    expect_near_clock(cluster.clocks[k].nic, spmd.clocks[k].nic, "nic", k);
    expect_near_clock(cluster.clocks[k].log_disk, spmd.clocks[k].log_disk,
                      "log", k);
    expect_near_clock(cluster.clocks[k].index_disk,
                      spmd.clocks[k].index_disk, "index", k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndCodec, ClusterDriverDifferentialTest,
    testing::Combine(testing::Values(1u, 2u), testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<unsigned, bool>>& info) {
      return "w" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_codec" : "_plain");
    });

}  // namespace
}  // namespace debar::core
