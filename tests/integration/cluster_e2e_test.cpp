// Multi-server PSIL/PSIU end-to-end: several clients backing up through
// different servers, global dedup across the cluster, restore through
// arbitrary servers.
#include <gtest/gtest.h>

#include "core/cluster.hpp"

#include "common/sha1.hpp"
#include "workload/fingerprint_stream.hpp"

namespace debar {
namespace {

core::ClusterConfig cluster_config(unsigned w) {
  core::ClusterConfig cfg;
  cfg.routing_bits = w;
  cfg.repository_nodes = 4;
  cfg.server_config.index_params = {.prefix_bits = 8, .blocks_per_bucket = 2};
  cfg.server_config.filter_params = {.hash_bits = 10, .capacity = 1 << 20};
  cfg.server_config.chunk_store.cache_params = {.hash_bits = 6,
                                                .capacity = 1 << 22};
  cfg.server_config.chunk_store.io_buckets = 32;
  cfg.server_config.chunk_store.siu_threshold = 1;
  return cfg;
}

void backup_stream(core::Cluster& cluster, std::size_t server,
                   std::uint64_t job, const std::vector<Fingerprint>& fps) {
  core::FileStore& fs = cluster.server(server).file_store();
  fs.begin_job(job);
  fs.begin_file({.path = "stream", .size = fps.size() * 4096, .mtime = 0,
                 .mode = 0644});
  for (const Fingerprint& f : fps) {
    if (fs.offer_fingerprint(f, 4096)) {
      const auto payload = core::BackupEngine::synthetic_payload(f, 4096);
      ASSERT_TRUE(
          fs.receive_chunk(f, ByteSpan(payload.data(), payload.size())).ok());
    }
  }
  fs.end_file();
  ASSERT_TRUE(fs.end_job().ok());
}

TEST(ClusterE2eTest, FourServersVersionedStreamsWithCrossDup) {
  core::Cluster cluster(cluster_config(2));
  workload::SubspaceRegistry registry(4);

  std::vector<std::unique_ptr<workload::VersionedStream>> streams;
  std::vector<std::uint64_t> jobs;
  for (std::size_t c = 0; c < 4; ++c) {
    streams.push_back(std::make_unique<workload::VersionedStream>(
        &registry, workload::StreamParams{.stream_id = c,
                                          .dup_fraction = 0.9,
                                          .cross_fraction = 0.3,
                                          .seed = 50}));
    jobs.push_back(cluster.director().define_job("client" + std::to_string(c),
                                                 "stream"));
  }

  std::uint64_t total_logical_chunks = 0;
  std::uint64_t total_new = 0;
  for (int version = 0; version < 4; ++version) {
    for (std::size_t c = 0; c < 4; ++c) {
      const auto fps = streams[c]->next_version(800);
      total_logical_chunks += fps.size();
      backup_stream(cluster, c, jobs[c], fps);
    }
    const auto result = cluster.run_dedup2(/*force_siu=*/true);
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    EXPECT_EQ(result.value().orphans, 0u);
    total_new += result.value().new_chunks;
  }

  // Global dedup: stored chunks should be a small fraction of logical.
  EXPECT_LT(total_new, total_logical_chunks / 2);

  // The cluster-wide index holds exactly the distinct stored fingerprints.
  std::uint64_t index_entries = 0;
  for (std::size_t k = 0; k < cluster.server_count(); ++k) {
    index_entries += cluster.server(k).chunk_store().index().entry_count();
  }
  EXPECT_EQ(index_entries, total_new);

  // Every version of every job restores with stamped-payload fidelity.
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::uint32_t v = 1; v <= 4; ++v) {
      const auto restored = cluster.restore(jobs[c], v, (c + 1) % 4);
      ASSERT_TRUE(restored.ok())
          << "job " << c << " v" << v << ": " << restored.error().to_string();
      const auto& content = restored.value().files[0].content;
      const auto record = cluster.director().version(jobs[c], v);
      ASSERT_TRUE(record.has_value());
      const auto& fps = record->files[0].chunk_fps;
      ASSERT_EQ(content.size(), fps.size() * 4096);
      for (std::size_t i = 0; i < fps.size(); ++i) {
        ASSERT_TRUE(std::equal(fps[i].bytes.begin(), fps[i].bytes.end(),
                               content.begin() + i * 4096))
            << "chunk " << i;
      }
    }
  }
}

TEST(ClusterE2eTest, NoChunkStoredTwiceAcrossTheCluster) {
  core::Cluster cluster(cluster_config(1));
  const std::uint64_t j0 = cluster.director().define_job("a", "d");
  const std::uint64_t j1 = cluster.director().define_job("b", "d");

  // Heavily overlapping streams submitted to different servers in the
  // same round, twice.
  std::vector<Fingerprint> fps;
  for (std::uint64_t i = 0; i < 200; ++i) {
    fps.push_back(Sha1::hash_counter(i));
  }
  for (int round = 0; round < 2; ++round) {
    backup_stream(cluster, 0, j0, fps);
    backup_stream(cluster, 1, j1, fps);
    const auto result = cluster.run_dedup2(true);
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    EXPECT_EQ(result.value().orphans, 0u);
  }

  // Scan every container in the repository: each fingerprint must appear
  // exactly once globally.
  std::unordered_map<Fingerprint, int, FingerprintHash> copies;
  const std::uint64_t n = cluster.repository().container_count();
  for (std::uint64_t id = 1; id <= n; ++id) {
    const auto container = cluster.repository().read(ContainerId{id});
    ASSERT_TRUE(container.ok());
    for (const auto& m : container.value().metadata()) {
      ++copies[m.fp];
    }
  }
  EXPECT_EQ(copies.size(), 200u);
  for (const auto& [fp, count] : copies) {
    EXPECT_EQ(count, 1) << "fingerprint stored " << count << " times";
  }
}

TEST(ClusterE2eTest, ScalesToEightServers) {
  core::Cluster cluster(cluster_config(3));
  EXPECT_EQ(cluster.server_count(), 8u);
  const std::uint64_t job = cluster.director().define_job("c", "d");

  std::vector<Fingerprint> fps;
  for (std::uint64_t i = 0; i < 500; ++i) {
    fps.push_back(Sha1::hash_counter(1000 + i));
  }
  backup_stream(cluster, 5, job, fps);
  const auto r = cluster.run_dedup2(true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().new_chunks, 500u);
  EXPECT_EQ(r.value().orphans, 0u);

  // Index entries spread across all 8 parts (uniform fingerprints).
  std::size_t parts_with_entries = 0;
  for (std::size_t k = 0; k < 8; ++k) {
    if (cluster.server(k).chunk_store().index().entry_count() > 0) {
      ++parts_with_entries;
    }
  }
  EXPECT_EQ(parts_with_entries, 8u);

  const auto restored = cluster.restore(job, 1, 0);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().files[0].content.size(), 500u * 4096);
}

}  // namespace
}  // namespace debar
