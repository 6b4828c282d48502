#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

#include "chunking/rabin_chunker.hpp"
#include "common/fmt.hpp"
#include "common/sha1.hpp"
#include "core/backup_engine.hpp"

namespace perfbench {

double Series::quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const auto i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

void OpSeries::add(std::size_t op, double bytes, double seconds) {
  if (op >= bytes_.size()) {
    bytes_.resize(op + 1, 0);
    seconds_.resize(op + 1);
  }
  bytes_[op] = bytes;
  seconds_[op].add(seconds);
  all_.add(seconds);
  ++samples_;
}

std::vector<double> OpSeries::fastest() const {
  std::vector<double> out;
  out.reserve(seconds_.size());
  for (const Series& s : seconds_) out.push_back(s.quantile(0));
  return out;
}

double OpSeries::rate() const {
  double bytes = 0;
  for (const double b : bytes_) bytes += b;
  double seconds = 0;
  for (const double s : fastest()) seconds += s;
  return seconds == 0 ? 0 : bytes / seconds;
}

double OpSeries::mean_seconds() const {
  const std::vector<double> f = fastest();
  double sum = 0;
  for (const double s : f) sum += s;
  return f.empty() ? 0 : sum / static_cast<double>(f.size());
}

double OpSeries::quantile_seconds(double q) const {
  Series s;
  for (const double f : fastest()) s.add(f);
  return s.quantile(q);
}

double OpSeries::median_seconds() const { return all_.median(); }

std::int64_t Tracer::now_ns() const { return to_ns(Clock::now()); }

std::int64_t Tracer::to_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int Tracer::begin(std::string name, int parent) {
  spans_.push_back({std::move(name), parent, now_ns(), 0, 1});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.dur_ns = now_ns() - s.start_ns;
}

int Tracer::add(std::string name, int parent, std::int64_t start_ns,
                std::int64_t dur_ns, std::uint64_t calls) {
  spans_.push_back({std::move(name), parent, start_ns, dur_ns, calls});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_seconds() const {
  // Children of one span never overlap (the benchmark is one closed-loop
  // client), so the time they cover is the sum of their durations.
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) covered[static_cast<std::size_t>(s.parent)] += s.dur_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t self =
        spans_[i].dur_ns - std::min(covered[i], spans_[i].dur_ns);
    out[spans_[i].name] += static_cast<double>(self) * 1e-9;
  }
  return out;
}

bool Tracer::write_jsonl(const std::filesystem::path& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_ns\": %lld, \"dur_ns\": %lld, \"calls\": %llu}\n",
                 i, s.name.c_str(), s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.dur_ns),
                 static_cast<unsigned long long>(s.calls));
  }
  return std::fclose(f) == 0;
}

void Round::op(const std::string& error) {
  ++attempted;
  if (error.empty()) return;
  ++failed;
  if (errors.size() < 16) errors.push_back(error);
}

void Round::sample(const std::string& op, double bytes, double seconds) {
  const std::size_t i = next_op[op]++;
  op_seconds += seconds;
  if (!traced()) (*wall)[op].add(i, bytes, seconds);
}

void Round::layer_sample(const std::string& metric, double value) {
  if (traced()) (*layer)[metric].add(value);
}

void Round::layer_add(const std::string& key, double value) {
  if (traced()) (*layer_sum)[key] += value;
}

std::function<void(const char*)> PhaseClock::hook() {
  return [this](const char* tag) { marks_.emplace_back(tag, Clock::now()); };
}

std::size_t PhaseClock::close(Round& r, Clock::time_point end, int parent) {
  std::size_t rounds = 0;
  for (std::size_t i = 0; i < marks_.size(); ++i) {
    const auto& [tag, start] = marks_[i];
    if (tag == "A") ++rounds;
    const Clock::time_point stop =
        i + 1 < marks_.size() ? marks_[i + 1].second : end;
    std::string key = tag;
    std::transform(key.begin(), key.end(), key.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    r.layer_sample(tag == "commit" ? "dedup2.commit_s"
                                   : "dedup2.phase_" + key + "_s",
                   seconds_between(start, stop));
    if (r.traced()) {
      r.tracer->add("phase." + tag, parent, r.tracer->to_ns(start),
                    r.tracer->to_ns(stop) - r.tracer->to_ns(start));
    }
  }
  marks_.clear();
  return rounds;
}

ClockSnap snap(core::Cluster& cluster) {
  ClockSnap s;
  for (std::size_t k = 0; k < cluster.server_count(); ++k) {
    s.servers.push_back(cluster.server(k).clocks());
  }
  s.repo_total = cluster.repository().total_node_seconds();
  return s;
}

ClockSnap snap(core::BackupServer& server,
               const storage::ChunkRepository& repository) {
  return {{server.clocks()}, repository.total_node_seconds()};
}

double backup_model_s(const ClockSnap& a, const ClockSnap& b) {
  double busiest = 0;
  for (std::size_t k = 0; k < a.servers.size(); ++k) {
    busiest = std::max({busiest, b.servers[k].nic - a.servers[k].nic,
                        b.servers[k].log_disk - a.servers[k].log_disk,
                        b.servers[k].index_disk - a.servers[k].index_disk});
  }
  return busiest;
}

double restore_model_s(const ClockSnap& a, const ClockSnap& b,
                       std::size_t repository_nodes) {
  double busiest = 0;
  for (std::size_t k = 0; k < a.servers.size(); ++k) {
    busiest = std::max({busiest, b.servers[k].nic - a.servers[k].nic,
                        b.servers[k].index_disk - a.servers[k].index_disk});
  }
  return std::max(busiest, (b.repo_total - a.repo_total) /
                               static_cast<double>(repository_nodes));
}

std::string check_synthetic(const core::Dataset& got,
                            std::span<const Fingerprint> fps,
                            std::uint32_t chunk_size) {
  if (got.files.size() != 1) {
    return "restored " + std::to_string(got.files.size()) +
           " files, expected 1";
  }
  const std::vector<Byte>& content = got.files.front().content;
  if (content.size() != fps.size() * std::uint64_t{chunk_size}) {
    return "restored " + std::to_string(content.size()) + " bytes, expected " +
           std::to_string(fps.size() * std::uint64_t{chunk_size});
  }
  for (std::size_t i = 0; i < fps.size(); ++i) {
    const std::vector<Byte> want =
        core::BackupEngine::synthetic_payload(fps[i], chunk_size);
    if (std::memcmp(content.data() + i * chunk_size, want.data(),
                    chunk_size) != 0) {
      return "chunk " + std::to_string(i) + " differs";
    }
  }
  return {};
}

std::string check_dataset(const core::Dataset& got,
                          const core::Dataset& want) {
  if (got.files.size() != want.files.size()) {
    return "restored " + std::to_string(got.files.size()) +
           " files, expected " + std::to_string(want.files.size());
  }
  for (std::size_t i = 0; i < want.files.size(); ++i) {
    if (got.files[i].path != want.files[i].path) {
      return "file " + std::to_string(i) + " restored as " +
             got.files[i].path + ", expected " + want.files[i].path;
    }
    if (got.files[i].content != want.files[i].content) {
      return want.files[i].path + " differs";
    }
  }
  return {};
}

double replay_chunking(Round& r, ByteSpan content) {
  // The dedup-1 client's chunker (IngestClient and BackupEngine default:
  // Rabin CDC, paper parameters) and its batched SHA-1.
  static chunking::RabinChunker chunker{chunking::CdcParams{}};
  const Clock::time_point t0 = Clock::now();
  const std::vector<chunking::ChunkBounds> bounds = chunker.chunk(content);
  const Clock::time_point t1 = Clock::now();
  std::vector<ByteSpan> spans;
  spans.reserve(bounds.size());
  for (const chunking::ChunkBounds& b : bounds) {
    spans.push_back(content.subspan(b.offset, b.size));
  }
  const std::vector<Fingerprint> fps =
      Sha1::hash_batch(std::span<const ByteSpan>(spans));
  const Clock::time_point t2 = Clock::now();
  if (fps.size() != bounds.size()) r.errors.push_back("sha1 replay short");
  const auto bytes = static_cast<double>(content.size());
  r.layer_add("chunking.bytes", bytes);
  r.layer_add("chunking.s", seconds_between(t0, t1));
  r.layer_add("sha1.bytes", bytes);
  r.layer_add("sha1.s", seconds_between(t1, t2));
  if (r.traced()) {
    r.tracer->add("replay.chunking", r.span, r.tracer->to_ns(t0),
                  r.tracer->to_ns(t1) - r.tracer->to_ns(t0));
    r.tracer->add("replay.sha1", r.span, r.tracer->to_ns(t1),
                  r.tracer->to_ns(t2) - r.tracer->to_ns(t1));
  }
  return seconds_between(t0, t2);
}

namespace {

/// Shared tail of both locate/read replays: `locate` answers one
/// fingerprint, then every distinct container is read once.
template <typename Locate>
void locate_then_read(Round& r, const storage::ChunkRepository& repository,
                      std::span<const Fingerprint> fps, Locate&& locate) {
  std::set<std::uint64_t> containers;
  const Clock::time_point t0 = Clock::now();
  for (const Fingerprint& fp : fps) {
    Result<ContainerId> where = locate(fp);
    if (!where.ok()) {
      r.errors.push_back("locate replay: " + where.error().to_string());
      return;
    }
    containers.insert(where.value().value);
  }
  const Clock::time_point t1 = Clock::now();
  double bytes = 0;
  for (const std::uint64_t id : containers) {
    Result<storage::Container> c = repository.read(ContainerId{id});
    if (!c.ok()) {
      r.errors.push_back("read replay: " + c.error().to_string());
      return;
    }
    bytes += static_cast<double>(c.value().data_bytes());
  }
  const Clock::time_point t2 = Clock::now();
  r.layer_add("locate.calls", static_cast<double>(fps.size()));
  r.layer_add("locate.s", seconds_between(t0, t1));
  r.layer_add("storage.bytes", bytes);
  r.layer_add("storage.s", seconds_between(t1, t2));
  r.tracer->add("replay.locate", r.span, r.tracer->to_ns(t0),
                r.tracer->to_ns(t1) - r.tracer->to_ns(t0), fps.size());
  r.tracer->add("replay.storage_read", r.span, r.tracer->to_ns(t1),
                r.tracer->to_ns(t2) - r.tracer->to_ns(t1), containers.size());
}

}  // namespace

void replay_locate_and_read(Round& r, core::Cluster& cluster,
                            std::span<const Fingerprint> fps) {
  if (!r.traced()) return;
  locate_then_read(r, cluster.repository(), fps, [&](const Fingerprint& fp) {
    const std::size_t part = cluster.owner_of(fp);
    const core::PartitionCopy& copy = cluster.partition_map().copy(part, 0);
    core::BackupServer& host = cluster.server(copy.server);
    return copy.via_store ? host.chunk_store().locate(fp)
                          : host.part_replica(part).locate(fp);
  });
}

void replay_locate_and_read(Round& r, core::BackupServer& server,
                            storage::ChunkRepository& repository,
                            std::span<const Fingerprint> fps) {
  if (!r.traced()) return;
  locate_then_read(r, repository, fps, [&](const Fingerprint& fp) {
    return server.chunk_store().locate(fp);
  });
}

void FileStoreTimer::finish(int parent, const std::string& prefix) {
  r_.layer_add("offer.calls", static_cast<double>(offers_));
  r_.layer_add("offer.s", static_cast<double>(offer_ns_) * 1e-9);
  r_.layer_add("receive.bytes", static_cast<double>(received_));
  r_.layer_add("receive.s", static_cast<double>(receive_ns_) * 1e-9);
  r_.tracer->add(prefix + "file_store.offer", parent, start_, offer_ns_,
                 offers_);
  r_.tracer->add(prefix + "file_store.receive", parent, start_, receive_ns_);
}

std::string backup_stream_traced(Round& r, int parent, core::FileStore& fs,
                                 core::Director& director,
                                 const std::string& client_name,
                                 std::uint64_t job_id,
                                 std::span<const Fingerprint> stream,
                                 std::uint32_t chunk_size) {
  const std::uint32_t version = director.next_version(job_id);
  fs.begin_job(job_id);
  fs.begin_file({.path = format("{}/stream-v{}", client_name, version),
                 .size = stream.size() * std::uint64_t{chunk_size},
                 .mtime = 0,
                 .mode = 0644});
  FileStoreTimer timer(r);
  for (const Fingerprint& fp : stream) {
    if (!timer.offer([&] { return fs.offer_fingerprint(fp, chunk_size); })) {
      continue;
    }
    const std::vector<Byte> payload =
        core::BackupEngine::synthetic_payload(fp, chunk_size);
    const Status s = timer.receive(chunk_size, [&] {
      return fs.receive_chunk(fp, ByteSpan(payload.data(), payload.size()));
    });
    if (!s.ok()) return "receive_chunk: " + s.to_string();
  }
  fs.end_file();
  Result<core::JobVersionRecord> record = fs.end_job();
  if (!record.ok()) return "end_job: " + record.error().to_string();
  timer.finish(parent, "");
  return {};
}

std::vector<Byte> synthetic_bytes(std::span<const Fingerprint> stream,
                                  std::uint32_t chunk_size) {
  std::vector<Byte> out;
  out.reserve(stream.size() * std::uint64_t{chunk_size});
  for (const Fingerprint& fp : stream) {
    const std::vector<Byte> payload =
        core::BackupEngine::synthetic_payload(fp, chunk_size);
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

void run_maintenance(Round& r, core::MaintenanceJob& job) {
  const Scope span(r.tracer, "maintenance", r.span);
  const Clock::time_point t0 = Clock::now();
  Result<core::MaintenancePlan> plan = job.plan();
  const Clock::time_point t1 = Clock::now();
  const Status executed = plan.ok() ? job.execute() : plan.status();
  const Clock::time_point t2 = Clock::now();
  r.op(executed.ok() ? "" : "maintenance: " + executed.to_string());
  r.sample("maint", 0, seconds_between(t0, t2));
  r.layer_sample("maint.plan_s", seconds_between(t0, t1));
  r.layer_sample("maint.execute_s", seconds_between(t1, t2));
  const core::MaintenanceReport& rep = job.report();
  r.counts["maint.versions_expired"] = static_cast<double>(rep.versions_expired);
  r.counts["maint.versions_rewritten"] =
      static_cast<double>(rep.versions_rewritten);
  r.counts["maint.chunks_rewritten"] = static_cast<double>(rep.chunks_rewritten);
  r.counts["maint.containers_deleted"] =
      static_cast<double>(rep.containers_deleted);
  r.counts["maint.containers_written"] =
      static_cast<double>(rep.containers_written);
  r.counts["maint.bytes_reclaimed"] = static_cast<double>(rep.bytes_reclaimed);
}

void count_transport(Round& r, const net::TransportStats& stats) {
  using net::MessageType;
  const std::pair<const char*, std::vector<MessageType>> groups[] = {
      {"routing", {MessageType::kFingerprintBatch}},
      {"verdicts", {MessageType::kVerdictBatch}},
      {"entries", {MessageType::kIndexEntryBatch}},
      {"restore",
       {MessageType::kChunkLocateRequest, MessageType::kChunkLocateReply,
        MessageType::kChunkData}},
      {"ingest",
       {MessageType::kIngestOpen, MessageType::kIngestBatch,
        MessageType::kIngestClose, MessageType::kIngestReply}},
  };
  for (const auto& [group, types] : groups) {
    double frames = 0;
    double bytes = 0;
    for (const MessageType t : types) {
      frames += static_cast<double>(
          stats.frames_by_type[static_cast<std::size_t>(t)]);
      bytes += static_cast<double>(
          stats.bytes_by_type[static_cast<std::size_t>(t)]);
    }
    r.counts[std::string("net.frames.") + group] = frames;
    r.counts[std::string("net.bytes.") + group] = bytes;
  }
  r.counts["net.frames_sent"] = static_cast<double>(stats.frames_sent);
  r.counts["net.bytes_sent"] = static_cast<double>(stats.bytes_sent);
}

void count_servers(Round& r, std::vector<core::BackupServer*> servers,
                   const storage::ChunkRepository& repository) {
  double logical = 0, transferred = 0, suppressed = 0, log_records = 0;
  double hits = 0, misses = 0, entries = 0, capacity = 0, overflowed = 0;
  for (core::BackupServer* s : servers) {
    const core::FileStoreStats fs = s->file_store().stats();
    logical += static_cast<double>(fs.logical_bytes);
    transferred += static_cast<double>(fs.transferred_bytes);
    suppressed += static_cast<double>(fs.suppressed_bytes);
    log_records += static_cast<double>(fs.log_records);
    hits += static_cast<double>(s->chunk_store().lpc().hits());
    misses += static_cast<double>(s->chunk_store().lpc().misses());
    const index::DiskIndex& idx = s->chunk_store().index();
    Result<index::IndexStats> st = idx.stats();
    if (!st.ok()) {
      r.errors.push_back("index stats: " + st.error().to_string());
      continue;
    }
    entries += static_cast<double>(st.value().entries);
    overflowed += static_cast<double>(st.value().overflowed_entries);
    capacity += static_cast<double>(idx.params().entry_capacity());
  }
  r.counts["fs.logical_bytes"] = logical;
  r.counts["fs.transferred_bytes"] = transferred;
  r.counts["fs.suppressed_bytes"] = suppressed;
  r.counts["fs.log_records"] = log_records;
  r.counts["lpc.hits"] = hits;
  r.counts["lpc.misses"] = misses;
  r.counts["index.entries"] = entries;
  r.counts["index.overflowed"] = overflowed;
  r.counts["index.utilization"] = capacity == 0 ? 0 : entries / capacity;
  r.counts["storage.stored_bytes"] =
      static_cast<double>(repository.stored_bytes());
  r.counts["storage.containers"] =
      static_cast<double>(repository.container_count());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
