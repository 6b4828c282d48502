// The three benchmark workloads (see perfbench/README.md for why each
// was chosen and which layers it stresses).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch space for file-backed devices (aged-chain).
  std::filesystem::path workdir;
  /// Determinism self-test size: a few days / generations / versions.
  bool small = false;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build a fresh system from the generated inputs and run the whole
  /// scenario once; `r` collects samples, counts and failures.
  virtual void round(Round& r) = 0;
  /// The percentile job_ms_tail reports: the highest that leaves at least
  /// ten of a round's jobs beyond it.
  [[nodiscard]] virtual double tail_percentile() const = 0;
};

/// Input generation happens here, outside every timed region.
[[nodiscard]] std::unique_ptr<Workload> make_hust_cluster(const Options& o);
[[nodiscard]] std::unique_ptr<Workload> make_tenant_files(const Options& o);
[[nodiscard]] std::unique_ptr<Workload> make_aged_chain(const Options& o);

}  // namespace perfbench
