// ExactRunCache — memoization in front of SimExecutor::run_exact.
//
// The noise-free simulator is a pure function of (machine spec, workload
// signature, cluster configuration): two identical exact runs return
// bit-identical measurements. That makes memoization *exact*, not
// approximate — a cache hit returns precisely what the model would have
// computed. The benches lean on this wherever they re-run a configuration
// they already ran: the comparison harness's per-cell timings, CLIP's
// profiling runs, and the scalar sweeps of ablation_dimensions and
// scale_cluster.
//
// Keys are split to match how the engine sweeps: everything cap-independent
// (spec, workload, placement, overrides) is canonically byte-encoded once
// and *interned* to a 64-bit id; the per-point key is that id plus the two
// caps — a 24-byte POD. The interner stores and compares the full encoded
// bytes, so distinct configurations can never alias; ids are per-cache and
// must not cross cache instances.
//
// The cache stores single Measurements, one per scalar run_exact. Wide
// run_batch frontiers consult no cache: their recurrences were too rare to
// pay for storing every frontier (docs/performance.md).
//
// The store is one bounded map that grows from empty; insertion beyond the
// bound evicts in FIFO order — eviction only costs a recompute, never
// correctness. A cache is used from one thread at a time, like the executors
// it is attached to. See docs/performance.md for the design rationale.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/config.hpp"
#include "sim/machine.hpp"
#include "workloads/signature.hpp"

namespace clip::sim {

struct ExactCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
};

/// Fixed-size lookup key: an interned cap-independent prefix id plus the
/// two caps. Obtain the id from intern_prefix(); a key is only meaningful
/// against the cache that interned it.
struct CacheKey {
  std::uint64_t prefix = 0;
  double cpu_cap_w = 0.0;
  double mem_cap_w = 0.0;
  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

class ExactRunCache {
 public:
  /// A store of at most `max_entries` measurements (clamped to >= 1). One
  /// entry holds one Measurement (~a few hundred bytes on the 8-node
  /// testbed).
  explicit ExactRunCache(std::size_t max_entries = std::size_t{1} << 20);

  /// Intern the canonical cap-independent key bytes (encode_batch_prefix +
  /// append_overrides output) and return the stable 64-bit id. The full
  /// byte string is stored and compared, so two distinct prefixes always
  /// get distinct ids.
  [[nodiscard]] std::uint64_t intern_prefix(const std::string& prefix);

  /// Copy the cached measurement for `key` into `out`; true on hit. Bumps
  /// the hit/miss statistics.
  [[nodiscard]] bool lookup(const CacheKey& key, Measurement& out);

  /// Insert (a key already present keeps its entry). Evicts the oldest
  /// entry when the store is full.
  void insert(const CacheKey& key, const Measurement& m);

  [[nodiscard]] ExactCacheStats stats() const;

  /// Drop every entry (statistics and interned prefixes are kept — ids stay
  /// valid, the entries just recompute).
  void clear();

  // --- canonical key encoding ----------------------------------------------

  /// Append the raw bytes of a double/integer to `out` (canonical layout:
  /// little-endian memcpy of the in-memory representation; the cache never
  /// leaves the process, so host byte order is canonical enough).
  static void encode(std::string& out, double v);
  static void encode(std::string& out, std::uint64_t v);
  static void encode(std::string& out, int v);
  static void encode(std::string& out, const std::string& s);

  /// Everything `run_exact` reads from the machine: topology, DVFS ladder,
  /// power/bandwidth parameters and the variability draw. Executors with
  /// different specs can therefore share one cache without aliasing.
  ///
  /// Deliberately *not* encoded: `spec.nodes`. The model reads only the
  /// first `cfg.nodes` variability multipliers, and those are drawn
  /// sequentially from one seeded stream — so topologically identical
  /// shards of different cluster sizes (same shape, ladder, power params,
  /// sigma and seed) produce bit-identical measurements for any config that
  /// fits both, and should share cache entries. `cfg.nodes` stays in the
  /// key; run_exact validates `cfg.nodes <= spec.nodes` before probing.
  [[nodiscard]] static std::string encode_spec(const MachineSpec& spec);

  /// The full canonical key bytes for one configuration: batch prefix plus
  /// caps and overrides. Not on the hot path (the executor interns the
  /// prefix and keys on CacheKey instead) — kept as the reference spelling
  /// of what discriminates two configurations, and exercised by tests.
  [[nodiscard]] static std::string encode_key(
      const std::string& prefix, const workloads::WorkloadSignature& w,
      const ClusterConfig& cfg);

  /// The cap-independent part of encode_key: spec prefix, workload
  /// signature, and every config field except the caps and overrides.
  /// run_exact completes it with append_overrides to form the intern input;
  /// the Oracle keys its per-workload memos on it.
  [[nodiscard]] static std::string encode_batch_prefix(
      const std::string& prefix, const workloads::WorkloadSignature& w,
      const ClusterConfig& cfg);

  /// Append the per-node cap overrides (scalar configs intern them as part
  /// of the prefix).
  static void append_overrides(std::string& key,
                               const std::vector<Watts>& cpu_cap_overrides);

  /// The per-cap-point key suffix (caps + overrides), appended to a batch
  /// prefix by encode_key.
  static void append_caps(std::string& key, Watts cpu_cap, Watts mem_cap,
                          const std::vector<Watts>& cpu_cap_overrides);

 private:
  struct KeyHash {
    std::size_t operator()(const CacheKey& k) const;
  };

  std::size_t max_entries_;
  // clip-lint: allow(D2) hot-path lookup/insert only; eviction walks `fifo_` (insertion order), never the map
  std::unordered_map<CacheKey, Measurement, KeyHash> map_;
  std::deque<CacheKey> fifo_;  ///< keys in insertion order
  // clip-lint: allow(D2) id assignment table — looked up by key, never iterated
  std::unordered_map<std::string, std::uint64_t> intern_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace clip::sim
