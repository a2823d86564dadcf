#include "sim/exec_cache.hpp"

#include <algorithm>
#include <cstring>

#include "util/check.hpp"

namespace clip::sim {

namespace {

/// splitmix64 finalizer — full-avalanche mixing for the 24-byte POD key.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t bits_of(double v) {
  std::uint64_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

}  // namespace

std::size_t ExactRunCache::KeyHash::operator()(const CacheKey& k) const {
  std::uint64_t h = mix64(k.prefix);
  h = mix64(h ^ bits_of(k.cpu_cap_w));
  h = mix64(h ^ bits_of(k.mem_cap_w));
  return static_cast<std::size_t>(h);
}

ExactRunCache::ExactRunCache(ExactCacheOptions options) {
  const int shards = std::max(1, options.shards);
  const std::size_t max_entries = std::max<std::size_t>(
      options.max_entries, static_cast<std::size_t>(shards));
  per_shard_cap_ =
      (max_entries + static_cast<std::size_t>(shards) - 1) /
      static_cast<std::size_t>(shards);
  shards_ = std::vector<Shard>(static_cast<std::size_t>(shards));
}

std::uint64_t ExactRunCache::intern_prefix(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(intern_mu_);
  // Ids start at 1 so a default CacheKey{} can never alias a real entry.
  const auto [it, inserted] =
      intern_.try_emplace(prefix, static_cast<std::uint64_t>(intern_.size()) + 1);
  return it->second;
}

ExactRunCache::Shard& ExactRunCache::shard_for(const CacheKey& key) const {
  return shards_[KeyHash{}(key) % shards_.size()];
}

bool ExactRunCache::lookup(const CacheKey& key, Measurement& out) const {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  out = it->second;
  return true;
}

void ExactRunCache::insert(const CacheKey& key, const Measurement& m) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto [it, inserted] = shard.map.try_emplace(key, m);
  if (!inserted) return;  // a concurrent miss already filled it — identical
  shard.fifo.push_back(key);
  if (shard.fifo.size() > per_shard_cap_) {
    shard.map.erase(shard.fifo.front());
    shard.fifo.pop_front();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

ExactCacheStats ExactRunCache::stats() const {
  ExactCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.entries += shard.map.size();
  }
  return s;
}

void ExactRunCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
    shard.fifo.clear();
  }
}

void ExactRunCache::encode(std::string& out, double v) {
  char bytes[sizeof(double)];
  std::memcpy(bytes, &v, sizeof(double));
  out.append(bytes, sizeof(double));
}

void ExactRunCache::encode(std::string& out, std::uint64_t v) {
  char bytes[sizeof(std::uint64_t)];
  std::memcpy(bytes, &v, sizeof(std::uint64_t));
  out.append(bytes, sizeof(std::uint64_t));
}

void ExactRunCache::encode(std::string& out, int v) {
  encode(out, static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
}

void ExactRunCache::encode(std::string& out, const std::string& s) {
  encode(out, static_cast<std::uint64_t>(s.size()));
  out.append(s);
}

std::string ExactRunCache::encode_spec(const MachineSpec& spec) {
  std::string out;
  out.reserve(256);
  // spec.nodes is intentionally absent — see the header: topologically
  // identical shards of different sizes share entries, because the
  // sequential variability draw makes the first cfg.nodes multipliers
  // independent of the cluster size.
  encode(out, spec.shape.sockets);
  encode(out, spec.shape.cores_per_socket);
  encode(out, static_cast<std::uint64_t>(spec.ladder.state_count()));
  for (const GHz f : spec.ladder.states()) encode(out, f.value());
  encode(out, spec.ladder.nominal().value());
  encode(out, spec.socket_base_w);
  encode(out, spec.socket_parked_w);
  encode(out, spec.core_max_w);
  encode(out, spec.core_power_floor);
  encode(out, spec.power_exponent);
  encode(out, spec.socket_bw_gbps);
  encode(out, spec.mem_base_w_per_socket);
  encode(out, spec.mem_parked_w_per_socket);
  encode(out, spec.mem_activity_w_per_socket);
  encode(out, spec.remote_numa_penalty);
  encode(out, spec.variability_sigma);
  encode(out, spec.variability_seed);
  return out;
}

std::string ExactRunCache::encode_key(const std::string& prefix,
                                      const workloads::WorkloadSignature& w,
                                      const ClusterConfig& cfg) {
  std::string key = encode_batch_prefix(prefix, w, cfg);
  append_caps(key, cfg.node.cpu_cap, cfg.node.mem_cap, cfg.cpu_cap_overrides);
  return key;
}

std::string ExactRunCache::encode_batch_prefix(
    const std::string& prefix, const workloads::WorkloadSignature& w,
    const ClusterConfig& cfg) {
  std::string key;
  key.reserve(prefix.size() + 256 + w.name.size() + w.parameters.size());
  key.append(prefix);

  // Workload signature: every generative parameter the model reads. The
  // name/parameters strings ride along for human traceability and to keep
  // distinct catalog entries with coincidentally equal parameters apart.
  encode(key, w.name);
  encode(key, w.parameters);
  encode(key, static_cast<int>(w.pattern));
  encode(key, w.node_base_time_s);
  encode(key, w.serial_fraction);
  encode(key, w.memory_boundedness);
  encode(key, w.bw_per_core_gbps);
  encode(key, w.fork_overhead_s);
  encode(key, w.sync_coeff_s);
  encode(key, w.sync_exponent);
  encode(key, w.shared_data_fraction);
  encode(key, w.compute_intensity);
  encode(key, w.ipc);
  encode(key, w.icache_pressure);
  encode(key, w.write_fraction);
  encode(key, w.comm_latency_s);
  encode(key, w.comm_surface_coeff);
  encode(key, static_cast<int>(w.has_predefined_process_counts));

  // Cluster configuration, minus the caps/overrides suffix (append_caps).
  encode(key, cfg.nodes);
  encode(key, cfg.node.threads);
  encode(key, static_cast<int>(cfg.node.affinity));
  encode(key, static_cast<int>(cfg.node.mem_level));
  return key;
}

void ExactRunCache::append_overrides(
    std::string& key, const std::vector<Watts>& cpu_cap_overrides) {
  encode(key, static_cast<std::uint64_t>(cpu_cap_overrides.size()));
  for (const Watts w_i : cpu_cap_overrides) encode(key, w_i.value());
}

void ExactRunCache::append_caps(std::string& key, Watts cpu_cap, Watts mem_cap,
                                const std::vector<Watts>& cpu_cap_overrides) {
  encode(key, cpu_cap.value());
  encode(key, mem_cap.value());
  append_overrides(key, cpu_cap_overrides);
}

}  // namespace clip::sim
