#include "sim/runner.h"

#include "sim/hash.h"
#include "sim/wire.h"

namespace iobt::sim {

std::uint64_t replication_key(std::uint64_t seed, std::size_t index) {
  return StableHash("runner.replication").mix_u64(seed).mix_size(index).digest();
}

std::string encode_replication(double wall_ms, std::string_view payload,
                               const MetricsRegistry& metrics) {
  WireWriter w;
  w.f64(wall_ms).bytes(payload);
  metrics.save(w);
  return w.take();
}

bool decode_replication(std::string_view record, double& wall_ms,
                        std::string_view& payload, MetricsRegistry& metrics) {
  WireReader r(record);
  wall_ms = r.f64();
  payload = r.bytes_view();
  return r.ok() && metrics.restore(r) && r.at_end();
}

std::vector<std::uint64_t> ParallelRunner::seed_range(std::uint64_t base,
                                                      std::size_t n) {
  std::vector<std::uint64_t> seeds(n);
  for (std::size_t i = 0; i < n; ++i) seeds[i] = base + i;
  return seeds;
}

}  // namespace iobt::sim
