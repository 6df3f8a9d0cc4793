/**
 * @file
 * Consistent-hash shard placement for the fleet router.
 *
 * The router fronts N simulated APU devices and splits the corpus
 * into S contiguous chunk-range shards; each shard is staged on R
 * devices (its replica list). Placement must be:
 *
 *  - *deterministic*: a pure function of (S, N, R) — no RNG
 *    state, no iteration-order dependence — so every run and every
 *    CISRAM_SIM_THREADS count computes the identical map, and a
 *    bench snapshot taken today gates tomorrow's build;
 *  - *stable*: adding or removing one device moves only ~S/N shard
 *    primaries (pinned in test_fleet), because a re-placed shard is
 *    a re-staged shard — `restageBytes` of PCIe traffic each;
 *  - *balanced*: QPS is set by the busiest device, so the max
 *    primary load must stay near the S/N mean. Virtual nodes alone
 *    leave a ~2x tail at 16 devices, so primaries use consistent
 *    hashing with bounded loads: a shard walks clockwise from its
 *    own hash and the first device still under the load cap
 *    (ceil(S/N) + 1) becomes its primary; the other distinct
 *    devices met on the walk are its failover replicas.
 *
 * The chunk ranges themselves are a plain contiguous partition
 * (shardChunkRange): shard geometry must not depend on device count
 * or the scatter-gather merge could not be bit-compared across
 * fleet sizes.
 */

#ifndef CISRAM_FLEET_PLACEMENT_HH
#define CISRAM_FLEET_PLACEMENT_HH

#include <cstddef>
#include <vector>

namespace cisram::fleet {

/**
 * Place `shards` shards on `devices` devices with `replicas`-way
 * replication. Returns one device list per shard, in failover
 * priority order: entry 0 is the primary, the rest are the replicas
 * a failover walks in order. Devices are distinct within a list;
 * `replicas` is clamped to the device count.
 */
std::vector<std::vector<unsigned>>
placeShards(unsigned shards, unsigned devices, unsigned replicas);

/** One shard's contiguous slice of the global chunk space. */
struct ShardRange
{
    size_t firstChunk = 0;
    size_t numChunks = 0;
};

/**
 * Contiguous partition of `totalChunks` into `shards` ranges; the
 * first `totalChunks % shards` ranges get one extra chunk. Depends
 * only on (totalChunks, shards) — never on the device count — so
 * shard contents are identical across fleet sizes.
 */
ShardRange shardChunkRange(size_t totalChunks, unsigned shards,
                           unsigned shard);

} // namespace cisram::fleet

#endif // CISRAM_FLEET_PLACEMENT_HH
