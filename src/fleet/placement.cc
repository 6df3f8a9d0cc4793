#include "fleet/placement.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cisram::fleet {

namespace {

/**
 * Ring points per device (160 fit 1..64 devices). More vnodes smooth
 * the walk order, and with it which shards a cap overflow displaces;
 * the load bound itself comes from kPrimaryLoadSlack.
 */
constexpr unsigned kVirtualNodes = 160;

/**
 * Bounded-load cap headroom: no device is primary for more than
 * ceil(S/N) + kPrimaryLoadSlack shards. Slack 1 pins the busiest
 * device within one shard of a perfect split — the 16-device speedup
 * floor in bench_fleet_scaling depends on this.
 */
constexpr unsigned kPrimaryLoadSlack = 1;

/** Hash seed for ring and shard points. */
constexpr uint64_t kSeed = 0x9e3779b97f4a7c15ull;

/** SplitMix64 finalizer (same mixing family as the fault draws). */
uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

std::vector<std::vector<unsigned>>
placeShards(unsigned shards, unsigned devices, unsigned replicas)
{
    cisram_assert(shards > 0, "placeShards: no shards");
    cisram_assert(devices > 0, "placeShards: no devices");
    unsigned r = std::min(replicas == 0 ? 1u : replicas, devices);

    // The ring: kVirtualNodes points per device, sorted by hash.
    // Ties (astronomically unlikely) break by device id so the sort
    // is a total order and the map is reproducible everywhere.
    struct Point
    {
        uint64_t hash;
        unsigned device;
    };
    std::vector<Point> ring;
    ring.reserve(static_cast<size_t>(devices) * kVirtualNodes);
    for (unsigned d = 0; d < devices; ++d)
        for (unsigned v = 0; v < kVirtualNodes; ++v)
            ring.push_back(
                {mix(mix(kSeed ^ d) ^ (uint64_t(v) << 32)), d});
    std::sort(ring.begin(), ring.end(),
              [](const Point &a, const Point &b) {
                  if (a.hash != b.hash)
                      return a.hash < b.hash;
                  return a.device < b.device;
              });

    // Bounded-load primary cap: N * cap >= S + N > S, so some
    // under-cap device always exists on a full ring walk.
    unsigned cap = (shards + devices - 1) / devices + kPrimaryLoadSlack;
    std::vector<unsigned> primaryLoad(devices, 0);

    std::vector<std::vector<unsigned>> out(shards);
    for (unsigned s = 0; s < shards; ++s) {
        uint64_t h = mix(kSeed ^ 0xf1ee7u ^ (uint64_t(s) << 20));
        size_t i = std::lower_bound(
                       ring.begin(), ring.end(), h,
                       [](const Point &p, uint64_t key) {
                           return p.hash < key;
                       }) -
            ring.begin();
        // Walk clockwise collecting every distinct device until one
        // of them is under the primary cap and r are in hand.
        std::vector<unsigned> walk;
        bool have_primary = false;
        for (size_t step = 0; step < ring.size(); ++step) {
            unsigned d = ring[(i + step) % ring.size()].device;
            if (std::find(walk.begin(), walk.end(), d) != walk.end())
                continue;
            walk.push_back(d);
            have_primary = have_primary || primaryLoad[d] < cap;
            if (have_primary && walk.size() >= r)
                break;
        }
        cisram_assert(have_primary && walk.size() >= r,
                      "placeShards: ring walk found ", walk.size(),
                      " of ", r, " replicas");
        // Primary = first under-cap device on the walk; the rest
        // keep walk order as the failover priority list.
        std::vector<unsigned> &list = out[s];
        for (unsigned d : walk)
            if (list.empty() && primaryLoad[d] < cap)
                list.push_back(d);
        for (unsigned d : walk) {
            if (list.size() >= r)
                break;
            if (d != list[0])
                list.push_back(d);
        }
        ++primaryLoad[list[0]];
    }
    return out;
}

ShardRange
shardChunkRange(size_t totalChunks, unsigned shards, unsigned shard)
{
    cisram_assert(shards > 0 && shard < shards,
                  "shardChunkRange: shard index OOB");
    cisram_assert(totalChunks >= shards,
                  "shardChunkRange: fewer chunks than shards");
    size_t base = totalChunks / shards;
    size_t extra = totalChunks % shards;
    ShardRange out;
    out.numChunks = base + (shard < extra ? 1 : 0);
    out.firstChunk = shard * base + std::min<size_t>(shard, extra);
    return out;
}

} // namespace cisram::fleet
