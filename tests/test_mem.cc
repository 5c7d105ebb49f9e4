/**
 * @file
 * Direct unit tests for the mem layer: set-associative LRU eviction
 * order (including the per-set MRU fast path), TLB reach and true-
 * LRU replacement in the O(1) list+hash implementation, and the
 * warm-vs-timing split of the hierarchy. Property tests hold the
 * branch-free cache lookup, solo and owner-tagged, to a per-way
 * reference scan, state byte for byte after every access.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "util/binary_io.hh"
#include "util/rng.hh"

#include "check.hh"

using namespace smarts;

namespace {

/** addr of line @p line for a 64B-line cache. */
constexpr std::uint32_t
lineAddr(std::uint32_t line)
{
    return line * 64;
}

void
testCacheLruEvictionOrder()
{
    // 2 sets x 2 ways of 64B lines. Even lines -> set 0.
    mem::Cache cache("t", {256, 2, 64, 1});

    // Fill set 0 with lines 0 and 2.
    CHECK(!cache.access(lineAddr(0), false).hit);
    CHECK(!cache.access(lineAddr(2), false).hit);
    CHECK(cache.probe(lineAddr(0)));
    CHECK(cache.probe(lineAddr(2)));

    // Touch line 0: line 2 becomes LRU.
    CHECK(cache.access(lineAddr(0), false).hit);

    // Line 4 (set 0) evicts line 2, not line 0.
    CHECK(!cache.access(lineAddr(4), false).hit);
    CHECK(cache.probe(lineAddr(0)));
    CHECK(!cache.probe(lineAddr(2)));
    CHECK(cache.probe(lineAddr(4)));

    // Set 1 was never touched.
    CHECK(!cache.probe(lineAddr(1)));

    // Eviction continues in strict LRU order: line 0 is now LRU
    // (line 4 is the most recent fill), so line 6 evicts line 0.
    CHECK(!cache.access(lineAddr(6), false).hit);
    CHECK(!cache.probe(lineAddr(0)));
    CHECK(cache.probe(lineAddr(4)));
    CHECK(cache.probe(lineAddr(6)));

    CHECK_EQ(cache.misses(), 4u);
    CHECK_EQ(cache.accesses(), 5u);
}

void
testCacheMruFastPathKeepsLru()
{
    // Hammering the MRU line must not disturb LRU bookkeeping.
    mem::Cache cache("t", {256, 2, 64, 1});
    cache.access(lineAddr(0), false);
    cache.access(lineAddr(2), false);
    for (int i = 0; i < 100; ++i)
        CHECK(cache.access(lineAddr(2), false).hit);
    // Line 0 is LRU despite 100 intervening MRU hits.
    CHECK(!cache.access(lineAddr(4), false).hit);
    CHECK(!cache.probe(lineAddr(0)));
    CHECK(cache.probe(lineAddr(2)));
}

void
testCacheStoresAllocateLikeLoads()
{
    mem::Cache cache("t", {256, 2, 64, 1});
    CHECK(!cache.access(lineAddr(0), true).hit);
    CHECK(cache.access(lineAddr(0), false).hit);
    CHECK_EQ(cache.misses(), 1u);
}

void
testCacheReset()
{
    mem::Cache cache("t", {256, 2, 64, 1});
    cache.access(lineAddr(0), false);
    cache.reset();
    CHECK(!cache.probe(lineAddr(0)));
    CHECK_EQ(cache.accesses(), 0u);
    CHECK_EQ(cache.misses(), 0u);
}

/**
 * The reference lookup over a CacheState: the MRU check, then a scan
 * in way order for the first valid matching tag, else a fill of the
 * first way with the oldest stamp.
 */
void
referenceAccess(mem::CacheState &state, std::uint32_t assoc,
                std::uint32_t sets, std::uint32_t addr, bool write)
{
    ++(write ? state.stores : state.loads);
    const std::uint32_t line = addr >> 6;
    const std::uint32_t set = line % sets;
    const std::size_t base = std::size_t(set) * assoc;
    ++state.tick;
    const std::size_t mru = base + state.mruWay[set];
    if (state.valid[mru] && state.tags[mru] == line) {
        state.lastUse[mru] = state.tick;
        return;
    }
    std::size_t victim = base;
    std::uint64_t oldest = ~0ull;
    for (std::size_t w = base; w < base + assoc; ++w) {
        if (state.valid[w] && state.tags[w] == line) {
            state.lastUse[w] = state.tick;
            state.mruWay[set] = static_cast<std::uint32_t>(w - base);
            return;
        }
        if (state.lastUse[w] < oldest) {
            oldest = state.lastUse[w];
            victim = w;
        }
    }
    ++state.misses;
    state.tags[victim] = line;
    state.valid[victim] = 1;
    state.lastUse[victim] = state.tick;
    state.mruWay[set] = static_cast<std::uint32_t>(victim - base);
}

/**
 * The owned form's reference lookup over a SharedCacheState: the MRU
 * check, then a scan in way order for the first way whose valid bit,
 * tag and owner all match, else a fill of the first way with the
 * oldest stamp in the program's victim range [@p lo, @p hi).
 */
void
referenceOwnedAccess(mem::SharedCacheState &state, std::uint32_t assoc,
                     std::uint32_t sets, std::uint32_t addr, bool write,
                     std::uint32_t prog, std::uint32_t lo,
                     std::uint32_t hi)
{
    ++(write ? state.stores : state.loads)[prog];
    const std::uint32_t line = addr >> 6;
    const std::uint32_t set = line % sets;
    const std::size_t base = std::size_t(set) * assoc;
    ++state.tick;
    const std::size_t mru = base + state.mruWay[set];
    if (state.valid[mru] && state.tags[mru] == line &&
        state.owners[mru] == prog) {
        state.lastUse[mru] = state.tick;
        return;
    }
    for (std::size_t w = base; w < base + assoc; ++w) {
        if (state.valid[w] && state.tags[w] == line &&
            state.owners[w] == prog) {
            state.lastUse[w] = state.tick;
            state.mruWay[set] = static_cast<std::uint32_t>(w - base);
            return;
        }
    }
    std::size_t victim = base + lo;
    std::uint64_t oldest = ~0ull;
    for (std::size_t w = base + lo; w < base + hi; ++w) {
        if (state.lastUse[w] < oldest) {
            oldest = state.lastUse[w];
            victim = w;
        }
    }
    ++state.misses[prog];
    state.tags[victim] = line;
    state.owners[victim] = static_cast<std::uint8_t>(prog);
    state.valid[victim] = 1;
    state.lastUse[victim] = state.tick;
    state.mruWay[set] = static_cast<std::uint32_t>(victim - base);
}

template <typename State>
std::vector<std::uint8_t>
stateBytes(const State &state)
{
    util::BinaryWriter out;
    state.write(out);
    return out.buffer();
}

/**
 * @p accesses random accesses by programs below @p programs to
 * @p cache over @p lines 64-byte lines, each also applied to @p want
 * by @p reference(addr, write, prog). Returns how many left the
 * cache's state bytes different from @p want's.
 */
template <typename CacheT, typename Reference>
std::uint32_t
compareWithReference(CacheT &cache, typename CacheT::State &want,
                     Xoshiro256StarStar &rng, std::uint32_t lines,
                     std::uint32_t programs, int accesses,
                     Reference &&reference)
{
    std::uint32_t failures = 0;
    for (int i = 0; i < accesses; ++i) {
        const auto addr = static_cast<std::uint32_t>(
            rng.below(lines) * 64 + rng.below(64));
        const bool write = rng.below(4) == 0;
        const auto prog =
            programs > 1 ? static_cast<std::uint32_t>(rng.below(programs))
                         : 0u;
        cache.access(addr, write, prog);
        reference(addr, write, prog);
        typename CacheT::State got;
        cache.saveState(got);
        failures += stateBytes(got) != stateBytes(want);
    }
    return failures;
}

/**
 * Give every way of @p want a tag of one of @p choices lines of its
 * own set (so tags repeat), a random valid bit and a stale, tied or
 * maximal stamp; every set a random MRU way.
 */
template <typename State>
void
scrambleState(State &want, Xoshiro256StarStar &rng, std::uint32_t assoc,
              std::uint32_t sets, std::uint32_t choices)
{
    for (std::size_t w = 0; w < want.tags.size(); ++w) {
        want.tags[w] = static_cast<std::uint32_t>(
            w / assoc + sets * rng.below(choices));
        want.valid[w] = rng.below(3) != 0;
        const std::uint64_t pick = rng.below(4);
        want.lastUse[w] = pick == 0   ? ~0ull
                          : pick == 1 ? 7
                                      : rng.below(1000);
    }
    for (std::uint32_t &way : want.mruWay)
        way = static_cast<std::uint32_t>(rng.below(assoc));
    want.tick = 1000;
}

void
testCacheLookupMatchesReferenceScan()
{
    // Random streams over a few sets at every associativity a mask
    // word covers and one it does not (96 ways: two words). The
    // lines cycle through about twice the capacity, so hits, misses
    // and evictions all occur. Each stream also runs after reset(),
    // which leaves stale tags behind, and after restoring a
    // hand-built state with repeated tags, invalid ways holding
    // recent stamps and tied or maximal stamps.
    Xoshiro256StarStar rng(22);
    for (const std::uint32_t assoc : {1u, 2u, 3u, 4u, 8u, 16u, 96u}) {
        for (const std::uint32_t sets : {1u, 3u, 4u}) {
            mem::Cache cache("p", {sets * assoc * 64, assoc, 64, 1});
            mem::CacheState want;
            cache.saveState(want);
            const std::uint32_t lines = 2 * sets * assoc + 1;
            auto run = [&](int accesses) {
                return compareWithReference(
                    cache, want, rng, lines, 1, accesses,
                    [&](std::uint32_t addr, bool write, std::uint32_t) {
                        referenceAccess(want, assoc, sets, addr, write);
                    });
            };
            std::uint32_t failures = run(3000);

            cache.reset();
            want.valid.assign(want.valid.size(), 0);
            want.lastUse.assign(want.lastUse.size(), 0);
            want.mruWay.assign(want.mruWay.size(), 0);
            want.tick = want.loads = want.stores = want.misses = 0;
            failures += run(3000);

            scrambleState(want, rng, assoc, sets, 3);
            cache.restoreState(want);
            failures += run(3000);

            CHECK_EQ(failures, 0u);
            if (failures)
                std::fprintf(stderr, "  %u-way x %u sets\n", assoc, sets);
        }
    }

    // The owned form over 1, 2, 3 and 5 programs under both
    // policies: random (program, line) streams from construction and
    // after restoring a hand-built state whose tags repeat across
    // owners.
    for (const mem::PartitionPolicy policy :
         {mem::PartitionPolicy::Shared,
          mem::PartitionPolicy::WayPartitioned}) {
        for (const std::uint32_t programs : {1u, 2u, 3u, 5u}) {
            for (const std::uint32_t assoc : {4u, 8u, 12u, 16u}) {
                if (policy == mem::PartitionPolicy::WayPartitioned &&
                    programs > assoc)
                    continue;
                // Victim ranges as the policy defines them: the whole
                // set, or assoc/N ways each with the first assoc%N
                // programs one more.
                std::vector<std::uint32_t> lo(programs, 0);
                std::vector<std::uint32_t> hi(programs, assoc);
                if (policy == mem::PartitionPolicy::WayPartitioned) {
                    std::uint32_t at = 0;
                    for (std::uint32_t p = 0; p < programs; ++p) {
                        lo[p] = at;
                        at += assoc / programs +
                              (p < assoc % programs ? 1 : 0);
                        hi[p] = at;
                    }
                }
                const std::uint32_t sets = 3;
                mem::OwnedCache cache("p",
                                      {sets * assoc * 64, assoc, 64, 1},
                                      programs, policy);
                mem::SharedCacheState want;
                cache.saveState(want);
                const std::uint32_t lines = 2 * sets * assoc + 1;
                auto run = [&](int accesses) {
                    return compareWithReference(
                        cache, want, rng, lines, programs, accesses,
                        [&](std::uint32_t addr, bool write,
                            std::uint32_t prog) {
                            referenceOwnedAccess(want, assoc, sets, addr,
                                                 write, prog, lo[prog],
                                                 hi[prog]);
                        });
                };
                std::uint32_t failures = run(3000);

                scrambleState(want, rng, assoc, sets, 2);
                for (std::uint8_t &owner : want.owners)
                    owner = static_cast<std::uint8_t>(rng.below(programs));
                cache.restoreState(want);
                failures += run(3000);

                CHECK_EQ(failures, 0u);
                if (failures)
                    std::fprintf(stderr, "  %s: %u programs, %u-way\n",
                                 mem::partitionPolicyName(policy),
                                 programs, assoc);
            }
        }
    }
}

/**
 * One program under Shared: the owned cache is the solo Cache, tags,
 * stamps and counters equal on the same stream.
 */
void
testOneOwnerIsTheSoloCache()
{
    Xoshiro256StarStar rng(24);
    const mem::CacheConfig config{4 * 8 * 64, 8, 64, 1};
    mem::Cache solo("solo", config);
    mem::OwnedCache owned("owned", config, 1,
                          mem::PartitionPolicy::Shared);
    const std::uint32_t lines = 2 * 4 * 8 + 1;
    for (int i = 0; i < 5000; ++i) {
        const auto addr =
            static_cast<std::uint32_t>(rng.below(lines) * 64);
        const bool write = rng.below(4) == 0;
        CHECK_EQ(solo.access(addr, write).hit,
                 owned.access(addr, write).hit);
    }
    mem::CacheState a;
    solo.saveState(a);
    mem::SharedCacheState b;
    owned.saveState(b);
    CHECK(a.tags == b.tags);
    CHECK(a.valid == b.valid);
    CHECK(a.lastUse == b.lastUse);
    CHECK(a.mruWay == b.mruWay);
    CHECK_EQ(a.tick, b.tick);
    CHECK(b.loads == std::vector<std::uint64_t>{a.loads});
    CHECK(b.stores == std::vector<std::uint64_t>{a.stores});
    CHECK(b.misses == std::vector<std::uint64_t>{a.misses});
    CHECK(a.misses > 0 && a.misses < a.loads + a.stores);
}

void
testTlbReach()
{
    // 4 entries x 4KB pages: reach is 16KB.
    mem::Tlb tlb({4, 4096, 30});
    for (std::uint32_t p = 0; p < 4; ++p)
        CHECK(tlb.access(p * 4096)); // cold misses.
    for (std::uint32_t p = 0; p < 4; ++p)
        CHECK(!tlb.access(p * 4096)); // all resident.
    CHECK_EQ(tlb.misses(), 4u);

    // Within-page offsets share the entry.
    CHECK(!tlb.access(3 * 4096 + 4092));

    // A 5th page evicts the LRU page (page 0 after the re-touch
    // sequence 0,1,2,3 above).
    CHECK(tlb.access(4 * 4096));
    CHECK(tlb.access(0 * 4096)); // page 0 was the victim.
    CHECK(!tlb.access(4 * 4096));
}

void
testTlbLruOrderUnderReuse()
{
    mem::Tlb tlb({4, 4096, 30});
    for (std::uint32_t p = 0; p < 4; ++p)
        tlb.access(p * 4096);
    // Re-touch pages 0 and 1: pages 2 then 3 are the LRU victims.
    tlb.access(0);
    tlb.access(4096);
    CHECK(tlb.access(4 * 4096)); // evicts page 2.
    CHECK(tlb.access(5 * 4096)); // evicts page 3.
    CHECK(!tlb.access(0));       // pages 0 and 1 survived.
    CHECK(!tlb.access(4096));
    CHECK(tlb.access(2 * 4096)); // pages 2 and 3 are gone.
}

void
testTlbSingleEntry()
{
    mem::Tlb tlb({1, 4096, 30});
    CHECK(tlb.access(0));
    CHECK(!tlb.access(4));
    CHECK(tlb.access(4096));
    CHECK(tlb.access(0));
    CHECK_EQ(tlb.misses(), 3u);
}

void
testTlbReset()
{
    mem::Tlb tlb({4, 4096, 30});
    tlb.access(0);
    tlb.access(4096);
    tlb.reset();
    CHECK_EQ(tlb.misses(), 0u);
    CHECK(tlb.access(0)); // cold again.
}

void
testHierarchyWarmMatchesTiming()
{
    mem::HierarchyConfig cfg;
    cfg.l1i = {256, 2, 64, 1};
    cfg.l1d = {256, 2, 64, 2};
    cfg.l2 = {1024, 2, 64, 12};
    cfg.itlb = {4, 4096, 30};
    cfg.dtlb = {4, 4096, 30};
    cfg.memLatency = 80;

    // A timing load after a warm load of the same line hits L1 with
    // the same latency as after a timing load: warming installs the
    // identical state.
    mem::MemHierarchy warm(cfg);
    warm.warmLoad(lineAddr(0));
    const mem::MemResult viaWarm = warm.load(lineAddr(0));

    mem::MemHierarchy timed(cfg);
    timed.load(lineAddr(0));
    const mem::MemResult viaTimed = timed.load(lineAddr(0));

    CHECK(viaWarm.level == mem::ServedBy::L1);
    CHECK(viaTimed.level == mem::ServedBy::L1);
    CHECK_EQ(viaWarm.latency, viaTimed.latency);
    CHECK_EQ(viaWarm.latency, cfg.l1d.latency);
}

void
testHierarchyLevelsAndLatencies()
{
    mem::HierarchyConfig cfg;
    cfg.l1i = {256, 2, 64, 1};
    cfg.l1d = {256, 2, 64, 2};
    cfg.l2 = {1024, 2, 64, 12};
    cfg.itlb = {4, 4096, 30};
    cfg.dtlb = {4, 4096, 30};
    cfg.memLatency = 80;
    mem::MemHierarchy h(cfg);

    // Cold: memory + TLB miss.
    const mem::MemResult cold = h.load(lineAddr(0));
    CHECK(cold.level == mem::ServedBy::Memory);
    CHECK(cold.tlbMiss);
    CHECK_EQ(cold.latency, 30u + 2u + 12u + 80u);

    // Evict line 0 from L1d (2 ways/set, 2 sets): lines 2 and 4
    // alias to set 0. L2 (2 ways x 8 sets... 1KB/2/64 = 8 sets)
    // still holds line 0, so the re-access is an L2 hit.
    h.load(lineAddr(2));
    h.load(lineAddr(4));
    const mem::MemResult l2hit = h.load(lineAddr(0));
    CHECK(l2hit.level == mem::ServedBy::L2);
    CHECK(!l2hit.tlbMiss);
    CHECK_EQ(l2hit.latency, 2u + 12u);
}

/**
 * Non-power-of-two geometries index exactly as `%` and `/` would: a
 * 3-set cache maps lines 3 apart to one set, 6 KiB pages split
 * addresses at multiples of 6144.
 */
void
testNonPowerOfTwoGeometry()
{
    mem::Cache cache("odd", {3 * 64, 1, 64, 1}); // 3 sets, direct.
    cache.access(lineAddr(1), false);
    cache.access(lineAddr(2), false);
    CHECK(cache.probe(lineAddr(1)));
    cache.access(lineAddr(4), false); // set 1: evicts line 1.
    CHECK(!cache.probe(lineAddr(1)));
    CHECK(cache.probe(lineAddr(2)));
    CHECK(cache.probe(lineAddr(4)));

    mem::Tlb tlb({4, 6144, 30});
    CHECK(tlb.access(0));
    CHECK(!tlb.access(6143));
    CHECK(tlb.access(6144));
    CHECK(!tlb.access(2 * 6144 - 1));
    CHECK(tlb.access(0xffffffffu)); // page 699050, the last.
    CHECK(!tlb.access(699050u * 6144));
    CHECK_EQ(tlb.misses(), 3u);
}

/**
 * Construct a cache or TLB from a geometry its indexing cannot use.
 * Each ctest registration runs one case and passes only on the
 * constructor's FATAL diagnostic (PASS_REGULAR_EXPRESSION).
 */
int
refuse(const std::string &what)
{
    if (what == "tlb-page0") {
        const mem::Tlb tlb({64, 0, 30});
    } else if (what == "cache-set-overflow") {
        // 65536 ways x 65536B lines: a 32-bit set size wraps to 0.
        const mem::Cache cache("l2", {256 * 1024, 65536, 65536, 12});
    } else if (what == "cache-line48") {
        // Divides into 256 sets, but a line is addressed by a shift.
        const mem::Cache cache("l1d", {48 * 4 * 256, 4, 48, 2});
    }
    std::printf("accepted %s\n", what.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1)
        return refuse(argv[1]);
    testNonPowerOfTwoGeometry();
    testCacheLruEvictionOrder();
    testCacheMruFastPathKeepsLru();
    testCacheStoresAllocateLikeLoads();
    testCacheReset();
    testCacheLookupMatchesReferenceScan();
    testOneOwnerIsTheSoloCache();
    testTlbReach();
    testTlbLruOrderUnderReuse();
    testTlbSingleEntry();
    testTlbReset();
    testHierarchyWarmMatchesTiming();
    testHierarchyLevelsAndLatencies();
    TEST_MAIN_SUMMARY();
}
