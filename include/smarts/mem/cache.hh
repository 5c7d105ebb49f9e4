/**
 * @file
 * Set-associative write-allocate cache with true-LRU replacement.
 * This is the long-history microarchitectural state functional
 * warming must maintain (paper Section 4.4): the same object is
 * updated by warm accesses (no timing) and detailed accesses
 * (timing charged by the hierarchy).
 */

#ifndef SMARTS_MEM_CACHE_HH
#define SMARTS_MEM_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/binary_io.hh"
#include "util/logging.hh"
#include "util/reducer.hh"

namespace smarts::mem {

struct CacheConfig
{
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 2;
    std::uint32_t lineBytes = 64;
    std::uint32_t latency = 1;
};

struct AccessResult
{
    bool hit = false;
};

/**
 * Serialized cache contents for checkpointing (core/checkpoint.hh):
 * the full tag/valid/recency image plus the event counters, enough
 * to resume a warm cache bit-exactly.
 */
struct CacheState
{
    std::vector<std::uint32_t> tags;
    std::vector<std::uint8_t> valid;
    std::vector<std::uint64_t> lastUse;
    std::vector<std::uint32_t> mruWay;
    std::uint64_t tick = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t misses = 0;

    std::size_t
    byteSize() const
    {
        return tags.size() * sizeof(std::uint32_t) + valid.size() +
               lastUse.size() * sizeof(std::uint64_t) +
               mruWay.size() * sizeof(std::uint32_t) +
               4 * sizeof(std::uint64_t);
    }

    /**
     * Reserve room for a state shaped like @p shape, so a later
     * Cache::saveState into this one allocates nothing: a capture
     * that snapshots on another thread allocates on its own.
     */
    void
    reserveLike(const CacheState &shape)
    {
        tags.reserve(shape.tags.size());
        valid.reserve(shape.valid.size());
        lastUse.reserve(shape.lastUse.size());
        mruWay.reserve(shape.mruWay.size());
    }

    /** Field order is normative: docs/checkpoint-format.md. */
    void
    write(util::BinaryWriter &out) const
    {
        out.vecU32(tags);
        out.vecU8(valid);
        out.vecU64(lastUse);
        out.vecU32(mruWay);
        out.u64(tick);
        out.u64(loads);
        out.u64(stores);
        out.u64(misses);
    }

    void
    read(util::BinaryReader &in)
    {
        in.vecU32(tags);
        in.vecU8(valid);
        in.vecU64(lastUse);
        in.vecU32(mruWay);
        tick = in.u64();
        loads = in.u64();
        stores = in.u64();
        misses = in.u64();
    }
};

/**
 * True when every stored index in @p indices is below @p bound: the
 * restore-time check that a checkpoint's way or entry indices fit
 * the live geometry, since access() indexes with them unchecked.
 */
inline bool
indicesBelow(const std::vector<std::uint32_t> &indices,
             std::uint32_t bound)
{
    return std::all_of(indices.begin(), indices.end(),
                       [bound](std::uint32_t i) { return i < bound; });
}

class Cache
{
  public:
    Cache(std::string name, const CacheConfig &config)
        : name_(std::move(name)), config_(config)
    {
        const std::uint64_t setBytes =
            std::uint64_t(config.assoc) * config.lineBytes;
        if (!config.sizeBytes || !setBytes ||
            config.sizeBytes % setBytes || config.lineBytes > (1u << 31))
            SMARTS_FATAL("cache '", name_, "': size ", config.sizeBytes,
                         " not divisible into ", config.assoc,
                         "-way sets of ", config.lineBytes, "B lines");
        if (config.lineBytes & (config.lineBytes - 1))
            SMARTS_FATAL("cache '", name_, "': line size ",
                         config.lineBytes, "B is not a power of two");
        const auto sets =
            static_cast<std::uint32_t>(config.sizeBytes / setBytes);
        setOf_ = util::Reducer(sets);
        lineShift_ = 0;
        while ((1u << lineShift_) < config.lineBytes)
            ++lineShift_;
        tags_.assign(static_cast<std::size_t>(sets) * config.assoc, 0);
        valid_.assign(tags_.size(), 0);
        lastUse_.assign(tags_.size(), 0);
        mruWay_.assign(sets, 0);
    }

    /**
     * Look up @p addr, fill on miss, update LRU. @p write is
     * recorded for the store counters only: allocation policy is
     * identical for loads and stores.
     */
    [[gnu::always_inline]] AccessResult
    access(std::uint32_t addr, bool write)
    {
        ++(write ? stores_ : loads_);
        const std::uint32_t line = addr >> lineShift_;
        const std::uint32_t set = setOf_.mod(line);
        const std::size_t base =
            static_cast<std::size_t>(set) * config_.assoc;
        ++tick_;

        // MRU fast path: a re-reference of the set's most recent
        // line needs only its recency stamp refreshed. Exactly
        // equivalent to the full scan (a hit never changes victims).
        const std::size_t mru = base + mruWay_[set];
        if (valid_[mru] && tags_[mru] == line) {
            lastUse_[mru] = tick_;
            return {true};
        }

        // Tag match with no per-way branch: a hit mask over up to 64
        // ways at a time, its lowest set bit the hit way (the first
        // match, as a scan in way order finds it).
        const std::uint32_t assoc = config_.assoc;
        for (std::uint32_t first = 0; first < assoc; first += 64) {
            const std::uint32_t ways = std::min(assoc - first, 64u);
            const std::size_t at = base + first;
            std::uint64_t hits = 0;
            for (std::uint32_t w = 0; w < ways; ++w)
                hits |= std::uint64_t((valid_[at + w] != 0) &
                                      (tags_[at + w] == line))
                        << w;
            if (hits) {
                const std::uint32_t way =
                    first +
                    static_cast<std::uint32_t>(__builtin_ctzll(hits));
                lastUse_[base + way] = tick_;
                mruWay_[set] = way;
                return {true};
            }
        }

        // Miss: the victim is the first way with the oldest stamp,
        // found by a branch-free min scan.
        std::uint32_t victimWay = 0;
        std::uint64_t oldest = lastUse_[base];
        for (std::uint32_t w = 1; w < assoc; ++w) {
            const std::uint64_t use = lastUse_[base + w];
            const bool older = use < oldest;
            oldest = older ? use : oldest;
            victimWay = older ? w : victimWay;
        }
        const std::size_t victim = base + victimWay;
        ++misses_;
        tags_[victim] = line;
        valid_[victim] = 1;
        lastUse_[victim] = tick_;
        mruWay_[set] = victimWay;
        return {false};
    }

    /** Hit check without any state update. */
    bool
    probe(std::uint32_t addr) const
    {
        const std::uint32_t line = addr >> lineShift_;
        const std::uint32_t set = setOf_.mod(line);
        const std::size_t base =
            static_cast<std::size_t>(set) * config_.assoc;
        for (std::size_t w = base; w < base + config_.assoc; ++w)
            if (valid_[w] && tags_[w] == line)
                return true;
        return false;
    }

    void
    reset()
    {
        std::fill(valid_.begin(), valid_.end(), 0);
        std::fill(lastUse_.begin(), lastUse_.end(), 0);
        std::fill(mruWay_.begin(), mruWay_.end(), 0);
        tick_ = loads_ = stores_ = misses_ = 0;
    }

    void
    saveState(CacheState &state) const
    {
        state.tags = tags_;
        state.valid = valid_;
        state.lastUse = lastUse_;
        state.mruWay = mruWay_;
        state.tick = tick_;
        state.loads = loads_;
        state.stores = stores_;
        state.misses = misses_;
    }

    void
    restoreState(const CacheState &state)
    {
        // Every per-line vector and stored way index must fit the live
        // geometry: a checksummed file can still carry a short vector
        // or a way >= assoc, and access() would then index past the
        // arrays.
        if (state.tags.size() != tags_.size() ||
            state.valid.size() != tags_.size() ||
            state.lastUse.size() != tags_.size() ||
            state.mruWay.size() != mruWay_.size() ||
            !indicesBelow(state.mruWay, config_.assoc))
            SMARTS_FATAL("cache '", name_,
                         "': checkpoint geometry mismatch");
        tags_ = state.tags;
        valid_ = state.valid;
        lastUse_ = state.lastUse;
        mruWay_ = state.mruWay;
        tick_ = state.tick;
        loads_ = state.loads;
        stores_ = state.stores;
        misses_ = state.misses;
    }

    const std::string &name() const { return name_; }
    const CacheConfig &config() const { return config_; }
    std::uint64_t accesses() const { return loads_ + stores_; }
    std::uint64_t misses() const { return misses_; }

  private:
    std::string name_;
    CacheConfig config_;
    util::Reducer setOf_; ///< line -> set, no hardware divide.
    std::uint32_t lineShift_ = 6;
    std::vector<std::uint32_t> tags_;
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint32_t> mruWay_; ///< per-set MRU fast path.
    std::uint64_t tick_ = 0;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace smarts::mem

#endif // SMARTS_MEM_CACHE_HH
