/**
 * @file
 * Set-associative write-allocate cache with true-LRU replacement.
 * This is the long-history microarchitectural state functional
 * warming must maintain (paper Section 4.4): the same object is
 * updated by warm accesses (no timing) and detailed accesses
 * (timing charged by the hierarchy).
 *
 * One class, two forms (BasicCache<Owned>). The solo form, Cache,
 * serves every private cache and the solo L2. The owned form,
 * OwnedCache, is the L2 N co-running programs share
 * (mem/shared_hierarchy.hh): every line carries its owning program,
 * a hit needs tag AND owner to match, and a miss picks its victim
 * from the program's way range under a PartitionPolicy. The
 * programs' address spaces are disjoint even when their addresses
 * collide numerically (each SISA image starts at the same base),
 * hence the owner tag. Both forms run the same lookup; the owner
 * predicate and the per-program counters compile away in the solo
 * form, so a one-program owned cache under Shared replays a solo
 * Cache bit for bit.
 */

#ifndef SMARTS_MEM_CACHE_HH
#define SMARTS_MEM_CACHE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
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

/** How co-running programs divide an owned cache. */
enum class PartitionPolicy : std::uint8_t
{
    Shared = 0,         ///< free-for-all: global LRU victim choice.
    WayPartitioned = 1, ///< each program evicts only its own ways.
};

inline const char *
partitionPolicyName(PartitionPolicy policy)
{
    switch (policy) {
      case PartitionPolicy::Shared: return "shared";
      case PartitionPolicy::WayPartitioned: return "waypart";
    }
    return "?";
}

/**
 * Serialized owned-cache contents: the tag/owner/valid/recency
 * image plus the per-program event counters, enough to resume a
 * warm shared cache bit-exactly.
 */
struct SharedCacheState
{
    std::vector<std::uint32_t> tags;
    std::vector<std::uint8_t> owners;
    std::vector<std::uint8_t> valid;
    std::vector<std::uint64_t> lastUse;
    std::vector<std::uint32_t> mruWay;
    std::uint64_t tick = 0;
    std::vector<std::uint64_t> loads;  ///< per program.
    std::vector<std::uint64_t> stores; ///< per program.
    std::vector<std::uint64_t> misses; ///< per program.

    std::size_t
    byteSize() const
    {
        return tags.size() * sizeof(std::uint32_t) + owners.size() +
               valid.size() + lastUse.size() * sizeof(std::uint64_t) +
               mruWay.size() * sizeof(std::uint32_t) +
               (1 + loads.size() + stores.size() + misses.size()) *
                   sizeof(std::uint64_t);
    }

    /** Field order is normative: docs/checkpoint-format.md. */
    void
    write(util::BinaryWriter &out) const
    {
        out.vecU32(tags);
        out.vecU8(owners);
        out.vecU8(valid);
        out.vecU64(lastUse);
        out.vecU32(mruWay);
        out.u64(tick);
        out.vecU64(loads);
        out.vecU64(stores);
        out.vecU64(misses);
    }

    void
    read(util::BinaryReader &in)
    {
        in.vecU32(tags);
        in.vecU8(owners);
        in.vecU8(valid);
        in.vecU64(lastUse);
        in.vecU32(mruWay);
        tick = in.u64();
        in.vecU64(loads);
        in.vecU64(stores);
        in.vecU64(misses);
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

/**
 * The cache in its solo (@p Owned false) or owner-tagged (@p Owned
 * true) form; see the file comment. Its contents are its State, the
 * checkpoint image itself.
 */
template <bool Owned>
class BasicCache
{
  public:
    using State = std::conditional_t<Owned, SharedCacheState, CacheState>;

    /**
     * A cache of @p config's geometry for @p programs programs (one
     * when solo; at most 255, since owner tags are one byte) dividing
     * its ways by @p policy.
     */
    BasicCache(std::string name, const CacheConfig &config,
               std::uint32_t programs = 1,
               PartitionPolicy policy = PartitionPolicy::Shared)
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
        if (!programs || programs > (Owned ? 255u : 1u))
            SMARTS_FATAL("cache '", name_, "': ", programs,
                         " programs (owner tags are one byte)");
        if (policy == PartitionPolicy::WayPartitioned &&
            programs > config.assoc)
            SMARTS_FATAL("cache '", name_, "': cannot way-partition ",
                         config.assoc, " ways across ", programs,
                         " programs");
        const auto sets =
            static_cast<std::uint32_t>(config.sizeBytes / setBytes);
        setOf_ = util::Reducer(sets);
        lineShift_ = 0;
        while ((1u << lineShift_) < config.lineBytes)
            ++lineShift_;
        s_.tags.assign(static_cast<std::size_t>(sets) * config.assoc, 0);
        s_.valid.assign(s_.tags.size(), 0);
        s_.lastUse.assign(s_.tags.size(), 0);
        s_.mruWay.assign(sets, 0);
        if constexpr (Owned) {
            s_.owners.assign(s_.tags.size(), 0);
            s_.loads.assign(programs, 0);
            s_.stores.assign(programs, 0);
            s_.misses.assign(programs, 0);
            // Way partitioning gives each program a contiguous range
            // of assoc/N ways, the first assoc%N programs one more;
            // Shared gives every program the whole set.
            const std::uint32_t share = config.assoc / programs;
            const std::uint32_t extra = config.assoc % programs;
            std::uint32_t lo = 0;
            for (std::uint32_t p = 0; p < programs; ++p) {
                const std::uint32_t ways = share + (p < extra ? 1 : 0);
                victims_.push_back(
                    policy == PartitionPolicy::WayPartitioned
                        ? WayRange{lo, lo + ways}
                        : WayRange{0, config.assoc});
                lo += ways;
            }
        }
    }

    /**
     * Look up @p addr for program @p prog, fill on miss, update LRU.
     * @p write is recorded for the store counters only: allocation
     * policy is identical for loads and stores.
     */
    [[gnu::always_inline]] AccessResult
    access(std::uint32_t addr, bool write, std::uint32_t prog = 0)
    {
        ++count(write ? s_.stores : s_.loads, prog);
        const std::uint32_t line = addr >> lineShift_;
        const std::uint32_t set = setOf_.mod(line);
        const std::size_t base =
            static_cast<std::size_t>(set) * config_.assoc;
        ++s_.tick;

        // MRU fast path: a re-reference of the set's most recent
        // line needs only its recency stamp refreshed. Exactly
        // equivalent to the full scan (a hit never changes victims).
        const std::size_t mru = base + s_.mruWay[set];
        if (s_.valid[mru] && s_.tags[mru] == line && ownedBy(mru, prog)) {
            s_.lastUse[mru] = s_.tick;
            return {true};
        }

        // Tag match with no per-way branch: a hit mask over up to 64
        // ways at a time, its lowest set bit the hit way (the first
        // match, as a scan in way order finds it). The scan covers
        // the whole set: under way partitioning a program's lines
        // only ever live in its own ways, so the owner predicate
        // makes it equivalent to a range-restricted one.
        const std::uint32_t assoc = config_.assoc;
        for (std::uint32_t first = 0; first < assoc; first += 64) {
            const std::uint32_t ways = std::min(assoc - first, 64u);
            const std::size_t at = base + first;
            std::uint64_t hits = 0;
            for (std::uint32_t w = 0; w < ways; ++w)
                hits |= std::uint64_t((s_.valid[at + w] != 0) &
                                      (s_.tags[at + w] == line) &
                                      ownedBy(at + w, prog))
                        << w;
            if (hits) {
                const std::uint32_t way =
                    first +
                    static_cast<std::uint32_t>(__builtin_ctzll(hits));
                s_.lastUse[base + way] = s_.tick;
                s_.mruWay[set] = way;
                return {true};
            }
        }

        // Miss: the victim is the first way of the program's range
        // with the oldest stamp, found by a branch-free min scan.
        const WayRange range = victimRange(prog);
        std::uint32_t victimWay = range.lo;
        std::uint64_t oldest = s_.lastUse[base + range.lo];
        for (std::uint32_t w = range.lo + 1; w < range.hi; ++w) {
            const std::uint64_t use = s_.lastUse[base + w];
            const bool older = use < oldest;
            oldest = older ? use : oldest;
            victimWay = older ? w : victimWay;
        }
        const std::size_t victim = base + victimWay;
        ++count(s_.misses, prog);
        s_.tags[victim] = line;
        if constexpr (Owned)
            s_.owners[victim] = static_cast<std::uint8_t>(prog);
        s_.valid[victim] = 1;
        s_.lastUse[victim] = s_.tick;
        s_.mruWay[set] = victimWay;
        return {false};
    }

    /** Hit check without any state update. */
    bool
    probe(std::uint32_t addr, std::uint32_t prog = 0) const
    {
        const std::uint32_t line = addr >> lineShift_;
        const std::size_t base =
            static_cast<std::size_t>(setOf_.mod(line)) * config_.assoc;
        for (std::size_t w = base; w < base + config_.assoc; ++w)
            if (s_.valid[w] && s_.tags[w] == line && ownedBy(w, prog))
                return true;
        return false;
    }

    void
    reset()
    {
        std::fill(s_.valid.begin(), s_.valid.end(), 0);
        std::fill(s_.lastUse.begin(), s_.lastUse.end(), 0);
        std::fill(s_.mruWay.begin(), s_.mruWay.end(), 0);
        s_.tick = 0;
        for (auto *counts : {&s_.loads, &s_.stores, &s_.misses}) {
            if constexpr (Owned)
                std::fill(counts->begin(), counts->end(), 0);
            else
                *counts = 0;
        }
    }

    void
    saveState(State &state) const
    {
        state = s_;
    }

    void
    restoreState(const State &state)
    {
        // Every per-line vector, per-program counter vector and
        // stored way index must fit the live geometry: a checksummed
        // file can still carry a short vector or a way >= assoc, and
        // access() would then index past the arrays.
        bool fits = state.tags.size() == s_.tags.size() &&
                    state.valid.size() == s_.tags.size() &&
                    state.lastUse.size() == s_.tags.size() &&
                    state.mruWay.size() == s_.mruWay.size() &&
                    indicesBelow(state.mruWay, config_.assoc);
        if constexpr (Owned)
            fits = fits && state.owners.size() == s_.tags.size() &&
                   state.loads.size() == s_.loads.size() &&
                   state.stores.size() == s_.loads.size() &&
                   state.misses.size() == s_.loads.size();
        if (!fits)
            SMARTS_FATAL("cache '", name_,
                         "': checkpoint geometry mismatch");
        s_ = state;
    }

    const std::string &name() const { return name_; }
    const CacheConfig &config() const { return config_; }

    std::uint64_t
    accesses(std::uint32_t prog = 0) const
    {
        return count(s_.loads, prog) + count(s_.stores, prog);
    }

    std::uint64_t
    misses(std::uint32_t prog = 0) const
    {
        return count(s_.misses, prog);
    }

  private:
    /** A program's victim ways, [lo, hi). */
    struct WayRange
    {
        std::uint32_t lo;
        std::uint32_t hi;
    };

    /** Program @p prog's event counter: per program when owned. */
    template <typename Counts>
    [[gnu::always_inline]] static auto &
    count(Counts &counts, std::uint32_t prog)
    {
        if constexpr (Owned)
            return counts[prog];
        else
            return counts;
    }

    /** Owner predicate: always true in the solo form. */
    [[gnu::always_inline]] bool
    ownedBy(std::size_t way, std::uint32_t prog) const
    {
        if constexpr (Owned)
            return s_.owners[way] == prog;
        else
            return true;
    }

    [[gnu::always_inline]] WayRange
    victimRange(std::uint32_t prog) const
    {
        if constexpr (Owned)
            return victims_[prog];
        else
            return {0, config_.assoc};
    }

    std::string name_;
    CacheConfig config_;
    util::Reducer setOf_; ///< line -> set, no hardware divide.
    std::uint32_t lineShift_ = 6;
    State s_;
    std::vector<WayRange> victims_; ///< per program; owned form only.
};

/** A private or solo cache. */
using Cache = BasicCache<false>;

/** A cache N programs share, each line tagged with its owner. */
using OwnedCache = BasicCache<true>;

} // namespace smarts::mem

#endif // SMARTS_MEM_CACHE_HH
