/**
 * @file
 * Shared memory hierarchy for multi-programmed co-run sessions
 * (smarts::mp): per-program private L1s and TLBs in front of ONE
 * owner-tagged shared L2, plus a per-program SHADOW L2 — a plain
 * mem::Cache with the solo configuration that is fed the identical
 * L1-miss request stream the shared L2 sees from that program. With
 * private L1s the architectural stream and every L1/TLB hit/miss
 * sequence of a program inside the co-run are identical to its solo
 * run, so the shadow L2's state and counters are bit-identical to
 * the L2 of a true solo run of the same schedule BY CONSTRUCTION
 * (same class, same access sequence) — that is the whole QoS trick:
 * one co-run stream yields each program's would-be-solo hit/miss
 * stream for free (tests/test_shared_mem.cc pins the bit-equality).
 *
 * The shared L2 tags every line with its owning program — the
 * programs' address spaces are disjoint even when their addresses
 * collide numerically (each SISA image starts at the same base), so
 * a hit requires tag AND owner to match. Two partitioning policies:
 * Shared (victim = global LRU over the whole set) and WayPartitioned
 * (victim = LRU within the program's contiguous way range, hits
 * still visible set-wide — classic way partitioning).
 */

#ifndef SMARTS_MEM_SHARED_HIERARCHY_HH
#define SMARTS_MEM_SHARED_HIERARCHY_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/hierarchy.hh"
#include "util/binary_io.hh"
#include "util/logging.hh"
#include "util/reducer.hh"

namespace smarts::mem {

/** How co-running programs divide the shared cache. */
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
 * Serialized shared-cache contents: the tag/owner/valid/recency
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
        tags = in.vecU32();
        owners = in.vecU8();
        valid = in.vecU8();
        lastUse = in.vecU64();
        mruWay = in.vecU32();
        tick = in.u64();
        loads = in.vecU64();
        stores = in.vecU64();
        misses = in.vecU64();
    }
};

/**
 * Set-associative true-LRU cache shared by N programs: every line
 * carries its owner, a hit requires tag and owner to match, and the
 * victim way is drawn from the whole set (Shared) or the program's
 * contiguous way range (WayPartitioned). The access logic is
 * mem::Cache's with the owner predicate added — same MRU fast path,
 * same tick/recency arithmetic — so a one-program Shared instance
 * replays a mem::Cache bit for bit.
 */
class SharedCache
{
  public:
    SharedCache(std::string name, const CacheConfig &config,
                std::uint32_t programs, PartitionPolicy policy)
        : name_(std::move(name)), config_(config),
          programs_(programs), policy_(policy)
    {
        const std::uint64_t setBytes =
            std::uint64_t(config.assoc) * config.lineBytes;
        if (!config.sizeBytes || !setBytes ||
            config.sizeBytes % setBytes || config.lineBytes > (1u << 31))
            SMARTS_FATAL("cache '", name_, "': size ", config.sizeBytes,
                         " not divisible into ", config.assoc,
                         "-way sets of ", config.lineBytes, "B lines");
        if (!programs || programs > 255)
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
        // Contiguous way ranges: assoc/N each, the first assoc%N
        // programs get one extra way.
        wayBase_.assign(programs + 1, 0);
        const std::uint32_t share = config.assoc / programs;
        const std::uint32_t extra = config.assoc % programs;
        for (std::uint32_t p = 0; p < programs; ++p)
            wayBase_[p + 1] =
                wayBase_[p] + share + (p < extra ? 1 : 0);
        tags_.assign(static_cast<std::size_t>(sets) * config.assoc, 0);
        owners_.assign(tags_.size(), 0);
        valid_.assign(tags_.size(), 0);
        lastUse_.assign(tags_.size(), 0);
        mruWay_.assign(sets, 0);
        loads_.assign(programs, 0);
        stores_.assign(programs, 0);
        misses_.assign(programs, 0);
    }

    /**
     * Look up (@p prog, @p addr), fill on miss, update LRU. Mirrors
     * mem::Cache::access with the owner predicate and the policy's
     * victim range.
     */
    [[gnu::always_inline]] AccessResult
    access(std::uint32_t prog, std::uint32_t addr, bool write)
    {
        ++(write ? stores_ : loads_)[prog];
        const std::uint32_t line = addr >> lineShift_;
        const std::uint32_t set = setOf_.mod(line);
        const std::size_t base =
            static_cast<std::size_t>(set) * config_.assoc;
        ++tick_;

        // MRU fast path: exactly equivalent to the full scan (a hit
        // never changes victims).
        const std::size_t mru = base + mruWay_[set];
        if (valid_[mru] && tags_[mru] == line && owners_[mru] == prog) {
            lastUse_[mru] = tick_;
            return {true};
        }

        // Hit scan covers the whole set: under way partitioning a
        // program's lines only ever live in its own ways, so the
        // owner predicate makes the full scan equivalent to a
        // range-restricted one.
        for (std::size_t w = base; w < base + config_.assoc; ++w) {
            if (valid_[w] && tags_[w] == line && owners_[w] == prog) {
                lastUse_[w] = tick_;
                mruWay_[set] = static_cast<std::uint32_t>(w - base);
                return {true};
            }
        }

        // Miss: victim = LRU over the policy's way range.
        std::size_t lo = base;
        std::size_t hi = base + config_.assoc;
        if (policy_ == PartitionPolicy::WayPartitioned) {
            lo = base + wayBase_[prog];
            hi = base + wayBase_[prog + 1];
        }
        std::size_t victim = lo;
        std::uint64_t oldest = ~0ull;
        for (std::size_t w = lo; w < hi; ++w) {
            if (lastUse_[w] < oldest) {
                oldest = lastUse_[w];
                victim = w;
            }
        }
        ++misses_[prog];
        tags_[victim] = line;
        owners_[victim] = static_cast<std::uint8_t>(prog);
        valid_[victim] = 1;
        lastUse_[victim] = tick_;
        mruWay_[set] = static_cast<std::uint32_t>(victim - base);
        return {false};
    }

    void
    saveState(SharedCacheState &state) const
    {
        state.tags = tags_;
        state.owners = owners_;
        state.valid = valid_;
        state.lastUse = lastUse_;
        state.mruWay = mruWay_;
        state.tick = tick_;
        state.loads = loads_;
        state.stores = stores_;
        state.misses = misses_;
    }

    void
    restoreState(const SharedCacheState &state)
    {
        // As mem::Cache::restoreState: every vector and stored way
        // index must fit the live geometry before access() uses them.
        if (state.tags.size() != tags_.size() ||
            state.owners.size() != tags_.size() ||
            state.valid.size() != tags_.size() ||
            state.lastUse.size() != tags_.size() ||
            state.mruWay.size() != mruWay_.size() ||
            !indicesBelow(state.mruWay, config_.assoc) ||
            state.loads.size() != loads_.size() ||
            state.stores.size() != stores_.size() ||
            state.misses.size() != misses_.size())
            SMARTS_FATAL("cache '", name_,
                         "': checkpoint geometry mismatch");
        tags_ = state.tags;
        owners_ = state.owners;
        valid_ = state.valid;
        lastUse_ = state.lastUse;
        mruWay_ = state.mruWay;
        tick_ = state.tick;
        loads_ = state.loads;
        stores_ = state.stores;
        misses_ = state.misses;
    }

    const CacheConfig &config() const { return config_; }
    PartitionPolicy policy() const { return policy_; }
    std::uint32_t programs() const { return programs_; }

    std::uint64_t
    accesses(std::uint32_t prog) const
    {
        return loads_[prog] + stores_[prog];
    }

    std::uint64_t
    misses(std::uint32_t prog) const
    {
        return misses_[prog];
    }

  private:
    std::string name_;
    CacheConfig config_;
    std::uint32_t programs_ = 1;
    PartitionPolicy policy_ = PartitionPolicy::Shared;
    util::Reducer setOf_; ///< line -> set, no hardware divide.
    std::uint32_t lineShift_ = 6;
    std::vector<std::uint32_t> wayBase_; ///< per-program way ranges.
    std::vector<std::uint32_t> tags_;
    std::vector<std::uint8_t> owners_;
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint32_t> mruWay_; ///< per-set MRU fast path.
    std::uint64_t tick_ = 0;
    std::vector<std::uint64_t> loads_;
    std::vector<std::uint64_t> stores_;
    std::vector<std::uint64_t> misses_;
};

/** One program's private warm state inside a SharedHierarchy. */
struct SharedLaneMemState
{
    CacheState l1i;
    CacheState l1d;
    CacheState shadowL2;
    TlbState itlb;
    TlbState dtlb;

    std::size_t
    byteSize() const
    {
        return l1i.byteSize() + l1d.byteSize() + shadowL2.byteSize() +
               itlb.byteSize() + dtlb.byteSize();
    }

    /** Field order is normative: docs/checkpoint-format.md. */
    void
    write(util::BinaryWriter &out) const
    {
        l1i.write(out);
        l1d.write(out);
        shadowL2.write(out);
        itlb.write(out);
        dtlb.write(out);
    }

    void
    read(util::BinaryReader &in)
    {
        l1i.read(in);
        l1d.read(in);
        shadowL2.read(in);
        itlb.read(in);
        dtlb.read(in);
    }
};

/** Serialized shared hierarchy: every lane, then the shared L2. */
struct SharedHierarchyState
{
    std::vector<SharedLaneMemState> lanes;
    SharedCacheState l2;

    std::size_t
    byteSize() const
    {
        std::size_t total = l2.byteSize();
        for (const SharedLaneMemState &lane : lanes)
            total += lane.byteSize();
        return total;
    }

    /** Field order is normative: docs/checkpoint-format.md. */
    void
    write(util::BinaryWriter &out) const
    {
        out.u64(lanes.size());
        for (const SharedLaneMemState &lane : lanes)
            lane.write(out);
        l2.write(out);
    }

    void
    read(util::BinaryReader &in)
    {
        lanes.resize(
            in.count(util::minEncodedBytes<SharedLaneMemState>()));
        for (SharedLaneMemState &lane : lanes)
            lane.read(in);
        l2.read(in);
    }
};

/** A timing access resolved in both worlds: co-run and would-be-solo. */
struct SharedMemResult
{
    MemResult co;   ///< served by the SHARED L2.
    MemResult solo; ///< served by the program's SHADOW (solo) L2.
};

/**
 * N private (L1I, L1D, ITLB, DTLB, shadow L2) lanes over one shared
 * L2. Access semantics per lane mirror MemHierarchy::timingAccess /
 * warmAccess exactly; on an L1 miss the request goes to BOTH the
 * shared L2 (the co-run world) and the lane's shadow L2 (the solo
 * world), each resolving its own latency and level. A program reaches
 * its lane only through its Port (port()); the access paths are
 * always inlined, as MemHierarchy's are.
 */
class SharedHierarchy
{
  private:
    struct Lane
    {
        Lane(const HierarchyConfig &config, std::uint32_t prog)
            : l1i(log::format("l1i.", prog), config.l1i),
              l1d(log::format("l1d.", prog), config.l1d),
              shadowL2(log::format("shadow-l2.", prog), config.l2),
              itlb(config.itlb), dtlb(config.dtlb)
        {
        }

        Cache l1i;
        Cache l1d;
        Cache shadowL2; ///< the solo world: a plain solo-config L2.
        Tlb itlb;
        Tlb dtlb;
    };

  public:
    SharedHierarchy(const HierarchyConfig &config,
                    std::uint32_t programs, PartitionPolicy policy)
        : config_(config),
          l2_("shared-l2", config.l2, programs, policy)
    {
        lanes_.reserve(programs);
        for (std::uint32_t p = 0; p < programs; ++p)
            lanes_.emplace_back(config, p);
    }

    // Ports point at the hierarchy: it stays where it was built.
    SharedHierarchy(const SharedHierarchy &) = delete;
    SharedHierarchy &operator=(const SharedHierarchy &) = delete;

    /**
     * One program's view of the hierarchy: the memory port its
     * co-run lane's core::BasicTimingModel charges. A timing access
     * resolves in two worlds, the co-run (shared L2) and the solo
     * (shadow L2); a warm access fills both. The port holds no state
     * of its own: SharedHierarchyState serializes what it touches.
     */
    class Port
    {
      public:
        static constexpr std::size_t kWorlds = 2;
        static constexpr std::size_t kCoRun = 0; ///< world indices.
        static constexpr std::size_t kSolo = 1;

        static const MemResult &
        world(const SharedMemResult &result, std::size_t w)
        {
            return w == kCoRun ? result.co : result.solo;
        }

        Port(SharedHierarchy &hierarchy, std::uint32_t prog)
            : hierarchy_(&hierarchy), prog_(prog)
        {
        }

        [[gnu::always_inline]] SharedMemResult
        fetch(std::uint32_t addr)
        {
            Lane &lane = this->lane();
            return timingAccess(lane, lane.l1i, lane.itlb, addr, false);
        }

        [[gnu::always_inline]] SharedMemResult
        load(std::uint32_t addr)
        {
            Lane &lane = this->lane();
            return timingAccess(lane, lane.l1d, lane.dtlb, addr, false);
        }

        [[gnu::always_inline]] SharedMemResult
        store(std::uint32_t addr)
        {
            Lane &lane = this->lane();
            return timingAccess(lane, lane.l1d, lane.dtlb, addr, true);
        }

        [[gnu::always_inline]] void
        warmFetch(std::uint32_t addr)
        {
            Lane &lane = this->lane();
            warmAccess(lane, lane.l1i, lane.itlb, addr, false);
        }

        [[gnu::always_inline]] void
        warmLoad(std::uint32_t addr)
        {
            Lane &lane = this->lane();
            warmAccess(lane, lane.l1d, lane.dtlb, addr, false);
        }

        [[gnu::always_inline]] void
        warmStore(std::uint32_t addr)
        {
            Lane &lane = this->lane();
            warmAccess(lane, lane.l1d, lane.dtlb, addr, true);
        }

      private:
        [[gnu::always_inline]] Lane &
        lane() const
        {
            return hierarchy_->lanes_[prog_];
        }

        /**
         * MemHierarchy::timingAccess per world: TLB + L1 latency are
         * shared (private structures, one physical access); on an L1
         * miss the shared L2 and @p lane's shadow L2 each resolve
         * their own world.
         */
        [[gnu::always_inline]] SharedMemResult
        timingAccess(Lane &lane, Cache &l1, Tlb &tlb,
                     std::uint32_t addr, bool write)
        {
            const HierarchyConfig &config = hierarchy_->config_;
            SharedMemResult r;
            const bool tlbMiss = tlb.access(addr);
            const std::uint32_t base =
                (tlbMiss ? tlb.config().missLatency : 0) +
                l1.config().latency;
            r.co.tlbMiss = r.solo.tlbMiss = tlbMiss;
            r.co.latency = r.solo.latency = base;
            if (l1.access(addr, write).hit) {
                r.co.level = r.solo.level = ServedBy::L1;
                return r;
            }
            if (hierarchy_->l2_.access(prog_, addr, write).hit) {
                r.co.level = ServedBy::L2;
                r.co.latency += config.l2.latency;
            } else {
                r.co.level = ServedBy::Memory;
                r.co.latency += config.l2.latency + config.memLatency;
            }
            if (lane.shadowL2.access(addr, write).hit) {
                r.solo.level = ServedBy::L2;
                r.solo.latency += config.l2.latency;
            } else {
                r.solo.level = ServedBy::Memory;
                r.solo.latency += config.l2.latency + config.memLatency;
            }
            return r;
        }

        [[gnu::always_inline]] void
        warmAccess(Lane &lane, Cache &l1, Tlb &tlb, std::uint32_t addr,
                   bool write)
        {
            tlb.access(addr);
            if (!l1.access(addr, write).hit) {
                hierarchy_->l2_.access(prog_, addr, write);
                lane.shadowL2.access(addr, write);
            }
        }

        SharedHierarchy *hierarchy_;
        std::uint32_t prog_;
    };

    /** Program @p prog's port. */
    Port
    port(std::uint32_t prog)
    {
        return Port(*this, prog);
    }

    void
    saveState(SharedHierarchyState &state) const
    {
        state.lanes.resize(lanes_.size());
        for (std::size_t p = 0; p < lanes_.size(); ++p) {
            const Lane &lane = lanes_[p];
            lane.l1i.saveState(state.lanes[p].l1i);
            lane.l1d.saveState(state.lanes[p].l1d);
            lane.shadowL2.saveState(state.lanes[p].shadowL2);
            lane.itlb.saveState(state.lanes[p].itlb);
            lane.dtlb.saveState(state.lanes[p].dtlb);
        }
        l2_.saveState(state.l2);
    }

    void
    restoreState(const SharedHierarchyState &state)
    {
        if (state.lanes.size() != lanes_.size())
            SMARTS_FATAL("shared hierarchy checkpoint has ",
                         state.lanes.size(), " lanes, expected ",
                         lanes_.size());
        for (std::size_t p = 0; p < lanes_.size(); ++p) {
            Lane &lane = lanes_[p];
            lane.l1i.restoreState(state.lanes[p].l1i);
            lane.l1d.restoreState(state.lanes[p].l1d);
            lane.shadowL2.restoreState(state.lanes[p].shadowL2);
            lane.itlb.restoreState(state.lanes[p].itlb);
            lane.dtlb.restoreState(state.lanes[p].dtlb);
        }
        l2_.restoreState(state.l2);
    }

    const HierarchyConfig &config() const { return config_; }
    const SharedCache &sharedL2() const { return l2_; }

    /** The lane's solo-world L2 (the shadow tag array). */
    const Cache &
    shadowL2(std::uint32_t prog) const
    {
        return lanes_[prog].shadowL2;
    }

  private:
    HierarchyConfig config_;
    std::vector<Lane> lanes_;
    SharedCache l2_;
};

} // namespace smarts::mem

#endif // SMARTS_MEM_SHARED_HIERARCHY_HH
