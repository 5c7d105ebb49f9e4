/**
 * @file
 * Shared memory hierarchy for multi-programmed co-run sessions
 * (smarts::mp): one LANE per program in front of ONE owner-tagged
 * shared L2 (mem::OwnedCache). A lane is a solo-config
 * mem::MemHierarchy whose L2 is the program's SHADOW L2: the
 * auxiliary tag directory of utility-based cache partitioning
 * (Qureshi & Patt, MICRO 2006), fed the identical L1-miss request
 * stream the shared L2 sees from that program. With private L1s the
 * architectural stream and every L1/TLB hit/miss sequence of a
 * program inside the co-run are identical to its solo run, so a
 * lane's state and counters are bit-identical to the hierarchy of a
 * true solo run of the same schedule BY CONSTRUCTION (same class,
 * same access sequence) — that is the whole QoS trick: one co-run
 * stream yields each program's would-be-solo hit/miss stream for
 * free (tests/test_shared_mem.cc pins the bit-equality).
 *
 * A lane reaches the shared L2 through its access paths' L1-miss
 * hook. Two partitioning policies (mem::PartitionPolicy): Shared
 * (victim = global LRU over the whole set) and WayPartitioned
 * (victim = LRU within the program's contiguous way range, hits
 * still visible set-wide — classic way partitioning).
 */

#ifndef SMARTS_MEM_SHARED_HIERARCHY_HH
#define SMARTS_MEM_SHARED_HIERARCHY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "util/binary_io.hh"
#include "util/logging.hh"

namespace smarts::mem {

/** Serialized shared hierarchy: every lane, then the shared L2. */
struct SharedHierarchyState
{
    std::vector<HierarchyState> lanes;
    SharedCacheState l2;

    std::size_t
    byteSize() const
    {
        std::size_t total = l2.byteSize();
        for (const HierarchyState &lane : lanes)
            total += lane.byteSize();
        return total;
    }

    /** Field order is normative: docs/checkpoint-format.md. */
    void
    write(util::BinaryWriter &out) const
    {
        out.u64(lanes.size());
        for (const HierarchyState &lane : lanes)
            lane.write(out);
        l2.write(out);
    }

    void
    read(util::BinaryReader &in)
    {
        lanes.resize(in.count(util::minEncodedBytes<HierarchyState>()));
        for (HierarchyState &lane : lanes)
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
 * N lanes (solo-config MemHierarchy, the L2 being the shadow L2)
 * over one shared L2. A program reaches its lane only through its
 * Port (port()); on an L1 miss the request goes to BOTH the shared
 * L2 (the co-run world) and the lane's shadow L2 (the solo world).
 */
class SharedHierarchy
{
  public:
    SharedHierarchy(const HierarchyConfig &config,
                    std::uint32_t programs, PartitionPolicy policy)
        : l2_("shared-l2", config.l2, programs, policy),
          lanes_(programs, MemHierarchy(config))
    {
    }

    // Ports point at the hierarchy: it stays where it was built.
    SharedHierarchy(const SharedHierarchy &) = delete;
    SharedHierarchy &operator=(const SharedHierarchy &) = delete;

    /**
     * One program's view of the hierarchy: the memory port its
     * co-run lane's core::BasicTimingModel charges. It calls the
     * lane's own access paths with a hook that also charges the
     * shared L2, so a timing access resolves in two worlds, the solo
     * (the lane's result) and the co-run (the same result with its
     * L2 leg taken from the shared L2); a warm access fills both.
     * The port holds no state of its own: SharedHierarchyState
     * serializes what it touches.
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
            SharedL2 shared{hierarchy_->l2_, prog_};
            const MemResult solo = lane().fetch(addr, shared);
            return worlds(solo, shared.hit);
        }

        [[gnu::always_inline]] SharedMemResult
        load(std::uint32_t addr)
        {
            SharedL2 shared{hierarchy_->l2_, prog_};
            const MemResult solo = lane().load(addr, shared);
            return worlds(solo, shared.hit);
        }

        [[gnu::always_inline]] SharedMemResult
        store(std::uint32_t addr)
        {
            SharedL2 shared{hierarchy_->l2_, prog_};
            const MemResult solo = lane().store(addr, shared);
            return worlds(solo, shared.hit);
        }

        [[gnu::always_inline]] void
        warmFetch(std::uint32_t addr)
        {
            lane().warmFetch(addr, SharedL2{hierarchy_->l2_, prog_});
        }

        [[gnu::always_inline]] void
        warmLoad(std::uint32_t addr)
        {
            lane().warmLoad(addr, SharedL2{hierarchy_->l2_, prog_});
        }

        [[gnu::always_inline]] void
        warmStore(std::uint32_t addr)
        {
            lane().warmStore(addr, SharedL2{hierarchy_->l2_, prog_});
        }

      private:
        /** The lane's L1-miss hook: charge the shared L2 as prog. */
        struct SharedL2
        {
            OwnedCache &l2;
            std::uint32_t prog;
            bool hit = false;

            [[gnu::always_inline]] void
            operator()(std::uint32_t addr, bool write)
            {
                hit = l2.access(addr, write, prog).hit;
            }
        };

        [[gnu::always_inline]] MemHierarchy &
        lane() const
        {
            return hierarchy_->lanes_[prog_];
        }

        /**
         * The two worlds of one access: the lane's solo result, and
         * the co-run result that differs only below the L1, where
         * the shared L2 hit (@p sharedHit) or missed.
         */
        [[gnu::always_inline]] SharedMemResult
        worlds(const MemResult &solo, bool sharedHit) const
        {
            SharedMemResult r{solo, solo};
            if (solo.level != ServedBy::L1) {
                const MemHierarchy &lane = this->lane();
                r.co.level = sharedHit ? ServedBy::L2 : ServedBy::Memory;
                r.co.latency = solo.latency -
                               lane.l2Leg(solo.level == ServedBy::L2) +
                               lane.l2Leg(sharedHit);
            }
            return r;
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
        for (std::size_t p = 0; p < lanes_.size(); ++p)
            lanes_[p].saveState(state.lanes[p]);
        l2_.saveState(state.l2);
    }

    void
    restoreState(const SharedHierarchyState &state)
    {
        if (state.lanes.size() != lanes_.size())
            SMARTS_FATAL("shared hierarchy checkpoint has ",
                         state.lanes.size(), " lanes, expected ",
                         lanes_.size());
        for (std::size_t p = 0; p < lanes_.size(); ++p)
            lanes_[p].restoreState(state.lanes[p]);
        l2_.restoreState(state.l2);
    }

    const OwnedCache &sharedL2() const { return l2_; }

    /** Program @p prog's lane: its L2 is the shadow (solo) L2. */
    const MemHierarchy &
    lane(std::uint32_t prog) const
    {
        return lanes_[prog];
    }

  private:
    OwnedCache l2_;
    std::vector<MemHierarchy> lanes_;
};

} // namespace smarts::mem

#endif // SMARTS_MEM_SHARED_HIERARCHY_HH
