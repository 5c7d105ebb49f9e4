/**
 * @file
 * MixSession: N ArchCores advancing in round-robin (one instruction
 * per program per round, in program order) over one SharedHierarchy,
 * with per-program "lane" accounting that charges TWO timing worlds
 * from the one architectural stream:
 *
 *  - the CO-RUN world, whose memory latencies come from the shared
 *    owner-tagged L2, and
 *  - the SOLO world, whose latencies come from the lane's shadow L2
 *    (a plain solo-config mem::Cache fed the identical L1-miss
 *    stream).
 *
 * With private L1s/TLBs and a private branch unit per lane, a
 * program's architectural stream and every front-end event inside
 * the co-run are identical to its solo run — so the solo world IS a
 * second timing pass of a true solo run, reusing the one functional-
 * warming stream (the tentpole's matched-pair QoS trick). The lane
 * accounting mirrors core::TimingModel's warm/warmDetailed/
 * detailedStep transitions term for term (same 48.16 fixed-point
 * increments, same charge order); tests/test_shared_mem.cc pins a
 * one-program mix bit-identical to a real solo SimSession run, so
 * the mirror cannot drift silently.
 *
 * Progress is counted in ROUNDS: after R complete rounds every
 * program has executed exactly R instructions, so a sampling unit of
 * U rounds measures the same U-instruction window of every program.
 * The stream ends when ANY program finishes (a partial round is not
 * counted).
 */

#ifndef SMARTS_MP_MIX_SESSION_HH
#define SMARTS_MP_MIX_SESSION_HH

#include <cstdint>
#include <vector>

#include "bpred/branch_unit.hh"
#include "core/arch.hh"
#include "core/timing.hh"
#include "mem/shared_hierarchy.hh"
#include "mp/mix.hh"
#include "uarch/config.hh"

namespace smarts::mp {

/** One program's measurements over a detailed segment, both worlds. */
struct MixLaneSegment
{
    std::uint64_t instructions = 0; ///< = rounds of the segment.
    std::uint64_t coCycles = 0;
    double coEnergyNj = 0.0;
    std::uint64_t soloCycles = 0;
    double soloEnergyNj = 0.0;
    std::uint64_t sharedAccesses = 0; ///< shared-L2 request delta.
    std::uint64_t sharedMisses = 0;
    std::uint64_t shadowAccesses = 0; ///< shadow-L2 request delta.
    std::uint64_t shadowMisses = 0;
};

/** One detailed segment of a mix: complete rounds + per-lane data. */
struct MixSegment
{
    std::uint64_t rounds = 0;
    std::vector<MixLaneSegment> per;
};

/**
 * One lane's serialized timing-world state: branch unit, both
 * worlds' fixed-point accumulators, the fetch-line dedup register
 * and the activity counters (the lane's memory state lives in
 * mem::SharedHierarchyState).
 */
struct MixLaneState
{
    bpred::BranchUnitState bpred;
    std::uint64_t coCyclesFx = 0;
    std::uint64_t coEnergyFx = 0;
    std::uint64_t soloCyclesFx = 0;
    std::uint64_t soloEnergyFx = 0;
    std::uint32_t lastFetchLine = ~0u;
    core::Activity activity;

    std::size_t
    byteSize() const
    {
        return bpred.byteSize() + 4 * sizeof(std::uint64_t) +
               sizeof(std::uint32_t) + sizeof(core::Activity);
    }

    /** Field order is normative: docs/checkpoint-format.md. */
    void
    write(util::BinaryWriter &out) const
    {
        bpred.write(out);
        out.u64(coCyclesFx);
        out.u64(coEnergyFx);
        out.u64(soloCyclesFx);
        out.u64(soloEnergyFx);
        out.u32(lastFetchLine);
        out.u64(activity.branches);
        out.u64(activity.bpredLookups);
        out.u64(activity.bpredMispredicts);
        out.u64(activity.loads);
        out.u64(activity.stores);
    }

    void
    read(util::BinaryReader &in)
    {
        bpred.read(in);
        coCyclesFx = in.u64();
        coEnergyFx = in.u64();
        soloCyclesFx = in.u64();
        soloEnergyFx = in.u64();
        lastFetchLine = in.u32();
        activity.branches = in.u64();
        activity.bpredLookups = in.u64();
        activity.bpredMispredicts = in.u64();
        activity.loads = in.u64();
        activity.stores = in.u64();
    }
};

/** Full serialized co-run session state (checkpoint flavor 1). */
struct MixState
{
    std::vector<core::ArchState> archs;
    mem::SharedHierarchyState sharedMem;
    std::vector<MixLaneState> lanes;
    std::uint64_t rounds = 0;

    std::size_t
    byteSize() const
    {
        std::size_t total =
            sharedMem.byteSize() + sizeof(std::uint64_t);
        for (const core::ArchState &arch : archs)
            total += arch.byteSize();
        for (const MixLaneState &lane : lanes)
            total += lane.byteSize();
        return total;
    }

    /** Field order is normative: docs/checkpoint-format.md. */
    void
    write(util::BinaryWriter &out) const
    {
        out.u64(archs.size());
        for (const core::ArchState &arch : archs)
            arch.write(out);
        sharedMem.write(out);
        out.u64(lanes.size());
        for (const MixLaneState &lane : lanes)
            lane.write(out);
        out.u64(rounds);
    }

    void
    read(util::BinaryReader &in)
    {
        archs.resize(in.u64());
        for (core::ArchState &arch : archs)
            arch.read(in);
        sharedMem.read(in);
        lanes.resize(in.u64());
        for (MixLaneState &lane : lanes)
            lane.read(in);
        rounds = in.u64();
    }
};

class MixSession
{
  public:
    MixSession(const WorkloadMix &mix,
               const uarch::MachineConfig &config);

    /**
     * Execute up to @p maxRounds rounds functionally, warming per
     * @p mode. Returns the number of COMPLETE rounds executed (less
     * than @p maxRounds only at end of stream).
     */
    std::uint64_t fastForward(std::uint64_t maxRounds,
                              core::WarmingMode mode);

    /** Execute up to @p maxRounds rounds with full dual-world timing. */
    MixSegment detailedRun(std::uint64_t maxRounds);

    /**
     * Execute up to @p maxRounds rounds applying detailedRun's EXACT
     * state transitions without the timing bookkeeping — the
     * checkpoint capture pass's fast path (cf.
     * SimSession::warmAsDetailed).
     */
    std::uint64_t warmAsDetailed(std::uint64_t maxRounds);

    void saveState(MixState &state) const;
    void restoreState(const MixState &state);

    /** True once any program's stream ended. */
    bool
    finished() const
    {
        return finished_;
    }

    /** Complete rounds executed = instructions per program. */
    std::uint64_t
    roundCount() const
    {
        return rounds_;
    }

    /** Alias so generic schedule code can treat rounds as positions. */
    std::uint64_t
    instCount() const
    {
        return rounds_;
    }

    std::size_t
    programCount() const
    {
        return cores_.size();
    }

    const uarch::MachineConfig &
    config() const
    {
        return config_;
    }

    const mem::SharedHierarchy &
    hierarchy() const
    {
        return shared_;
    }

  private:
    /**
     * Per-program timing lane: one branch unit plus TWO accumulator
     * pairs charged in lockstep with core::TimingModel's arithmetic.
     */
    struct Lane
    {
        explicit Lane(const bpred::BpredConfig &config)
            : bpred(config)
        {
        }

        bpred::BranchUnit bpred;
        std::uint64_t coCyclesFx = 0;
        std::uint64_t coEnergyFx = 0;
        std::uint64_t soloCyclesFx = 0;
        std::uint64_t soloEnergyFx = 0;
        std::uint32_t lastFetchLine = ~0u;
        core::Activity activity;
    };

    void warmStep(std::uint32_t p, const core::StepInfo &info,
                  bool warmCaches, bool warmBpred);
    void warmDetailedStep(std::uint32_t p,
                          const core::StepInfo &info);
    void detailedStep(std::uint32_t p, const core::StepInfo &info);

    /**
     * Up to @p maxRounds rounds, each stepping every core in program
     * order and applying @p perStep to each (program, StepInfo) —
     * the one stepping loop under fastForward, warmAsDetailed and
     * detailedRun. Returns the COMPLETE rounds executed: a round in
     * which any core's stream ends is not counted and finishes the
     * session.
     */
    template <typename PerStep>
    std::uint64_t
    rounds(std::uint64_t maxRounds, PerStep &&perStep)
    {
        std::uint64_t executed = 0;
        core::StepInfo info;
        for (; !finished_ && executed < maxRounds; ++executed) {
            for (std::uint32_t p = 0; p < cores_.size(); ++p) {
                if (!cores_[p].step(info)) {
                    finished_ = true;
                    return executed;
                }
                perStep(p, info);
            }
            ++rounds_;
        }
        return executed;
    }

    static std::uint64_t
    toFixed(double v)
    {
        return static_cast<std::uint64_t>(
            std::llround(v * core::TimingModel::kFixedOne));
    }

    /** Exact (a * b) >> kFixedShift (cf. TimingModel::mulFixed). */
    static std::uint64_t
    mulFixed(std::uint64_t a, std::uint64_t b)
    {
        const std::uint64_t hi =
            b >> core::TimingModel::kFixedShift;
        const std::uint64_t lo =
            b & ((1ull << core::TimingModel::kFixedShift) - 1);
        return a * hi + ((a * lo) >> core::TimingModel::kFixedShift);
    }

    uarch::MachineConfig config_;
    std::vector<core::ArchCore> cores_;
    mem::SharedHierarchy shared_;
    std::vector<Lane> lanes_;
    std::uint64_t rounds_ = 0;
    bool finished_ = false;

    // Per-event fixed-point increments (cf. TimingModel's ctor).
    std::uint64_t invWidthFx_ = 0;
    std::uint64_t loadStallFx_ = 0;
    std::uint64_t storeStallFx_ = 0;
    std::uint64_t mispredictFx_ = 0;
    std::uint64_t ePerInstFx_ = 0;
    std::uint64_t ePerCycleFx_ = 0;
    std::uint64_t eL1Fx_ = 0;
    std::uint64_t eL2Fx_ = 0;
    std::uint64_t eMemFx_ = 0;
    std::uint64_t eBpredFx_ = 0;
    std::uint32_t fetchLineShift_ = 6;
};

} // namespace smarts::mp

#endif // SMARTS_MP_MIX_SESSION_HH
