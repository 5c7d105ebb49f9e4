/**
 * @file
 * MixSession: N ArchCores advancing in round-robin (one instruction
 * per program per round, in program order) over one SharedHierarchy.
 * Each program's timing lane is a core::BasicTimingModel over its
 * port of the hierarchy (mem::SharedHierarchy::Port), which charges
 * TWO timing worlds from the one architectural stream:
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
 * warming stream (the matched-pair QoS trick). The lanes run the
 * very warm/warmDetailed/detailedStep/endSegment code a SimSession
 * runs, one accumulator pair per world; tests/test_shared_mem.cc
 * pins a one-program mix bit-identical to a real solo SimSession
 * run.
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
 * One lane's serialized timing state: the timing model's port-less
 * state with one accumulator pair per world — branch unit, co-run
 * then solo {cycles, energy}, the fetch-line dedup register and the
 * activity counters. The lane's memory state lives in
 * mem::SharedHierarchyState.
 */
using MixLaneState = core::PortlessTimingState<
    mem::SharedHierarchy::Port::kWorlds>;

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
        archs.resize(
            in.count(util::minEncodedBytes<core::ArchState>()));
        for (core::ArchState &arch : archs)
            arch.read(in);
        sharedMem.read(in);
        lanes.resize(in.count(util::minEncodedBytes<MixLaneState>()));
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
    SMARTS_HOT_CODE std::uint64_t fastForward(std::uint64_t maxRounds,
                                              core::WarmingMode mode);

    /** Execute up to @p maxRounds rounds with full dual-world timing. */
    SMARTS_HOT_CODE MixSegment detailedRun(std::uint64_t maxRounds);

    /**
     * Execute up to @p maxRounds rounds applying detailedRun's EXACT
     * state transitions without the timing bookkeeping — the
     * checkpoint capture pass's fast path (cf.
     * SimSession::warmAsDetailed).
     */
    SMARTS_HOT_CODE std::uint64_t warmAsDetailed(std::uint64_t maxRounds);

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
    /** A program's timing lane: the timing model over its port. */
    using LaneModel =
        core::BasicTimingModel<mem::SharedHierarchy::Port>;

    /**
     * Up to @p maxRounds rounds, each stepping every core in program
     * order and applying @p perStep to each (lane, StepInfo) —
     * the one stepping loop under fastForward, warmAsDetailed and
     * detailedRun. It is core::detail::stepLoop's round-robin form:
     * ArchCore::step and @p perStep expand in place. Returns the
     * COMPLETE rounds executed: a round in which any core's stream
     * ends is not counted and finishes the session.
     */
    template <typename PerStep>
    [[gnu::always_inline]] std::uint64_t
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
                perStep(lanes_[p], info);
            }
            ++rounds_;
        }
        return executed;
    }

    uarch::MachineConfig config_;
    std::vector<core::ArchCore> cores_;
    mem::SharedHierarchy shared_;
    std::vector<LaneModel> lanes_;
    std::uint64_t rounds_ = 0;
    bool finished_ = false;
};

} // namespace smarts::mp

#endif // SMARTS_MP_MIX_SESSION_HH
