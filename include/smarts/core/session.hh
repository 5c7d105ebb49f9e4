/**
 * @file
 * SimSession: one benchmark bound to one machine, executable in the
 * three speeds the paper's rate model names — pure functional
 * (S_F, fastForward with WarmingMode::None), functional warming
 * (S_FW, fastForward updating caches/TLBs/predictors in program
 * order), and detailed (S_D, detailedRun with the full timing and
 * energy model). All modes share one architectural and one
 * microarchitectural state, so interleaving them implements the
 * SMARTS measurement cycle.
 *
 * Internally a SimSession is an ArchCore (core/arch.hh) driving one
 * TimingModel (core/timing.hh); MultiSession (core/multi_session.hh)
 * drives N TimingModels from the same stream for matched-pair
 * multi-config studies.
 */

#ifndef SMARTS_CORE_SESSION_HH
#define SMARTS_CORE_SESSION_HH

#include <cstdint>
#include <vector>

#include "core/arch.hh"
#include "core/timing.hh"
#include "uarch/config.hh"
#include "workloads/program.hh"

namespace smarts::core {

class SimSession
{
  public:
    SimSession(const workloads::BenchmarkSpec &spec,
               const uarch::MachineConfig &config);

    /**
     * Execute up to @p maxInsts functionally, warming per @p mode.
     * Returns the number of instructions executed by this call
     * (less than @p maxInsts only at end of stream).
     */
    SMARTS_HOT_CODE std::uint64_t fastForward(std::uint64_t maxInsts,
                                              WarmingMode mode);

    /** Execute up to @p maxInsts with the detailed timing model. */
    SMARTS_HOT_CODE Segment detailedRun(std::uint64_t maxInsts);

    /**
     * Execute up to @p maxInsts applying detailedRun's exact
     * microarchitectural state transitions (including wrong-path
     * pollution and predictor lookup traffic) without the timing
     * bookkeeping: the transitions a capture pass applies over the
     * regions a serial sampling run simulates in detail, so the
     * captured state matches the serial run's bit for bit. Capture
     * itself runs them with the memory hierarchy on a second thread
     * (core/capture.hh); this fused form is the per-instruction
     * reference the split capture is tested against.
     */
    SMARTS_HOT_CODE std::uint64_t warmAsDetailed(std::uint64_t maxInsts);

    /** Snapshot the full simulator state (core/checkpoint.hh). */
    void
    saveState(ArchState &arch, TimingState &timing) const
    {
        arch_.saveState(arch);
        model_.saveState(timing);
    }

    /** Resume from a snapshot of a same-spec, same-config session. */
    void
    restoreState(const ArchState &arch, const TimingState &timing)
    {
        arch_.restoreState(arch);
        model_.restoreState(timing);
    }

    /**
     * Functional profiling pass to end of stream: per-interval
     * basic-block vectors projected into @p dims buckets (the
     * SimPoint front end). Intervals are @p intervalSize
     * instructions; a final partial interval is dropped.
     */
    std::vector<std::vector<double>>
    profileBbvs(std::uint64_t intervalSize, std::size_t dims);

    bool
    finished() const
    {
        return arch_.finished();
    }

    /** Instructions executed so far, all modes. */
    std::uint64_t
    instCount() const
    {
        return arch_.instCount();
    }

    /** Exact detailed cycles so far (fractional issue slots kept). */
    double
    cycleCount() const
    {
        return model_.cycleCount();
    }

    /** Detailed energy so far, nanojoules. */
    double
    energyCount() const
    {
        return model_.energyCount();
    }

    const Activity &
    activity() const
    {
        return model_.activity();
    }

    std::uint32_t
    pc() const
    {
        return arch_.pc();
    }

    const uarch::MachineConfig &
    config() const
    {
        return model_.config();
    }

  private:
    friend class SplitCapture; // steps it on two threads.

    ArchCore arch_;
    TimingModel model_;
};

} // namespace smarts::core

#endif // SMARTS_CORE_SESSION_HH
