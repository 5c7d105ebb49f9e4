/**
 * @file
 * MultiSession: one benchmark's instruction stream driving N machine
 * configurations in lockstep. The architectural interpretation —
 * the dominant cost of functional warming the paper's Table 6
 * measures at >99% of sampled runtime — happens once per step; each
 * config's caches, TLBs and predictors are warmed (or timed) from
 * the shared StepInfo. Because every config observes the identical
 * instruction sequence, per-unit measurements across configs are
 * matched pairs: the variance of their difference shrinks by the
 * inter-config correlation, which is what lets design studies use
 * far fewer sampled units for the same confidence on the comparison.
 */

#ifndef SMARTS_CORE_MULTI_SESSION_HH
#define SMARTS_CORE_MULTI_SESSION_HH

#include <cstdint>
#include <vector>

#include "core/arch.hh"
#include "core/timing.hh"
#include "uarch/config.hh"
#include "workloads/benchmark.hh"

namespace smarts::core {

/** One detailed segment, measured by every config simultaneously. */
struct MultiSegment
{
    std::uint64_t instructions = 0; ///< shared across configs.
    std::vector<Segment> per;       ///< one per config, same order.
};

class MultiSession
{
  public:
    MultiSession(const workloads::BenchmarkSpec &spec,
                 const std::vector<uarch::MachineConfig> &configs);

    /**
     * Execute up to @p maxInsts functionally, warming every config's
     * long-history state per @p mode from one interpretation pass.
     */
    SMARTS_HOT_CODE std::uint64_t fastForward(std::uint64_t maxInsts,
                                              WarmingMode mode);

    /**
     * Execute up to @p maxInsts with every config's detailed timing
     * model consuming the same architectural stream.
     */
    SMARTS_HOT_CODE MultiSegment detailedRun(std::uint64_t maxInsts);

    /**
     * Execute up to @p maxInsts applying every config's detailedRun
     * state transitions (wrong-path pollution included) without the
     * timing bookkeeping — the multi-config checkpoint capture pass
     * (CheckpointLibrary::buildMulti): since the architectural
     * stream is config-independent, one interpretation pass leaves
     * every config's microarchitectural state bit-identical to what
     * its own serial capture would have produced.
     */
    SMARTS_HOT_CODE std::uint64_t warmAsDetailed(std::uint64_t maxInsts);

    /**
     * Snapshot the shared architectural state and every config's
     * timing state (resized to configCount()), in config order.
     */
    void saveState(ArchState &arch,
                   std::vector<TimingState> &timings) const;

    bool
    finished() const
    {
        return arch_.finished();
    }

    std::uint64_t
    instCount() const
    {
        return arch_.instCount();
    }

    std::size_t
    configCount() const
    {
        return models_.size();
    }

    const TimingModel &
    model(std::size_t i) const
    {
        return models_[i];
    }

  private:
    ArchCore arch_;
    std::vector<TimingModel> models_;
};

} // namespace smarts::core

#endif // SMARTS_CORE_MULTI_SESSION_HH
