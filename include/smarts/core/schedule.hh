/**
 * @file
 * The SMARTS sampling schedule, written once for every session
 * type. SamplingConfig is the paper's U/W/k/j design; the two walks
 * below are the only code that steps a session along its grid:
 *
 *  - detail::measureWalk — fast-forward each gap in the warming
 *    mode, detailed-warm W, measure U, run the tail out. A per-unit
 *    observer turns each complete unit's segment into the tier's
 *    observation (core::UnitObservation, one per config for a
 *    MultiSession, mp::MixUnitObservation for a co-run).
 *  - detail::captureWalk — the same schedule with state-equivalent
 *    warming (warmAsDetailed over the detailed windows) and hooks at
 *    each iteration start (shard checkpoints) and unit start
 *    (live-points).
 *
 * Both are templates over the stepping surface SimSession,
 * MultiSession and mp::MixSession share: fastForward, detailedRun,
 * warmAsDetailed, finished and instCount (rounds, for a mix).
 * Positions are read back from instCount(), so a session's own
 * counter is the single source of truth. The capture walk needs no
 * detailedRun, so it also runs over core::SplitCapture
 * (core/capture.hh), the solo capture that interprets on the
 * calling thread and warms the memory hierarchy on a second one;
 * every solo capture steps it, not the SimSession.
 */

#ifndef SMARTS_CORE_SCHEDULE_HH
#define SMARTS_CORE_SCHEDULE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "core/timing.hh"
#include "util/logging.hh"

namespace smarts::core {

/**
 * Called between sampled units of a slice: a liveness/progress hook
 * for long executions (the distributed runner heartbeats its claim
 * marker here). Return false to ABANDON the slice — the loop stops
 * where it is and the partial result must not be published or
 * folded.
 */
using ProgressTick = std::function<bool()>;

struct SamplingConfig
{
    std::uint64_t unitSize = 1000;      ///< U.
    std::uint64_t detailedWarming = 2000; ///< W.
    std::uint64_t interval = 10;        ///< k, in units.
    std::uint64_t offset = 0;           ///< first measured unit index.
    WarmingMode warming = WarmingMode::Functional;

    /**
     * Pick k so that roughly @p targetUnits units of @p unitSize are
     * measured out of a @p totalInsts stream (never below 1).
     * Rounds to the NEAREST interval: truncation used to turn e.g.
     * units=1999, target=1000 into k=1 and measure ~2x the requested
     * units (with the detailed-simulation bill to match).
     */
    static std::uint64_t
    chooseInterval(std::uint64_t totalInsts, std::uint64_t unitSize,
                   std::uint64_t targetUnits)
    {
        const std::uint64_t units =
            unitSize ? totalInsts / unitSize : 0;
        if (!targetUnits || units <= targetUnits)
            return 1;
        // Round half up, overflow-free: bump the quotient when the
        // remainder reaches half the divisor.
        const std::uint64_t k = units / targetUnits +
                                (units % targetUnits >=
                                         (targetUnits + 1) / 2
                                     ? 1
                                     : 0);
        return k ? k : 1;
    }

    /**
     * First grid index at or after instruction position @p pos,
     * starting from grid index @p idx (any index of the form
     * offset + m*interval). O(1) arithmetic — the sampler's resume
     * path used to step the index one interval per loop iteration.
     */
    std::uint64_t
    nextGridIndex(std::uint64_t idx, std::uint64_t pos) const
    {
        const std::uint64_t firstWhole =
            unitSize ? (pos + unitSize - 1) / unitSize : 0;
        if (firstWhole <= idx)
            return idx;
        const std::uint64_t steps =
            (firstWhole - idx + interval - 1) / interval;
        return idx + steps * interval;
    }
};

/**
 * Field-for-field equality — the ONE definition behind every "built
 * for a different sampling design" refusal (prebuilt shard and mix
 * libraries, live-point libraries, the library key), so a future
 * design field cannot be checked by one path and missed by another.
 */
inline bool
operator==(const SamplingConfig &a, const SamplingConfig &b)
{
    return a.unitSize == b.unitSize &&
           a.detailedWarming == b.detailedWarming &&
           a.interval == b.interval && a.offset == b.offset &&
           a.warming == b.warming;
}

inline bool
operator!=(const SamplingConfig &a, const SamplingConfig &b)
{
    return !(a == b);
}

/**
 * Raw results of one contiguous slice of the sampling loop, for any
 * per-unit observation type: everything an estimate accumulates,
 * verbatim, so folding slices in stream order reproduces the serial
 * run bit for bit. Counters are in the session's positions
 * (instructions, or rounds for a co-run).
 */
template <typename Obs>
struct SliceOf
{
    std::vector<Obs> obs; ///< per complete unit, stream order.
    std::uint64_t measured = 0;
    std::uint64_t warmed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t endPos = 0; ///< session position at slice end.
};

namespace detail {

/** Run the stream out so the session's position is its true length. */
template <typename Session>
void
runOut(Session &session, WarmingMode mode)
{
    while (!session.finished())
        session.fastForward(~0ull >> 1, mode);
}

/**
 * Step to grid unit @p unitIdx's iteration start: fast-forward the
 * gap up to W before the unit in the warming mode. False when the
 * stream ended (or the index is past any representable position, so
 * unitIdx * U stays overflow-free) — the schedule is over.
 */
template <typename Session>
bool
reachIteration(Session &session, const SamplingConfig &config,
               std::uint64_t unitIdx)
{
    if (session.finished() || unitIdx > ~0ull / config.unitSize)
        return false;
    const std::uint64_t unitStart = unitIdx * config.unitSize;
    const std::uint64_t warmStart =
        unitStart > config.detailedWarming
            ? unitStart - config.detailedWarming
            : 0;
    const std::uint64_t pos = session.instCount();
    if (warmStart > pos)
        session.fastForward(warmStart - pos, config.warming);
    return !session.finished();
}

/**
 * One iteration's detailed part, from its start: detailed warming up
 * to the unit at @p unitStart (timing on, measurement discarded),
 * then the measured unit. A complete unit is observed into
 * @p slice; a truncated final unit is detailed-simulation cost that
 * produced no observation, tracked apart as `dropped`. False when
 * the stream ended during warming (nothing measured).
 */
template <typename Session, typename Obs, typename Observe>
bool
measureUnit(Session &session, const SamplingConfig &config,
            std::uint64_t unitStart, SliceOf<Obs> &slice,
            Observe &observe)
{
    const std::uint64_t pos = session.instCount();
    if (unitStart > pos) {
        session.detailedRun(unitStart - pos);
        slice.warmed += session.instCount() - pos;
        if (session.finished())
            return false;
    }
    const std::uint64_t before = session.instCount();
    const auto seg = session.detailedRun(config.unitSize);
    const std::uint64_t length = session.instCount() - before;
    if (length == config.unitSize) {
        slice.measured += length;
        slice.obs.push_back(observe(seg));
    } else {
        slice.dropped += length;
    }
    return true;
}

/**
 * The measuring walk over one slice of the unit grid: from grid
 * index @p startIdx (jumping in O(1) past a resumed session's
 * position), measure at most @p maxUnits units, then — when
 * @p runTail — run the stream out so endPos is the true length.
 * @p tick fires between units; false abandons the slice (partial,
 * not publishable, tail skipped). Every sampling mode of every tier
 * executes this loop, so none can drift from the serial semantics.
 */
template <typename Obs, typename Session, typename Observe>
SliceOf<Obs>
measureWalk(Session &session, const SamplingConfig &config,
            std::uint64_t startIdx, std::uint64_t maxUnits,
            bool runTail, Observe &&observe,
            const ProgressTick &tick = {})
{
    SliceOf<Obs> slice;
    bool abandoned = false;
    std::uint64_t unitIdx =
        config.nextGridIndex(startIdx, session.instCount());
    for (std::uint64_t done = 0;
         done < maxUnits && reachIteration(session, config, unitIdx);
         ++done, unitIdx += config.interval) {
        if (!measureUnit(session, config, unitIdx * config.unitSize,
                         slice, observe))
            break;
        if (tick && !tick()) {
            abandoned = true;
            break;
        }
    }
    if (runTail && !abandoned)
        runOut(session, config.warming);
    slice.endPos = session.instCount();
    return slice;
}

/**
 * The capture walk: the serial schedule with state-equivalent
 * warming — fastForward over the gaps (identical to the serial run),
 * warmAsDetailed over the warming and measured windows (identical
 * state transitions, no timing) — so the session's state at every
 * iteration start is bit-identical to the serial run's there.
 * @p atIteration(unitIdx) fires at each iteration start BEFORE the
 * gap is fast-forwarded and returns false to stop the walk (shard
 * checkpoints sit there: just after the previous unit);
 * @p atUnit(unitIdx) fires after it, at the iteration start the
 * measured unit resumes from (live-points sit there). The stream is
 * not run out: callers that need the true length call runOut().
 */
template <typename Session, typename AtIteration, typename AtUnit>
void
captureWalk(Session &session, const SamplingConfig &config,
            AtIteration &&atIteration, AtUnit &&atUnit)
{
    if (!config.unitSize || !config.interval)
        SMARTS_FATAL("capture needs nonzero unit size and interval");
    std::uint64_t unitIdx =
        config.nextGridIndex(config.offset, session.instCount());
    for (; atIteration(unitIdx) &&
           reachIteration(session, config, unitIdx);
         unitIdx += config.interval) {
        atUnit(unitIdx);
        const std::uint64_t unitStart = unitIdx * config.unitSize;
        const std::uint64_t pos = session.instCount();
        if (unitStart > pos)
            session.warmAsDetailed(unitStart - pos);
        session.warmAsDetailed(config.unitSize);
    }
}

} // namespace detail

} // namespace smarts::core

#endif // SMARTS_CORE_SCHEDULE_HH
