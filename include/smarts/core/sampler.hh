/**
 * @file
 * SystematicSampler: the paper's U/W/k sampling-unit geometry. The
 * stream is viewed as N = length/U contiguous units; every k-th
 * unit (starting at unit index `offset`, the paper's random or
 * phase-swept j) is measured in detail, preceded by W instructions
 * of detailed warming; everything between is fast-forwarded in the
 * configured warming mode. The result is a SmartsEstimate: per-unit
 * CPI/EPI statistics with the paper's confidence intervals.
 */

#ifndef SMARTS_CORE_SAMPLER_HH
#define SMARTS_CORE_SAMPLER_HH

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "core/multi_session.hh"
#include "core/schedule.hh"
#include "core/session.hh"
#include "stats/confidence.hh"
#include "stats/online_stats.hh"

namespace smarts::exec {
class ThreadPool;
} // namespace smarts::exec

namespace smarts::core {

class CheckpointLibrary;
class CheckpointStore;
class EncodedLivePoints;
class LivePointLibrary;
struct ShardSpec;

/** Builds a fresh session at stream start (thread-safe, reentrant). */
using SessionFactory = std::function<std::unique_ptr<SimSession>()>;

/** One measured unit's observations, in stream order. */
struct UnitObservation
{
    double cpi = 0.0;
    double epi = 0.0;
};

/**
 * Raw results of one contiguous slice of the solo sampling loop —
 * the unit of work a shard (in-process or on a remote runner)
 * produces and the unit foldSlice() merges; this is also exactly
 * what a distributed unit-range result file carries
 * (docs/distributed-runners.md).
 */
using SliceResult = SliceOf<UnitObservation>;

namespace detail {

/** The solo per-unit observer: CPI and EPI of one complete unit. */
inline UnitObservation
observeUnit(const Segment &seg)
{
    const double insts = static_cast<double>(seg.instructions);
    return {static_cast<double>(seg.cycles) / insts,
            seg.energyNj / insts};
}

} // namespace detail

/** A sampled estimate of CPI and EPI with confidence intervals. */
struct SmartsEstimate
{
    stats::OnlineStats cpiStats; ///< per-unit CPI observations.
    stats::OnlineStats epiStats; ///< per-unit EPI observations (nJ).

    /** Instructions in COMPLETE units: always units() * U. */
    std::uint64_t instructionsMeasured = 0;
    std::uint64_t instructionsWarmed = 0; ///< detailed warming insts.

    /**
     * Detailed-simulated instructions of a truncated final unit:
     * they cost detailed-simulation time but produced no CPI/EPI
     * observation, so they are tracked apart from
     * instructionsMeasured (which previously absorbed them,
     * overstating the instructions behind the statistics).
     */
    std::uint64_t instructionsDropped = 0;
    std::uint64_t streamLength = 0;

    std::uint64_t
    units() const
    {
        return cpiStats.count();
    }

    double
    cpi() const
    {
        return cpiStats.mean();
    }

    double
    epi() const
    {
        return epiStats.mean();
    }

    double
    cpiCv() const
    {
        return cpiStats.cv();
    }

    double
    epiCv() const
    {
        return epiStats.cv();
    }

    /** Relative CI half-width at @p level (Eq. 2). */
    double
    cpiConfidenceInterval(double level) const
    {
        return stats::confidenceHalfWidth(cpiCv(), units(), level);
    }

    double
    epiConfidenceInterval(double level) const
    {
        return stats::confidenceHalfWidth(epiCv(), units(), level);
    }

    /**
     * Fraction of the stream simulated in detail (measure + warm +
     * the truncated final unit, which was detailed-simulated even
     * though it yielded no observation).
     */
    double
    detailedFraction() const
    {
        return streamLength
                   ? static_cast<double>(instructionsMeasured +
                                         instructionsWarmed +
                                         instructionsDropped) /
                         static_cast<double>(streamLength)
                   : 0.0;
    }

    /**
     * Bit-exact fingerprint of every field — statistical
     * accumulators and instruction counters, doubles compared by
     * bit pattern. This is the ONE definition behind every
     * bit-identity contract (the determinism test suites, the
     * golden bench columns, smarts_runner --serial-check): when the
     * estimate grows a field, adding it here tightens all of them
     * at once instead of silently narrowing one.
     */
    std::vector<std::uint64_t>
    fingerprint() const
    {
        auto bits = [](double v) {
            std::uint64_t b;
            std::memcpy(&b, &v, sizeof b);
            return b;
        };
        return {cpiStats.count(),     bits(cpiStats.mean()),
                bits(cpiStats.variance()),
                epiStats.count(),     bits(epiStats.mean()),
                bits(epiStats.variance()),
                instructionsMeasured, instructionsWarmed,
                instructionsDropped,  streamLength};
    }
};

/**
 * A matched multi-config estimate: per-config SmartsEstimates whose
 * sampled units are the identical instruction windows, plus the
 * per-unit CPI-difference statistics against config 0. Matched pairs
 * cancel the shared per-unit variance, so the confidence interval on
 * a design comparison (the delta, or the speedup) is far tighter
 * than combining two independent per-config intervals.
 */
struct MatchedEstimate
{
    std::vector<SmartsEstimate> perConfig;

    /** Per-unit (cpi_i - cpi_0) stats; index 0 is all-zero deltas. */
    std::vector<stats::OnlineStats> cpiDelta;

    /**
     * Point estimate of config @p i's speedup over config 0
     * (cpi_0 / cpi_i: above 1 when config i is the faster machine).
     */
    double
    speedup(std::size_t i) const
    {
        return perConfig[i].cpi() != 0.0
                   ? perConfig[0].cpi() / perConfig[i].cpi()
                   : 0.0;
    }

    /**
     * Absolute CI half-width on the mean CPI delta (config @p i
     * minus config 0) at @p level, from the matched per-unit pairs.
     */
    double
    deltaCiAbs(std::size_t i, double level) const
    {
        return stats::zScore(level) * cpiDelta[i].meanError();
    }

    /**
     * CI half-width on the delta relative to config 0's CPI — the
     * number to compare against an unmatched two-run CI, which is
     * sqrt(ci_0^2 + ci_i^2) in the same units.
     */
    double
    deltaCiRelative(std::size_t i, double level) const
    {
        return perConfig[0].cpi() != 0.0
                   ? deltaCiAbs(i, level) / perConfig[0].cpi()
                   : 0.0;
    }

    /**
     * What an unmatched (independent per-config runs) design
     * comparison would put on the same delta, relative to config 0:
     * the root-sum-square of the two per-config ABSOLUTE half-widths
     * (each relative CI rescaled by its own mean), over cpi_0.
     */
    double
    independentDeltaCiRelative(std::size_t i, double level) const
    {
        if (perConfig[0].cpi() == 0.0)
            return 0.0;
        const double a =
            perConfig[0].cpiConfidenceInterval(level) *
            perConfig[0].cpi();
        const double b =
            perConfig[i].cpiConfidenceInterval(level) *
            perConfig[i].cpi();
        return std::sqrt(a * a + b * b) / perConfig[0].cpi();
    }
};

/** Knobs of the anytime estimator (SystematicSampler::runAnytime). */
struct AnytimeOptions
{
    /**
     * Stop once the streaming CPI confidence interval at
     * target.level reaches +/- target.epsilon of the mean (Eq. 2).
     * epsilon = 0 never stops early: the run measures every
     * live-point, which is the completion mode whose estimate is
     * bit-identical to the serial run()'s.
     */
    stats::ConfidenceSpec target{};

    /** Seed of the deterministic measurement-order shuffle. */
    std::uint64_t seed = 1;

    /**
     * Units measured before the stop rule may fire: the CI is a CLT
     * statement and needs a minimum sample behind it (the paper
     * samples thousands; 32 is a floor, not a recommendation).
     */
    std::uint64_t minUnits = 32;

    /**
     * Units measured between stop-rule evaluations. Decisions happen
     * only at batch boundaries — data-independent cut points — so
     * the measured set is identical at any thread count.
     */
    std::uint64_t batch = 64;

    /**
     * Consecutive shuffle-order units per pool job: each job builds
     * ONE session and restores it per unit, amortizing session
     * construction without affecting the result (restore replaces
     * the full state). Purely a scheduling knob.
     */
    std::uint64_t chunk = 8;
};

/** What the anytime estimator produced and how hard it worked. */
struct AnytimeResult
{
    SmartsEstimate estimate;

    /** Live-points in the library (the fixed-n design's n). */
    std::uint64_t unitsAvailable = 0;

    /** Live-points actually measured (= n when run to completion). */
    std::uint64_t unitsMeasured = 0;

    /** True when the confidence target fired before completion. */
    bool earlyStopped = false;
};

class SystematicSampler
{
  public:
    explicit SystematicSampler(const SamplingConfig &config);

    /** Run the session to end of stream, sampling systematically. */
    SmartsEstimate run(SimSession &session) const;

    /**
     * Execute ONE shard's slice of the sampling loop on @p session
     * (fresh at stream start for shard 0, restored from the shard's
     * checkpoint otherwise). This is the slice entry point the
     * sharded overloads below share: the serial loop body is common
     * code, so no execution path can drift from run()'s semantics.
     */
    SliceResult runSlice(SimSession &session, const ShardSpec &shard,
                         const ProgressTick &tick = {}) const;

    /**
     * Measure live-point slots [firstUnit, firstUnit + unitCount) of
     * @p library — restore, detailed-warm W, measure U per unit,
     * with serial-identical accounting — into one SliceResult in
     * slot (= stream) order. This is the unit-range job body of the
     * distributed runner: folding range results in slot order
     * reproduces the serial run() bit for bit, exactly as fold of
     * runSlice results does for shards. @p tick fires between
     * units (see ProgressTick; an abandoned slice is partial and
     * must not be published). Implemented in livepoint.cc.
     */
    SliceResult measureUnits(SimSession &session,
                             const LivePointLibrary &library,
                             std::uint64_t firstUnit,
                             std::uint64_t unitCount,
                             const ProgressTick &tick = {}) const;

    /**
     * Accumulate a slice into @p est by replaying its per-unit
     * observations in stream order. Replay, not OnlineStats::merge:
     * Chan's merge rounds differently from sequential accumulation,
     * and every sharded/distributed path's contract is bit-identity
     * with run(). Slices MUST be folded in shard (stream) order.
     */
    static void foldSlice(SmartsEstimate &est,
                          const SliceResult &slice);

    /**
     * Matched-pair run: sample the shared stream once, measuring
     * every config of @p session on the identical units. One
     * functional-warming pass feeds all N timing models.
     */
    MatchedEstimate runMatched(MultiSession &session) const;

    /**
     * Checkpoint-sharded run of ONE benchmark's stream: the unit
     * grid is split into @p shards contiguous shards
     * (CheckpointLibrary::planShards), a capture pass streams the
     * serial schedule in state-equivalent warming modes and emits
     * each shard's resume checkpoint the moment it is reached, and
     * shards execute on @p pool as their checkpoints materialize
     * (shard 0 starts immediately). Per-shard results are merged in
     * shard order by replaying the per-unit observations through
     * the estimate's accumulators — replay rather than
     * stats::OnlineStats::merge because Chan's merge, while
     * algebraically exact, rounds differently from sequential
     * accumulation and the bar here is BIT-IDENTITY: the returned
     * SmartsEstimate equals run()'s byte for byte at any shard and
     * thread count (ctest-enforced by tests/test_checkpoint.cc).
     *
     * @p streamLength must be the benchmark's true dynamic length
     * (one functional pass, or a prior reference) — the same
     * contract SmartsProcedure::estimate already imposes.
     */
    SmartsEstimate runSharded(const SessionFactory &factory,
                              std::uint64_t streamLength,
                              std::size_t shards,
                              exec::ThreadPool &pool) const;

    /**
     * Sharded run resuming from a PREBUILT checkpoint library
     * (CheckpointLibrary::build): no capture pass in this call, so
     * the wall clock is the shard work divided by the pool — this
     * is the checkpoint-reuse fast path for tuned second passes and
     * repeated design studies over the same benchmark. The library
     * must have been built with this sampler's SamplingConfig
     * (fatal otherwise); the estimate is bit-identical to run()'s.
     */
    SmartsEstimate runSharded(const SessionFactory &factory,
                              const CheckpointLibrary &library,
                              exec::ThreadPool &pool) const;

    /**
     * Store-backed sharded run: consult @p store for a library keyed
     * by (@p spec, @p machine's warm-state geometry, this sampler's
     * design) BEFORE capturing. On a hit, shards resume from the
     * persisted warm state — the capture pass disappears from the
     * run entirely. On a miss (including a file that refuses to
     * load), fall back to the pipelined cold path, collect the
     * library as it is captured, and persist it for every later run.
     * Either way the estimate is bit-identical to the serial run()'s
     * (a hit ignores @p shards and uses the stored plan; any shard
     * count yields the same bytes).
     */
    SmartsEstimate runSharded(const SessionFactory &factory,
                              const workloads::BenchmarkSpec &spec,
                              const uarch::MachineConfig &machine,
                              std::uint64_t streamLength,
                              std::size_t shards,
                              exec::ThreadPool &pool,
                              CheckpointStore &store) const;

    /**
     * The third execution mode — ANYTIME over a live-point library
     * (core/livepoint.hh): measure units in the seeded-shuffle order
     * of @p options, in parallel across @p pool, feeding a streaming
     * OnlineStats confidence interval, and stop at the first batch
     * boundary where the target of @p options is met. The final
     * estimate is folded DETERMINISTICALLY — the measured units'
     * observations are replayed in stream order through the
     * accumulators, never OnlineStats::merge — so the result is
     * bit-identical at any thread count, and a run driven to
     * completion (options.target.epsilon = 0, or a target the
     * stream's variance cannot meet) equals the serial run()'s
     * estimate byte for byte (ctest-enforced by
     * tests/test_livepoint.cc). The library must have been built
     * with this sampler's SamplingConfig (fatal otherwise).
     */
    AnytimeResult runAnytime(const SessionFactory &factory,
                             const LivePointLibrary &library,
                             exec::ThreadPool &pool,
                             const AnytimeOptions &options = {}) const;

    /**
     * LEAPFROG cold path: no live-point library exists yet, so
     * capture and measurement overlap at per-unit grain instead of
     * one serial capture pass followed by measurement. The capture
     * schedule streams @p captureSession on the calling thread; the
     * moment a unit's live-point is taken it is handed to @p pool
     * (in chunk-sized groups, options.chunk) to be measured while
     * capture leapfrogs ahead to the next unit. After capture
     * drains, the anytime stop rule is REPLAYED over the complete
     * sample set — the identical seeded shuffle, batch boundaries
     * and streaming-CI arithmetic runAnytime applies while
     * measuring — so the returned AnytimeResult (estimate,
     * unitsMeasured, earlyStopped) is bit-identical to a warm-store
     * runAnytime over the same library, and a run to completion
     * equals the serial run() byte for byte (ctest-enforced by
     * tests/test_livepoint.cc at 1/2/5 threads). Unlike the warm
     * path, every unit is measured (the stop rule cannot fire
     * mid-capture without biasing the shuffle) — the overlap, not
     * early exit, is where the cold-path wall clock goes down.
     * No library is kept: only the previous chunk's last point
     * outlives the job that measures a chunk. @p persist (optional)
     * is the sink for a caller that stores what was captured: each
     * chunk job then also encodes its chunk's `.smlp` records, and
     * @p persist receives them, ready for one write
     * (EncodedLivePoints::save, CheckpointStore::saveLivePoints)
     * of the bytes LivePointLibrary::build + save would publish.
     */
    AnytimeResult
    runAnytimeLeapfrog(SimSession &captureSession,
                       const SessionFactory &factory,
                       exec::ThreadPool &pool,
                       const AnytimeOptions &options = {},
                       EncodedLivePoints *persist = nullptr) const;

  private:
    SamplingConfig config_;
};

} // namespace smarts::core

#endif // SMARTS_CORE_SAMPLER_HH
