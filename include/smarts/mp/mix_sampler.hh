/**
 * @file
 * MixSampler: the U/W/k systematic sampling loop applied to a co-run
 * (mp::MixSession), producing a MixEstimate — per program, a co-run
 * AND a would-be-solo SmartsEstimate from the SAME sampling units,
 * with matched-pair QoS statistics. Positions are in ROUNDS (one
 * instruction per program per round), so the solo world's schedule
 * maps one-to-one onto the schedule a true solo run of the same
 * U/W/k design executes in instructions — the bit-exactness claim
 * tests/test_shared_mem.cc pins.
 *
 * Execution modes are core::SystematicSampler's, from the same
 * code: serial run() and runSlice() are the shared measuring walk
 * (core/schedule.hh) with a per-lane dual-world observer, and
 * runSharded() (cold-pipelined, prebuilt MixLibrary, or store-backed
 * through the generic CheckpointStore::loadEntry/publishEntry hooks)
 * is the shared shard runner (core/shard_runner.hh). Every mode
 * folds per-unit observations in stream order, so each is
 * bit-identical to the serial run at any thread count
 * (tests/test_mix.cc).
 */

#ifndef SMARTS_MP_MIX_SAMPLER_HH
#define SMARTS_MP_MIX_SAMPLER_HH

#include <cstdint>
#include <vector>

#include "core/sampler.hh"
#include "mp/mix.hh"
#include "mp/mix_library.hh"
#include "mp/mix_session.hh"

namespace smarts::exec {
class ThreadPool;
} // namespace smarts::exec

namespace smarts::core {
class CheckpointStore;
} // namespace smarts::core

namespace smarts::mp {

/** One program's observations of one measured unit, both worlds. */
struct MixLaneObservation
{
    double coCpi = 0.0;
    double coEpi = 0.0;
    double soloCpi = 0.0;
    double soloEpi = 0.0;
    std::uint64_t sharedAccesses = 0;
    std::uint64_t sharedMisses = 0;
    std::uint64_t shadowAccesses = 0;
    std::uint64_t shadowMisses = 0;
};

/** One measured unit: every program observed the same round window. */
struct MixUnitObservation
{
    std::vector<MixLaneObservation> per;
};

/**
 * Raw results of one contiguous slice of the mix sampling loop — the
 * co-run instance of core::SliceOf, counters in rounds — so folding
 * slices in shard order reproduces the serial run bit for bit.
 */
using MixSliceResult = core::SliceOf<MixUnitObservation>;

class MixSampler
{
  public:
    MixSampler(const WorkloadMix &mix,
               const uarch::MachineConfig &machine,
               const core::SamplingConfig &sampling);

    /** Fresh co-run session at round 0. */
    MixSession makeSession() const;

    /**
     * The mix's dynamic stream length in ROUNDS (= the shortest
     * program's dynamic instruction count): one functional pass,
     * the same contract solo streamLength estimation has.
     */
    std::uint64_t measureStreamLength() const;

    /** Serial run to end of stream, sampling systematically. */
    MixEstimate run() const;

    /**
     * Checkpoint-sharded run, cold: plan the round grid, stream the
     * capture pass, execute shards on @p pool as their checkpoints
     * materialize, fold in shard order — bit-identical to run() at
     * any shard and thread count.
     */
    MixEstimate runSharded(std::uint64_t streamLength,
                           std::size_t shards,
                           exec::ThreadPool &pool) const;

    /** Sharded run resuming from a prebuilt MixLibrary (no capture). */
    MixEstimate runSharded(const MixLibrary &library,
                           exec::ThreadPool &pool) const;

    /**
     * Store-backed sharded run: consult @p store under
     * mixKey(mix, machine, sampling) before capturing; on a miss,
     * run cold and persist the captured library (flavor-1 `.smck`).
     */
    MixEstimate runSharded(std::uint64_t streamLength,
                           std::size_t shards,
                           exec::ThreadPool &pool,
                           core::CheckpointStore &store) const;

    /** One shard's slice (public so tests can pin slice semantics). */
    MixSliceResult runSlice(MixSession &session,
                            const core::ShardSpec &shard) const;

    /**
     * Accumulate a slice by replaying per-unit observations in
     * stream order (replay, never OnlineStats::merge — the
     * bit-identity contract). @p est must have one perProgram entry
     * per lane. Slices MUST fold in shard (stream) order.
     */
    static void foldSlice(MixEstimate &est,
                          const MixSliceResult &slice);

    const core::SamplingConfig &
    samplingConfig() const
    {
        return sampling_;
    }

    const WorkloadMix &
    mix() const
    {
        return mix_;
    }

  private:
    WorkloadMix mix_;
    uarch::MachineConfig machine_;
    core::SamplingConfig sampling_;
};

/**
 * Sample @p mix on @p machine with @p sampling: serial when
 * @p threads <= 1, checkpoint-sharded otherwise (the stream length
 * comes from one functional pass). The estimate is bit-identical at
 * every thread count.
 */
MixEstimate runMix(const WorkloadMix &mix,
                   const uarch::MachineConfig &machine,
                   const core::SamplingConfig &sampling,
                   std::size_t threads = 1);

/**
 * Store-backed runMix: resume the capture from @p store when a
 * flavor-1 library is persisted for the key, else capture and
 * persist. Same bytes either way. The stream-length pass that plans
 * the capture runs only on a miss: a hit never pays for it.
 */
MixEstimate estimateMix(const WorkloadMix &mix,
                        const uarch::MachineConfig &machine,
                        const core::SamplingConfig &sampling,
                        std::size_t threads,
                        core::CheckpointStore &store);

} // namespace smarts::mp

#endif // SMARTS_MP_MIX_SAMPLER_HH
