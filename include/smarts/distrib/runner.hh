/**
 * @file
 * The runner side of the distributed protocol: a Runner process (or
 * thread) points at a queue directory and a local copy of the
 * shipped CheckpointStore, waits for the leader's manifest, then
 * claims and executes unit-range jobs until none remain. Execution
 * goes through the exact machinery the in-process live-point paths
 * use — load the config's `.smlp` library from the store, run
 * SystematicSampler::measureUnits over the range — so a result
 * produced on another host folds into an estimate bit-identical to
 * serial run().
 *
 * A runner that finds no usable library in its store (missing,
 * refused, or one whose unit count disagrees with the manifest's)
 * falls back to capturing one itself: slower, never wrong. A leader
 * that ships the store (ensureStudyLivePoints) makes this fallback
 * cold-path only.
 */

#ifndef SMARTS_DISTRIB_RUNNER_HH
#define SMARTS_DISTRIB_RUNNER_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "core/checkpoint_store.hh"
#include "core/livepoint.hh"
#include "distrib/protocol.hh"

namespace smarts::distrib {

struct RunnerOptions
{
    /** Claim-marker identity; also shows up in diagnostics. */
    std::string id = "runner";

    /**
     * Abandoned-claim recovery window: a claim older than this with
     * no result may be re-claimed (docs/distributed-runners.md
     * § Crash and retry). Negative disables stealing.
     */
    double staleClaimSeconds = -1.0;

    /**
     * Seconds between claim heartbeats: while a job executes, the
     * runner touchClaim()s its marker between units at this cadence,
     * so a LIVE long job never ages past the steal window — only
     * genuinely dead claims do. Non-positive heartbeats every unit.
     */
    double heartbeatSeconds = 0.5;

    /**
     * Cooperative kill switch, polled between units: once it
     * returns true the runner abandons the job in flight (claim
     * left in place to age stale; the partial result is discarded,
     * never published) and stops draining. The chaos tests use this
     * to kill a runner mid-drain.
     */
    std::function<bool()> cancelled;

    /**
     * Observation hook: called with a job's name ("c1_u40_n20") as
     * its execution starts. Tests and the scaling
     * bench tally duplicate executions with it.
     */
    std::function<void(const std::string &)> onExecute;
};

class Runner
{
  public:
    Runner(std::string queueDir, std::string storeRoot,
           RunnerOptions options = {});

    /**
     * Poll for a LOADABLE manifest for up to @p waitSeconds. A
     * manifest file that refuses to load (e.g. a leftover
     * incompatible one the leader is about to replace) does NOT end
     * the wait — the runner keeps polling until the deadline and
     * surfaces the last refusal reason on timeout. @p pollMillis
     * seeds the idle-poll backoff (PollBackoff): polls start that
     * far apart and double toward ~1 s while nothing loads.
     */
    std::optional<JobManifest>
    awaitManifest(double waitSeconds, std::string *error = nullptr,
                  double pollMillis = 100.0) const;

    /**
     * Drain the study's jobs: probe them in this runner's
     * claimOrder() permutation (big ranges first, decorrelated
     * across runners), claim, execute, publish atomically. The live
     * ranges are re-scanned between sweeps so ranges split
     * mid-drain are picked up. Returns the number of jobs this call
     * executed (0 = everything was done or claimed elsewhere).
     */
    std::size_t drain(const JobManifest &manifest);

    /**
     * Execute job (@p config, @p range) regardless of claims:
     * measure live-point slots [range.firstUnit, +range.unitCount)
     * of @p config's `.smlp` library (store-cached; captured on a
     * miss). drain() calls this after winning a claim; tests call it
     * directly to provoke duplicate execution (the result bytes are
     * identical either way, which is what makes duplicated claims
     * benign). Nullopt when the cancelled hook fired mid-job — the
     * partial result must not be published.
     */
    std::optional<ShardResult>
    executeRange(const JobManifest &manifest, std::uint32_t config,
                 const UnitRange &range);

    const std::string &
    queueDir() const
    {
        return dir_;
    }

  private:
    /** Load (or capture, on a store miss) config @p c's live-point
     *  library. */
    const core::LivePointLibrary &
    livePointsFor(const JobManifest &manifest, std::uint32_t c);

    bool
    cancelledNow() const
    {
        return options_.cancelled && options_.cancelled();
    }

    /** The per-unit ProgressTick: heartbeat the held claim, then
     *  report liveness (false = abandon the slice). */
    bool tick();

    std::string dir_;
    core::CheckpointStore store_;
    RunnerOptions options_;

    /** Claim marker of the job in flight ('' when idle). */
    std::string heartbeatPath_;
    // smarts-lint: allow(no-ambient-nondeterminism) monotonic
    // heartbeat stamp: throttles claim-marker mtime refreshes and
    // is never serialized or folded into an estimate.
    std::chrono::steady_clock::time_point lastBeat_{};

    /**
     * Per-config libraries of the study last executed, invalidated
     * by study id: a long-lived runner serving successive manifests
     * must never measure study B's units from study A's warm state
     * (the published key would still echo B's, so the leader could
     * not catch it — the cache has to be correct by construction).
     */
    std::uint64_t cachedStudyId_ = 0;
    std::map<std::uint32_t, core::LivePointLibrary> livePointLibraries_;
};

} // namespace smarts::distrib

#endif // SMARTS_DISTRIB_RUNNER_HH
