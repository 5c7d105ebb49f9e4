/**
 * @file
 * The leader side of the distributed protocol: ship the study's
 * live-point libraries in the checkpoint store, plan the study as
 * unit-range jobs, publish the manifest, re-grain the remaining
 * ranges when runners join, and fold a tiling of completed range
 * results into per-config SmartsEstimates that are bit-identical to
 * serial SystematicSampler::run() at any runner count. The leader
 * REFUSES — never silently merges — a result file that is
 * truncated, corrupt, version-bumped, mis-keyed or from another
 * study (docs/distributed-runners.md § Result refusals).
 */

#ifndef SMARTS_DISTRIB_LEADER_HH
#define SMARTS_DISTRIB_LEADER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint_store.hh"
#include "core/sampler.hh"
#include "distrib/protocol.hh"
#include "distrib/runner.hh"

namespace smarts::distrib {

/** What ensureStudyLivePoints() learned about a study's stream. */
struct LivePointPlan
{
    std::uint64_t totalUnits = 0;   ///< live-points per library.
    std::uint64_t streamLength = 0; ///< true dynamic length.
    std::size_t captured = 0;       ///< libraries this call captured.
};

/**
 * Ship a study's store: capture the `.smlp` live-point libraries for
 * every config (one streaming pass, misses only —
 * CheckpointStore::ensureLivePoints), then report the unit count and
 * stream length the manifest must carry. Runners sharing the store
 * never pay capture cost. Fatal if a library still refuses to load
 * after capture.
 */
LivePointPlan
ensureStudyLivePoints(const core::CheckpointStore &store,
                      const workloads::BenchmarkSpec &spec,
                      const std::vector<uarch::MachineConfig> &configs,
                      const core::SamplingConfig &sampling);

/**
 * Build the manifest of a study: ONE benchmark and sampling design,
 * N machine configs, its jobs seeded as an even partition of
 * [0, totalUnits) into at most @p jobs unit ranges. The live
 * partition evolves in `<queue>/ranges/` — splitRemainingRanges
 * halves unclaimed ranges when runners join — and merge tiles
 * whatever result granularity it finds, so the estimate stays
 * bit-identical to serial run() through any split history.
 * @p totalUnits / @p streamLength come from ensureStudyLivePoints.
 * The study id is a deterministic digest of every field, so
 * republishing the identical study accepts prior (bit-identical)
 * results while any other manifest's results refuse.
 */
JobManifest
planStudy(const workloads::BenchmarkSpec &spec,
          const std::vector<uarch::MachineConfig> &configs,
          const core::SamplingConfig &sampling,
          std::uint64_t streamLength, std::uint64_t totalUnits,
          std::size_t jobs);

/**
 * Halve every live range that no runner has claimed (any config)
 * and no result covers, down to @p minUnits per child: the elastic
 * response to a runner JOINING mid-study — remaining work re-grains
 * so the newcomer gets a fair share instead of idling behind big
 * claims. Child markers are published before the parent marker is
 * removed, so a racing claim of the parent stays mergeable (the
 * tiling merge accepts either granularity). Returns the number of
 * ranges split.
 */
std::size_t splitRemainingRanges(const std::string &dir,
                                 const JobManifest &manifest,
                                 std::uint64_t minUnits = 8);

/**
 * Publish @p manifest into @p dir (atomic temp+rename). A queue
 * holding a DIFFERENT study (by studyId) — or no loadable manifest
 * — is reset first: its claims would shadow live work and its
 * results would refuse at merge anyway. Republishing the IDENTICAL
 * study keeps claims and results: they are bit-identical by
 * contract, so a restarted leader reuses them without
 * re-execution.
 */
bool publishStudy(const std::string &dir, const JobManifest &manifest,
                  std::string *error = nullptr);

/** True when, for every config, the published results tile
 *  [0, totalUnits) — at any granularity the split history
 *  produced. */
bool studyComplete(const std::string &dir,
                   const JobManifest &manifest);

/**
 * Fold a tiling of the result files into per-config estimates, in
 * unit order per config — the same foldSlice replay order the
 * in-process paths use, so each estimate is bit-identical to serial
 * run() under that config. Nullopt with a diagnostic if ANY result
 * file refuses validation or the results leave a gap; a partial or
 * suspect study never yields an estimate.
 */
std::optional<std::vector<core::SmartsEstimate>>
mergeStudy(const std::string &dir, const JobManifest &manifest,
           std::string *error = nullptr);

/**
 * Wait for the study to complete, then merge. @p helper (optional)
 * is a Runner the leader uses to execute still-unclaimed jobs while
 * it waits — a leader with a helper makes progress even with zero
 * external runners. A runner id never seen among the claims before
 * (a runner JOINED mid-study) splits the remaining ranges
 * (splitRemainingRanges) so the newcomer gets a fair share; the
 * claimants of the first poll that finds any are the baseline, so
 * the study's first runners never count as joins. A
 * result file that refuses validation is QUARANTINED (result +
 * claim deleted, with a logged diagnostic) and its job
 * re-executed, so one poisoned file cannot wedge a live study; the
 * timeout still bounds everything. Nullopt with a
 * diagnostic on timeout or unrecoverable refusal.
 *
 * @p pollMillis seeds the idle-poll backoff (PollBackoff): polls
 * start that far apart and double toward ~1 s while nothing
 * changes, resetting whenever the helper makes progress or a
 * refused result is quarantined.
 */
std::optional<std::vector<core::SmartsEstimate>>
collectStudy(const std::string &dir, const JobManifest &manifest,
             double timeoutSeconds, Runner *helper = nullptr,
             std::string *error = nullptr,
             double pollMillis = 100.0);

} // namespace smarts::distrib

#endif // SMARTS_DISTRIB_LEADER_HH
