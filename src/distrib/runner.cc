#include "distrib/runner.hh"

#include <chrono>
#include <filesystem>
#include <thread>

#include "core/session.hh"
#include "util/logging.hh"

namespace smarts::distrib {

namespace fs = std::filesystem;

Runner::Runner(std::string queueDir, std::string storeRoot,
               RunnerOptions options)
    : dir_(std::move(queueDir)), store_(std::move(storeRoot)),
      options_(std::move(options))
{
}

std::optional<JobManifest>
Runner::awaitManifest(double waitSeconds, std::string *error,
                      double pollMillis) const
{
    const std::string path = manifestPath(dir_);
    const auto deadline =
        // smarts-lint: allow(no-ambient-nondeterminism) the manifest
        // wait deadline bounds how long the runner polls; expiry
        // refuses rather than degrading any result.
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(waitSeconds);
    PollBackoff backoff(pollMillis);
    std::string lastRefusal;
    for (;;) {
        std::error_code ec;
        if (fs::exists(path, ec)) {
            std::string why;
            if (std::optional<JobManifest> manifest =
                    JobManifest::load(path, &why))
                return manifest;
            // An unloadable manifest is not the end of the wait: it
            // may be a leftover from an incompatible build the
            // leader is ABOUT to replace (publishStudy resets such
            // queues). Keep polling; surface the latest refusal if
            // nothing loadable appears by the deadline.
            lastRefusal = std::move(why);
        }
        // smarts-lint: allow(no-ambient-nondeterminism) manifest
        // wait deadline: a timeout REFUSES (no partial results),
        // so wall time only decides between answer and error.
        if (std::chrono::steady_clock::now() >= deadline) {
            if (error)
                *error =
                    lastRefusal.empty()
                        ? log::format("no manifest appeared at ",
                                      path, " within ", waitSeconds,
                                      "s")
                        : log::format(
                              "no loadable manifest at ", path,
                              " within ", waitSeconds,
                              "s (last refusal: ", lastRefusal, ")");
            return std::nullopt;
        }
        std::this_thread::sleep_for(
            // smarts-lint: allow(no-ambient-nondeterminism) poll
            // backoff sleep paces queue-directory scans; it cannot
            // reach an estimate or a serialized byte.
            std::chrono::duration<double, std::milli>(
                backoff.nextMs()));
    }
}

bool
Runner::tick()
{
    if (!heartbeatPath_.empty()) {
        // smarts-lint: allow(no-ambient-nondeterminism) heartbeat
        // throttle: decides WHEN to refresh a claim marker's
        // mtime, never what any job computes.
        const auto now = std::chrono::steady_clock::now();
        if (options_.heartbeatSeconds <= 0.0 ||
            // smarts-lint: allow(no-ambient-nondeterminism) an
            // elapsed-since-last-beat compare, pacing only.
            std::chrono::duration<double>(now - lastBeat_).count() >=
                options_.heartbeatSeconds) {
            touchClaim(heartbeatPath_);
            lastBeat_ = now;
        }
    }
    return !cancelledNow();
}

std::size_t
Runner::drain(const JobManifest &manifest)
{
    std::size_t executed = 0;
    // Sweep until a full pass claims nothing: the leader may SPLIT
    // ranges mid-drain (a runner joined), so the live partition is
    // re-scanned between sweeps.
    for (;;) {
        if (cancelledNow())
            break;
        const std::vector<UnitRange> ranges = listRanges(dir_);
        if (ranges.empty())
            break;
        std::size_t claimed = 0;
        for (const auto &[c, r] :
             claimOrder(manifest, ranges, options_.id)) {
            if (cancelledNow())
                return executed;
            if (!claimJob(dir_, c, r, options_.id,
                          options_.staleClaimSeconds))
                continue;
            ++claimed;
            heartbeatPath_ = claimPath(dir_, c, r);
            // smarts-lint: allow(no-ambient-nondeterminism) the
            // heartbeat epoch is claim-liveness only; which units
            // run where never changes their byte-exact results.
            lastBeat_ = std::chrono::steady_clock::now();
            if (options_.onExecute)
                options_.onExecute(log::format("c", c, "_") +
                                   rangeName(r));
            const std::optional<ShardResult> result =
                executeRange(manifest, c, r);
            heartbeatPath_.clear();
            if (!result)
                return executed; // cancelled mid-job: abandon.
            std::string error;
            if (!publishResult(dir_, *result, &error))
                SMARTS_FATAL("runner ", options_.id,
                             ": cannot publish result for job "
                             "(config ", c, ", units [",
                             r.firstUnit, ", +", r.unitCount,
                             ")): ", error);
            ++executed;
        }
        if (!claimed)
            break;
    }
    return executed;
}

std::optional<ShardResult>
Runner::executeRange(const JobManifest &manifest,
                     std::uint32_t config, const UnitRange &range)
{
    const core::LivePointLibrary &library =
        livePointsFor(manifest, config);
    core::SimSession session(manifest.benchmark,
                             manifest.configs[config]);

    ShardResult result;
    result.studyId = manifest.studyId;
    result.configIndex = config;
    result.range = range;
    result.key = manifest.keyFor(config);
    result.slice = core::SystematicSampler(manifest.sampling)
                       .measureUnits(session, library,
                                     range.firstUnit,
                                     range.unitCount,
                                     [this] { return tick(); });
    if (cancelledNow())
        return std::nullopt;
    return result;
}

const core::LivePointLibrary &
Runner::livePointsFor(const JobManifest &manifest, std::uint32_t c)
{
    if (cachedStudyId_ != manifest.studyId) {
        livePointLibraries_.clear();
        cachedStudyId_ = manifest.studyId;
    }
    const auto cached = livePointLibraries_.find(c);
    if (cached != livePointLibraries_.end())
        return cached->second;

    const core::LibraryKey key = manifest.keyFor(c);
    std::string error;
    bool mismatch = false;
    if (std::optional<core::LivePointLibrary> loaded =
            store_.tryLoadLivePoints(key, &error)) {
        if (loaded->unitCount() == manifest.totalUnits &&
            loaded->streamLength() == manifest.streamLength)
            return livePointLibraries_
                .emplace(c, std::move(*loaded))
                .first->second;
        mismatch = true;
        SMARTS_WARN("runner ", options_.id,
                    ": stored live-point library ",
                    store_.livePointPathFor(key), " has ",
                    loaded->unitCount(), " units over ",
                    loaded->streamLength(),
                    " instructions, but the manifest says ",
                    manifest.totalUnits, " over ",
                    manifest.streamLength, "; recapturing");
    } else if (!error.empty()) {
        SMARTS_WARN("runner ", options_.id, ": recapturing (",
                    error, ")");
    }

    // Fallback: capture live-points locally; persist the repair for
    // a missing or refused file (a healthy-but-mismatched one is
    // left alone — it may be what another study wants).
    core::SimSession session(manifest.benchmark,
                             manifest.configs[c]);
    core::LivePointLibrary built = core::LivePointLibrary::build(
        session, manifest.sampling);
    if (built.unitCount() != manifest.totalUnits ||
        built.streamLength() != manifest.streamLength)
        SMARTS_FATAL("runner ", options_.id,
                     ": locally captured live-points (",
                     built.unitCount(), " units over ",
                     built.streamLength(),
                     " instructions) disagree with the manifest (",
                     manifest.totalUnits, " over ",
                     manifest.streamLength,
                     ") — benchmark sources diverged?");
    if (!mismatch && !store_.saveLivePoints(built, key, &error))
        SMARTS_WARN("runner ", options_.id, ": could not persist ",
                    store_.livePointPathFor(key), " (", error, ")");
    return livePointLibraries_.emplace(c, std::move(built))
        .first->second;
}

} // namespace smarts::distrib
