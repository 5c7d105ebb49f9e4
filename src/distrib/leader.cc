#include "distrib/leader.hh"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "core/livepoint.hh"
#include "util/logging.hh"

namespace smarts::distrib {

namespace fs = std::filesystem;

namespace {

/** Publish an (empty) range marker file, creating ranges/. */
bool
writeMarker(const std::string &path)
{
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    return static_cast<bool>(out);
}

/**
 * Choose a tiling of [0, totalUnits) from the published result
 * ranges: at each cursor take the LARGEST range starting there
 * (split history makes ranges laminar — nested or disjoint — so
 * greedy-largest either tiles or nothing does). Nullopt = a gap, the
 * study is incomplete.
 */
std::optional<std::vector<UnitRange>>
tileResults(const std::vector<UnitRange> &avail,
            std::uint64_t totalUnits)
{
    std::vector<UnitRange> tiling;
    std::uint64_t cursor = 0;
    std::size_t i = 0;
    while (cursor < totalUnits) {
        while (i < avail.size() && avail[i].firstUnit < cursor)
            ++i;
        if (i == avail.size() || avail[i].firstUnit != cursor)
            return std::nullopt;
        tiling.push_back(avail[i]);
        cursor += avail[i].unitCount;
        ++i;
    }
    return tiling;
}

/** The distinct runner ids currently holding claims in @p dir. */
std::set<std::string>
claimantIds(const std::string &dir)
{
    std::set<std::string> ids;
    std::error_code ec;
    fs::directory_iterator it(fs::path(dir) / "claims", ec);
    if (ec)
        return ids;
    for (const fs::directory_entry &entry : it) {
        if (entry.path().extension() != ".claim")
            continue;
        std::ifstream in(entry.path());
        std::string id;
        if (in >> id)
            ids.insert(id);
    }
    return ids;
}

} // namespace

LivePointPlan
ensureStudyLivePoints(const core::CheckpointStore &store,
                      const workloads::BenchmarkSpec &spec,
                      const std::vector<uarch::MachineConfig> &configs,
                      const core::SamplingConfig &sampling)
{
    if (configs.empty())
        SMARTS_FATAL("a study needs at least one machine config");
    const std::size_t captured =
        store.ensureLivePoints(spec, configs, sampling);
    std::string why;
    const std::optional<core::LivePointLibrary> library =
        store.tryLoadLivePoints(
            core::LibraryKey::of(spec, configs[0], sampling), &why);
    if (!library)
        SMARTS_FATAL("live-point capture failed for ", spec.name,
                     ": ", why);
    return {library->unitCount(), library->streamLength(), captured};
}

JobManifest
planStudy(const workloads::BenchmarkSpec &spec,
          const std::vector<uarch::MachineConfig> &configs,
          const core::SamplingConfig &sampling,
          std::uint64_t streamLength, std::uint64_t totalUnits,
          std::size_t jobs)
{
    if (configs.empty())
        SMARTS_FATAL("a study needs at least one machine config");
    if (totalUnits == 0)
        SMARTS_FATAL("a study needs at least one live-point (is the "
                     "stream shorter than one sampling unit?)");
    JobManifest m;
    m.benchmark = spec;
    m.sampling = sampling;
    m.streamLength = streamLength;
    m.configs = configs;
    for (const uarch::MachineConfig &config : configs)
        m.geometryHashes.push_back(uarch::warmGeometryHash(config));
    m.totalUnits = totalUnits;

    // Even initial partition; remainder spread over the first
    // ranges. The live partition under <queue>/ranges/ takes over
    // from here.
    const std::uint64_t count =
        std::min<std::uint64_t>(jobs ? jobs : 1, totalUnits);
    std::uint64_t cursor = 0;
    for (std::uint64_t j = 0; j < count; ++j) {
        const std::uint64_t size =
            totalUnits / count + (j < totalUnits % count ? 1 : 0);
        m.ranges.push_back(UnitRange{cursor, size});
        cursor += size;
    }
    // The build-fingerprint handshake: serialize() covers this
    // field, so the study id below inherits it — a diverged build's
    // results refuse at merge even if its manifest load were somehow
    // bypassed.
    m.fingerprint = buildFingerprint();

    // Deterministic study id: digest the manifest with the id slot
    // zeroed. Same study -> same id (prior results stay valid);
    // any field change -> new id (old results refuse at merge).
    util::BinaryWriter digest;
    m.serialize(digest);
    m.studyId =
        util::fnv1a(digest.buffer().data(), digest.buffer().size());
    return m;
}

bool
publishStudy(const std::string &dir, const JobManifest &manifest,
             std::string *error)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        if (error)
            *error = log::format("cannot create ", dir, ": ",
                                 ec.message());
        return false;
    }
    // Republishing the IDENTICAL study (same deterministic studyId)
    // keeps the queue: completed results are bit-identical by
    // contract, so a restarted leader reuses them without
    // re-execution (and an evolved ranges/ partition keeps its
    // splits). Any other prior content — a different study, or an
    // unreadable manifest — is reset: its claims would shadow live
    // work and its results would refuse at merge anyway. A reset
    // that FAILS refuses to publish: stale claims left behind would
    // shadow live work until the deadline, silently.
    const std::optional<JobManifest> prior =
        JobManifest::load(manifestPath(dir));
    const bool fresh = !prior || prior->studyId != manifest.studyId;
    if (fresh) {
        for (const char *sub : {"claims", "results", "ranges"}) {
            std::error_code rmEc;
            fs::remove_all(fs::path(dir) / sub, rmEc);
            if (rmEc) {
                if (error)
                    *error = log::format(
                        "cannot reset stale ", sub, "/ under ", dir,
                        ": ", rmEc.message(),
                        " — refusing to publish over a dirty queue");
                return false;
            }
        }
    }
    // Seed the live range partition (fresh queue), or repair a
    // republished queue whose ranges/ vanished (without markers no
    // remaining job is claimable).
    if (fresh || !fs::exists(fs::path(dir) / "ranges", ec))
        for (const UnitRange &r : manifest.ranges)
            if (!writeMarker(rangeMarkerPath(dir, r))) {
                if (error)
                    *error = log::format("cannot publish range "
                                         "marker ",
                                         rangeMarkerPath(dir, r));
                return false;
            }
    return manifest.save(manifestPath(dir), error);
}

bool
studyComplete(const std::string &dir, const JobManifest &manifest)
{
    for (std::uint32_t c = 0; c < manifest.configs.size(); ++c)
        if (!tileResults(listResultRanges(dir, c), manifest.totalUnits))
            return false;
    return true;
}

std::size_t
splitRemainingRanges(const std::string &dir,
                     const JobManifest &manifest,
                     std::uint64_t minUnits)
{
    if (minUnits == 0)
        minUnits = 1;
    std::size_t splits = 0;
    std::error_code ec;
    for (const UnitRange &r : listRanges(dir)) {
        if (r.unitCount < 2 * minUnits)
            continue;
        // Only ranges nobody is working on and nothing covers:
        // splitting under a claim would duplicate in-flight work.
        bool busy = false;
        for (std::uint32_t c = 0;
             c < manifest.configs.size() && !busy; ++c)
            busy = fs::exists(claimPath(dir, c, r), ec) ||
                   fs::exists(resultPath(dir, c, r), ec);
        if (busy)
            continue;
        const UnitRange a{r.firstUnit, r.unitCount / 2};
        const UnitRange b{r.firstUnit + a.unitCount,
                          r.unitCount - a.unitCount};
        // Children first, parent removed last: a runner that claims
        // the parent concurrently still publishes a result the
        // tiling merge accepts.
        if (!writeMarker(rangeMarkerPath(dir, a)) ||
            !writeMarker(rangeMarkerPath(dir, b)))
            continue;
        fs::remove(rangeMarkerPath(dir, r), ec);
        ++splits;
    }
    return splits;
}

std::optional<std::vector<core::SmartsEstimate>>
mergeStudy(const std::string &dir, const JobManifest &manifest,
           std::string *error)
{
    auto refuse = [error](std::string why) {
        if (error)
            *error = std::move(why);
        return std::nullopt;
    };
    std::vector<core::SmartsEstimate> estimates(
        manifest.configs.size());
    for (std::uint32_t c = 0; c < manifest.configs.size(); ++c) {
        const std::vector<UnitRange> avail = listResultRanges(dir, c);
        // EVERY published file must validate — a poisoned file never
        // rides along silently just because a healthy overlap could
        // cover its units.
        std::vector<ShardResult> loaded;
        loaded.reserve(avail.size());
        for (const UnitRange &r : avail) {
            std::string why;
            std::optional<ShardResult> result = ShardResult::load(
                resultPath(dir, c, r), manifest, c, r, &why);
            if (!result)
                return refuse(std::move(why));
            loaded.push_back(std::move(*result));
        }
        const std::optional<std::vector<UnitRange>> tiling =
            tileResults(avail, manifest.totalUnits);
        if (!tiling)
            return refuse(log::format(
                "study incomplete: config ", c,
                "'s results do not cover all ", manifest.totalUnits,
                " units"));
        // Fold the chosen tiles in slot (= stream) order: the same
        // replay discipline as serial run(), so the estimate is
        // bit-identical to it.
        for (const UnitRange &tile : *tiling)
            for (std::size_t i = 0; i < avail.size(); ++i)
                if (avail[i] == tile) {
                    core::SystematicSampler::foldSlice(
                        estimates[c], loaded[i].slice);
                    break;
                }
    }
    return estimates;
}

std::optional<std::vector<core::SmartsEstimate>>
collectStudy(const std::string &dir, const JobManifest &manifest,
             double timeoutSeconds, Runner *helper,
             std::string *error, double pollMillis)
{
    const auto deadline =
        // smarts-lint: allow(no-ambient-nondeterminism) the collect
        // deadline bounds polling; merged estimates stay a pure
        // function of the manifest regardless of when results land.
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(timeoutSeconds);
    PollBackoff backoff(pollMillis);

    // Elasticity: watch the claims/ directory for runner ids never
    // seen before — a NEW runner joined mid-study — and split the
    // still-unclaimed ranges so the newcomer gets fair-grained work
    // instead of idling behind big claims. The baseline is the first
    // poll that finds any claimant: before that nobody has started,
    // so the first runner to claim is the study's first, not a join.
    std::set<std::string> knownRunners;
    auto watchRunners = [&] {
        const std::set<std::string> ids = claimantIds(dir);
        if (knownRunners.empty()) {
            knownRunners = ids;
            return;
        }
        bool joined = false;
        for (const std::string &id : ids)
            joined |= knownRunners.insert(id).second;
        if (!joined)
            return;
        const std::size_t splits =
            splitRemainingRanges(dir, manifest);
        if (splits) {
            SMARTS_LOG("collect: runner joined mid-study; split ",
                       splits, " remaining range(s)");
            backoff.reset();
        }
    };

    for (;;) {
        while (!studyComplete(dir, manifest)) {
            watchRunners();
            // A helping leader executes whatever nobody has
            // claimed — progress is guaranteed even with zero
            // external runners.
            if (helper && helper->drain(manifest)) {
                backoff.reset();
                continue;
            }
            // smarts-lint: allow(no-ambient-nondeterminism) a
            // collect timeout refuses the study (no partial
            // merge), so wall time never shapes results.
            if (std::chrono::steady_clock::now() >= deadline) {
                if (error)
                    *error = log::format(
                        "study incomplete after ", timeoutSeconds,
                        "s (", manifest.jobCount(),
                        " jobs; check the runners and the claims/ "
                        "directory under ",
                        dir, ")");
                return std::nullopt;
            }
            // Idle poll: back off exponentially so a long wait for
            // remote runners does not hammer the shared directory.
            std::this_thread::sleep_for(
                // smarts-lint: allow(no-ambient-nondeterminism) a
                // pacing sleep; collection order cannot change the
                // stream-order refold.
                std::chrono::duration<double, std::milli>(
                    backoff.nextMs()));
        }

        std::string why;
        if (auto merged = mergeStudy(dir, manifest, &why))
            return merged;

        // The study is "complete" but refuses to merge: at least
        // one result file is poisoned (corrupt in transit, or a
        // straggler from a previous study won a publish race).
        // A refusing result would otherwise wedge the study
        // forever — claims treat an existing result as done, so
        // nobody re-executes the job. Quarantine every refusing
        // file (delete result + claim) and go back to waiting:
        // the helper or any live runner redoes the job. A
        // systematic refusal (e.g. incompatible builds) cannot
        // loop unbounded — the deadline above still applies.
        std::size_t quarantined = 0;
        for (std::uint32_t c = 0; c < manifest.configs.size(); ++c)
            for (const UnitRange &r : listResultRanges(dir, c)) {
                const std::string path = resultPath(dir, c, r);
                std::string jobWhy;
                if (ShardResult::load(path, manifest, c, r, &jobWhy))
                    continue;
                SMARTS_WARN("collect: quarantining refused result for "
                            "job (config ", c, ", units [",
                            r.firstUnit, ", +", r.unitCount,
                            ")): ", jobWhy);
                std::error_code ec;
                fs::remove(path, ec);
                fs::remove(claimPath(dir, c, r), ec);
                ++quarantined;
            }
        if (quarantined)
            backoff.reset();
        if (!quarantined ||
            // smarts-lint: allow(no-ambient-nondeterminism) give-up
            // deadline on a quarantined result: expiry refuses the
            // whole study, never merges a partial one.
            std::chrono::steady_clock::now() >= deadline) {
            if (error)
                *error = std::move(why);
            return std::nullopt;
        }
    }
}

} // namespace smarts::distrib
