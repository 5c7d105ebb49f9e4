/**
 * @file
 * The on-disk protocol of the distributed runners
 * (docs/distributed-runners.md): a LEADER writes a versioned,
 * checksummed job manifest next to a shipped CheckpointStore holding
 * the study's `.smlp` live-point libraries; RUNNER processes
 * atomically claim (config × unit-range) jobs, measure each range's
 * units from their live-points through the same
 * SystematicSampler::measureUnits the in-process live-point paths
 * use, and publish per-range result files; the leader folds a tiling
 * of completed ranges, in unit order, into per-config
 * SmartsEstimates that are BIT-IDENTICAL to serial run() at any
 * runner count and through any split history.
 *
 * Everything here is a plain file in a shared directory — the queue
 * needs nothing but a filesystem both sides can reach (NFS, a
 * synced directory, scp). All files use the smarts::util binary
 * format discipline: little-endian byte-wise encoding, trailing
 * FNV-1a checksum, atomic temp+rename publish, and refusal — never
 * silent acceptance — of truncated, corrupt, version-bumped or
 * mis-keyed files.
 */

#ifndef SMARTS_DISTRIB_PROTOCOL_HH
#define SMARTS_DISTRIB_PROTOCOL_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hh"
#include "core/sampler.hh"
#include "uarch/config.hh"
#include "util/binary_io.hh"
#include "workloads/benchmark.hh"

namespace smarts::distrib {

/** On-disk protocol version, shared by manifest and result files
 *  (docs/distributed-runners.md § Versioning). */
constexpr std::uint32_t kDistribFormatVersion = 3;

/**
 * Fingerprint of THIS build's measurement semantics: the protocol
 * version mixed with a timing-model fingerprint derived from a
 * golden micro-run (short fixed workloads driven through the full
 * detailed timing and energy model under the stock machines). The
 * geometry hash only catches warm-STATE divergence between builds; a
 * build whose timing model diverged produces results that pass every
 * structural check and merge into a silently non-serial-identical
 * estimate. Embedding this fingerprint in the manifest (and, through
 * it, the study id) turns that silent merge into a refusal at
 * manifest load. Computed once per process, cached.
 */
std::uint64_t buildFingerprint();

/** A contiguous run of measured-unit slots [firstUnit,
 *  firstUnit + unitCount) of a live-point library. */
struct UnitRange
{
    std::uint64_t firstUnit = 0;
    std::uint64_t unitCount = 0;
};

inline bool
operator==(const UnitRange &a, const UnitRange &b)
{
    return a.firstUnit == b.firstUnit && a.unitCount == b.unitCount;
}

inline bool
operator!=(const UnitRange &a, const UnitRange &b)
{
    return !(a == b);
}

/**
 * MachineConfig serialization — every field, doubles as raw
 * IEEE-754 bit patterns, in the normative order of
 * docs/distributed-runners.md § Machine config. Public because the
 * job manifest and the store-service request files
 * (distrib/store_service.hh) embed the same encoding: a daemon must
 * reconstruct the EXACT machine a leader meant, including the
 * timing-only fields the geometry hash deliberately ignores.
 */
void writeMachineConfig(util::BinaryWriter &out,
                        const uarch::MachineConfig &config);
uarch::MachineConfig readMachineConfig(util::BinaryReader &in);

/**
 * Queue-directory file names (docs/distributed-runners.md § Queue
 * layout). A job is named "c<config>_u<F>_n<N>": its claim marker
 * lives under claims/, its result under results/, and
 * "ranges/u<F>_n<N>.range" marks a range of the live partition.
 */
std::string manifestPath(const std::string &dir);
std::string rangeName(const UnitRange &range);
std::string rangeMarkerPath(const std::string &dir,
                            const UnitRange &range);
std::string claimPath(const std::string &dir, std::uint32_t config,
                      const UnitRange &range);
std::string resultPath(const std::string &dir, std::uint32_t config,
                       const UnitRange &range);

/** The live ranges published under `<dir>/ranges/`, sorted by
 *  firstUnit (missing directory = empty). */
std::vector<UnitRange> listRanges(const std::string &dir);

/** Ranges with a published result file for @p config, parsed from
 *  the results directory, sorted by (firstUnit, unitCount desc). */
std::vector<UnitRange> listResultRanges(const std::string &dir,
                                        std::uint32_t config);

/**
 * The leader's statement of a study: ONE benchmark and sampling
 * design, N machine configs, and the measured-unit count of the
 * study's live-point libraries, seeded as a partition into unit
 * ranges. The manifest is self-describing — a runner needs nothing
 * but this file and a checkpoint store to do its share — and
 * self-validating: load() refuses a manifest whose ranges do not
 * tile [0, totalUnits) or whose per-config geometry hashes disagree
 * with this build's warmGeometryHash (a leader built from
 * incompatible sources must fail loudly, not mis-warm).
 */
struct JobManifest
{
    /**
     * Study identity: an FNV-1a digest of every other manifest
     * field, echoed by every result file. Deterministic on purpose
     * — republishing the identical study accepts a prior run's
     * results (they are bit-identical by contract), while a result
     * produced under ANY other manifest is refused at merge.
     */
    std::uint64_t studyId = 0;

    /** The publishing build's buildFingerprint(); load() refuses a
     *  manifest whose fingerprint this build does not reproduce. */
    std::uint64_t fingerprint = 0;

    std::uint64_t streamLength = 0; ///< true dynamic stream length.
    workloads::BenchmarkSpec benchmark;
    core::SamplingConfig sampling;
    std::vector<uarch::MachineConfig> configs;
    std::vector<std::uint64_t> geometryHashes; ///< one per config.

    /** Measured-unit count of the study's live-point libraries. */
    std::uint64_t totalUnits = 0;

    /** The INITIAL partition of [0, totalUnits). The live partition
     *  evolves in `<queue>/ranges/` as the leader splits; this field
     *  only seeds it. */
    std::vector<UnitRange> ranges;

    /** Jobs are the (config × initial-range) grid (splits add
     *  more). */
    std::size_t
    jobCount() const
    {
        return configs.size() * ranges.size();
    }

    /** The checkpoint-store key of config @p c's live-points. */
    core::LibraryKey
    keyFor(std::size_t c) const
    {
        core::LibraryKey key;
        key.benchmark = benchmark;
        key.geometryHash = geometryHashes[c];
        key.sampling = sampling;
        return key;
    }

    /** Field order is normative: docs/distributed-runners.md. */
    void serialize(util::BinaryWriter &out) const;

    /** Serialize + checksum + atomic publish at @p path. */
    bool save(const std::string &path,
              std::string *error = nullptr) const;

    /**
     * Load and fully validate a manifest. Refuses — nullopt plus a
     * diagnostic — on a missing/truncated/corrupt file, unknown
     * version, a build fingerprint this build does not reproduce
     * (the diagnostic names both fingerprints), a range partition
     * that does not tile the study, or a geometry hash this build's
     * warmGeometryHash does not reproduce.
     */
    static std::optional<JobManifest>
    load(const std::string &path, std::string *error = nullptr);
};

/**
 * One completed job: the raw SliceResult of units @p range under
 * config @p configIndex, plus everything the leader must verify
 * before folding it — the study id, the job, and the full library
 * key. The leader REFUSES (never silently merges) a result whose
 * any field disagrees with the manifest.
 */
struct ShardResult
{
    std::uint64_t studyId = 0;
    std::uint32_t configIndex = 0;
    UnitRange range;
    core::LibraryKey key;
    core::SliceResult slice;

    /** Field order is normative: docs/distributed-runners.md. */
    void serialize(util::BinaryWriter &out) const;

    /** Serialize + checksum + atomic publish at @p path. */
    bool save(const std::string &path,
              std::string *error = nullptr) const;

    /**
     * Load the result for job (@p config, @p range) of
     * @p manifest, refusing on anything short of an exact match:
     * missing/truncated/corrupt file, unknown version, study-id or
     * job mismatch, a range outside [0, totalUnits), key mismatch,
     * or observation counts inconsistent with the range or the
     * study's stream.
     */
    static std::optional<ShardResult>
    load(const std::string &path, const JobManifest &manifest,
         std::uint32_t config, const UnitRange &range,
         std::string *error = nullptr);
};

/**
 * Atomically claim job (@p config, @p range) in @p dir for
 * @p runnerId. A claim is an exclusively-created marker file
 * (write-temp + hard-link, which fails if the claim exists), so of
 * N racing runners exactly one wins. Claims are a work-avoidance
 * device, not a correctness one: results are deterministic and
 * bit-identical, so a duplicated execution publishes identical
 * bytes — wasted work, never corruption.
 *
 * @p staleSeconds >= 0 enables abandoned-claim recovery: a claim
 * older than that with no published result may be re-claimed
 * (atomic rename replaces the marker). Negative = never steal.
 *
 * Returns true when this caller owns the job.
 */
bool claimJob(const std::string &dir, std::uint32_t config,
              const UnitRange &range, const std::string &runnerId,
              double staleSeconds = -1.0);

/**
 * Refresh the mtime of a held claim marker — the claim HEARTBEAT.
 * Staleness is judged by claim-file age, so a runner must touch its
 * marker between units or a job merely LONGER than the steal window
 * gets stolen repeatedly; with heartbeats only genuinely dead claims
 * age past it. Returns false if the marker vanished (the claim was
 * stolen) — the holder should abandon the job.
 */
bool touchClaim(const std::string &claimFile);

/**
 * The order in which a runner should PROBE the (config × range) jobs
 * over the CURRENT live @p ranges: a per-runner permutation (seeded
 * from @p runnerId and the study id) biased toward big ranges first
 * — weight is a range's unit count, and jobs are ranked by the
 * weighted-shuffle key u^(1/w). N racing runners therefore start at
 * N different jobs instead of all colliding on the first, and the
 * expensive jobs are claimed early instead of serializing the
 * study's critical path.
 */
std::vector<std::pair<std::uint32_t, UnitRange>>
claimOrder(const JobManifest &manifest,
           const std::vector<UnitRange> &ranges,
           const std::string &runnerId);

/** Publish @p result into @p dir (atomic temp+rename). */
bool publishResult(const std::string &dir, const ShardResult &result,
                   std::string *error = nullptr);

/**
 * Exponential poll backoff for the protocol's wait loops (the
 * leader's result collection, the runner's manifest wait). Polling a
 * shared filesystem is not free — on NFS every exists() is a round
 * trip, and a fixed 100 ms cadence from every participant of a
 * large study hammers the server exactly when nothing is changing.
 * The delay starts at initialMs, doubles per idle poll, and caps at
 * capMs (~1 s keeps worst-case added latency humane); any sign of
 * progress resets it to the initial value so an active queue is
 * polled eagerly again.
 */
class PollBackoff
{
  public:
    explicit PollBackoff(double initialMs = 100.0,
                         double capMs = 1000.0)
        : initialMs_(initialMs > 0.0 ? initialMs : 1.0),
          capMs_(capMs > initialMs_ ? capMs : initialMs_),
          currentMs_(initialMs_)
    {
    }

    /** Delay to sleep before the next poll, milliseconds. */
    double
    currentMs() const
    {
        return currentMs_;
    }

    /** Record an idle poll: returns the delay to sleep now, then
     *  doubles it toward the cap. */
    double
    nextMs()
    {
        const double delay = currentMs_;
        currentMs_ = std::min(currentMs_ * 2.0, capMs_);
        return delay;
    }

    /** Record progress: poll eagerly again. */
    void
    reset()
    {
        currentMs_ = initialMs_;
    }

  private:
    double initialMs_;
    double capMs_;
    double currentMs_;
};

} // namespace smarts::distrib

#endif // SMARTS_DISTRIB_PROTOCOL_HH
