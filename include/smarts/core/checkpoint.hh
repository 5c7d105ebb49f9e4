/**
 * @file
 * Checkpointed functional warming: the subsystem that lets ONE
 * benchmark's stream be sharded across threads (paper Table 6 shows
 * functional warming dominating SMARTS runtime, and warming is
 * inherently serial — so a single long benchmark bottlenecks even a
 * perfectly parallel experiment grid, which is exactly what PR 2's
 * ExperimentRunner left on the table).
 *
 * An ArchCheckpoint serializes the full warm simulator state:
 * architectural (registers, PC, data image) plus microarchitectural
 * (caches, TLBs, branch predictor, fixed-point accumulators). A
 * CheckpointLibrary plans the shard split of a sampling run's unit
 * grid and captures each shard's resume checkpoint with a single
 * streaming pass that applies the serial schedule's EXACT state
 * transitions — fastForward over the warming gaps, warm-as-detailed
 * over the regions the serial run simulates in detail — so a shard
 * resumed from its checkpoint measures every unit bit-identically to
 * the serial run.
 *
 * The capture pass costs roughly a functional-warming pass of the
 * stream, far less than the serial run's warming + detailed bill,
 * and it pipelines: shard s starts executing the moment checkpoint
 * s is captured, while the capture pass streams on toward
 * checkpoint s+1. A solo capture runs through core::SplitCapture
 * (core/capture.hh): the calling thread interprets and trains the
 * predictor, a warming thread replays the cache and TLB accesses,
 * and each checkpoint is completed and handed on from the warming
 * thread, so the pass costs about the slower of those halves rather
 * than their sum.
 *
 * Libraries are durable: save()/load() move them through a
 * versioned, endian-explicit, checksummed binary format
 * (docs/checkpoint-format.md) keyed by LibraryKey — benchmark,
 * sampling design, and the warm-state geometry hash of the machine
 * config — so a library captured once serves every later process:
 * the two-pass procedure's second run and repeated design studies.
 * buildMulti() captures the per-config
 * libraries of an N-config study in ONE MultiSession streaming
 * pass. CheckpointStore (core/checkpoint_store.hh) is the directory
 * cache that runSharded/estimateSharded consult before capturing.
 */

#ifndef SMARTS_CORE_CHECKPOINT_HH
#define SMARTS_CORE_CHECKPOINT_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/multi_session.hh"
#include "core/sampler.hh"
#include "core/session.hh"
#include "util/binary_io.hh"
#include "util/logging.hh"
#include "workloads/benchmark.hh"

namespace smarts::core {

/**
 * On-disk library format version (docs/checkpoint-format.md).
 * Version 2 adds a FLAVOR byte after the endianness marker so one
 * `.smck` container carries either solo (flavor 0) or co-run mix
 * (flavor 1, mp::MixLibrary) state; version-1 files — always solo —
 * still load (the v1→v2 migration path, tests/test_mix.cc).
 */
constexpr std::uint32_t kCheckpointFormatVersion = 2;

/** File magic: 8 bytes, shared by every version and flavor. */
constexpr char kCheckpointMagic[8] = {'S', 'M', 'R', 'T',
                                      'C', 'K', 'P', 'T'};

/**
 * Endianness probe: written as a u32 through the little-endian
 * encoder, so the file always carries bytes 04 03 02 01. An external
 * reader that decodes it as anything but 0x01020304 is applying the
 * wrong byte order.
 */
constexpr std::uint32_t kCheckpointEndianMark = 0x01020304u;

/** v2 flavor byte: which session tier's state the payload carries. */
constexpr std::uint8_t kCheckpointFlavorSolo = 0;
constexpr std::uint8_t kCheckpointFlavorMix = 1;

/** Full warm simulator state, resumable into a same-spec session. */
struct ArchCheckpoint
{
    using Session = SimSession;

    ArchState arch;
    TimingState timing;

    /** Instruction position the checkpoint resumes at. */
    std::uint64_t position = 0;

    /** First measured grid index of the shard this resume feeds. */
    std::uint64_t unitIndex = 0;

    /** Approximate serialized footprint, for capacity planning. */
    std::size_t
    byteSize() const
    {
        return arch.byteSize() + timing.byteSize() +
               2 * sizeof(std::uint64_t);
    }

    /** True for an unfilled slot (no state captured or loaded). */
    bool
    empty() const
    {
        return arch.data.empty();
    }

    /** Snapshot @p session's state and position. */
    void
    saveFrom(const SimSession &session)
    {
        session.saveState(arch, timing);
        position = session.instCount();
    }

    void
    restoreInto(SimSession &session) const
    {
        session.restoreState(arch, timing);
    }

    /** Field order is normative: docs/checkpoint-format.md. */
    void
    write(util::BinaryWriter &out) const
    {
        out.u64(position);
        out.u64(unitIndex);
        arch.write(out);
        timing.write(out);
    }

    void
    read(util::BinaryReader &in)
    {
        position = in.u64();
        unitIndex = in.u64();
        arch.read(in);
        timing.read(in);
    }
};

/**
 * Identity of a persisted checkpoint library: what must match, field
 * for field, before stored warm state may be resumed. The benchmark
 * spec pins the instruction stream, the sampling config pins the
 * capture schedule (which regions were warmed as-detailed vs
 * fast-forwarded), and the geometry hash
 * (uarch::warmGeometryHash) pins every structure whose state the
 * checkpoints carry. Timing-only config differences (latencies,
 * width, energy) hash identically on purpose: warm state does not
 * depend on them, so one library serves a whole latency/energy
 * sweep.
 */
struct LibraryKey
{
    workloads::BenchmarkSpec benchmark;
    std::uint64_t geometryHash = 0;
    SamplingConfig sampling;

    static LibraryKey of(const workloads::BenchmarkSpec &spec,
                         const uarch::MachineConfig &config,
                         const SamplingConfig &sampling);

    /**
     * Field order is normative (docs/checkpoint-format.md § Key);
     * the distributed job manifest and result files
     * (docs/distributed-runners.md) embed the same encoding.
     */
    void write(util::BinaryWriter &out) const;
    static LibraryKey read(util::BinaryReader &in);

    /** Store subdirectory for the benchmark: "<name>-<scale>". */
    std::string dirName() const;

    /** Filesystem-safe file name encoding the sampling + geometry. */
    std::string fileName() const;

    /**
     * File name of the key's LIVE-POINT library (core/livepoint.hh):
     * same stem, `.smlp` extension — both flavors of warm state for
     * a key sit side by side in its store directory.
     */
    std::string livePointFileName() const;

    /** Empty when equal; else which component diverges (for logs). */
    std::string mismatchAgainst(const LibraryKey &other) const;

    /**
     * Empty when the key names something that can be captured: a
     * known benchmark kernel, scale and warming mode, and a nonzero
     * unit size and interval (the capture walk divides by both).
     * Else which component is out of range, for a loader that
     * refuses keys it did not expect (a store-service request, a
     * job manifest).
     */
    std::string defect() const;
};

/** One contiguous slice of a sampling run's measured-unit grid. */
struct ShardSpec
{
    /** Grid index (offset + m*k form) of the shard's first unit. */
    std::uint64_t firstUnitIndex = 0;

    /** Measured units owned by this shard. */
    std::uint64_t unitCount = 0;

    /** Serial instruction position at the shard's first iteration. */
    std::uint64_t resumePos = 0;

    /** Last shard: run the stream out so streamLength is exact. */
    bool runsTail = false;
};

namespace detail {

/**
 * The capture walk (core/schedule.hh) over a shard plan: @p snap(s)
 * fires at each shard boundary s >= 1 in order — an iteration start,
 * where the session state is bit-identical to the serial run's. The
 * walk stops after the last boundary (the tail belongs to the last
 * shard), or at a boundary the stream never reached.
 */
template <typename Session, typename Snap>
void
captureShards(Session &session, const SamplingConfig &config,
              const std::vector<ShardSpec> &plan, Snap &&snap)
{
    std::size_t next = 1;
    captureWalk(
        session, config,
        [&](std::uint64_t unitIdx) {
            for (; next < plan.size() &&
                   unitIdx >= plan[next].firstUnitIndex;
                 ++next) {
                // The grid index can cross a boundary the STREAM
                // never reached (it ended mid-unit on a mis-stated
                // length); snapping there would persist a checkpoint
                // load() must forever refuse. Unreachable = stop.
                if (session.instCount() < plan[next].resumePos)
                    return false;
                snap(next);
            }
            return next < plan.size();
        },
        [](std::uint64_t) {});
}

} // namespace detail

/**
 * The `.smck` shard-library container, written once for both
 * flavors: the shard plan plus one resume checkpoint per shard
 * (slot 0 resumes at stream start and stays empty), its capture
 * pass, and the versioned on-disk framing and loader ladder of
 * docs/checkpoint-format.md. @p Checkpoint is the flavor's resume
 * state — ArchCheckpoint for a solo SimSession (CheckpointLibrary),
 * mp::MixCheckpoint for a co-run (mp::MixLibrary) — and names its
 * Session type. The flavors add only their identity block: the
 * LibraryKey (and, for a mix, the policy and program list).
 *
 * Capturing costs roughly one warming pass; once built, sharded
 * measurement of the same (benchmark, sampling design) scales with
 * threads and re-runs — the tuned second pass of the two-pass
 * procedure, config sweeps, repeated design studies — pay no
 * warming at all.
 */
template <typename Derived, typename CheckpointT>
class ShardLibrary
{
  public:
    using Checkpoint = CheckpointT;
    using Session = typename Checkpoint::Session;

    /** Called as checkpoint @p shard becomes available (shard >= 1). */
    using CheckpointSink =
        std::function<void(std::size_t shard, Checkpoint &&)>;

    /**
     * Stream @p session (fresh, at stream start) through the serial
     * sampling schedule using state-equivalent warming, invoking
     * @p sink the moment each shard's resume state is reached.
     * Shard 0 resumes at stream start and gets no checkpoint. The
     * pass stops after the last checkpoint — the tail belongs to
     * the last shard. This fused pass serves the mix flavor; the
     * solo flavor captures through core::SplitCapture
     * (CheckpointLibrary::capture).
     */
    static void
    capture(Session &session, const SamplingConfig &config,
            const std::vector<ShardSpec> &plan,
            const CheckpointSink &sink)
    {
        detail::captureShards(session, config, plan, [&](std::size_t s) {
            Checkpoint cp;
            cp.saveFrom(session);
            cp.unitIndex = plan[s].firstUnitIndex;
            sink(s, std::move(cp));
        });
    }

    /**
     * Capture every checkpoint of @p plan into a reusable library
     * (slot 0 is an empty placeholder — shard 0 needs none).
     */
    static Derived
    build(Session &session, const SamplingConfig &config,
          const std::vector<ShardSpec> &plan)
    {
        Derived library = prepare(config, plan);
        Derived::capture(session, config, plan,
                [&library](std::size_t s, Checkpoint &&cp) {
                    library.checkpoints_[s] = std::move(cp);
                });
        library.requireComplete();
        return library;
    }

    /**
     * An empty library for (@p config, @p plan) whose checkpoints
     * arrive later via record() — the pipelined capture path uses
     * this to collect a persistable library while shards already
     * execute.
     */
    static Derived
    prepare(const SamplingConfig &config,
            const std::vector<ShardSpec> &plan)
    {
        Derived library;
        library.config_ = config;
        library.plan_ = plan;
        library.checkpoints_.resize(plan.size());
        return library;
    }

    /** Store shard @p shard's captured checkpoint (copied). */
    void
    record(std::size_t shard, const Checkpoint &cp)
    {
        checkpoints_[shard] = cp;
    }

    /** True when every resume slot (shard >= 1) holds a checkpoint. */
    bool
    complete() const
    {
        for (std::size_t s = 1; s < checkpoints_.size(); ++s)
            if (checkpoints_[s].empty())
                return false;
        return !checkpoints_.empty();
    }

    const SamplingConfig &
    samplingConfig() const
    {
        return config_;
    }

    const std::vector<ShardSpec> &
    plan() const
    {
        return plan_;
    }

    const Checkpoint &
    at(std::size_t shard) const
    {
        return checkpoints_[shard];
    }

    std::size_t
    shardCount() const
    {
        return plan_.size();
    }

    /** Total in-memory footprint of the captured checkpoints. */
    std::size_t
    byteSize() const
    {
        std::size_t total = 0;
        for (const Checkpoint &cp : checkpoints_)
            total += cp.byteSize();
        return total;
    }

  protected:
    /** What the flavors' loaders refuse differently. */
    struct Flavor
    {
        std::uint8_t id;             ///< the v2+ flavor byte.
        std::uint32_t oldestVersion; ///< v1 (no flavor byte) is solo.
        const char *versionNote;     ///< refusal text after "version N".
        const char *foreignNote;     ///< refusal text for another flavor.
    };

    /** Magic, version, endianness marker and flavor byte. */
    static void
    writeHeader(util::BinaryWriter &out, std::uint8_t flavor)
    {
        for (const char c : kCheckpointMagic)
            out.u8(static_cast<std::uint8_t>(c));
        out.u32(kCheckpointFormatVersion);
        out.u32(kCheckpointEndianMark);
        out.u8(flavor);
    }

    /** The plan and checkpoint blocks that follow the identity. */
    void
    writePlanAndSlots(util::BinaryWriter &out) const
    {
        out.u64(plan_.size());
        for (const ShardSpec &shard : plan_) {
            out.u64(shard.firstUnitIndex);
            out.u64(shard.unitCount);
            out.u64(shard.resumePos);
            out.u8(shard.runsTail ? 1 : 0);
        }
        out.u64(checkpoints_.size());
        for (std::size_t s = 0; s < checkpoints_.size(); ++s) {
            // Slot 0 resumes at stream start and carries no state.
            const bool present = s > 0;
            out.u8(present ? 1 : 0);
            if (present)
                checkpoints_[s].write(out);
        }
    }

    /**
     * The loader ladder: refuse — nullopt plus a diagnostic in
     * @p error — on anything short of an exact match. @p readIdentity
     * decodes the flavor's block before the key (empty string = ok,
     * else the refusal after the path); @p checkSlot vets each loaded
     * checkpoint the same way. Defined below CheckpointLibrary, whose
     * validatePlan it applies.
     */
    template <typename ReadIdentity, typename CheckSlot>
    static std::optional<Derived>
    loadContainer(const std::string &path, const LibraryKey &expect,
                  const Flavor &flavor, ReadIdentity &&readIdentity,
                  CheckSlot &&checkSlot, std::string *error);

    /**
     * The stream ending before every boundary means the plan's
     * streamLength was overstated; fail with a clear message rather
     * than mid-pool when a shard restores an empty snapshot.
     */
    void
    requireComplete() const
    {
        for (std::size_t s = 1; s < plan_.size(); ++s)
            if (checkpoints_[s].empty())
                SMARTS_FATAL("stream ended before the checkpoint for "
                             "shard ", s, " (position ",
                             plan_[s].resumePos,
                             ") — was streamLength overstated?");
    }

    SamplingConfig config_;
    std::vector<ShardSpec> plan_;
    std::vector<Checkpoint> checkpoints_;
};

/**
 * The solo flavor of the shard library: ArchCheckpoint resumes of
 * one SimSession, keyed by LibraryKey alone, plus the shard planning
 * both flavors use.
 */
class CheckpointLibrary
    : public ShardLibrary<CheckpointLibrary, ArchCheckpoint>
{
  public:
    /**
     * The solo capture pass: ShardLibrary::capture's contract, run
     * through core::SplitCapture (core/capture.hh). The calling thread
     * interprets and snaps all of each checkpoint but its memory
     * hierarchy; a warming thread replays the memory accesses, snaps
     * the hierarchy at each boundary and calls @p sink there, in
     * shard order. The checkpoints are byte for byte the fused
     * pass's.
     */
    static void capture(SimSession &session, const SamplingConfig &config,
                        const std::vector<ShardSpec> &plan,
                        const CheckpointSink &sink);

    /**
     * Split the measured-unit grid of (@p config, @p streamLength)
     * into at most @p shards contiguous, non-empty shards (clamped
     * to the unit count; an empty grid yields one tail-only shard).
     * Shard boundaries land on iteration starts of the serial
     * sampling loop, i.e. just after the previous measured unit
     * completes.
     */
    static std::vector<ShardSpec>
    planShards(const SamplingConfig &config,
               std::uint64_t streamLength, std::size_t shards);

    /**
     * Check that @p plan is one planShards(@p config, ...) could
     * have produced: contiguous shard geometry, interior resume
     * positions on iteration boundaries, the tail flag on exactly
     * the last shard. Returns an empty string when valid, else a
     * diagnostic naming the offending shard. The library loader
     * refuses files whose plan fails this — a checksum only proves
     * the writer was careful, not honest, and executing a malformed
     * plan would MIS-MEASURE instead of failing loudly.
     */
    static std::string
    validatePlan(const SamplingConfig &config,
                 const std::vector<ShardSpec> &plan);

    /**
     * Multi-config capture: ONE streaming pass over @p session (N
     * configs in lockstep off the shared architectural stream)
     * produces the per-config libraries an N-config design study
     * needs — library c is byte-identical to what build() over a
     * single-config session of config c would have captured, at
     * roughly 1/N of the total capture cost. This is what makes
     * checkpoint reuse work ACROSS configs even though warm state is
     * config-dependent.
     */
    static std::vector<CheckpointLibrary>
    buildMulti(MultiSession &session, const SamplingConfig &config,
               const std::vector<ShardSpec> &plan);

    /**
     * Serialize under @p key into the versioned on-disk format
     * (docs/checkpoint-format.md) and publish atomically at @p path.
     * False with @p error set on filesystem failure.
     */
    bool save(const LibraryKey &key, const std::string &path,
              std::string *error = nullptr,
              bool createDirs = true) const;

    /**
     * Load a library from @p path, refusing — nullopt plus a
     * diagnostic in @p error — on anything short of an exact match:
     * missing/truncated/corrupt file (checksum), unknown format
     * version, or a key whose benchmark, sampling design or config
     * geometry differs from @p expect. Refusal is the contract: a
     * mis-keyed library must never silently mis-warm a shard.
     * Version-1 files (no flavor byte) still load.
     */
    static std::optional<CheckpointLibrary>
    load(const std::string &path, const LibraryKey &expect,
         std::string *error = nullptr);

    /** Serialize to @p out (save() = serialize + checksummed file). */
    void serialize(const LibraryKey &key,
                   util::BinaryWriter &out) const;
};

template <typename Derived, typename CheckpointT>
template <typename ReadIdentity, typename CheckSlot>
std::optional<Derived>
ShardLibrary<Derived, CheckpointT>::loadContainer(
    const std::string &path, const LibraryKey &expect,
    const Flavor &flavor, ReadIdentity &&readIdentity,
    CheckSlot &&checkSlot, std::string *error)
{
    auto refuse = [error](std::string why) {
        if (error)
            *error = std::move(why);
        return std::nullopt;
    };

    std::string ioError;
    util::BinaryReader in =
        util::BinaryReader::fromFile(path, &ioError);
    if (in.failed())
        return refuse(std::move(ioError));

    for (const char c : kCheckpointMagic)
        if (in.u8() != static_cast<std::uint8_t>(c))
            return refuse(log::format(
                path, " is not a smarts checkpoint library"));
    // Anything newer than this build is refused, not guessed.
    const std::uint32_t version = in.u32();
    if (version < flavor.oldestVersion ||
        version > kCheckpointFormatVersion)
        return refuse(log::format(path, " is format version ",
                                  version, flavor.versionNote,
                                  kCheckpointFormatVersion));
    if (in.u32() != kCheckpointEndianMark)
        return refuse(log::format(path,
                                  " has a bad endianness marker"));
    if (version >= 2) {
        const std::uint8_t id = in.u8();
        if (id != flavor.id)
            return refuse(log::format(path, " holds flavor-", id,
                                      flavor.foreignNote));
    }
    if (const std::string why = readIdentity(in); !why.empty())
        return refuse(path + why);

    const LibraryKey stored = LibraryKey::read(in);
    const std::string mismatch = expect.mismatchAgainst(stored);
    if (!mismatch.empty())
        return refuse(log::format(path, ": ", mismatch));

    Derived library;
    library.config_ = stored.sampling;
    const std::uint64_t shardCount = in.u64();
    // An absurd count means a corrupt length field the checksum
    // somehow missed; bound it by the shards the payload could hold
    // (a ShardSpec encodes in at least 25 bytes), so a count never
    // sizes memory the file cannot back.
    constexpr std::uint64_t kMinShardSpecBytes =
        3 * sizeof(std::uint64_t) + 1;
    if (shardCount > in.remaining() / kMinShardSpecBytes)
        return refuse(log::format(path, " is corrupt (shard count ",
                                  shardCount, ")"));
    library.plan_.resize(shardCount);
    for (ShardSpec &shard : library.plan_) {
        shard.firstUnitIndex = in.u64();
        shard.unitCount = in.u64();
        shard.resumePos = in.u64();
        shard.runsTail = in.u8() != 0;
    }
    // The plan must be one planShards could have produced — the
    // checksum only proves the writer was careful, not honest, and
    // executing a malformed plan (overlapping shards, misplaced
    // tail) would MIS-MEASURE instead of refusing.
    const std::string planError =
        CheckpointLibrary::validatePlan(stored.sampling, library.plan_);
    if (!planError.empty())
        return refuse(
            log::format(path, " is corrupt (", planError, ")"));
    const std::uint64_t cpCount = in.u64();
    if (cpCount != shardCount)
        return refuse(log::format(
            path, " is corrupt (", cpCount, " checkpoints for ",
            shardCount, " shards)"));
    // Slots grow as they parse, for the same reason.
    for (std::size_t s = 0; s < shardCount && !in.failed(); ++s) {
        const bool present = in.u8() != 0;
        if (present == (s == 0))
            return refuse(log::format(
                path, " is corrupt (checkpoint ", s,
                present ? " unexpectedly present" : " missing"));
        Checkpoint &slot = library.checkpoints_.emplace_back();
        if (present)
            slot.read(in);
    }
    if (in.failed() || in.remaining() != 0)
        return refuse(log::format(
            path, " is truncated or has trailing garbage"));
    for (std::size_t s = 1; s < shardCount; ++s) {
        const Checkpoint &cp = library.checkpoints_[s];
        if (cp.position != library.plan_[s].resumePos ||
            cp.unitIndex != library.plan_[s].firstUnitIndex)
            return refuse(log::format(
                path, " is corrupt (checkpoint ", s,
                " disagrees with its shard plan)"));
        if (const std::string why = checkSlot(s, cp); !why.empty())
            return refuse(path + why);
    }
    return library;
}

} // namespace smarts::core

#endif // SMARTS_CORE_CHECKPOINT_HH
