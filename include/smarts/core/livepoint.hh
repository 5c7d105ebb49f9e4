/**
 * @file
 * Live-points: one checkpoint per MEASURED SAMPLING UNIT, captured
 * in a single streaming pass. Where a shard checkpoint
 * (core/checkpoint.hh) resumes a contiguous slice of the unit grid
 * — so a resumed shard still pays functional warming from its
 * boundary to each of its units — a live-point carries exactly the
 * warm state one (W + U) measurement needs: restore, detailed-warm
 * at most W instructions, measure U, done. Measurement cost becomes
 * proportional to the units actually measured instead of the stream
 * length, units become independently schedulable in ANY order, and
 * the fixed-n two-pass procedure turns into an anytime estimator
 * (SystematicSampler::runAnytime): measure units in seeded-shuffle
 * order, watch the streaming confidence interval, stop the moment
 * the paper's Eq. 1-3 target is met.
 *
 * Each snapshot is taken at the serial sampling loop's iteration
 * start for that unit — after the inter-unit gap is fast-forwarded,
 * before detailed warming — where the capture pass's state is
 * bit-identical to the serial run's (fastForward over gaps,
 * SimSession::warmAsDetailed over the regions the serial run
 * simulates in detail, exactly like the shard capture pass). A unit
 * measured from its live-point therefore reproduces the serial
 * run's observation bit for bit, and runAnytime driven to
 * completion folds to an estimate byte-identical to run()'s.
 *
 * On disk (save()/load(), version 2 of docs/checkpoint-format.md,
 * `.smlp`) the per-unit states are delta-encoded against the
 * previous unit's raw state (util/delta_codec.hh) — consecutive
 * units share nearly all serialized state, so a library of hundreds
 * of live-points costs a small multiple of one full checkpoint —
 * with a per-record FNV-1a checksum over the DECODED state so
 * corruption anywhere in a chain is pinned to the record where it
 * breaks. CheckpointStore persists live-point libraries next to
 * shard libraries under the same LibraryKey geometry-hash scheme.
 */

#ifndef SMARTS_CORE_LIVEPOINT_HH
#define SMARTS_CORE_LIVEPOINT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "core/multi_session.hh"
#include "core/sampler.hh"
#include "core/session.hh"
#include "util/binary_io.hh"

namespace smarts::core {

/**
 * On-disk live-point library format version (`.smlp` files).
 * Version 3 adds the same flavor byte as checkpoint format v2
 * (kCheckpointFlavorSolo/Mix, after the endianness marker);
 * version-2 files — always solo — still load. Flavor 1 (co-run mix
 * live-points) is RESERVED: no writer exists yet, and the loader
 * refuses it by name so the reservation cannot rot silently.
 */
constexpr std::uint32_t kLivePointFormatVersion = 3;

/**
 * Warm resume state for ONE measured unit's (W + U) window: a full
 * checkpoint snapped at the serial loop's iteration start for the
 * unit (at most W before it), whose unitIndex is the measured
 * unit's grid index (offset + m*k form).
 */
using LivePoint = ArchCheckpoint;

class LivePointLibrary
{
  public:
    /**
     * Stream @p session (fresh, at stream start) through the serial
     * sampling schedule of @p config with state-equivalent warming,
     * snapshotting every measured unit's iteration start, then run
     * the stream out so streamLength() is the true dynamic length.
     * Costs roughly one functional-warming pass plus one snapshot
     * per unit.
     */
    static LivePointLibrary build(SimSession &session,
                                  const SamplingConfig &config);

    /**
     * Per-point capture hook: called with the library slot index and
     * the freshly captured point, immediately after it is appended.
     * The reference is valid ONLY for the duration of the call (the
     * library's storage may move as later points are appended) — a
     * sink that hands the point to concurrent measurement work (the
     * leapfrog overlap) must copy it.
     */
    using PointSink =
        std::function<void(std::size_t, const LivePoint &)>;

    /**
     * build() with a capture hook: @p sink fires once per captured
     * live-point, in stream order, on the calling thread. This is
     * the primitive under SystematicSampler::runAnytimeLeapfrog —
     * overlap measurement of already-captured units with capture of
     * the rest.
     */
    static LivePointLibrary build(SimSession &session,
                                  const SamplingConfig &config,
                                  const PointSink &sink);

    /**
     * Multi-config capture: ONE streaming pass over @p session (N
     * configs in lockstep off the shared architectural stream)
     * yields the per-config libraries of an N-config study —
     * library c is byte-identical to what build() over a
     * single-config session of config c would have captured, at
     * roughly 1/N of the total capture cost.
     */
    static std::vector<LivePointLibrary>
    buildMulti(MultiSession &session, const SamplingConfig &config);

    /**
     * Serialize under @p key into the delta-encoded v2 format
     * (docs/checkpoint-format.md § Version 2) and publish atomically
     * at @p path. False with @p error set on filesystem failure.
     */
    bool save(const LibraryKey &key, const std::string &path,
              std::string *error = nullptr,
              bool createDirs = true) const;

    /**
     * Load a library from @p path, refusing — nullopt plus a
     * diagnostic in @p error — on anything short of an exact match:
     * missing/truncated/corrupt file, a record failing its state
     * checksum, an unknown format version, a key whose benchmark,
     * sampling design or config geometry differs from @p expect, or
     * records off the sampling grid. Refusal is the contract: a
     * mis-keyed live-point must never silently mis-warm a unit.
     */
    static std::optional<LivePointLibrary>
    load(const std::string &path, const LibraryKey &expect,
         std::string *error = nullptr);

    /** Serialize to @p out (save() = serialize + checksummed file). */
    void serialize(const LibraryKey &key,
                   util::BinaryWriter &out) const;

    LivePointLibrary() = default;

    const SamplingConfig &
    samplingConfig() const
    {
        return config_;
    }

    /** True dynamic stream length (the capture pass runs the tail). */
    std::uint64_t
    streamLength() const
    {
        return streamLength_;
    }

    /** Measured units on the grid — one live-point each. */
    std::size_t
    unitCount() const
    {
        return points_.size();
    }

    const LivePoint &
    at(std::size_t unit) const
    {
        return points_[unit];
    }

    /** Total in-memory footprint of the captured live-points. */
    std::size_t
    byteSize() const
    {
        std::size_t total = 0;
        for (const LivePoint &point : points_)
            total += point.byteSize();
        return total;
    }

  private:
    SamplingConfig config_;
    std::uint64_t streamLength_ = 0;
    std::vector<LivePoint> points_;
};

} // namespace smarts::core

#endif // SMARTS_CORE_LIVEPOINT_HH
