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
 * On disk (save()/load(), docs/checkpoint-format.md § Live-point
 * libraries, `.smlp`) the per-unit states are delta-encoded against
 * the previous unit's raw state (util/delta_codec.hh) — consecutive
 * units share nearly all serialized state, so a library of hundreds
 * of live-points costs a small multiple of one full checkpoint —
 * with a per-record hash over the DECODED state (XXH64 since
 * version 4) so corruption anywhere in a chain is pinned to the
 * record where it breaks. CheckpointStore persists live-point
 * libraries next to shard libraries under the same LibraryKey
 * geometry-hash scheme.
 *
 * The cold anytime path that only persists what it captures
 * (SystematicSampler::runAnytimeLeapfrog) never holds a library: it
 * keeps the encoded records (EncodedLivePoints), written chunk by
 * chunk by the pool jobs that measure each chunk, and publishes
 * them as the same bytes build() + save() would write.
 *
 * In memory the points share their data images page by page
 * (core/paged_image.hh): each new point, captured or loaded, is
 * seeded with the previous point's image and replaces only the
 * 4 KiB pages its words changed, so a library holds each distinct
 * page once instead of one full image per unit, and byteSize()
 * reports what is resident.
 */

#ifndef SMARTS_CORE_LIVEPOINT_HH
#define SMARTS_CORE_LIVEPOINT_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
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
 * version 4 changes only the per-record state hash, FNV-1a → XXH64,
 * so files keep their length. Version-2 files — always solo — and
 * version-3 files still load. Flavor 1 (co-run mix
 * live-points) is RESERVED: no writer exists yet, and the loader
 * refuses it by name so the reservation cannot rot silently.
 */
constexpr std::uint32_t kLivePointFormatVersion = 4;

/**
 * Warm resume state for ONE measured unit's (W + U) window: a full
 * checkpoint snapped at the serial loop's iteration start for the
 * unit (at most W before it), whose unitIndex is the measured
 * unit's grid index (offset + m*k form).
 */
using LivePoint = ArchCheckpoint;

/**
 * Keeps the points of the last live-point library released, for the
 * next LivePointLibrary::load() given the same recycler to parse
 * into: the load reuses their state buffers instead of allocating.
 * A CheckpointStore owns one, so a run of warm hits through a store
 * reuses one library's memory rather than faulting in every unit's
 * state afresh once the allocator has returned the last library to
 * the system. The kept points go when the store and the libraries
 * it loaded do.
 */
class LivePointRecycler
{
  public:
    /** Keep @p points, dropping any kept before. */
    void keep(std::vector<LivePoint> &&points);

    /** Take the kept points, leaving none. */
    std::vector<LivePoint> take();

  private:
    std::mutex mutex_;
    std::vector<LivePoint> points_;
};

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
     * Serialize under @p key into the delta-encoded `.smlp` format
     * (docs/checkpoint-format.md § Live-point libraries) and publish
     * atomically at @p path. False with @p error set on filesystem
     * failure.
     */
    bool save(const LibraryKey &key, const std::string &path,
              std::string *error = nullptr,
              bool createDirs = true) const;

    /**
     * Load a library from @p path, refusing — nullopt plus a
     * diagnostic in @p error — on anything short of an exact match:
     * missing/truncated/corrupt file, a record failing its state
     * hash, an unknown format version, a key whose benchmark,
     * sampling design or config geometry differs from @p expect, or
     * records off the sampling grid. Refusal is the contract: a
     * mis-keyed live-point must never silently mis-warm a unit.
     * With @p recycler the load parses into the points it keeps, and
     * the library hands its own points to it when released.
     */
    static std::optional<LivePointLibrary>
    load(const std::string &path, const LibraryKey &expect,
         std::string *error = nullptr,
         std::shared_ptr<LivePointRecycler> recycler = nullptr);

    /** Serialize to @p out (save() = serialize + checksummed file). */
    void serialize(const LibraryKey &key,
                   util::BinaryWriter &out) const;

    LivePointLibrary() = default;
    LivePointLibrary(const LivePointLibrary &) = default;
    LivePointLibrary(LivePointLibrary &&) = default;
    LivePointLibrary &operator=(const LivePointLibrary &) = default;
    LivePointLibrary &operator=(LivePointLibrary &&) = default;

    /** Hands the points to the recycler load() was given, if any. */
    ~LivePointLibrary();

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

    /**
     * In-memory footprint of the captured live-points: each point's
     * state, with every data-image page its points share counted
     * once.
     */
    std::size_t byteSize() const;

  private:
    SamplingConfig config_;
    std::uint64_t streamLength_ = 0;
    std::vector<LivePoint> points_;
    std::shared_ptr<LivePointRecycler> recycler_;
};

/**
 * A live-point library held only as its encoded `.smlp` records,
 * which is what the leapfrog cold path
 * (SystematicSampler::runAnytimeLeapfrog) hands back when its caller
 * only persists: each chunk's records are encoded inside the pool
 * job that measures that chunk, delta-encoded against the previous
 * chunk's last point, so nothing is left to encode after capture
 * and save() is one write. Its file is byte-identical to
 * LivePointLibrary::build() + save() over the same session.
 */
class EncodedLivePoints
{
  public:
    /**
     * Publish the records under @p key at @p path as a `.smlp` file
     * (header, then every chunk's records in stream order, then the
     * checksum), atomically. False with @p error set on filesystem
     * failure.
     */
    bool save(const LibraryKey &key, const std::string &path,
              std::string *error = nullptr,
              bool createDirs = true) const;

    /** Live-points encoded (one record each). */
    std::size_t
    unitCount() const
    {
        return unitCount_;
    }

    /** True dynamic stream length (the capture pass runs the tail). */
    std::uint64_t
    streamLength() const
    {
        return streamLength_;
    }

  private:
    friend class SystematicSampler; // runAnytimeLeapfrog fills it.

    std::uint64_t streamLength_ = 0;
    std::size_t unitCount_ = 0;
    /** One segment per capture chunk, in stream order. A deque, so
     *  the capture thread appends while pool jobs fill earlier ones. */
    std::deque<std::vector<std::uint8_t>> segments_;
};

} // namespace smarts::core

#endif // SMARTS_CORE_LIVEPOINT_HH
