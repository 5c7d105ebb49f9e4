#include "core/livepoint.hh"

#include <algorithm>
#include <deque>
#include <memory>
#include <numeric>
#include <utility>

#include "exec/thread_pool.hh"
#include "util/delta_codec.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace smarts::core {

namespace {

/** File magic: 8 bytes, version-independent, distinct from .smck. */
constexpr char kMagic[8] = {'S', 'M', 'R', 'T',
                            'L', 'V', 'P', 'T'};

/**
 * The capture walk (core/schedule.hh) snapping at EVERY measured
 * unit's iteration start — after the inter-unit gap is
 * fast-forwarded, before detailed warming — which is exactly where
 * the serial loop's state equals the capture pass's. After the last
 * unit the stream is run out so the caller learns the true dynamic
 * length.
 */
template <typename Session, typename Snap>
std::uint64_t
captureLivePoints(Session &session, const SamplingConfig &config,
                  Snap &&snap)
{
    detail::captureWalk(
        session, config, [](std::uint64_t) { return true; }, snap);
    detail::runOut(session, config.warming);
    return session.instCount();
}

/**
 * Replay one live-point into @p out: restore, then the measuring
 * walk's per-unit body (core/schedule.hh) from the snapshot — the
 * identical accounting, truncation cases included.
 */
void
measureLivePoint(SimSession &session, const SamplingConfig &config,
                 const LivePoint &point, SliceResult &out)
{
    point.restoreInto(session);
    detail::measureUnit(session, config, point.unitIndex * config.unitSize,
                        out, detail::observeUnit);
}

/** The v2 and v3 per-record state hash, FNV-1a (v4: XXH64). */
std::uint64_t
stateFnv1a(const std::uint8_t *data, std::size_t size)
{
    return util::fnv1a(data, size);
}

/**
 * Smallest encoded record: unitIndex, position, stateHash, the delta's
 * u64 length and the delta's own u64 rawSize. Bounds the record count
 * a payload can justify before any record is parsed.
 */
constexpr std::uint64_t kMinRecordBytes = 5 * sizeof(std::uint64_t);

/**
 * The anytime estimator over @p samples (one slot per live-point,
 * stream order), shared by the warm path (runAnytime, which measures
 * WHILE it evaluates) and the leapfrog cold path (which REPLAYS the
 * rule over a complete sample set) — identical arithmetic and cut
 * points are what make the two report the same AnytimeResult.
 * Units are taken in a seeded-shuffle order, one batch at a time:
 * @p measure(order, from, to) fills slots order[from..to) (a no-op
 * when they are already measured), and the run stops at the first
 * batch boundary where the streaming CPI confidence interval meets
 * the target of @p options.
 */
template <typename Samples, typename MeasureBatch>
AnytimeResult
anytimeEstimate(const Samples &samples, const AnytimeOptions &options,
                std::uint64_t streamLength, MeasureBatch &&measure)
{
    const std::size_t n = samples.size();

    // Seeded Fisher-Yates: the measurement order is a pure function
    // of (seed, n), so a rerun — on any machine, at any thread
    // count — measures the identical unit sequence.
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    Xoshiro256StarStar rng(options.seed);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);

    const std::uint64_t batch = options.batch ? options.batch : 1;
    stats::OnlineStats shuffled; // CPI in shuffle order: stop rule only.
    std::size_t processed = 0;
    bool stopped = false;
    while (processed < n && !stopped) {
        const std::size_t end =
            std::min<std::size_t>(n, processed + batch);
        measure(order, processed, end);
        // The stop rule sees observations in SHUFFLE order — the
        // randomized order is what makes the prefix an unbiased
        // sample of the unit population at every cut point.
        for (std::size_t i = processed; i < end; ++i)
            for (const UnitObservation &o : samples[order[i]].obs)
                shuffled.add(o.cpi);
        processed = end;
        stopped = options.target.epsilon > 0.0 &&
                  shuffled.count() >= options.minUnits &&
                  stats::confidenceHalfWidth(shuffled.cv(),
                                             shuffled.count(),
                                             options.target.level) <=
                      options.target.epsilon;
    }

    // Deterministic fold: replay the taken units' observations in
    // STREAM order through the accumulators — replay, never
    // OnlineStats::merge (Chan's merge rounds differently), so a
    // completed run equals the serial run() byte for byte.
    std::vector<bool> taken(n, false);
    for (std::size_t i = 0; i < processed; ++i)
        taken[order[i]] = true;
    AnytimeResult result;
    for (std::size_t i = 0; i < n; ++i)
        if (taken[i])
            SystematicSampler::foldSlice(result.estimate, samples[i]);
    result.estimate.streamLength = streamLength;
    result.unitsAvailable = n;
    result.unitsMeasured = processed;
    result.earlyStopped = processed < n;
    return result;
}

} // namespace

LivePointLibrary
LivePointLibrary::build(SimSession &session,
                        const SamplingConfig &config)
{
    return build(session, config, PointSink{});
}

LivePointLibrary
LivePointLibrary::build(SimSession &session,
                        const SamplingConfig &config,
                        const PointSink &sink)
{
    LivePointLibrary library;
    library.config_ = config;
    library.streamLength_ = captureLivePoints(
        session, config, [&](std::uint64_t unitIdx) {
            // Seeded with the previous point's image, the snapshot
            // shares every page the unit's gap left unwritten.
            LivePoint point;
            if (!library.points_.empty())
                point.arch.data = library.points_.back().arch.data;
            point.saveFrom(session);
            point.unitIndex = unitIdx;
            library.points_.push_back(std::move(point));
            if (sink)
                sink(library.points_.size() - 1,
                     library.points_.back());
        });
    return library;
}

std::vector<LivePointLibrary>
LivePointLibrary::buildMulti(MultiSession &session,
                             const SamplingConfig &config)
{
    std::vector<LivePointLibrary> libraries(session.configCount());
    for (LivePointLibrary &library : libraries)
        library.config_ = config;

    ArchState arch;
    std::vector<TimingState> timings;
    const std::uint64_t length = captureLivePoints(
        session, config, [&](std::uint64_t unitIdx) {
            // One architectural snapshot, one timing snapshot per
            // config: library c gets exactly the live-point a
            // single-config capture of config c would have taken.
            session.saveState(arch, timings);
            for (std::size_t c = 0; c < libraries.size(); ++c) {
                LivePoint point;
                point.arch = arch;
                point.timing = std::move(timings[c]);
                point.position = session.instCount();
                point.unitIndex = unitIdx;
                libraries[c].points_.push_back(std::move(point));
            }
        });
    for (LivePointLibrary &library : libraries)
        library.streamLength_ = length;
    return libraries;
}

void
LivePointLibrary::serialize(const LibraryKey &key,
                            util::BinaryWriter &out) const
{
    for (const char c : kMagic)
        out.u8(static_cast<std::uint8_t>(c));
    out.u32(kLivePointFormatVersion);
    out.u32(kCheckpointEndianMark);
    out.u8(kCheckpointFlavorSolo);
    key.write(out);

    out.u64(streamLength_);
    out.u64(points_.size());
    // One raw buffer is reused per record and swapped into prev, so
    // the chain allocates its state storage twice, not per record.
    std::vector<std::uint8_t> prev;
    util::BinaryWriter raw;
    for (const LivePoint &point : points_) {
        point.arch.write(raw);
        point.timing.write(raw);
        out.u64(point.unitIndex);
        out.u64(point.position);
        // Hash of the DECODED state: corruption anywhere in the
        // delta chain is pinned to the record where it breaks.
        out.u64(util::xxh64(raw.buffer().data(), raw.size()));
        out.vecU8(util::deltaEncode(prev, raw.buffer()));
        raw.swapOut(prev);
    }
}

bool
LivePointLibrary::save(const LibraryKey &key, const std::string &path,
                       std::string *error, bool createDirs) const
{
    util::BinaryWriter out;
    serialize(key, out);
    return out.writeFile(path, error, createDirs);
}

std::optional<LivePointLibrary>
LivePointLibrary::load(const std::string &path,
                       const LibraryKey &expect, std::string *error)
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

    for (const char c : kMagic)
        if (in.u8() != static_cast<std::uint8_t>(c))
            return refuse(log::format(
                path, " is not a smarts live-point library"));
    // v2 files (no flavor byte, always solo state) and v3 files
    // (FNV-1a record hashes) still load: the same migration policy
    // as checkpoint v1→v2.
    const std::uint32_t version = in.u32();
    if (version < 2 || version > kLivePointFormatVersion)
        return refuse(log::format(
            path, " is format version ", version,
            "; this build reads versions 2 to ",
            kLivePointFormatVersion));
    // The one place the version picks the per-record state hash.
    const auto stateHash = version >= 4 ? &util::xxh64 : &stateFnv1a;
    if (in.u32() != kCheckpointEndianMark)
        return refuse(log::format(path,
                                  " has a bad endianness marker"));
    if (version >= 3) {
        const std::uint8_t flavor = in.u8();
        if (flavor != kCheckpointFlavorSolo)
            return refuse(log::format(
                path, " holds flavor-", flavor,
                " (co-run mix) live-points, which no reader "
                "implements yet (the flavor is reserved)"));
    }

    const LibraryKey stored = LibraryKey::read(in);
    const std::string mismatch = expect.mismatchAgainst(stored);
    if (!mismatch.empty())
        return refuse(log::format(path, ": ", mismatch));
    if (!stored.sampling.unitSize || !stored.sampling.interval)
        return refuse(log::format(
            path, " is corrupt (zero unit size or interval)"));

    LivePointLibrary library;
    library.config_ = stored.sampling;
    library.streamLength_ = in.u64();
    const std::uint64_t count = in.u64();
    // An absurd count means a corrupt length field the checksum
    // somehow missed; bound it by the records the payload could
    // hold, and grow the library only as records actually parse — a
    // count must never size memory the file cannot back.
    if (in.failed() || count > in.remaining() / kMinRecordBytes)
        return refuse(log::format(
            path, " is corrupt (live-point count ", count, ")"));

    // The running chain state: each record's delta is applied to it
    // in place, and the point is parsed from it without a copy.
    std::vector<std::uint8_t> state;
    for (std::uint64_t i = 0; i < count; ++i) {
        LivePoint &point = library.points_.emplace_back();
        point.unitIndex = in.u64();
        point.position = in.u64();
        const std::uint64_t hash = in.u64();
        const util::ByteView delta = in.view(in.u64());
        if (in.failed())
            return refuse(log::format(
                path, " is truncated or has trailing garbage"));

        std::string deltaError;
        if (!util::deltaApply(state, delta.data, delta.size,
                              &deltaError))
            return refuse(log::format(path, " is corrupt (live-point ",
                                      i, ": ", deltaError, ")"));
        if (stateHash(state.data(), state.size()) != hash)
            return refuse(log::format(
                path, " is corrupt (live-point ", i,
                " fails its state hash)"));

        // Seeded with record i-1's image, the parse shares every
        // page the two decoded states have in common.
        if (i > 0)
            point.arch.data = library.points_[i - 1].arch.data;
        util::BinaryReader stateIn(state.data(), state.size());
        point.arch.read(stateIn);
        point.timing.read(stateIn);
        if (stateIn.failed() || stateIn.remaining() != 0)
            return refuse(log::format(
                path, " is corrupt (live-point ", i,
                " has a malformed state)"));

        // The grid is implied by the key: record i resumes unit
        // offset + i*k, at or before the unit's start, positions
        // nondecreasing. A well-checksummed file with records off
        // the grid would MIS-MEASURE instead of failing loudly.
        const std::uint64_t wantIdx =
            stored.sampling.offset + i * stored.sampling.interval;
        const bool onGrid =
            point.unitIndex == wantIdx &&
            point.unitIndex <= ~0ull / stored.sampling.unitSize &&
            point.position <=
                point.unitIndex * stored.sampling.unitSize &&
            (i == 0 ||
             point.position >= library.points_[i - 1].position) &&
            point.position <= library.streamLength_;
        if (!onGrid)
            return refuse(log::format(
                path, " is corrupt (live-point ", i,
                " is off the sampling grid)"));
    }
    if (in.failed() || in.remaining() != 0)
        return refuse(log::format(
            path, " is truncated or has trailing garbage"));
    return library;
}

std::size_t
LivePointLibrary::byteSize() const
{
    std::size_t total = 0;
    std::vector<const PagedImage *> images;
    images.reserve(points_.size());
    for (const LivePoint &point : points_) {
        total += point.byteSize() - point.arch.data.size() * 4;
        images.push_back(&point.arch.data);
    }
    return total + PagedImage::residentBytes(images);
}

AnytimeResult
SystematicSampler::runAnytime(const SessionFactory &factory,
                              const LivePointLibrary &library,
                              exec::ThreadPool &pool,
                              const AnytimeOptions &options) const
{
    if (!factory)
        SMARTS_FATAL("runAnytime needs a session factory");
    if (library.samplingConfig() != config_)
        SMARTS_FATAL("live-point library was built for a different "
                     "sampling design");

    const SamplingConfig config = config_;
    const std::uint64_t chunk = options.chunk ? options.chunk : 1;
    std::vector<SliceResult> samples(library.unitCount());
    return anytimeEstimate(
        samples, options, library.streamLength(),
        [&](const std::vector<std::uint32_t> &order, std::size_t from,
            std::size_t to) {
            // Each chunk job owns one session and writes only its own
            // units' slots; pool.wait() publishes them all, so the
            // batch is bit-identical at any thread count.
            for (std::size_t c = from; c < to; c += chunk) {
                const std::size_t cEnd =
                    std::min<std::size_t>(to, c + chunk);
                pool.submit([&samples, &order, &library, &factory,
                             config, c, cEnd] {
                    std::unique_ptr<SimSession> session = factory();
                    for (std::size_t i = c; i < cEnd; ++i)
                        measureLivePoint(*session, config,
                                         library.at(order[i]),
                                         samples[order[i]]);
                });
            }
            pool.wait();
        });
}

AnytimeResult
SystematicSampler::runAnytimeLeapfrog(SimSession &captureSession,
                                      const SessionFactory &factory,
                                      exec::ThreadPool &pool,
                                      const AnytimeOptions &options,
                                      LivePointLibrary *collect) const
{
    if (!factory)
        SMARTS_FATAL("runAnytimeLeapfrog needs a session factory");

    const SamplingConfig config = config_;
    const std::uint64_t chunk = options.chunk ? options.chunk : 1;

    // Sample slots live in a deque: push_back never moves existing
    // elements, so the capture thread keeps appending while pool
    // jobs write through the stable slot pointers they were handed.
    // Jobs never touch the container itself.
    std::deque<SliceResult> samples;
    std::vector<LivePoint> pendingPoints;
    std::vector<SliceResult *> pendingSlots;

    auto flush = [&] {
        if (pendingPoints.empty())
            return;
        auto points = std::make_shared<std::vector<LivePoint>>(
            std::move(pendingPoints));
        auto slots = std::make_shared<std::vector<SliceResult *>>(
            std::move(pendingSlots));
        pendingPoints.clear();
        pendingSlots.clear();
        pool.submit([points, slots, &factory, config] {
            std::unique_ptr<SimSession> session = factory();
            for (std::size_t i = 0; i < points->size(); ++i)
                measureLivePoint(*session, config, (*points)[i],
                                 *(*slots)[i]);
        });
    };

    // Capture on this thread; every chunk of fresh live-points is
    // handed to the pool the moment it exists, so measurement of
    // unit m overlaps functional warming toward unit m+chunk — the
    // leapfrog. The sink copies each point: capture moves on and
    // the library's own storage may relocate under further appends.
    LivePointLibrary library = LivePointLibrary::build(
        captureSession, config_,
        [&](std::size_t, const LivePoint &point) {
            samples.emplace_back();
            pendingPoints.push_back(point);
            pendingSlots.push_back(&samples.back());
            if (pendingPoints.size() >= chunk)
                flush();
        });
    flush();
    pool.wait();

    // Stop-rule replay over the complete sample set: the per-unit
    // values are the warm path's, so every accept/stop decision
    // lands on the same batch and the reported AnytimeResult matches
    // a warm runAnytime bit for bit.
    AnytimeResult result = anytimeEstimate(
        samples, options, library.streamLength(),
        [](const std::vector<std::uint32_t> &, std::size_t,
           std::size_t) {});
    if (collect)
        *collect = std::move(library);
    return result;
}

SliceResult
SystematicSampler::measureUnits(SimSession &session,
                                const LivePointLibrary &library,
                                std::uint64_t firstUnit,
                                std::uint64_t unitCount,
                                const ProgressTick &tick) const
{
    if (library.samplingConfig() != config_)
        SMARTS_FATAL("live-point library was built for a different "
                     "sampling design");
    if (firstUnit + unitCount > library.unitCount())
        SMARTS_FATAL("unit range [", firstUnit, ", +", unitCount,
                     ") exceeds the library's ",
                     library.unitCount(), " live-points");

    // Slots in ascending order ARE stream order, so the accumulated
    // slice folds exactly like a shard slice: stream-order replay,
    // bit-identical to the serial loop over the same units.
    SliceResult r;
    for (std::uint64_t i = firstUnit; i < firstUnit + unitCount;
         ++i) {
        measureLivePoint(session, config_, library.at(i), r);
        if (tick && !tick())
            break; // abandoned: partial, not publishable.
    }
    r.endPos = library.streamLength();
    return r;
}

} // namespace smarts::core
