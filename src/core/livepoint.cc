#include "core/livepoint.hh"

#include <algorithm>
#include <deque>
#include <memory>
#include <numeric>
#include <utility>

#include "core/capture.hh"
#include "exec/thread_pool.hh"
#include "util/delta_codec.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace smarts::core {

namespace {

/**
 * The `.smlp` header (util::FileKind), its magic distinct from
 * `.smck`'s: v2 files (no flavor byte, always solo state) and v3
 * files (FNV-1a record hashes) still load, the same migration policy
 * as checkpoint v1→v2.
 */
constexpr util::FileKind kLivePointFile{
    "SMRTLVPT", kLivePointFormatVersion, 2, "live-point library",
    "format version"};

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
 * The solo live-point capture, through core::SplitCapture:
 * the walk above, with each point snapped in two halves. The calling
 * thread snaps the architectural state into one running ArchState,
 * which keeps every page the unit's gap left unwritten (so each
 * point shares them with the point before it), copies it into the
 * point with the timing state but its memory hierarchy, and queues
 * the point; the warming thread adds the hierarchy there and hands
 * the finished point to @p take, in unit order. Returns the stream
 * length.
 */
template <typename Take>
std::uint64_t
captureSoloLivePoints(SimSession &session, const SamplingConfig &config,
                      Take &&take)
{
    SplitCapture split(session);
    ArchState arch;
    captureLivePoints(split, config, [&](std::uint64_t unitIdx) {
        LivePoint point;
        split.saveCore(arch, point.timing);
        point.arch = arch;
        point.position = arch.instCount;
        point.unitIndex = unitIdx;
        split.atWarmer([&take, point = std::move(point)](
                           const mem::MemHierarchy &memory) mutable {
            memory.saveState(point.timing.mem);
            take(std::move(point));
        });
    });
    split.finish();
    return split.instCount();
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

/** Append @p point's raw state, the bytes a record hashes. */
void
writeState(const LivePoint &point, util::BinaryWriter &raw)
{
    point.arch.write(raw);
    point.timing.write(raw);
}

/**
 * The `.smlp` header (docs/checkpoint-format.md § Live-point
 * libraries): magic, version, endianness marker, flavor, @p key,
 * stream length and record count.
 */
void
writeHeader(const LibraryKey &key, std::uint64_t streamLength,
            std::uint64_t count, util::BinaryWriter &out)
{
    util::writeHeader(out, kLivePointFile);
    out.u8(kCheckpointFlavorSolo);
    key.write(out);
    out.u64(streamLength);
    out.u64(count);
}

/**
 * The one `.smlp` record encoder: append the records of the points
 * [@p first, @p last) to @p out, the first one delta-encoded against
 * @p base — the point before @p first in the chain — or against an
 * empty state when @p base is null, at the start of a chain. A
 * record is unitIndex, position, the XXH64 of the DECODED state
 * (corruption anywhere in the chain is pinned to the record where
 * it breaks) and the delta against the previous point's state.
 * LivePointLibrary::serialize encodes a whole library in one call;
 * the leapfrog cold path encodes each chunk in the pool job that
 * measures it. The bytes are the same either way.
 */
void
encodeRecords(const LivePoint *base, const LivePoint *first,
              const LivePoint *last, util::BinaryWriter &out)
{
    // One raw buffer is reused per record and swapped into prev, so
    // the chain allocates its state storage twice, not per record.
    std::vector<std::uint8_t> prev;
    util::BinaryWriter raw;
    if (base) {
        writeState(*base, raw);
        raw.swapOut(prev);
    }
    for (const LivePoint *point = first; point != last; ++point) {
        writeState(*point, raw);
        out.u64(point->unitIndex);
        out.u64(point->position);
        out.u64(util::xxh64(raw.buffer().data(), raw.size()));
        out.vecU8(util::deltaEncode(prev, raw.buffer()));
        raw.swapOut(prev);
    }
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

void
LivePointRecycler::keep(std::vector<LivePoint> &&points)
{
    std::vector<LivePoint> dropped;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        dropped.swap(points_);
        points_.swap(points);
    }
    // The points kept before are freed here, outside the lock.
}

std::vector<LivePoint>
LivePointRecycler::take()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(points_, {});
}

LivePointLibrary::~LivePointLibrary()
{
    if (recycler_ && !points_.empty())
        recycler_->keep(std::move(points_));
}

LivePointLibrary
LivePointLibrary::build(SimSession &session,
                        const SamplingConfig &config)
{
    LivePointLibrary library;
    library.config_ = config;
    library.streamLength_ = captureSoloLivePoints(
        session, config, [&library](LivePoint &&point) {
            library.points_.push_back(std::move(point));
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
    writeHeader(key, streamLength_, points_.size(), out);
    encodeRecords(nullptr, points_.data(),
                  points_.data() + points_.size(), out);
}

bool
LivePointLibrary::save(const LibraryKey &key, const std::string &path,
                       std::string *error, bool createDirs) const
{
    // Each chunk is encoded against the point before it, as the
    // leapfrog's chunk jobs encode theirs, and trimmed to its size:
    // the file is held once, in segments, never in one buffer grown
    // by doubling.
    constexpr std::size_t kChunk = 64;
    EncodedLivePoints records;
    records.streamLength_ = streamLength_;
    records.unitCount_ = points_.size();
    for (std::size_t first = 0; first < points_.size(); first += kChunk) {
        const std::size_t last = std::min(points_.size(), first + kChunk);
        util::BinaryWriter out;
        encodeRecords(first ? &points_[first - 1] : nullptr,
                      points_.data() + first, points_.data() + last, out);
        std::vector<std::uint8_t> &segment = records.segments_.emplace_back();
        out.swapOut(segment);
        segment.shrink_to_fit();
    }
    return records.save(key, path, error, createDirs);
}

bool
EncodedLivePoints::save(const LibraryKey &key, const std::string &path,
                        std::string *error, bool createDirs) const
{
    util::BinaryWriter header;
    writeHeader(key, streamLength_, unitCount_, header);
    std::vector<util::ByteView> file{
        {header.buffer().data(), header.size()}};
    for (const std::vector<std::uint8_t> &segment : segments_)
        file.push_back({segment.data(), segment.size()});
    return util::writeFile(path, file, error, createDirs);
}

std::optional<LivePointLibrary>
LivePointLibrary::load(const std::string &path,
                       const LibraryKey &expect, std::string *error,
                       std::shared_ptr<LivePointRecycler> recycler)
{
    auto refuse = [error](std::string why) {
        if (error)
            *error = std::move(why);
        return std::nullopt;
    };

    util::BinaryReader in = util::BinaryReader::fromFile(path, error);
    const std::uint32_t version =
        util::readHeader(in, kLivePointFile, path, error);
    if (!version)
        return std::nullopt;
    // The one place the version picks the per-record state hash.
    const auto stateHash = version >= 4 ? &util::xxh64 : &stateFnv1a;
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
    // in place, and the point is parsed from it without a copy, into
    // a recycled point while there are any.
    std::vector<LivePoint> spare;
    if (recycler)
        spare = recycler->take();
    library.recycler_ = std::move(recycler);
    std::vector<std::uint8_t> state;
    for (std::uint64_t i = 0; i < count; ++i) {
        LivePoint &point =
            i < spare.size() ? library.points_.emplace_back(
                                   std::move(spare[i]))
                             : library.points_.emplace_back();
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
                                      EncodedLivePoints *persist) const
{
    if (!factory)
        SMARTS_FATAL("runAnytimeLeapfrog needs a session factory");

    const SamplingConfig config = config_;
    const std::uint64_t chunk = options.chunk ? options.chunk : 1;
    if (persist)
        *persist = EncodedLivePoints{};

    // Sample slots (and record segments) live in deques: push_back
    // never moves existing elements, so the capture thread keeps
    // appending while pool jobs write through the stable pointers
    // they were handed. Jobs never touch the containers themselves.
    std::deque<SliceResult> samples;
    std::vector<LivePoint> pending;
    std::vector<SliceResult *> pendingSlots;
    // When persisting, the previous chunk's last point: the next
    // chunk's delta base. No other point outlives the job that
    // measures it.
    std::shared_ptr<const LivePoint> previous;

    auto flush = [&] {
        if (pending.empty())
            return;
        auto points = std::make_shared<const std::vector<LivePoint>>(
            std::move(pending));
        auto slots = std::make_shared<std::vector<SliceResult *>>(
            std::move(pendingSlots));
        pending.clear();
        pendingSlots.clear();
        std::vector<std::uint8_t> *segment = nullptr;
        std::shared_ptr<const LivePoint> base;
        if (persist) {
            segment = &persist->segments_.emplace_back();
            base = std::exchange(previous, std::make_shared<const LivePoint>(
                                               points->back()));
        }
        pool.submit([points, slots, base, segment, &factory, config] {
            std::unique_ptr<SimSession> session = factory();
            for (std::size_t i = 0; i < points->size(); ++i)
                measureLivePoint(*session, config, (*points)[i],
                                 *(*slots)[i]);
            if (segment) {
                util::BinaryWriter out;
                encodeRecords(base.get(), points->data(),
                              points->data() + points->size(), out);
                out.swapOut(*segment);
            }
        });
    };

    // Capture through SplitCapture: this thread interprets, and the
    // warming thread completes each live-point and hands every chunk
    // of them to the pool the moment it exists, so measurement (and,
    // when persisting, encoding) of unit m overlaps functional
    // warming toward unit m+chunk — the leapfrog. The chunk state
    // above is the warming thread's until the capture returns.
    const std::uint64_t streamLength = captureSoloLivePoints(
        captureSession, config, [&](LivePoint &&point) {
            pending.push_back(std::move(point));
            samples.emplace_back();
            pendingSlots.push_back(&samples.back());
            if (pending.size() >= chunk)
                flush();
        });
    flush();
    pool.wait();
    if (persist) {
        persist->streamLength_ = streamLength;
        persist->unitCount_ = samples.size();
    }

    // Stop-rule replay over the complete sample set: the per-unit
    // values are the warm path's, so every accept/stop decision
    // lands on the same batch and the reported AnytimeResult matches
    // a warm runAnytime bit for bit.
    return anytimeEstimate(
        samples, options, streamLength,
        [](const std::vector<std::uint32_t> &, std::size_t,
           std::size_t) {});
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
