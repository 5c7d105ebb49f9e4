#include "mp/mix_sampler.hh"

#include "core/checkpoint_store.hh"
#include "core/shard_runner.hh"
#include "exec/thread_pool.hh"
#include "util/logging.hh"

namespace smarts::mp {

namespace {

/**
 * The co-run per-unit observer: every program observed the same
 * U-round (= U-instruction) window, in both worlds.
 */
MixUnitObservation
observeMixUnit(const MixSegment &seg)
{
    const double u = static_cast<double>(seg.rounds);
    MixUnitObservation o;
    o.per.resize(seg.per.size());
    for (std::size_t p = 0; p < seg.per.size(); ++p) {
        const MixLaneSegment &ls = seg.per[p];
        MixLaneObservation &lo = o.per[p];
        lo.coCpi = static_cast<double>(ls.coCycles) / u;
        lo.coEpi = ls.coEnergyNj / u;
        lo.soloCpi = static_cast<double>(ls.soloCycles) / u;
        lo.soloEpi = ls.soloEnergyNj / u;
        lo.sharedAccesses = ls.sharedAccesses;
        lo.sharedMisses = ls.sharedMisses;
        lo.shadowAccesses = ls.shadowAccesses;
        lo.shadowMisses = ls.shadowMisses;
    }
    return o;
}

/** The co-run tier of the shard runner (core/shard_runner.hh). */
struct MixShards
{
    using Library = MixLibrary;
    using Slice = MixSliceResult;
    using Estimate = MixEstimate;

    const MixSampler &sampler;
    const core::SamplingConfig &config;

    explicit MixShards(const MixSampler &sampler)
        : sampler(sampler), config(sampler.samplingConfig())
    {
    }

    Slice
    runShard(const core::ShardSpec &shard,
             const MixCheckpoint *resume) const
    {
        MixSession session = sampler.makeSession();
        if (resume)
            resume->restoreInto(session);
        return sampler.runSlice(session, shard);
    }

    std::uint64_t
    capture(const std::vector<core::ShardSpec> &plan,
            const Library::CheckpointSink &sink) const
    {
        MixSession session = sampler.makeSession();
        Library::capture(session, config, plan, sink);
        return session.roundCount();
    }

    Estimate
    fold(const std::vector<Slice> &slices) const
    {
        MixEstimate est;
        est.perProgram.resize(sampler.mix().programs.size());
        for (const MixSliceResult &slice : slices)
            MixSampler::foldSlice(est, slice);
        return est;
    }

    std::optional<Library>
    load(const core::CheckpointStore &store,
         const core::LibraryKey &key, std::string *error) const
    {
        std::optional<MixLibrary> library;
        store.loadEntry(
            key,
            [this, &key, &library](const std::string &path,
                                   std::string *loadError) {
                library =
                    MixLibrary::load(path, sampler.mix(), key, loadError);
                return library.has_value();
            },
            error);
        return library;
    }

    bool
    save(const core::CheckpointStore &store,
         const core::LibraryKey &key, const Library &library,
         std::string *error) const
    {
        return store.publishEntry(
            key,
            [this, &key, &library](const std::string &path,
                             std::string *saveError) {
                return library.save(sampler.mix(), key, path, saveError,
                                    /*createDirs=*/false);
            },
            error);
    }
};

} // namespace

MixSampler::MixSampler(const WorkloadMix &mix,
                       const uarch::MachineConfig &machine,
                       const core::SamplingConfig &sampling)
    : mix_(mix), machine_(machine), sampling_(sampling)
{
    if (mix_.programs.empty())
        SMARTS_FATAL("a workload mix needs at least one program");
    if (!sampling_.unitSize)
        SMARTS_FATAL("sampling unit size must be nonzero");
    if (!sampling_.interval)
        SMARTS_FATAL("sampling interval must be nonzero");
}

MixSession
MixSampler::makeSession() const
{
    return MixSession(mix_, machine_);
}

std::uint64_t
MixSampler::measureStreamLength() const
{
    MixSession session = makeSession();
    core::detail::runOut(session, core::WarmingMode::None);
    return session.roundCount();
}

void
MixSampler::foldSlice(MixEstimate &est, const MixSliceResult &slice)
{
    for (const MixUnitObservation &o : slice.obs)
        for (std::size_t p = 0; p < o.per.size(); ++p) {
            const MixLaneObservation &lo = o.per[p];
            MixProgramEstimate &pe = est.perProgram[p];
            pe.coRun.cpiStats.add(lo.coCpi);
            pe.coRun.epiStats.add(lo.coEpi);
            pe.solo.cpiStats.add(lo.soloCpi);
            pe.solo.epiStats.add(lo.soloEpi);
            pe.cpiDelta.add(lo.coCpi - lo.soloCpi);
            pe.sharedAccesses += lo.sharedAccesses;
            pe.sharedMisses += lo.sharedMisses;
            pe.shadowAccesses += lo.shadowAccesses;
            pe.shadowMisses += lo.shadowMisses;
        }
    for (MixProgramEstimate &pe : est.perProgram)
        for (core::SmartsEstimate *world : {&pe.coRun, &pe.solo}) {
            world->instructionsMeasured += slice.measured;
            world->instructionsWarmed += slice.warmed;
            world->instructionsDropped += slice.dropped;
            if (slice.endPos > world->streamLength)
                world->streamLength = slice.endPos;
        }
}

MixSliceResult
MixSampler::runSlice(MixSession &session,
                     const core::ShardSpec &shard) const
{
    return core::detail::measureWalk<MixUnitObservation>(
        session, sampling_, shard.firstUnitIndex,
        shard.runsTail ? ~0ull : shard.unitCount, shard.runsTail,
        observeMixUnit);
}

MixEstimate
MixSampler::run() const
{
    MixSession session = makeSession();
    core::ShardSpec whole;
    whole.firstUnitIndex = sampling_.offset;
    whole.runsTail = true;
    MixEstimate est;
    est.perProgram.resize(mix_.programs.size());
    foldSlice(est, runSlice(session, whole));
    return est;
}

MixEstimate
MixSampler::runSharded(std::uint64_t streamLength,
                       std::size_t shards,
                       exec::ThreadPool &pool) const
{
    return core::detail::runShardsCold(MixShards(*this),
                                       streamLength, shards, pool);
}

MixEstimate
MixSampler::runSharded(const MixLibrary &library,
                       exec::ThreadPool &pool) const
{
    return core::detail::runShardsFrom(MixShards(*this),
                                       library, pool);
}

MixEstimate
MixSampler::runSharded(std::uint64_t streamLength,
                       std::size_t shards, exec::ThreadPool &pool,
                       core::CheckpointStore &store) const
{
    return core::detail::runShardsStored(
        MixShards(*this), store, mixKey(mix_, machine_, sampling_),
        [streamLength] { return streamLength; }, shards, pool);
}

MixEstimate
runMix(const WorkloadMix &mix, const uarch::MachineConfig &machine,
       const core::SamplingConfig &sampling, std::size_t threads)
{
    MixSampler sampler(mix, machine, sampling);
    if (threads <= 1)
        return sampler.run();
    const std::uint64_t streamLength =
        sampler.measureStreamLength();
    exec::ThreadPool pool(static_cast<unsigned>(threads));
    return sampler.runSharded(streamLength, threads, pool);
}

MixEstimate
estimateMix(const WorkloadMix &mix,
            const uarch::MachineConfig &machine,
            const core::SamplingConfig &sampling,
            std::size_t threads, core::CheckpointStore &store)
{
    const MixSampler sampler(mix, machine, sampling);
    const std::size_t workers = threads ? threads : 1;
    exec::ThreadPool pool(static_cast<unsigned>(workers));
    return core::detail::runShardsStored(
        MixShards(sampler), store, mixKey(mix, machine, sampling),
        [&sampler] { return sampler.measureStreamLength(); }, workers,
        pool);
}

} // namespace smarts::mp
