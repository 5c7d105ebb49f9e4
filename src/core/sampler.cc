#include "core/sampler.hh"

#include <memory>

#include "core/checkpoint.hh"
#include "core/checkpoint_store.hh"
#include "core/shard_runner.hh"
#include "util/logging.hh"

namespace smarts::core {

namespace {

/** The solo tier of the shard runner (core/shard_runner.hh). */
struct SoloShards
{
    using Library = CheckpointLibrary;
    using Slice = SliceResult;
    using Estimate = SmartsEstimate;

    const SystematicSampler &sampler;
    const SamplingConfig &config;
    const SessionFactory &factory;

    SoloShards(const SystematicSampler &sampler,
               const SamplingConfig &config,
               const SessionFactory &factory)
        : sampler(sampler), config(config), factory(factory)
    {
        if (!factory)
            SMARTS_FATAL("runSharded needs a session factory");
    }

    Slice
    runShard(const ShardSpec &shard, const ArchCheckpoint *resume) const
    {
        std::unique_ptr<SimSession> session = factory();
        if (resume)
            resume->restoreInto(*session);
        return sampler.runSlice(*session, shard);
    }

    std::uint64_t
    capture(const std::vector<ShardSpec> &plan,
            const Library::CheckpointSink &sink) const
    {
        std::unique_ptr<SimSession> session = factory();
        Library::capture(*session, config, plan, sink);
        return session->instCount();
    }

    Estimate
    fold(const std::vector<Slice> &slices) const
    {
        SmartsEstimate est;
        for (const SliceResult &slice : slices)
            SystematicSampler::foldSlice(est, slice);
        return est;
    }

    std::optional<Library>
    load(const CheckpointStore &store, const LibraryKey &key,
         std::string *error) const
    {
        return store.tryLoad(key, error);
    }

    bool
    save(const CheckpointStore &store, const LibraryKey &key,
         const Library &library, std::string *error) const
    {
        return store.save(key, library, error);
    }
};

} // namespace

SliceResult
SystematicSampler::runSlice(SimSession &session,
                            const ShardSpec &shard,
                            const ProgressTick &tick) const
{
    return detail::measureWalk<UnitObservation>(
        session, config_, shard.firstUnitIndex,
        shard.runsTail ? ~0ull : shard.unitCount, shard.runsTail,
        detail::observeUnit, tick);
}

void
SystematicSampler::foldSlice(SmartsEstimate &est,
                             const SliceResult &slice)
{
    for (const UnitObservation &o : slice.obs) {
        est.cpiStats.add(o.cpi);
        est.epiStats.add(o.epi);
    }
    est.instructionsMeasured += slice.measured;
    est.instructionsWarmed += slice.warmed;
    est.instructionsDropped += slice.dropped;
    if (slice.endPos > est.streamLength)
        est.streamLength = slice.endPos;
}

SystematicSampler::SystematicSampler(const SamplingConfig &config)
    : config_(config)
{
    if (!config.unitSize)
        SMARTS_FATAL("sampling unit size must be nonzero");
    if (!config.interval)
        SMARTS_FATAL("sampling interval must be nonzero");
}

SmartsEstimate
SystematicSampler::run(SimSession &session) const
{
    SmartsEstimate est;
    foldSlice(est, detail::measureWalk<UnitObservation>(
                       session, config_, config_.offset, ~0ull,
                       /*runTail=*/true, detail::observeUnit));
    return est;
}

MatchedEstimate
SystematicSampler::runMatched(MultiSession &session) const
{
    // Every config observes the same window: one interpretation pass
    // warms and times all N models.
    const SliceOf<std::vector<UnitObservation>> slice =
        detail::measureWalk<std::vector<UnitObservation>>(
            session, config_, config_.offset, ~0ull, /*runTail=*/true,
            [](const MultiSegment &seg) {
                std::vector<UnitObservation> per;
                per.reserve(seg.per.size());
                for (const Segment &one : seg.per)
                    per.push_back(detail::observeUnit(one));
                return per;
            });

    const std::size_t n = session.configCount();
    MatchedEstimate est;
    est.perConfig.resize(n);
    est.cpiDelta.resize(n);
    for (const std::vector<UnitObservation> &per : slice.obs)
        for (std::size_t c = 0; c < n; ++c) {
            est.perConfig[c].cpiStats.add(per[c].cpi);
            est.perConfig[c].epiStats.add(per[c].epi);
            est.cpiDelta[c].add(per[c].cpi - per[0].cpi);
        }
    for (SmartsEstimate &one : est.perConfig) {
        one.instructionsMeasured = slice.measured;
        one.instructionsWarmed = slice.warmed;
        one.instructionsDropped = slice.dropped;
        one.streamLength = slice.endPos;
    }
    return est;
}

SmartsEstimate
SystematicSampler::runSharded(const SessionFactory &factory,
                              std::uint64_t streamLength,
                              std::size_t shards,
                              exec::ThreadPool &pool) const
{
    return detail::runShardsCold(SoloShards(*this, config_, factory),
                                 streamLength, shards, pool);
}

SmartsEstimate
SystematicSampler::runSharded(const SessionFactory &factory,
                              const workloads::BenchmarkSpec &spec,
                              const uarch::MachineConfig &machine,
                              std::uint64_t streamLength,
                              std::size_t shards,
                              exec::ThreadPool &pool,
                              CheckpointStore &store) const
{
    return detail::runShardsStored(
        SoloShards(*this, config_, factory), store,
        LibraryKey::of(spec, machine, config_),
        [streamLength] { return streamLength; }, shards, pool);
}

SmartsEstimate
SystematicSampler::runSharded(const SessionFactory &factory,
                              const CheckpointLibrary &library,
                              exec::ThreadPool &pool) const
{
    return detail::runShardsFrom(SoloShards(*this, config_, factory),
                                 library, pool);
}

} // namespace smarts::core
