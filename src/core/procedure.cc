#include "core/procedure.hh"

#include <algorithm>

#include "core/checkpoint_store.hh"
#include "core/livepoint.hh"
#include "util/logging.hh"

namespace smarts::core {

SmartsProcedure::SmartsProcedure(const ProcedureConfig &config)
    : config_(config)
{
    if (!config.nInit)
        SMARTS_FATAL("procedure nInit must be nonzero");
}

namespace {

/** What a sharded pass runs on: the pool, and (optionally) the
 *  persistent store plus the identity that keys it. */
struct ShardedContext
{
    exec::ThreadPool *pool = nullptr;
    std::size_t shards = 0;
    CheckpointStore *store = nullptr;
    const workloads::BenchmarkSpec *spec = nullptr;
    const uarch::MachineConfig *machine = nullptr;
};

/** One sampling pass: serial, checkpoint-sharded, or store-backed. */
core::SmartsEstimate
runPass(const SamplingConfig &sc,
        const SmartsProcedure::SessionFactory &factory,
        std::uint64_t streamLength, const ShardedContext &ctx)
{
    if (ctx.pool && ctx.store)
        return SystematicSampler(sc).runSharded(
            factory, *ctx.spec, *ctx.machine, streamLength,
            ctx.shards, *ctx.pool, *ctx.store);
    if (ctx.pool)
        return SystematicSampler(sc).runSharded(factory, streamLength,
                                                ctx.shards, *ctx.pool);
    auto session = factory();
    return SystematicSampler(sc).run(*session);
}

ProcedureResult
twoPass(const ProcedureConfig &config,
        const SmartsProcedure::SessionFactory &factory,
        std::uint64_t streamLength, const ShardedContext &ctx)
{
    SamplingConfig sc;
    sc.unitSize = config.unitSize;
    sc.detailedWarming = config.detailedWarming;
    sc.warming = config.warming;
    sc.interval = SamplingConfig::chooseInterval(
        streamLength, config.unitSize, config.nInit);

    ProcedureResult result;
    result.initial = runPass(sc, factory, streamLength, ctx);

    // Size n_tuned from the measured V-hat (Eq. 3); rerun only when
    // the initial confidence interval misses the target.
    result.recommendedN = stats::requiredSampleSize(
        result.initial.cpiCv(), config.target);
    const double ci =
        result.initial.cpiConfidenceInterval(config.target.level);
    if (ci <= config.target.epsilon)
        return result;

    // The tuned pass must MEET n_tuned — Eq. 3 gives a minimum, so
    // round-to-nearest (which can undershoot by half an interval's
    // worth of units) is wrong here; floor division guarantees at
    // least recommendedN units.
    const std::uint64_t units = streamLength / config.unitSize;
    sc.interval = units > result.recommendedN && result.recommendedN
                      ? units / result.recommendedN
                      : 1;
    result.tuned = runPass(sc, factory, streamLength, ctx);
    return result;
}

} // namespace

ProcedureResult
SmartsProcedure::estimate(const SessionFactory &factory,
                          std::uint64_t streamLength) const
{
    return twoPass(config_, factory, streamLength, {});
}

ProcedureResult
SmartsProcedure::estimateSharded(const SessionFactory &factory,
                                 std::uint64_t streamLength,
                                 exec::ThreadPool &pool,
                                 std::size_t shards) const
{
    ShardedContext ctx;
    ctx.pool = &pool;
    ctx.shards = shards;
    return twoPass(config_, factory, streamLength, ctx);
}

ProcedureResult
SmartsProcedure::estimateSharded(const SessionFactory &factory,
                                 const workloads::BenchmarkSpec &spec,
                                 const uarch::MachineConfig &machine,
                                 std::uint64_t streamLength,
                                 exec::ThreadPool &pool,
                                 std::size_t shards,
                                 CheckpointStore &store) const
{
    ShardedContext ctx;
    ctx.pool = &pool;
    ctx.shards = shards;
    ctx.store = &store;
    ctx.spec = &spec;
    ctx.machine = &machine;
    return twoPass(config_, factory, streamLength, ctx);
}

AnytimeResult
SmartsProcedure::estimateAnytime(const SessionFactory &factory,
                                 const workloads::BenchmarkSpec &spec,
                                 const uarch::MachineConfig &machine,
                                 std::uint64_t streamLength,
                                 exec::ThreadPool &pool,
                                 CheckpointStore &store,
                                 std::uint64_t seed) const
{
    // The densest design the two-pass recipe would consider: nInit
    // available units. The anytime run stops when the target is met,
    // so a dense grid costs nothing extra — it is headroom for
    // high-variance streams, not a commitment.
    SamplingConfig sc;
    sc.unitSize = config_.unitSize;
    sc.detailedWarming = config_.detailedWarming;
    sc.warming = config_.warming;
    sc.interval = SamplingConfig::chooseInterval(
        streamLength, config_.unitSize, config_.nInit);

    const LibraryKey key = LibraryKey::of(spec, machine, sc);
    AnytimeOptions options;
    options.target = config_.target;
    options.seed = seed;

    // One store lookup decides the path (the store's index makes it
    // a single stat at most — see StoreCounters::statCalls). Hit:
    // measure from the persisted live-points. Miss: the LEAPFROG
    // cold path — capture overlaps measurement, and the encoding of
    // the records, at chunk grain — then publish those records in
    // one write so every later run hits. Both paths report the
    // identical AnytimeResult.
    std::string error;
    std::optional<LivePointLibrary> library =
        store.tryLoadLivePoints(key, &error);
    if (library)
        return SystematicSampler(sc).runAnytime(factory, *library,
                                                pool, options);
    if (!error.empty())
        SMARTS_WARN("checkpoint store: recapturing live-points (",
                    error, ")");

    auto session = factory();
    EncodedLivePoints captured;
    const AnytimeResult result =
        SystematicSampler(sc).runAnytimeLeapfrog(
            *session, factory, pool, options, &captured);
    if (!store.saveLivePoints(captured, key, &error))
        SMARTS_WARN("checkpoint store: could not persist ",
                    store.livePointPathFor(key), " (", error, ")");
    return result;
}

MatchedProcedureResult
SmartsProcedure::estimateMatched(const MultiSessionFactory &factory,
                                 std::uint64_t streamLength) const
{
    SamplingConfig sc;
    sc.unitSize = config_.unitSize;
    sc.detailedWarming = config_.detailedWarming;
    sc.warming = config_.warming;
    sc.interval = SamplingConfig::chooseInterval(
        streamLength, config_.unitSize, config_.nInit);

    MatchedProcedureResult result;
    {
        auto session = factory();
        result.initial = SystematicSampler(sc).runMatched(*session);
    }

    // Size n_tuned from the worst per-config V-hat; rerun only when
    // any config's confidence interval misses the target.
    double worstCv = 0.0;
    double worstCi = 0.0;
    for (const SmartsEstimate &est : result.initial.perConfig) {
        worstCv = std::max(worstCv, est.cpiCv());
        worstCi = std::max(
            worstCi, est.cpiConfidenceInterval(config_.target.level));
    }
    result.recommendedN =
        stats::requiredSampleSize(worstCv, config_.target);
    if (worstCi <= config_.target.epsilon)
        return result;

    sc.interval = SamplingConfig::chooseInterval(
        streamLength, config_.unitSize, result.recommendedN);
    auto session = factory();
    result.tuned = SystematicSampler(sc).runMatched(*session);
    return result;
}

} // namespace smarts::core
