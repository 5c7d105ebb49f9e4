/**
 * @file
 * The checkpoint-sharded runner, written once for both tiers: the
 * cold pipelined path (capture pass feeding shard jobs as their
 * checkpoints materialize), the prebuilt-library path, and the
 * store-backed path that picks between them. Per-shard slices are
 * folded in shard order by replaying their per-unit observations,
 * so every path is bit-identical to the serial run at any shard and
 * thread count.
 *
 * A Tier adapter supplies the per-tier pieces:
 *   - types Library (a ShardLibrary), Slice and Estimate, and the
 *     sampler's design as `config`;
 *   - runShard(shard, resume) — fresh session, restored from
 *     @p resume unless null (shard 0), then the shard's slice;
 *   - capture(plan, sink) — the capture pass over a fresh session,
 *     returning the position it ended at;
 *   - fold(slices) — stream-order replay into an estimate;
 *   - load/save(store, key, ...) — the store hooks of its flavor.
 * SystematicSampler (src/core/sampler.cc) and mp::MixSampler
 * (src/mp/mix_sampler.cc) are the two adapters.
 */

#ifndef SMARTS_CORE_SHARD_RUNNER_HH
#define SMARTS_CORE_SHARD_RUNNER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hh"
#include "core/checkpoint_store.hh"
#include "exec/thread_pool.hh"
#include "util/logging.hh"

namespace smarts::core::detail {

/**
 * Sharded run resuming from a prebuilt @p library: no capture pass,
 * so the wall clock is the shard work divided by the pool.
 */
template <typename Tier>
typename Tier::Estimate
runShardsFrom(const Tier &tier, const typename Tier::Library &library,
              exec::ThreadPool &pool)
{
    if (library.samplingConfig() != tier.config)
        SMARTS_FATAL("checkpoint library was built for a different "
                     "sampling design");
    const std::vector<ShardSpec> &plan = library.plan();
    if (plan.empty())
        SMARTS_FATAL("checkpoint library has no shards");

    std::vector<typename Tier::Slice> results(plan.size());
    for (std::size_t s = 0; s < plan.size(); ++s)
        pool.submit([&tier, &results, &plan, &library, s] {
            results[s] =
                tier.runShard(plan[s], s ? &library.at(s) : nullptr);
        });
    pool.wait();
    return tier.fold(results);
}

/**
 * The cold pipelined path: plan @p shards over @p streamLength,
 * stream the capture pass on this thread and run each shard on
 * @p pool the moment its checkpoint exists (shard 0 immediately).
 * @p collect (optional) receives the captured library for
 * persistence.
 */
template <typename Tier>
typename Tier::Estimate
runShardsCold(const Tier &tier, std::uint64_t streamLength,
              std::size_t shards, exec::ThreadPool &pool,
              typename Tier::Library *collect = nullptr)
{
    using Checkpoint = typename Tier::Library::Checkpoint;
    const std::vector<ShardSpec> plan =
        CheckpointLibrary::planShards(tier.config, streamLength, shards);
    if (collect)
        *collect = Tier::Library::prepare(tier.config, plan);

    // One result slot per shard, plus the capture pass's: it measures
    // nothing, but when the plan overstated the stream its end
    // position still bounds what was simulated (normally the tail
    // shard runs the stream out further). Each shard job writes only
    // its own slot; pool.wait() publishes every slot to this thread,
    // so the batch is bit-identical at any thread count.
    std::vector<typename Tier::Slice> results(plan.size() + 1);
    auto submitShard = [&tier, &results, &plan,
                        &pool](std::size_t s, Checkpoint &&cp) {
        pool.submit([&tier, &results, &plan, s, cp = std::move(cp)] {
            results[s] = tier.runShard(plan[s], s ? &cp : nullptr);
        });
    };

    // Shard 0 resumes at stream start: dispatch it before the
    // capture pass so it overlaps checkpoint production.
    submitShard(0, Checkpoint{});
    if (plan.size() > 1)
        results.back().endPos = tier.capture(
            plan, [&submitShard, collect](std::size_t s,
                                          Checkpoint &&cp) {
                if (collect)
                    collect->record(s, cp);
                submitShard(s, std::move(cp));
            });
    pool.wait();
    return tier.fold(results);
}

/**
 * Store-backed sharded run: consult @p store under @p key BEFORE
 * capturing. On a hit, shards resume from the persisted warm state
 * and the capture pass disappears from the run (a hit ignores
 * @p shards and uses the stored plan). On a miss — including a file
 * that refuses to load — plan over @p streamLength() (called only
 * here, so a hit never pays for it), run cold, and persist the
 * captured library for every later run.
 */
template <typename Tier, typename StreamLength>
typename Tier::Estimate
runShardsStored(const Tier &tier, CheckpointStore &store,
                const LibraryKey &key, StreamLength &&streamLength,
                std::size_t shards, exec::ThreadPool &pool)
{
    std::string error;
    if (std::optional<typename Tier::Library> library =
            tier.load(store, key, &error))
        return runShardsFrom(tier, *library, pool);
    // A file that exists but refuses to load is a recapture, never a
    // mis-warm; say why (the loader names the key component —
    // benchmark, sampling design, geometry hash — or the record).
    if (!error.empty())
        SMARTS_WARN("checkpoint store: recapturing (", error, ")");

    typename Tier::Library captured;
    typename Tier::Estimate est =
        runShardsCold(tier, streamLength(), shards, pool, &captured);
    if (!tier.save(store, key, captured, &error))
        SMARTS_WARN("checkpoint store: could not persist ",
                    store.pathFor(key), " (", error, ")");
    return est;
}

} // namespace smarts::core::detail

#endif // SMARTS_CORE_SHARD_RUNNER_HH
