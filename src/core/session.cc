#include "core/session.hh"

#include "util/logging.hh"
#include "util/rng.hh"

namespace smarts::core {

SimSession::SimSession(const workloads::BenchmarkSpec &spec,
                       const uarch::MachineConfig &config)
    : arch_(spec), model_(config)
{
}

std::uint64_t
SimSession::fastForward(std::uint64_t maxInsts, WarmingMode mode)
{
    return withWarmingMode(
        mode, [&](auto caches, auto bpred) SMARTS_INLINE_LAMBDA {
            return detail::stepLoop(
                arch_, maxInsts,
                [&](const StepInfo &info) SMARTS_INLINE_LAMBDA {
                    model_.warm<decltype(caches)::value,
                                decltype(bpred)::value>(info);
                });
        });
}

std::uint64_t
SimSession::warmAsDetailed(std::uint64_t maxInsts)
{
    return detail::stepLoop(
        arch_, maxInsts, [&](const StepInfo &info) SMARTS_INLINE_LAMBDA {
            model_.warmDetailed(info);
        });
}

Segment
SimSession::detailedRun(std::uint64_t maxInsts)
{
    model_.beginSegment();
    const std::uint64_t executed = detail::stepLoop(
        arch_, maxInsts, [&](const StepInfo &info) SMARTS_INLINE_LAMBDA {
            model_.detailedStep(info);
        });
    return model_.endSegment(executed)[0];
}

namespace {

/** profileBbvs's projection of a block start onto @p dims buckets. */
[[gnu::noinline, gnu::cold]] std::size_t
bucketOf(std::uint32_t blockPc, std::size_t dims)
{
    return static_cast<std::size_t>(mix64(blockPc) % dims);
}

} // namespace

std::vector<std::vector<double>>
SimSession::profileBbvs(std::uint64_t intervalSize, std::size_t dims)
{
    if (!intervalSize || !dims)
        SMARTS_FATAL("profileBbvs needs nonzero interval and dims");

    // mix64(pc) % dims once per code slot, so the per-block path
    // reads a table instead of dividing. A block starts at the PC of
    // an executed instruction, which names a slot unless a JR jumped
    // to an unaligned address; that PC, and a zero-length block's
    // start past the end of code, take the exact formula off the
    // table.
    std::vector<std::size_t> slotBucket(arch_.codeWords());
    for (std::size_t i = 0; i < slotBucket.size(); ++i)
        slotBucket[i] = bucketOf(
            static_cast<std::uint32_t>(workloads::kCodeBase + 4 * i),
            dims);
    auto bucket = [&slotBucket, dims](std::uint32_t blockPc) {
        const std::uint32_t offset = blockPc - workloads::kCodeBase;
        if (!(offset & 3) && (offset >> 2) < slotBucket.size())
            return slotBucket[offset >> 2];
        return bucketOf(blockPc, dims);
    };

    std::vector<std::vector<double>> intervals;
    std::vector<double> current(dims, 0.0);
    std::uint64_t inInterval = 0;
    std::uint32_t blockStart = arch_.pc();
    double blockLen = 0;

    StepInfo info;
    while (arch_.step(info)) {
        ++blockLen;
        ++inInterval;
        if (info.di.isBranch()) {
            current[bucket(blockStart)] += blockLen;
            blockStart = info.nextPc;
            blockLen = 0;
        }
        if (inInterval == intervalSize) {
            current[bucket(blockStart)] += blockLen;
            blockLen = 0;
            blockStart = arch_.pc();
            for (double &x : current)
                x /= static_cast<double>(intervalSize);
            intervals.push_back(current);
            std::fill(current.begin(), current.end(), 0.0);
            inInterval = 0;
        }
    }
    return intervals;
}

} // namespace smarts::core
