#include "core/multi_session.hh"

#include "util/logging.hh"

namespace smarts::core {

MultiSession::MultiSession(
    const workloads::BenchmarkSpec &spec,
    const std::vector<uarch::MachineConfig> &configs)
    : arch_(spec)
{
    if (configs.empty())
        SMARTS_FATAL("MultiSession needs at least one machine config");
    models_.reserve(configs.size());
    for (const auto &config : configs)
        models_.emplace_back(config);
}

std::uint64_t
MultiSession::fastForward(std::uint64_t maxInsts, WarmingMode mode)
{
    return withWarmingMode(
        mode, [&](auto caches, auto bpred) SMARTS_INLINE_LAMBDA {
            return detail::stepLoop(
                arch_, maxInsts,
                [&](const StepInfo &info) SMARTS_INLINE_LAMBDA {
                    for (TimingModel &model : models_)
                        model.warm<decltype(caches)::value,
                                   decltype(bpred)::value>(info);
                });
        });
}

std::uint64_t
MultiSession::warmAsDetailed(std::uint64_t maxInsts)
{
    return detail::stepLoop(
        arch_, maxInsts, [&](const StepInfo &info) SMARTS_INLINE_LAMBDA {
            for (TimingModel &model : models_)
                model.warmDetailed(info);
        });
}

void
MultiSession::saveState(ArchState &arch,
                        std::vector<TimingState> &timings) const
{
    arch_.saveState(arch);
    timings.resize(models_.size());
    for (std::size_t i = 0; i < models_.size(); ++i)
        models_[i].saveState(timings[i]);
}

MultiSegment
MultiSession::detailedRun(std::uint64_t maxInsts)
{
    for (TimingModel &model : models_)
        model.beginSegment();

    const std::uint64_t executed = detail::stepLoop(
        arch_, maxInsts, [&](const StepInfo &info) SMARTS_INLINE_LAMBDA {
            for (TimingModel &model : models_)
                model.detailedStep(info);
        });

    MultiSegment seg;
    seg.instructions = executed;
    seg.per.reserve(models_.size());
    for (TimingModel &model : models_)
        seg.per.push_back(model.endSegment(executed)[0]);
    return seg;
}

} // namespace smarts::core
