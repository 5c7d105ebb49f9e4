#include "mp/mix_session.hh"

#include "util/logging.hh"

namespace smarts::mp {

MixSession::MixSession(const WorkloadMix &mix,
                       const uarch::MachineConfig &config)
    : config_(config),
      shared_(config.mem,
              static_cast<std::uint32_t>(mix.programs.size()),
              mix.policy)
{
    if (mix.programs.empty())
        SMARTS_FATAL("a workload mix needs at least one program");
    cores_.reserve(mix.programs.size());
    lanes_.reserve(mix.programs.size());
    for (std::uint32_t p = 0; p < mix.programs.size(); ++p) {
        cores_.emplace_back(mix.programs[p]);
        lanes_.emplace_back(config, shared_.port(p));
    }
}

std::uint64_t
MixSession::fastForward(std::uint64_t maxRounds,
                        core::WarmingMode mode)
{
    return core::withWarmingMode(
        mode, [&](auto caches, auto bpred) SMARTS_INLINE_LAMBDA {
            return rounds(
                maxRounds,
                [](LaneModel &lane, const core::StepInfo &info)
                    SMARTS_INLINE_LAMBDA {
                        lane.warm<decltype(caches)::value,
                                  decltype(bpred)::value>(info);
                    });
        });
}

std::uint64_t
MixSession::warmAsDetailed(std::uint64_t maxRounds)
{
    return rounds(maxRounds,
                  [](LaneModel &lane, const core::StepInfo &info)
                      SMARTS_INLINE_LAMBDA { lane.warmDetailed(info); });
}

MixSegment
MixSession::detailedRun(std::uint64_t maxRounds)
{
    // Each lane's L2 counters are marked in the result itself: the
    // start counts go where their deltas will be returned.
    MixSegment seg;
    seg.per.resize(lanes_.size());
    for (std::uint32_t p = 0; p < lanes_.size(); ++p) {
        lanes_[p].beginSegment();
        MixLaneSegment &ls = seg.per[p];
        ls.sharedAccesses = shared_.sharedL2().accesses(p);
        ls.sharedMisses = shared_.sharedL2().misses(p);
        ls.shadowAccesses = shared_.lane(p).l2().accesses();
        ls.shadowMisses = shared_.lane(p).l2().misses();
    }

    seg.rounds = rounds(
        maxRounds, [](LaneModel &lane, const core::StepInfo &info)
                       SMARTS_INLINE_LAMBDA { lane.detailedStep(info); });

    using Port = mem::SharedHierarchy::Port;
    for (std::uint32_t p = 0; p < lanes_.size(); ++p) {
        const LaneModel::Segments worlds =
            lanes_[p].endSegment(seg.rounds);
        MixLaneSegment &ls = seg.per[p];
        ls.instructions = seg.rounds;
        ls.coCycles = worlds[Port::kCoRun].cycles;
        ls.coEnergyNj = worlds[Port::kCoRun].energyNj;
        ls.soloCycles = worlds[Port::kSolo].cycles;
        ls.soloEnergyNj = worlds[Port::kSolo].energyNj;
        ls.sharedAccesses =
            shared_.sharedL2().accesses(p) - ls.sharedAccesses;
        ls.sharedMisses = shared_.sharedL2().misses(p) - ls.sharedMisses;
        ls.shadowAccesses =
            shared_.lane(p).l2().accesses() - ls.shadowAccesses;
        ls.shadowMisses = shared_.lane(p).l2().misses() - ls.shadowMisses;
    }
    return seg;
}

void
MixSession::saveState(MixState &state) const
{
    state.archs.resize(cores_.size());
    for (std::size_t p = 0; p < cores_.size(); ++p)
        cores_[p].saveState(state.archs[p]);
    shared_.saveState(state.sharedMem);
    state.lanes.resize(lanes_.size());
    for (std::size_t p = 0; p < lanes_.size(); ++p)
        lanes_[p].saveState(state.lanes[p]);
    state.rounds = rounds_;
}

void
MixSession::restoreState(const MixState &state)
{
    if (state.archs.size() != cores_.size() ||
        state.lanes.size() != lanes_.size())
        SMARTS_FATAL("mix checkpoint has ", state.archs.size(),
                     " programs, expected ", cores_.size());
    for (std::size_t p = 0; p < cores_.size(); ++p)
        cores_[p].restoreState(state.archs[p]);
    shared_.restoreState(state.sharedMem);
    for (std::size_t p = 0; p < lanes_.size(); ++p)
        lanes_[p].restoreState(state.lanes[p]);
    rounds_ = state.rounds;
    // finished is derived: the session ended iff some program's
    // architectural stream ended.
    finished_ = false;
    for (const core::ArchState &arch : state.archs)
        if (arch.finished)
            finished_ = true;
}

} // namespace smarts::mp
