#include "mp/mix_session.hh"

#include <cmath>

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
    if (!config.width)
        SMARTS_FATAL("machine '", config.name, "': issue width 0");
    cores_.reserve(mix.programs.size());
    lanes_.reserve(mix.programs.size());
    for (const workloads::BenchmarkSpec &spec : mix.programs) {
        cores_.emplace_back(spec);
        lanes_.emplace_back(config.bpred);
    }

    fetchLineShift_ = 0;
    while ((1u << fetchLineShift_) < config_.mem.l1i.lineBytes)
        ++fetchLineShift_;

    // The exact per-event increments TimingModel precomputes: the
    // solo world's accounting must replay a solo TimingModel bit
    // for bit (tests/test_shared_mem.cc pins the one-program case).
    invWidthFx_ = toFixed(1.0 / config.width);
    loadStallFx_ = toFixed(config.loadStallFactor);
    storeStallFx_ = toFixed(config.storeStallFactor);
    mispredictFx_ = static_cast<std::uint64_t>(config.pipelineDepth)
                    << core::TimingModel::kFixedShift;
    ePerInstFx_ = toFixed(config.energy.perInst);
    ePerCycleFx_ = toFixed(config.energy.perCycle);
    eL1Fx_ = toFixed(config.energy.l1Access);
    eL2Fx_ = toFixed(config.energy.l2Access);
    eMemFx_ = toFixed(config.energy.memAccess);
    eBpredFx_ = toFixed(config.energy.bpredAccess);
}

/** Mirrors TimingModel::warm per lane (shared/shadow fed together). */
template <bool Caches, bool Bpred>
void
MixSession::warmStep(std::uint32_t p, const core::StepInfo &info)
{
    Lane &lane = lanes_[p];
    if constexpr (Caches) {
        const std::uint32_t line = info.pc >> fetchLineShift_;
        if (line != lane.lastFetchLine) {
            lane.lastFetchLine = line;
            shared_.warmFetch(p, info.pc);
        }
        if (info.di.isLoad())
            shared_.warmLoad(p, info.memAddr);
        else if (info.di.isStore())
            shared_.warmStore(p, info.memAddr);
    }
    if (info.di.isLoad())
        ++lane.activity.loads;
    else if (info.di.isStore())
        ++lane.activity.stores;
    else if (info.di.isBranch()) {
        ++lane.activity.branches;
        if constexpr (Bpred) {
            // Mirror the detailed lane's RAS traffic (see
            // TimingModel::warm).
            if (info.di.op == sisa::Opcode::JR && info.di.a == 31)
                lane.bpred.popReturn();
            lane.bpred.update(info.pc, info.di, info.taken,
                              info.nextPc);
        }
    }
}

/** Mirrors TimingModel::warmDetailed per lane. */
void
MixSession::warmDetailedStep(std::uint32_t p,
                             const core::StepInfo &info)
{
    Lane &lane = lanes_[p];
    const std::uint32_t line = info.pc >> fetchLineShift_;
    if (line != lane.lastFetchLine) {
        lane.lastFetchLine = line;
        shared_.warmFetch(p, info.pc);
    }

    if (info.di.isLoad()) {
        ++lane.activity.loads;
        shared_.warmLoad(p, info.memAddr);
    } else if (info.di.isStore()) {
        ++lane.activity.stores;
        shared_.warmStore(p, info.memAddr);
    } else if (info.di.isBranch()) {
        ++lane.activity.branches;
        ++lane.activity.bpredLookups;
        const bpred::Prediction pr =
            lane.bpred.predict(info.pc, info.di);
        const bool mispredict =
            pr.taken != info.taken ||
            (info.taken && pr.target != info.nextPc);
        if (mispredict) {
            ++lane.activity.bpredMispredicts;
            if (config_.modelWrongPath) {
                const std::uint32_t wrong =
                    pr.taken ? pr.target : info.pc + 4;
                for (std::uint32_t i = 0;
                     i < config_.wrongPathFetches; ++i)
                    shared_.warmFetch(
                        p, wrong + i * config_.mem.l1i.lineBytes);
                lane.lastFetchLine = ~0u;
            }
        }
        lane.bpred.update(info.pc, info.di, info.taken, info.nextPc);
    }
}

/**
 * Mirrors TimingModel::detailedStep per lane, charging every cycle
 * and energy term TWICE — once per world, each from its own
 * MemResult. One predict/update, one L1/TLB access: those are
 * private, so both worlds share them physically and arithmetically.
 */
void
MixSession::detailedStep(std::uint32_t p, const core::StepInfo &info)
{
    Lane &lane = lanes_[p];
    lane.coCyclesFx += invWidthFx_;
    lane.coEnergyFx += ePerInstFx_;
    lane.soloCyclesFx += invWidthFx_;
    lane.soloEnergyFx += ePerInstFx_;

    auto chargeMemEnergy = [this](std::uint64_t &energyFx,
                                  const mem::MemResult &r) {
        energyFx += eL1Fx_;
        if (r.level != mem::ServedBy::L1)
            energyFx += eL2Fx_;
        if (r.level == mem::ServedBy::Memory)
            energyFx += eMemFx_;
    };

    // Front end: one I-cache access per fetched line.
    const std::uint32_t line = info.pc >> fetchLineShift_;
    if (line != lane.lastFetchLine) {
        lane.lastFetchLine = line;
        const mem::SharedMemResult f = shared_.fetch(p, info.pc);
        chargeMemEnergy(lane.coEnergyFx, f.co);
        chargeMemEnergy(lane.soloEnergyFx, f.solo);
        if (f.co.latency > config_.mem.l1i.latency)
            lane.coCyclesFx +=
                static_cast<std::uint64_t>(f.co.latency -
                                           config_.mem.l1i.latency)
                << core::TimingModel::kFixedShift;
        if (f.solo.latency > config_.mem.l1i.latency)
            lane.soloCyclesFx +=
                static_cast<std::uint64_t>(f.solo.latency -
                                           config_.mem.l1i.latency)
                << core::TimingModel::kFixedShift;
    }

    if (info.di.isLoad()) {
        ++lane.activity.loads;
        const mem::SharedMemResult r = shared_.load(p, info.memAddr);
        chargeMemEnergy(lane.coEnergyFx, r.co);
        chargeMemEnergy(lane.soloEnergyFx, r.solo);
        if (r.co.latency > config_.mem.l1d.latency)
            lane.coCyclesFx +=
                (r.co.latency - config_.mem.l1d.latency) *
                loadStallFx_;
        if (r.solo.latency > config_.mem.l1d.latency)
            lane.soloCyclesFx +=
                (r.solo.latency - config_.mem.l1d.latency) *
                loadStallFx_;
    } else if (info.di.isStore()) {
        ++lane.activity.stores;
        const mem::SharedMemResult r = shared_.store(p, info.memAddr);
        chargeMemEnergy(lane.coEnergyFx, r.co);
        chargeMemEnergy(lane.soloEnergyFx, r.solo);
        if (r.co.latency > config_.mem.l1d.latency)
            lane.coCyclesFx +=
                (r.co.latency - config_.mem.l1d.latency) *
                storeStallFx_;
        if (r.solo.latency > config_.mem.l1d.latency)
            lane.soloCyclesFx +=
                (r.solo.latency - config_.mem.l1d.latency) *
                storeStallFx_;
    } else if (info.di.isBranch()) {
        ++lane.activity.branches;
        ++lane.activity.bpredLookups;
        const bpred::Prediction pr =
            lane.bpred.predict(info.pc, info.di);
        lane.coEnergyFx += eBpredFx_;
        lane.soloEnergyFx += eBpredFx_;
        const bool mispredict =
            pr.taken != info.taken ||
            (info.taken && pr.target != info.nextPc);
        if (mispredict) {
            ++lane.activity.bpredMispredicts;
            lane.coCyclesFx += mispredictFx_;
            lane.soloCyclesFx += mispredictFx_;
            if (config_.modelWrongPath) {
                // Wrong-path pollution: one warmFetch pass fills
                // both worlds (shared AND shadow L2).
                const std::uint32_t wrong =
                    pr.taken ? pr.target : info.pc + 4;
                for (std::uint32_t i = 0;
                     i < config_.wrongPathFetches; ++i)
                    shared_.warmFetch(
                        p, wrong + i * config_.mem.l1i.lineBytes);
                lane.lastFetchLine = ~0u;
            }
        }
        lane.bpred.update(info.pc, info.di, info.taken, info.nextPc);
    }
}

std::uint64_t
MixSession::fastForward(std::uint64_t maxRounds,
                        core::WarmingMode mode)
{
    return core::withWarmingMode(
        mode, [&](auto caches, auto bpred) SMARTS_INLINE_LAMBDA {
            constexpr bool kCaches = decltype(caches)::value;
            constexpr bool kBpred = decltype(bpred)::value;
            return rounds(
                maxRounds,
                [this](std::uint32_t p, const core::StepInfo &info)
                    SMARTS_INLINE_LAMBDA {
                        warmStep<kCaches, kBpred>(p, info);
                    });
        });
}

std::uint64_t
MixSession::warmAsDetailed(std::uint64_t maxRounds)
{
    return rounds(maxRounds,
                  [this](std::uint32_t p, const core::StepInfo &info)
                      SMARTS_INLINE_LAMBDA { warmDetailedStep(p, info); });
}

MixSegment
MixSession::detailedRun(std::uint64_t maxRounds)
{
    struct Mark
    {
        std::uint64_t coCyclesFx, coEnergyFx;
        std::uint64_t soloCyclesFx, soloEnergyFx;
        std::uint64_t sharedAccesses, sharedMisses;
        std::uint64_t shadowAccesses, shadowMisses;
    };
    std::vector<Mark> marks(lanes_.size());
    for (std::uint32_t p = 0; p < lanes_.size(); ++p) {
        const Lane &lane = lanes_[p];
        marks[p] = {lane.coCyclesFx,
                    lane.coEnergyFx,
                    lane.soloCyclesFx,
                    lane.soloEnergyFx,
                    shared_.sharedL2().accesses(p),
                    shared_.sharedL2().misses(p),
                    shared_.shadowL2(p).accesses(),
                    shared_.shadowL2(p).misses()};
    }

    const std::uint64_t executed = rounds(
        maxRounds, [this](std::uint32_t p, const core::StepInfo &info)
                       SMARTS_INLINE_LAMBDA { detailedStep(p, info); });

    MixSegment seg;
    seg.rounds = executed;
    seg.per.resize(lanes_.size());
    for (std::uint32_t p = 0; p < lanes_.size(); ++p) {
        Lane &lane = lanes_[p];
        const Mark &mark = marks[p];
        MixLaneSegment &ls = seg.per[p];
        // Per-world endSegment, TimingModel::endSegment's exact
        // arithmetic: charge per-cycle energy for the segment, then
        // extract the deltas.
        const std::uint64_t coDeltaFx =
            lane.coCyclesFx - mark.coCyclesFx;
        lane.coEnergyFx += mulFixed(ePerCycleFx_, coDeltaFx);
        const std::uint64_t soloDeltaFx =
            lane.soloCyclesFx - mark.soloCyclesFx;
        lane.soloEnergyFx += mulFixed(ePerCycleFx_, soloDeltaFx);
        ls.instructions = executed;
        ls.coCycles = coDeltaFx >> core::TimingModel::kFixedShift;
        ls.coEnergyNj =
            static_cast<double>(lane.coEnergyFx - mark.coEnergyFx) /
            core::TimingModel::kFixedOne;
        ls.soloCycles = soloDeltaFx >> core::TimingModel::kFixedShift;
        ls.soloEnergyNj =
            static_cast<double>(lane.soloEnergyFx -
                                mark.soloEnergyFx) /
            core::TimingModel::kFixedOne;
        ls.sharedAccesses =
            shared_.sharedL2().accesses(p) - mark.sharedAccesses;
        ls.sharedMisses =
            shared_.sharedL2().misses(p) - mark.sharedMisses;
        ls.shadowAccesses =
            shared_.shadowL2(p).accesses() - mark.shadowAccesses;
        ls.shadowMisses =
            shared_.shadowL2(p).misses() - mark.shadowMisses;
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
    for (std::size_t p = 0; p < lanes_.size(); ++p) {
        const Lane &lane = lanes_[p];
        MixLaneState &ls = state.lanes[p];
        lane.bpred.saveState(ls.bpred);
        ls.coCyclesFx = lane.coCyclesFx;
        ls.coEnergyFx = lane.coEnergyFx;
        ls.soloCyclesFx = lane.soloCyclesFx;
        ls.soloEnergyFx = lane.soloEnergyFx;
        ls.lastFetchLine = lane.lastFetchLine;
        ls.activity = lane.activity;
    }
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
    for (std::size_t p = 0; p < lanes_.size(); ++p) {
        Lane &lane = lanes_[p];
        const MixLaneState &ls = state.lanes[p];
        lane.bpred.restoreState(ls.bpred);
        lane.coCyclesFx = ls.coCyclesFx;
        lane.coEnergyFx = ls.coEnergyFx;
        lane.soloCyclesFx = ls.soloCyclesFx;
        lane.soloEnergyFx = ls.soloEnergyFx;
        lane.lastFetchLine = ls.lastFetchLine;
        lane.activity = ls.activity;
    }
    rounds_ = state.rounds;
    // finished is derived: the session ended iff some program's
    // architectural stream ended.
    finished_ = false;
    for (const core::ArchState &arch : state.archs)
        if (arch.finished)
            finished_ = true;
}

} // namespace smarts::mp
