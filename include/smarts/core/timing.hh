/**
 * @file
 * TimingModel: the microarchitectural half of a simulation session —
 * one MachineConfig's caches, TLBs, branch predictor, cycle and
 * energy accumulators. A TimingModel consumes the StepInfo stream an
 * ArchCore produces, either warming long-history state (functional
 * warming, no timing) or charging the full detailed timing model.
 * Several TimingModels can consume the same stream, which is how
 * matched-pair multi-config sampling amortizes the functional
 * warming pass the paper's Table 6 identifies as the dominant cost.
 *
 * Cycle and energy accumulation is exact 48.16 fixed-point integer
 * arithmetic: every increment is a pure function of the instruction
 * and the config (never of the accumulator value), so a segment's
 * measured cycles/energy depend only on the instructions it covers —
 * not on how much simulation preceded it. That offset invariance is
 * what lets a checkpoint-resumed shard (core/checkpoint.hh) measure
 * a unit bit-identically to a serial run that reached the same unit
 * with hours of accumulated history.
 */

#ifndef SMARTS_CORE_TIMING_HH
#define SMARTS_CORE_TIMING_HH

#include <cmath>
#include <cstdint>
#include <type_traits>

#include "bpred/branch_unit.hh"
#include "core/arch.hh"
#include "mem/hierarchy.hh"
#include "uarch/config.hh"
#include "util/binary_io.hh"

namespace smarts::core {

/** What state fast-forwarding keeps warm (paper Section 4). */
enum class WarmingMode
{
    None,       ///< architectural state only (plain fast-forward).
    CachesOnly, ///< caches + TLBs, predictors stale.
    BpredOnly,  ///< predictors, caches stale.
    Functional, ///< the paper's functional warming: everything.
};

/**
 * Call @p f(caches, bpred) with the two halves of @p mode as
 * std::bool_constant arguments: the one place a run-time
 * WarmingMode becomes compile-time flags, so a stepping loop tests
 * the mode once per call instead of once per instruction.
 */
template <typename F>
decltype(auto)
withWarmingMode(WarmingMode mode, F &&f)
{
    using Yes = std::true_type;
    using No = std::false_type;
    switch (mode) {
      case WarmingMode::CachesOnly:
        return f(Yes{}, No{});
      case WarmingMode::BpredOnly:
        return f(No{}, Yes{});
      case WarmingMode::Functional:
        return f(Yes{}, Yes{});
      case WarmingMode::None:
        break;
    }
    return f(No{}, No{});
}

/** One detailed-simulation segment's measurements. */
struct Segment
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    double energyNj = 0.0;
};

/** Cumulative event counters (all modes). */
struct Activity
{
    std::uint64_t branches = 0;
    std::uint64_t bpredLookups = 0;
    std::uint64_t bpredMispredicts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
};

/**
 * Serialized microarchitectural state for checkpointing: the memory
 * hierarchy, the branch unit, the fixed-point cycle/energy
 * accumulators, and the fetch-line dedup register.
 */
struct TimingState
{
    mem::HierarchyState mem;
    bpred::BranchUnitState bpred;
    std::uint64_t cyclesFx = 0;
    std::uint64_t energyFx = 0;
    std::uint32_t lastFetchLine = ~0u;
    Activity activity;

    std::size_t
    byteSize() const
    {
        return mem.byteSize() + bpred.byteSize() +
               2 * sizeof(std::uint64_t) + sizeof(std::uint32_t) +
               sizeof(Activity);
    }

    /** Field order is normative: docs/checkpoint-format.md. */
    void
    write(util::BinaryWriter &out) const
    {
        mem.write(out);
        bpred.write(out);
        out.u64(cyclesFx);
        out.u64(energyFx);
        out.u32(lastFetchLine);
        out.u64(activity.branches);
        out.u64(activity.bpredLookups);
        out.u64(activity.bpredMispredicts);
        out.u64(activity.loads);
        out.u64(activity.stores);
    }

    void
    read(util::BinaryReader &in)
    {
        mem.read(in);
        bpred.read(in);
        cyclesFx = in.u64();
        energyFx = in.u64();
        lastFetchLine = in.u32();
        activity.branches = in.u64();
        activity.bpredLookups = in.u64();
        activity.bpredMispredicts = in.u64();
        activity.loads = in.u64();
        activity.stores = in.u64();
    }
};

class TimingModel
{
  public:
    /** 48.16 fixed point: exact for widths, latencies, stall terms. */
    static constexpr std::uint32_t kFixedShift = 16;
    static constexpr double kFixedOne = 65536.0;

    explicit TimingModel(const uarch::MachineConfig &config)
        : config_(config),
          hierarchy_(config.mem),
          bpred_(config.bpred)
    {
        if (!config.width)
            SMARTS_FATAL("machine '", config.name, "': issue width 0");
        fetchLineShift_ = 0;
        while ((1u << fetchLineShift_) < config_.mem.l1i.lineBytes)
            ++fetchLineShift_;

        invWidthFx_ = toFixed(1.0 / config.width);
        loadStallFx_ = toFixed(config.loadStallFactor);
        storeStallFx_ = toFixed(config.storeStallFactor);
        mispredictFx_ = static_cast<std::uint64_t>(config.pipelineDepth)
                        << kFixedShift;
        ePerInstFx_ = toFixed(config.energy.perInst);
        ePerCycleFx_ = toFixed(config.energy.perCycle);
        eL1Fx_ = toFixed(config.energy.l1Access);
        eL2Fx_ = toFixed(config.energy.l2Access);
        eMemFx_ = toFixed(config.energy.memAccess);
        eBpredFx_ = toFixed(config.energy.bpredAccess);
    }

    /**
     * Consume one instruction in a fast-forward (warming) mode:
     * caches and TLBs warm when @p Caches, predictors when @p Bpred
     * (withWarmingMode picks the instantiation from a WarmingMode).
     */
    template <bool Caches, bool Bpred>
    [[gnu::always_inline]] void
    warm(const StepInfo &info)
    {
        if constexpr (Caches) {
            const std::uint32_t line = info.pc >> fetchLineShift_;
            if (line != lastFetchLine_) {
                lastFetchLine_ = line;
                hierarchy_.warmFetch(info.pc);
            }
            if (info.di.isLoad())
                hierarchy_.warmLoad(info.memAddr);
            else if (info.di.isStore())
                hierarchy_.warmStore(info.memAddr);
        }
        if (info.di.isLoad())
            ++activity_.loads;
        else if (info.di.isStore())
            ++activity_.stores;
        else if (info.di.isBranch()) {
            ++activity_.branches;
            if constexpr (Bpred) {
                // Mirror the detailed core's RAS traffic: predict()
                // pops on returns there, so warming must pop too or
                // the stack depth drifts across warming gaps.
                if (info.di.op == sisa::Opcode::JR && info.di.a == 31)
                    bpred_.popReturn();
                bpred_.update(info.pc, info.di, info.taken,
                              info.nextPc);
            }
        }
    }

    /**
     * Consume one instruction applying the EXACT state transitions
     * of detailedStep() — fetch-line dedup, cache/TLB fills,
     * predictor lookups and training, wrong-path I-cache pollution —
     * while skipping the cycle/energy/latency bookkeeping. This is
     * the checkpoint capture pass's fast path: after warmDetailed
     * over the instructions a serial run simulated in detail, every
     * microarchitectural structure is bit-identical to the serial
     * run's, at a fraction of the cost.
     *
     * MUST stay in lockstep with detailedStep(): any state update
     * added there needs its mirror here (tests/test_checkpoint.cc
     * fails on divergence).
     */
    [[gnu::always_inline]] void
    warmDetailed(const StepInfo &info)
    {
        const std::uint32_t line = info.pc >> fetchLineShift_;
        if (line != lastFetchLine_) {
            lastFetchLine_ = line;
            hierarchy_.warmFetch(info.pc);
        }

        if (info.di.isLoad()) {
            ++activity_.loads;
            hierarchy_.warmLoad(info.memAddr);
        } else if (info.di.isStore()) {
            ++activity_.stores;
            hierarchy_.warmStore(info.memAddr);
        } else if (info.di.isBranch()) {
            ++activity_.branches;
            ++activity_.bpredLookups;
            const bpred::Prediction p = bpred_.predict(info.pc, info.di);
            const bool mispredict =
                p.taken != info.taken ||
                (info.taken && p.target != info.nextPc);
            if (mispredict) {
                ++activity_.bpredMispredicts;
                if (config_.modelWrongPath) {
                    const std::uint32_t wrong =
                        p.taken ? p.target : info.pc + 4;
                    for (std::uint32_t i = 0;
                         i < config_.wrongPathFetches; ++i)
                        hierarchy_.warmFetch(
                            wrong + i * config_.mem.l1i.lineBytes);
                    lastFetchLine_ = ~0u;
                }
            }
            bpred_.update(info.pc, info.di, info.taken, info.nextPc);
        }
    }

    /** Consume one instruction with the full detailed timing model. */
    [[gnu::always_inline]] void
    detailedStep(const StepInfo &info)
    {
        cyclesFx_ += invWidthFx_;
        energyFx_ += ePerInstFx_;

        auto chargeMem = [&](const mem::MemResult &r) {
            energyFx_ += eL1Fx_;
            if (r.level != mem::ServedBy::L1)
                energyFx_ += eL2Fx_;
            if (r.level == mem::ServedBy::Memory)
                energyFx_ += eMemFx_;
        };

        // Front end: one I-cache access per fetched line.
        const std::uint32_t line = info.pc >> fetchLineShift_;
        if (line != lastFetchLine_) {
            lastFetchLine_ = line;
            const mem::MemResult f = hierarchy_.fetch(info.pc);
            chargeMem(f);
            if (f.latency > config_.mem.l1i.latency)
                cyclesFx_ += static_cast<std::uint64_t>(
                                 f.latency - config_.mem.l1i.latency)
                             << kFixedShift;
        }

        if (info.di.isLoad()) {
            ++activity_.loads;
            const mem::MemResult r = hierarchy_.load(info.memAddr);
            chargeMem(r);
            if (r.latency > config_.mem.l1d.latency)
                cyclesFx_ += (r.latency - config_.mem.l1d.latency) *
                             loadStallFx_;
        } else if (info.di.isStore()) {
            ++activity_.stores;
            const mem::MemResult r = hierarchy_.store(info.memAddr);
            chargeMem(r);
            if (r.latency > config_.mem.l1d.latency)
                cyclesFx_ += (r.latency - config_.mem.l1d.latency) *
                             storeStallFx_;
        } else if (info.di.isBranch()) {
            ++activity_.branches;
            ++activity_.bpredLookups;
            const bpred::Prediction p = bpred_.predict(info.pc, info.di);
            energyFx_ += eBpredFx_;
            const bool mispredict =
                p.taken != info.taken ||
                (info.taken && p.target != info.nextPc);
            if (mispredict) {
                ++activity_.bpredMispredicts;
                cyclesFx_ += mispredictFx_;
                if (config_.modelWrongPath) {
                    // The front end ran down the predicted (wrong)
                    // path: pollute the I-side and refetch after
                    // the redirect.
                    const std::uint32_t wrong =
                        p.taken ? p.target : info.pc + 4;
                    for (std::uint32_t i = 0;
                         i < config_.wrongPathFetches; ++i)
                        hierarchy_.warmFetch(
                            wrong + i * config_.mem.l1i.lineBytes);
                    lastFetchLine_ = ~0u;
                }
            }
            bpred_.update(info.pc, info.di, info.taken, info.nextPc);
        }
    }

    /** Bracketing state for one detailed segment's measurements. */
    struct SegmentMark
    {
        std::uint64_t cyclesFx = 0;
        std::uint64_t energyFx = 0;
    };

    SegmentMark
    beginSegment() const
    {
        return {cyclesFx_, energyFx_};
    }

    /** Charge per-cycle energy for the segment and extract it. */
    Segment
    endSegment(const SegmentMark &mark, std::uint64_t executed)
    {
        const std::uint64_t cycDeltaFx = cyclesFx_ - mark.cyclesFx;
        energyFx_ += mulFixed(ePerCycleFx_, cycDeltaFx);
        Segment seg;
        seg.instructions = executed;
        seg.cycles = cycDeltaFx >> kFixedShift;
        seg.energyNj =
            static_cast<double>(energyFx_ - mark.energyFx) / kFixedOne;
        return seg;
    }

    /** Exact detailed cycles so far (fractional issue slots kept). */
    double
    cycleCount() const
    {
        return static_cast<double>(cyclesFx_) / kFixedOne;
    }

    /** Detailed energy so far, nanojoules. */
    double
    energyCount() const
    {
        return static_cast<double>(energyFx_) / kFixedOne;
    }

    const Activity &
    activity() const
    {
        return activity_;
    }

    const uarch::MachineConfig &
    config() const
    {
        return config_;
    }

    void
    saveState(TimingState &state) const
    {
        hierarchy_.saveState(state.mem);
        bpred_.saveState(state.bpred);
        state.cyclesFx = cyclesFx_;
        state.energyFx = energyFx_;
        state.lastFetchLine = lastFetchLine_;
        state.activity = activity_;
    }

    void
    restoreState(const TimingState &state)
    {
        hierarchy_.restoreState(state.mem);
        bpred_.restoreState(state.bpred);
        cyclesFx_ = state.cyclesFx;
        energyFx_ = state.energyFx;
        lastFetchLine_ = state.lastFetchLine;
        activity_ = state.activity;
    }

  private:
    static std::uint64_t
    toFixed(double v)
    {
        return static_cast<std::uint64_t>(
            std::llround(v * kFixedOne));
    }

    /** Exact (a * b) >> kFixedShift without 128-bit intermediates. */
    static std::uint64_t
    mulFixed(std::uint64_t a, std::uint64_t b)
    {
        const std::uint64_t hi = b >> kFixedShift;
        const std::uint64_t lo = b & ((1ull << kFixedShift) - 1);
        return a * hi + ((a * lo) >> kFixedShift);
    }

    uarch::MachineConfig config_;
    mem::MemHierarchy hierarchy_;
    bpred::BranchUnit bpred_;

    // Per-event fixed-point increments, precomputed from the config.
    std::uint64_t invWidthFx_ = 0;
    std::uint64_t loadStallFx_ = 0;
    std::uint64_t storeStallFx_ = 0;
    std::uint64_t mispredictFx_ = 0;
    std::uint64_t ePerInstFx_ = 0;
    std::uint64_t ePerCycleFx_ = 0;
    std::uint64_t eL1Fx_ = 0;
    std::uint64_t eL2Fx_ = 0;
    std::uint64_t eMemFx_ = 0;
    std::uint64_t eBpredFx_ = 0;

    std::uint64_t cyclesFx_ = 0;
    std::uint64_t energyFx_ = 0;
    std::uint32_t fetchLineShift_ = 6; ///< log2(L1I line bytes).
    std::uint32_t lastFetchLine_ = ~0u;
    Activity activity_;
};

} // namespace smarts::core

#endif // SMARTS_CORE_TIMING_HH
