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
 * The model is written once, as BasicTimingModel<Port>, generic over
 * the memory it charges. A port provides fetch/load/store (timing
 * accesses) and warmFetch/warmLoad/warmStore, and says at compile
 * time how many timing WORLDS one access resolves in. The solo port
 * is mem::MemHierarchy: one world, owned by the model
 * (TimingModel). A co-run lane's port is one program's view of
 * mem::SharedHierarchy: two worlds, the shared L2 and the program's
 * shadow (solo) L2, so one lane charges its co-run and its would-be
 * solo timing from one stream (mp::MixSession). The model keeps one
 * cycle/energy accumulator pair per world; with one world it is the
 * single-accumulator model.
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

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

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
[[gnu::always_inline]] inline decltype(auto)
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

/** One timing world's fixed-point cycle and energy accumulators. */
struct WorldAccumulator
{
    std::uint64_t cyclesFx = 0;
    std::uint64_t energyFx = 0;
};

/**
 * A timing model's serialized state without its port: the branch
 * unit, one accumulator pair per world, the fetch-line dedup
 * register and the activity counters. The port's memory state is
 * serialized by whoever owns it: TimingState puts the solo
 * hierarchy in front; a co-run's lanes (mp::MixLaneState) leave it
 * to mem::SharedHierarchyState.
 */
template <std::size_t Worlds>
struct PortlessTimingState
{
    bpred::BranchUnitState bpred;
    std::array<WorldAccumulator, Worlds> worlds{};
    std::uint32_t lastFetchLine = ~0u;
    Activity activity;

    std::size_t
    byteSize() const
    {
        return bpred.byteSize() + Worlds * 2 * sizeof(std::uint64_t) +
               sizeof(std::uint32_t) + sizeof(Activity);
    }

    /** Field order is normative: docs/checkpoint-format.md. */
    void
    write(util::BinaryWriter &out) const
    {
        bpred.write(out);
        for (const WorldAccumulator &world : worlds) {
            out.u64(world.cyclesFx);
            out.u64(world.energyFx);
        }
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
        bpred.read(in);
        for (WorldAccumulator &world : worlds) {
            world.cyclesFx = in.u64();
            world.energyFx = in.u64();
        }
        lastFetchLine = in.u32();
        activity.branches = in.u64();
        activity.bpredLookups = in.u64();
        activity.bpredMispredicts = in.u64();
        activity.loads = in.u64();
        activity.stores = in.u64();
    }
};

/**
 * Serialized solo microarchitectural state for checkpointing: the
 * memory hierarchy, then the one-world port-less state (branch
 * unit, cycle/energy accumulators, fetch-line dedup register,
 * activity counters).
 */
struct TimingState : PortlessTimingState<1>
{
    mem::HierarchyState mem;

    std::size_t
    byteSize() const
    {
        return mem.byteSize() + PortlessTimingState<1>::byteSize();
    }

    /** Field order is normative: docs/checkpoint-format.md. */
    void
    write(util::BinaryWriter &out) const
    {
        mem.write(out);
        PortlessTimingState<1>::write(out);
    }

    void
    read(util::BinaryReader &in)
    {
        mem.read(in);
        PortlessTimingState<1>::read(in);
    }
};

/**
 * The timing model over memory port @p Port (see the file comment).
 * Port::kWorlds fixes the number of accumulator pairs at compile
 * time and Port::world(result, w) picks world w's MemResult out of
 * one timing access, so each transition below is written once for
 * every session: SimSession and MultiSession instantiate it over
 * mem::MemHierarchy, mp::MixSession once per program over
 * mem::SharedHierarchy::Port.
 */
template <typename Port>
class BasicTimingModel
{
  public:
    static constexpr std::size_t kWorlds = Port::kWorlds;

    /** The serialized state, the port's memory excluded. */
    using State = PortlessTimingState<kWorlds>;

    /** One detailed segment's measurements, one per world. */
    using Segments = std::array<Segment, kWorlds>;

    /** A model owning a fresh port built from @p config's memory. */
    explicit BasicTimingModel(const uarch::MachineConfig &config)
        : BasicTimingModel(config, Port(config.mem))
    {
    }

    BasicTimingModel(const uarch::MachineConfig &config, Port port)
        : config_(config),
          port_(std::move(port)),
          bpred_(config.bpred)
    {
        if (!config.width)
            SMARTS_FATAL("machine '", config.name, "': issue width 0");
        const std::uint32_t fetchLine = config_.mem.l1i.lineBytes;
        if (!fetchLine || (fetchLine & (fetchLine - 1)))
            SMARTS_FATAL("machine '", config.name, "': l1i line size ",
                         fetchLine, "B is not a power of two");
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
        warm<Caches, Bpred>(info, port_);
    }

    /**
     * warm() with its memory warming sent to @p memory: a sink with
     * the port's warmFetch/warmLoad/warmStore. The warming
     * transitions never read a memory result back, so a sink that
     * queues the calls and replays them on the port later, in order
     * (core::SplitCapture, core/capture.hh), leaves every byte
     * of state as warm() does.
     */
    template <bool Caches, bool Bpred, typename Memory>
    [[gnu::always_inline]] void
    warm(const StepInfo &info, Memory &memory)
    {
        if constexpr (Caches) {
            const std::uint32_t line = info.pc >> fetchLineShift_;
            if (line != lastFetchLine_) {
                lastFetchLine_ = line;
                memory.warmFetch(info.pc);
            }
            if (info.di.isLoad())
                memory.warmLoad(info.memAddr);
            else if (info.di.isStore())
                memory.warmStore(info.memAddr);
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
        warmDetailed(info, port_);
    }

    /** warmDetailed() with its memory warming sent to @p memory. */
    template <typename Memory>
    [[gnu::always_inline]] void
    warmDetailed(const StepInfo &info, Memory &memory)
    {
        const std::uint32_t line = info.pc >> fetchLineShift_;
        if (line != lastFetchLine_) {
            lastFetchLine_ = line;
            memory.warmFetch(info.pc);
        }

        if (info.di.isLoad()) {
            ++activity_.loads;
            memory.warmLoad(info.memAddr);
        } else if (info.di.isStore()) {
            ++activity_.stores;
            memory.warmStore(info.memAddr);
        } else if (info.di.isBranch()) {
            ++activity_.branches;
            ++activity_.bpredLookups;
            const bpred::Prediction p = bpred_.predict(info.pc, info.di);
            const bool mispredict =
                p.taken != info.taken ||
                (info.taken && p.target != info.nextPc);
            if (mispredict) {
                ++activity_.bpredMispredicts;
                if (config_.modelWrongPath)
                    wrongPathFetch(p.taken ? p.target : info.pc + 4,
                                   memory);
            }
            bpred_.update(info.pc, info.di, info.taken, info.nextPc);
        }
    }

    /**
     * Consume one instruction with the full detailed timing model,
     * charging every cycle and energy term in every world, each
     * from its own MemResult. The branch unit, the fetch-line
     * register and the port's private L1s/TLBs are accessed once:
     * every world shares them.
     */
    [[gnu::always_inline]] void
    detailedStep(const StepInfo &info)
    {
        for (WorldAccumulator &world : worlds_) {
            world.cyclesFx += invWidthFx_;
            world.energyFx += ePerInstFx_;
        }

        // Front end: one I-cache access per fetched line.
        const std::uint32_t line = info.pc >> fetchLineShift_;
        if (line != lastFetchLine_) {
            lastFetchLine_ = line;
            chargeMem(port_.fetch(info.pc), config_.mem.l1i.latency,
                      std::uint64_t{1} << kFixedShift);
        }

        if (info.di.isLoad()) {
            ++activity_.loads;
            chargeMem(port_.load(info.memAddr),
                      config_.mem.l1d.latency, loadStallFx_);
        } else if (info.di.isStore()) {
            ++activity_.stores;
            chargeMem(port_.store(info.memAddr),
                      config_.mem.l1d.latency, storeStallFx_);
        } else if (info.di.isBranch()) {
            ++activity_.branches;
            ++activity_.bpredLookups;
            const bpred::Prediction p = bpred_.predict(info.pc, info.di);
            for (WorldAccumulator &world : worlds_)
                world.energyFx += eBpredFx_;
            const bool mispredict =
                p.taken != info.taken ||
                (info.taken && p.target != info.nextPc);
            if (mispredict) {
                ++activity_.bpredMispredicts;
                for (WorldAccumulator &world : worlds_)
                    world.cyclesFx += mispredictFx_;
                // The front end ran down the predicted (wrong) path:
                // pollute the I-side and refetch after the redirect.
                if (config_.modelWrongPath)
                    wrongPathFetch(p.taken ? p.target : info.pc + 4,
                                   port_);
            }
            bpred_.update(info.pc, info.di, info.taken, info.nextPc);
        }
    }

    /**
     * Open a detailed segment: remember every world's accumulators
     * in the model, so bracketing a segment allocates nothing.
     */
    void
    beginSegment()
    {
        mark_ = worlds_;
    }

    /**
     * Close the segment beginSegment() opened: charge each world's
     * per-cycle energy for it and extract its measurements.
     */
    Segments
    endSegment(std::uint64_t executed)
    {
        Segments segs;
        for (std::size_t w = 0; w < kWorlds; ++w) {
            WorldAccumulator &world = worlds_[w];
            const std::uint64_t cycDeltaFx =
                world.cyclesFx - mark_[w].cyclesFx;
            world.energyFx += mulFixed(ePerCycleFx_, cycDeltaFx);
            segs[w].instructions = executed;
            segs[w].cycles = cycDeltaFx >> kFixedShift;
            segs[w].energyNj =
                static_cast<double>(world.energyFx - mark_[w].energyFx) /
                kFixedOne;
        }
        return segs;
    }

    /**
     * Exact detailed cycles so far (fractional issue slots kept), in
     * the first world.
     */
    double
    cycleCount() const
    {
        return static_cast<double>(worlds_[0].cyclesFx) / kFixedOne;
    }

    /** Detailed energy so far in the first world, nanojoules. */
    double
    energyCount() const
    {
        return static_cast<double>(worlds_[0].energyFx) / kFixedOne;
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

    /**
     * The memory port, for a capture that warms it on a thread of
     * its own while this model's other state advances on another
     * (core/capture.hh).
     */
    Port &
    port()
    {
        return port_;
    }

    void
    saveState(State &state) const
    {
        bpred_.saveState(state.bpred);
        state.worlds = worlds_;
        state.lastFetchLine = lastFetchLine_;
        state.activity = activity_;
    }

    void
    restoreState(const State &state)
    {
        bpred_.restoreState(state.bpred);
        worlds_ = state.worlds;
        lastFetchLine_ = state.lastFetchLine;
        activity_ = state.activity;
    }

    /** The whole state of a model that owns its (solo) hierarchy. */
    void
    saveState(TimingState &state) const
    {
        port_.saveState(state.mem);
        saveState(static_cast<State &>(state));
    }

    void
    restoreState(const TimingState &state)
    {
        port_.restoreState(state.mem);
        restoreState(static_cast<const State &>(state));
    }

  private:
    /** 48.16 fixed point: exact for widths, latencies, stall terms. */
    static constexpr std::uint32_t kFixedShift = 16;
    static constexpr double kFixedOne = 65536.0;

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

    /**
     * Charge one timing access in every world: its energy by the
     * level that served it, and @p stallFx per cycle of latency
     * beyond the L1's @p l1Latency.
     */
    template <typename Result>
    [[gnu::always_inline]] void
    chargeMem(const Result &result, std::uint32_t l1Latency,
              std::uint64_t stallFx)
    {
        for (std::size_t w = 0; w < kWorlds; ++w) {
            const mem::MemResult &r = Port::world(result, w);
            WorldAccumulator &world = worlds_[w];
            world.energyFx += eL1Fx_;
            if (r.level != mem::ServedBy::L1)
                world.energyFx += eL2Fx_;
            if (r.level == mem::ServedBy::Memory)
                world.energyFx += eMemFx_;
            if (r.latency > l1Latency)
                world.cyclesFx += (r.latency - l1Latency) * stallFx;
        }
    }

    /** Wrong-path I-side pollution after a mispredict at @p from. */
    template <typename Memory>
    [[gnu::always_inline]] void
    wrongPathFetch(std::uint32_t from, Memory &memory)
    {
        for (std::uint32_t i = 0; i < config_.wrongPathFetches; ++i)
            memory.warmFetch(from + i * config_.mem.l1i.lineBytes);
        lastFetchLine_ = ~0u;
    }

    uarch::MachineConfig config_;
    Port port_;
    // A split capture warms port_ on one thread and the rest on
    // another: keep the branch unit off the port's cache lines (and
    // their prefetched pairs).
    alignas(128) bpred::BranchUnit bpred_;

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

    std::array<WorldAccumulator, kWorlds> worlds_{};
    std::array<WorldAccumulator, kWorlds> mark_{}; ///< segment start.
    std::uint32_t fetchLineShift_ = 6; ///< log2(L1I line bytes).
    std::uint32_t lastFetchLine_ = ~0u;
    Activity activity_;
};

/** The solo timing model: one world, its own memory hierarchy. */
using TimingModel = BasicTimingModel<mem::MemHierarchy>;

} // namespace smarts::core

#endif // SMARTS_CORE_TIMING_HH
