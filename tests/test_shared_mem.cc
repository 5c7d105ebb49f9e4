/**
 * @file
 * Property tests for the shared hierarchy and its shadow L2 tags —
 * the co-run tier's whole correctness claim. Three pins:
 *
 *  1. A one-program mix degenerates to a real solo run, bit for bit
 *     (SharedCache with one owner IS mem::Cache; the mix timing
 *     accounting IS core::TimingModel).
 *  2. Inside a two-program co-run, each program's shadow-L2 access
 *     and miss counts and its solo-world CPI/EPI are bit-exactly
 *     equal, per sampling unit, to an ACTUAL solo run of the same
 *     unit — across 8-way and 16-way L2 geometries and both
 *     partitioning policies, on a mix with real L2 contention (a
 *     guard fails the test if the shared L2 never diverges from the
 *     shadow, which would make the pin vacuous).
 *  3. MixState (arch + shared hierarchy + lanes) serializes and
 *     restores losslessly: re-serialization is byte-identical and a
 *     restored session continues bit-identically.
 */

#include <cstdint>
#include <vector>

#include "check.hh"
#include "core/sampler.hh"
#include "core/session.hh"
#include "estimate_fingerprint.hh"
#include "mp/mix_sampler.hh"
#include "mp/mix_session.hh"
#include "uarch/config.hh"
#include "util/binary_io.hh"
#include "workloads/benchmark.hh"

namespace {

using namespace smarts;
using smarts::test::bitsOf;

core::SamplingConfig
smallConfig()
{
    core::SamplingConfig cfg;
    cfg.unitSize = 500;
    cfg.detailedWarming = 1000;
    cfg.interval = 50;
    cfg.offset = 0;
    cfg.warming = core::WarmingMode::Functional;
    return cfg;
}

/**
 * A one-program Shared-policy mix must reproduce the real solo
 * sampler bit for bit in BOTH worlds: with a single owner the shared
 * L2 and the shadow L2 see the identical stream, so co-run == solo
 * == a plain SimSession run of the same schedule — including a
 * design whose final unit is truncated (the dropped-round
 * accounting).
 */
void
checkSoloDegenerateMix(const workloads::BenchmarkSpec &spec,
                       const uarch::MachineConfig &machine,
                       const core::SamplingConfig &cfg,
                       bool expectDropped)
{
    core::SimSession session(spec, machine);
    const core::SmartsEstimate ref =
        core::SystematicSampler(cfg).run(session);
    // A truncating design must really drop its final unit, or the
    // pin below leaves the dropped-round accounting uncovered.
    if (expectDropped)
        CHECK(ref.instructionsDropped > 0);

    const mp::MixEstimate est =
        mp::runMix(mp::WorkloadMix::of({spec}), machine, cfg);
    CHECK_EQ(est.perProgram.size(), std::size_t(1));
    const mp::MixProgramEstimate &pe = est.perProgram[0];

    CHECK(test::fingerprint(pe.coRun) == test::fingerprint(ref));
    CHECK(test::fingerprint(pe.solo) == test::fingerprint(ref));

    // Alone, the shared and shadow L2s are the same cache.
    CHECK_EQ(pe.sharedAccesses, pe.shadowAccesses);
    CHECK_EQ(pe.sharedMisses, pe.shadowMisses);
    CHECK_EQ(bitsOf(pe.slowdown()), bitsOf(1.0));
    CHECK_EQ(bitsOf(pe.cpiDelta.mean()), bitsOf(0.0));
}

void
testSoloDegenerateMix()
{
    const workloads::BenchmarkSpec spec =
        workloads::findBenchmark("fsm-1", workloads::Scale::Mini);
    const uarch::MachineConfig machine =
        uarch::MachineConfig::sixteenWay();
    checkSoloDegenerateMix(spec, machine, smallConfig(), false);

    core::SimSession probe(spec, machine);
    checkSoloDegenerateMix(
        spec, machine,
        test::truncatingDesign(
            probe.fastForward(~0ull >> 1, core::WarmingMode::None), 50),
        true);
}

/** Per-unit ground truth from an actual solo run of one program. */
struct SoloUnit
{
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    double cpi = 0.0;
    double epi = 0.0;
};

/**
 * Run @p spec solo under the mix's U/W/k schedule, snapshotting the
 * L2 counters around every measured unit. This is the reference the
 * shadow tags claim to reproduce from inside a co-run.
 */
std::vector<SoloUnit>
runSoloSchedule(const workloads::BenchmarkSpec &spec,
                const uarch::MachineConfig &machine,
                const core::SamplingConfig &cfg)
{
    core::SimSession session(spec, machine);
    const std::uint64_t u = cfg.unitSize;
    const std::uint64_t w = cfg.detailedWarming;

    std::vector<SoloUnit> units;
    std::uint64_t pos = 0;
    std::uint64_t unitIdx = cfg.offset;
    while (!session.finished()) {
        const std::uint64_t unitStart = unitIdx * u;
        const std::uint64_t warmStart =
            unitStart > w ? unitStart - w : 0;
        if (warmStart > pos) {
            pos += session.fastForward(warmStart - pos, cfg.warming);
            if (session.finished())
                break;
        }
        if (unitStart > pos) {
            const core::Segment warm =
                session.detailedRun(unitStart - pos);
            pos += warm.instructions;
            if (session.finished())
                break;
        }

        core::ArchState arch0;
        core::TimingState t0;
        session.saveState(arch0, t0);
        const core::Segment seg = session.detailedRun(u);
        pos += seg.instructions;
        if (seg.instructions != u)
            break;
        core::ArchState arch1;
        core::TimingState t1;
        session.saveState(arch1, t1);

        SoloUnit su;
        su.l2Accesses = (t1.mem.l2.loads + t1.mem.l2.stores) -
                        (t0.mem.l2.loads + t0.mem.l2.stores);
        su.l2Misses = t1.mem.l2.misses - t0.mem.l2.misses;
        su.cpi = static_cast<double>(seg.cycles) /
                 static_cast<double>(u);
        su.epi = seg.energyNj / static_cast<double>(u);
        units.push_back(su);
        unitIdx += cfg.interval;
    }
    return units;
}

/**
 * The shadow-tag pin: per sampling unit of a two-program co-run,
 * each program's shadow-L2 traffic and solo-world timing must be
 * bit-exactly what an actual solo run of that unit measures.
 */
void
checkShadowAgainstSolo(const uarch::MachineConfig &machine,
                       mem::PartitionPolicy policy,
                       const char *nameA, const char *nameB)
{
    const core::SamplingConfig cfg = smallConfig();
    const mp::WorkloadMix mix = mp::WorkloadMix::of(
        {workloads::findBenchmark(nameA, workloads::Scale::Mini),
         workloads::findBenchmark(nameB, workloads::Scale::Mini)},
        policy);

    const mp::MixSampler sampler(mix, machine, cfg);
    mp::MixSession session = sampler.makeSession();
    core::ShardSpec whole;
    whole.firstUnitIndex = cfg.offset;
    whole.runsTail = true;
    const mp::MixSliceResult slice =
        sampler.runSlice(session, whole);
    CHECK(!slice.obs.empty());

    bool contended = false;
    for (std::size_t p = 0; p < mix.programs.size(); ++p) {
        const std::vector<SoloUnit> solo =
            runSoloSchedule(mix.programs[p], machine, cfg);
        CHECK(solo.size() >= slice.obs.size());
        for (std::size_t i = 0; i < slice.obs.size(); ++i) {
            const mp::MixLaneObservation &lo = slice.obs[i].per[p];
            CHECK_EQ(lo.shadowAccesses, solo[i].l2Accesses);
            CHECK_EQ(lo.shadowMisses, solo[i].l2Misses);
            CHECK_EQ(bitsOf(lo.soloCpi), bitsOf(solo[i].cpi));
            CHECK_EQ(bitsOf(lo.soloEpi), bitsOf(solo[i].epi));
            // L1s are private, so both worlds issue the same L2
            // requests; only the hit/miss split may differ.
            CHECK_EQ(lo.sharedAccesses, lo.shadowAccesses);
            if (lo.sharedMisses != lo.shadowMisses)
                contended = true;
        }
    }
    // The pin must not pass vacuously: a co-run where the shared L2
    // never diverges from the shadow L2 exercised nothing.
    CHECK(contended);
}

/**
 * MixState roundtrip: serialize -> read -> re-serialize is
 * byte-identical, and a session restored from the read-back state
 * continues bit-identically to the original.
 */
void
testStateSerializationRoundtrip()
{
    const uarch::MachineConfig machine =
        uarch::MachineConfig::eightWay();
    const mp::WorkloadMix mix = mp::WorkloadMix::of(
        {workloads::findBenchmark("fsm-1", workloads::Scale::Mini),
         workloads::findBenchmark("chase-1",
                                  workloads::Scale::Mini)},
        mem::PartitionPolicy::WayPartitioned);

    mp::MixSession session(mix, machine);
    session.fastForward(20000, core::WarmingMode::Functional);
    session.detailedRun(3000);

    mp::MixState state;
    session.saveState(state);
    util::BinaryWriter out;
    state.write(out);

    util::BinaryReader in(out.buffer());
    mp::MixState back;
    back.read(in);
    CHECK(!in.failed());
    CHECK_EQ(in.remaining(), std::size_t(0));

    util::BinaryWriter out2;
    back.write(out2);
    CHECK(out.buffer() == out2.buffer());

    mp::MixSession restored(mix, machine);
    restored.restoreState(back);
    CHECK_EQ(restored.roundCount(), session.roundCount());

    const mp::MixSegment a = session.detailedRun(2000);
    const mp::MixSegment b = restored.detailedRun(2000);
    CHECK_EQ(a.rounds, b.rounds);
    for (std::size_t p = 0; p < a.per.size(); ++p) {
        CHECK_EQ(a.per[p].coCycles, b.per[p].coCycles);
        CHECK_EQ(a.per[p].soloCycles, b.per[p].soloCycles);
        CHECK_EQ(bitsOf(a.per[p].coEnergyNj),
                 bitsOf(b.per[p].coEnergyNj));
        CHECK_EQ(bitsOf(a.per[p].soloEnergyNj),
                 bitsOf(b.per[p].soloEnergyNj));
        CHECK_EQ(a.per[p].sharedMisses, b.per[p].sharedMisses);
        CHECK_EQ(a.per[p].shadowMisses, b.per[p].shadowMisses);
    }
}

} // namespace

int
main()
{
    testSoloDegenerateMix();
    // chase-1 + mix-1 is the quick suite's contended pair: both
    // programs' L2 working sets overflow the shared 256 KiB array,
    // so co-run misses genuinely diverge from the shadow's solo
    // stream. The 16-way variant keeps the capacity (and thus the
    // contention) while doubling the ways the partition policy
    // splits.
    const uarch::MachineConfig eightWayL2 =
        uarch::MachineConfig::eightWay();
    uarch::MachineConfig sixteenWayL2 =
        uarch::MachineConfig::eightWay();
    sixteenWayL2.mem.l2.assoc = 16;
    for (const uarch::MachineConfig &machine :
         {eightWayL2, sixteenWayL2}) {
        checkShadowAgainstSolo(machine,
                               mem::PartitionPolicy::Shared,
                               "chase-1", "mix-1");
        checkShadowAgainstSolo(machine,
                               mem::PartitionPolicy::WayPartitioned,
                               "chase-1", "mix-1");
    }
    testStateSerializationRoundtrip();
    TEST_MAIN_SUMMARY();
}
