/**
 * @file
 * Tests for the checkpoint subsystem (core/checkpoint.hh): shard
 * planning geometry, save/restore state roundtrips, and the
 * determinism bar — SystematicSampler::runSharded must produce a
 * SmartsEstimate bit-identical to the serial run() at any shard and
 * thread count, including streams with truncated final units and
 * nonzero sampling offsets. Runs under TSan in CI to guard the
 * capture-thread/pool handoff.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "core/sampler.hh"
#include "core/session.hh"
#include "exec/thread_pool.hh"
#include "uarch/config.hh"
#include "workloads/benchmark.hh"

#include "check.hh"
#include "estimate_fingerprint.hh"

using namespace smarts;
using smarts::test::bitsOf;
using smarts::test::fingerprint;

namespace {

void
testPlanShards()
{
    core::SamplingConfig sc;
    sc.unitSize = 1000;
    sc.interval = 10;
    sc.offset = 3;

    // 100 measured units (indices 3, 13, ..., 993) in a 1M stream.
    const auto plan =
        core::CheckpointLibrary::planShards(sc, 1'000'000, 4);
    CHECK_EQ(plan.size(), std::size_t(4));
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < plan.size(); ++s) {
        total += plan[s].unitCount;
        CHECK_EQ(plan[s].runsTail, s + 1 == plan.size());
        if (s) {
            // Contiguity: shard s starts where s-1's units end.
            CHECK_EQ(plan[s].firstUnitIndex,
                     plan[s - 1].firstUnitIndex +
                         plan[s - 1].unitCount * sc.interval);
            // Resume at the previous measured unit's end.
            CHECK_EQ(plan[s].resumePos,
                     (plan[s].firstUnitIndex - sc.interval) *
                             sc.unitSize +
                         sc.unitSize);
        }
    }
    CHECK_EQ(total, std::uint64_t(100));
    CHECK_EQ(plan[0].resumePos, std::uint64_t(0));

    // More shards than units: clamped to one shard per unit.
    const auto clamped =
        core::CheckpointLibrary::planShards(sc, 40'000, 64);
    CHECK_EQ(clamped.size(), std::size_t(4)); // units 3,13,23,33.
    for (const auto &shard : clamped)
        CHECK_EQ(shard.unitCount, std::uint64_t(1));

    // Offset beyond the stream: a single tail-only shard.
    core::SamplingConfig far = sc;
    far.offset = 1'000'000;
    const auto none =
        core::CheckpointLibrary::planShards(far, 1'000'000, 8);
    CHECK_EQ(none.size(), std::size_t(1));
    CHECK_EQ(none[0].unitCount, std::uint64_t(0));
    CHECK(none[0].runsTail);
}

void
testSaveRestoreRoundtrip()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("mix-1", workloads::Scale::Mini);

    // Drive a session through a mixed prefix, snapshot it, and
    // resume the snapshot in a fresh session: every subsequent
    // measurement must be bit-identical.
    core::SimSession a(spec, config);
    a.fastForward(20'000, core::WarmingMode::Functional);
    a.detailedRun(5'000);
    a.fastForward(10'000, core::WarmingMode::Functional);

    core::ArchState arch;
    core::TimingState timing;
    a.saveState(arch, timing);

    core::SimSession b(spec, config);
    b.restoreState(arch, timing);
    CHECK_EQ(b.instCount(), a.instCount());
    CHECK_EQ(b.pc(), a.pc());

    for (int i = 0; i < 3; ++i) {
        const core::Segment sa = a.detailedRun(2'000);
        const core::Segment sb = b.detailedRun(2'000);
        CHECK_EQ(sa.instructions, sb.instructions);
        CHECK_EQ(sa.cycles, sb.cycles);
        CHECK_EQ(bitsOf(sa.energyNj), bitsOf(sb.energyNj));
        a.fastForward(7'000, core::WarmingMode::Functional);
        b.fastForward(7'000, core::WarmingMode::Functional);
    }
    CHECK_EQ(a.instCount(), b.instCount());
    CHECK_EQ(a.pc(), b.pc());
}

void
testWarmAsDetailedMatchesDetailedState()
{
    // After the same instruction window, warmAsDetailed must leave
    // the microarchitectural state bit-identical to detailedRun —
    // the property the capture pass stands on (wrong-path pollution
    // included: eightWay models it).
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("bsearch-1", workloads::Scale::Mini);

    core::SimSession viaDetailed(spec, config);
    core::SimSession viaWarm(spec, config);
    viaDetailed.fastForward(10'000, core::WarmingMode::Functional);
    viaWarm.fastForward(10'000, core::WarmingMode::Functional);

    viaDetailed.detailedRun(30'000);
    viaWarm.warmAsDetailed(30'000);

    // Compare by measuring from here: identical caches, TLBs,
    // predictor and fetch-line state yield identical segments
    // (accumulator offsets cannot leak in: fixed-point deltas).
    const core::Segment sd = viaDetailed.detailedRun(5'000);
    const core::Segment sw = viaWarm.detailedRun(5'000);
    CHECK_EQ(sd.cycles, sw.cycles);
    CHECK_EQ(bitsOf(sd.energyNj), bitsOf(sw.energyNj));
}

void
checkShardedIdentical(const workloads::BenchmarkSpec &spec,
                      const uarch::MachineConfig &config,
                      const core::SamplingConfig &sc,
                      exec::ThreadPool &pool)
{
    auto factory = [&spec, &config] {
        return std::make_unique<core::SimSession>(spec, config);
    };

    core::SimSession serialSession(spec, config);
    const core::SmartsEstimate serial =
        core::SystematicSampler(sc).run(serialSession);
    CHECK(serial.units() > 0);

    for (const std::size_t shards : {std::size_t(1), std::size_t(2),
                                     std::size_t(5)}) {
        const core::SmartsEstimate sharded =
            core::SystematicSampler(sc).runSharded(
                factory, serial.streamLength, shards, pool);
        CHECK(fingerprint(sharded) == fingerprint(serial));
    }
}

void
testShardedBitIdentical()
{
    const auto config = uarch::MachineConfig::eightWay();
    exec::ThreadPool pool(2);

    // Distinct personalities: data-dependent branches, phase
    // alternation (worst-case state sensitivity), pointer chasing.
    for (const char *name : {"sort-1", "phase-1", "chase-1"}) {
        const auto spec =
            workloads::findBenchmark(name, workloads::Scale::Mini);
        core::SamplingConfig sc;
        sc.unitSize = 1000;
        sc.detailedWarming = 2000;
        sc.interval = 10;
        sc.warming = core::WarmingMode::Functional;
        checkShardedIdentical(spec, config, sc, pool);
    }

    // Nonzero offset, 16-way machine, sparser grid.
    {
        const auto spec = workloads::findBenchmark(
            "fsm-1", workloads::Scale::Mini);
        core::SamplingConfig sc;
        sc.unitSize = 1000;
        sc.detailedWarming = 4000;
        sc.interval = 17;
        sc.offset = 5;
        sc.warming = core::WarmingMode::Functional;
        checkShardedIdentical(
            spec, uarch::MachineConfig::sixteenWay(), sc, pool);
    }

    // Truncation-prone: k=1 measures every unit, so the stream end
    // lands inside a unit unless the length divides U; the dropped
    // instructions must match the serial accounting bit for bit.
    {
        const auto spec = workloads::findBenchmark(
            "alu-1", workloads::Scale::Mini);
        core::SamplingConfig sc;
        sc.unitSize = 999; // coprime-ish with the stream length.
        sc.detailedWarming = 0;
        sc.interval = 1;
        sc.warming = core::WarmingMode::Functional;

        auto factory = [&spec, &config] {
            return std::make_unique<core::SimSession>(spec, config);
        };
        core::SimSession serialSession(spec, config);
        const core::SmartsEstimate serial =
            core::SystematicSampler(sc).run(serialSession);
        CHECK(serial.instructionsDropped > 0);
        CHECK_EQ(serial.instructionsMeasured,
                 serial.units() * sc.unitSize);
        const core::SmartsEstimate sharded =
            core::SystematicSampler(sc).runSharded(
                factory, serial.streamLength, 3, pool);
        CHECK(fingerprint(sharded) == fingerprint(serial));
    }
}

void
testCheckpointPositions()
{
    // Captured checkpoints must sit exactly at the planned resume
    // positions, and their footprint must be reported.
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("stream-1", workloads::Scale::Mini);

    core::SimSession probe(spec, config);
    const std::uint64_t length =
        probe.fastForward(~0ull >> 1, core::WarmingMode::None);

    core::SamplingConfig sc;
    sc.unitSize = 1000;
    sc.detailedWarming = 2000;
    sc.interval = 20;
    sc.warming = core::WarmingMode::Functional;

    const auto plan =
        core::CheckpointLibrary::planShards(sc, length, 4);
    core::SimSession captureSession(spec, config);
    const core::CheckpointLibrary library =
        core::CheckpointLibrary::build(captureSession, sc, plan);
    CHECK_EQ(library.shardCount(), plan.size());
    CHECK(library.byteSize() > 0);
    for (std::size_t s = 1; s < plan.size(); ++s) {
        CHECK_EQ(library.at(s).position, plan[s].resumePos);
        CHECK_EQ(library.at(s).unitIndex, plan[s].firstUnitIndex);
        CHECK(library.at(s).byteSize() > 0);
    }
    // The capture pass stops at the last boundary, not stream end.
    CHECK(captureSession.instCount() <= plan.back().resumePos);

    // Library reuse: resuming shards from the prebuilt library (no
    // capture pass) still reproduces the serial estimate bit for
    // bit, run after run.
    auto factory = [&spec, &config] {
        return std::make_unique<core::SimSession>(spec, config);
    };
    core::SimSession serialSession(spec, config);
    const core::SmartsEstimate serial =
        core::SystematicSampler(sc).run(serialSession);
    exec::ThreadPool pool(2);
    for (int rerun = 0; rerun < 2; ++rerun) {
        const core::SmartsEstimate warm =
            core::SystematicSampler(sc).runSharded(factory, library,
                                                   pool);
        CHECK(fingerprint(warm) == fingerprint(serial));
    }
}

void
testLibraryKeyMismatchNamesField()
{
    // A key that differs in any one component refuses, and the
    // diagnostic prints that component from both keys: the two
    // printed values must differ (never "sort-1-mini vs sort-1-mini").
    core::SamplingConfig sc;
    sc.unitSize = 1000;
    sc.detailedWarming = 2000;
    sc.interval = 10;
    sc.warming = core::WarmingMode::Functional;
    const core::LibraryKey expect = core::LibraryKey::of(
        workloads::findBenchmark("sort-1", workloads::Scale::Mini),
        uarch::MachineConfig::eightWay(), sc);
    CHECK_EQ(expect.mismatchAgainst(expect), std::string());

    struct Case
    {
        const char *names; ///< what the diagnostic must mention.
        void (*edit)(core::LibraryKey &);
    };
    const Case cases[] = {
        {"benchmark",
         [](core::LibraryKey &k) { k.benchmark.name = "sort-2"; }},
        {"benchmark",
         [](core::LibraryKey &k) {
             k.benchmark.scale = workloads::Scale::Small;
         }},
        {"kernel",
         [](core::LibraryKey &k) {
             k.benchmark.kernel = workloads::Kernel::Chase;
         }},
        {"variant",
         [](core::LibraryKey &k) { k.benchmark.variant = 2; }},
        {"seed", [](core::LibraryKey &k) { k.benchmark.seed += 1; }},
        {"sampling-design",
         [](core::LibraryKey &k) { k.sampling.unitSize = 999; }},
        {"sampling-design",
         [](core::LibraryKey &k) { k.sampling.detailedWarming = 0; }},
        {"sampling-design",
         [](core::LibraryKey &k) { k.sampling.interval = 11; }},
        {"sampling-design",
         [](core::LibraryKey &k) { k.sampling.offset = 3; }},
        {"warming-mode",
         [](core::LibraryKey &k) {
             k.sampling.warming = core::WarmingMode::CachesOnly;
         }},
        {"geometry", [](core::LibraryKey &k) { k.geometryHash ^= 1; }},
    };
    for (const Case &c : cases) {
        core::LibraryKey file = expect;
        c.edit(file);
        const std::string why = expect.mismatchAgainst(file);
        CHECK(why.find(c.names) != std::string::npos);
        const std::size_t fileAt = why.find("(file: ");
        const std::size_t expectAt = why.find(", expected: ");
        CHECK(fileAt != std::string::npos);
        CHECK(expectAt != std::string::npos && expectAt > fileAt);
        if (fileAt == std::string::npos ||
            expectAt == std::string::npos || expectAt < fileAt)
            continue;
        const std::string fileValue =
            why.substr(fileAt + 7, expectAt - fileAt - 7);
        const std::size_t valueAt = expectAt + 12;
        const std::size_t dash = why.find(" —", valueAt);
        const std::size_t end =
            dash != std::string::npos ? dash : why.rfind(')');
        const std::string expectValue =
            why.substr(valueAt, end - valueAt);
        CHECK(!fileValue.empty());
        CHECK(fileValue != expectValue);
        if (fileValue == expectValue)
            std::fprintf(stderr, "  diagnostic \"%s\" prints equal "
                                 "values\n",
                         why.c_str());
    }
}

} // namespace

int
main()
{
    testPlanShards();
    testSaveRestoreRoundtrip();
    testWarmAsDetailedMatchesDetailedState();
    testShardedBitIdentical();
    testCheckpointPositions();
    testLibraryKeyMismatchNamesField();
    TEST_MAIN_SUMMARY();
}
