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
#include "core/schedule.hh"
#include "core/session.hh"
#include "exec/thread_pool.hh"
#include "uarch/config.hh"
#include "util/binary_io.hh"
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

/**
 * The per-instruction reference for the split capture: the capture
 * walk over a SimSession itself, interpreter and timing model fused
 * on one thread, snapping every checkpoint whole. Returns the shards
 * it reached.
 */
std::size_t
fusedCapture(core::SimSession &session, const core::SamplingConfig &sc,
             const std::vector<core::ShardSpec> &plan,
             core::CheckpointLibrary &library)
{
    library = core::CheckpointLibrary::prepare(sc, plan);
    std::size_t reached = 0;
    core::detail::captureShards(session, sc, plan, [&](std::size_t s) {
        core::ArchCheckpoint cp;
        cp.saveFrom(session);
        cp.unitIndex = plan[s].firstUnitIndex;
        library.record(s, cp);
        reached = s;
    });
    return reached;
}

std::vector<std::uint8_t>
libraryBytes(const core::CheckpointLibrary &library,
             const core::LibraryKey &key)
{
    util::BinaryWriter out;
    library.serialize(key, out);
    return out.buffer();
}

std::uint64_t
streamLength(const workloads::BenchmarkSpec &spec,
             const uarch::MachineConfig &config)
{
    core::SimSession probe(spec, config);
    return probe.fastForward(~0ull >> 1, core::WarmingMode::None);
}

/** One capture-oracle design and its pinned `.smck` digest. */
struct OracleCase
{
    const char *benchmark;
    bool sixteenWay;
    std::uint64_t unitSize;
    std::uint64_t detailedWarming;
    std::uint64_t interval;
    std::uint64_t offset;
    core::WarmingMode warming;
    /** XXH64 of the serialized library, as the fused capture wrote it. */
    std::uint64_t digest;
};

/**
 * The designs the capture oracles cover: every warming mode; a
 * nonzero offset on the 16-way machine; k = 1 with a unit size that
 * does not divide the stream, so it ends mid-unit.
 */
const OracleCase kOracleCases[] = {
    {"sort-1", false, 1000, 2000, 10, 0, core::WarmingMode::Functional,
     0x4dddbdaaa166bae5ull},
    {"sort-1", false, 1000, 2000, 10, 0, core::WarmingMode::CachesOnly,
     0x11fb7f88a0c2dea2ull},
    {"sort-1", false, 1000, 2000, 10, 0, core::WarmingMode::BpredOnly,
     0x87afcca024372f2eull},
    {"sort-1", false, 1000, 2000, 10, 0, core::WarmingMode::None,
     0x4d433ce7a1008867ull},
    {"fsm-1", true, 1000, 4000, 17, 5, core::WarmingMode::Functional,
     0x897953def7256490ull},
    {"alu-1", false, 999, 0, 1, 0, core::WarmingMode::Functional,
     0x17bdecb890a08049ull},
};

void
testSplitCaptureMatchesFused()
{
    // core::SplitCapture runs the pass across an interpreter and a
    // warming thread. Its `.smck` bytes must equal the fused
    // reference's and the pinned digests (the bytes a fused capture
    // writes); resuming from them must reproduce serial run() at
    // every pool size.
    for (const OracleCase &c : kOracleCases) {
        const auto config = c.sixteenWay
                                ? uarch::MachineConfig::sixteenWay()
                                : uarch::MachineConfig::eightWay();
        const auto spec =
            workloads::findBenchmark(c.benchmark, workloads::Scale::Mini);
        core::SamplingConfig sc;
        sc.unitSize = c.unitSize;
        sc.detailedWarming = c.detailedWarming;
        sc.interval = c.interval;
        sc.offset = c.offset;
        sc.warming = c.warming;
        const core::LibraryKey key = core::LibraryKey::of(spec, config, sc);
        const std::uint64_t length = streamLength(spec, config);
        const auto plan = core::CheckpointLibrary::planShards(sc, length, 5);
        CHECK_EQ(plan.size(), std::size_t(5));

        core::SimSession fusedSession(spec, config);
        core::CheckpointLibrary fused;
        CHECK_EQ(fusedCapture(fusedSession, sc, plan, fused),
                 plan.size() - 1);
        core::SimSession splitSession(spec, config);
        const core::CheckpointLibrary split =
            core::CheckpointLibrary::build(splitSession, sc, plan);
        const std::vector<std::uint8_t> bytes = libraryBytes(split, key);
        CHECK(bytes == libraryBytes(fused, key));
        // SplitCapture hands the session back whole, where the fused
        // pass left it.
        CHECK_EQ(splitSession.instCount(), fusedSession.instCount());
        const std::uint64_t digest = util::xxh64(bytes.data(), bytes.size());
        CHECK_EQ(digest, c.digest);
        if (digest != c.digest)
            std::fprintf(stderr, "  %s/%d: .smck digest %016llx\n",
                         c.benchmark, static_cast<int>(c.warming),
                         static_cast<unsigned long long>(digest));

        core::SimSession serialSession(spec, config);
        const core::SmartsEstimate serial =
            core::SystematicSampler(sc).run(serialSession);
        CHECK(serial.units() > 0);
        auto factory = [&spec, &config] {
            return std::make_unique<core::SimSession>(spec, config);
        };
        for (const unsigned threads : {1u, 2u, 5u}) {
            exec::ThreadPool pool(threads);
            CHECK(fingerprint(core::SystematicSampler(sc).runSharded(
                      factory, split, pool)) == fingerprint(serial));
            CHECK(fingerprint(core::SystematicSampler(sc).runSharded(
                      factory, length, threads, pool)) ==
                  fingerprint(serial));
        }
    }
}

/** A plan over a stream length stated half again too long. */
std::vector<core::ShardSpec>
overstatedPlan(const workloads::BenchmarkSpec &spec,
               const uarch::MachineConfig &config,
               const core::SamplingConfig &sc)
{
    return core::CheckpointLibrary::planShards(
        sc, streamLength(spec, config) * 3 / 2, 4);
}

void
testSplitCaptureStopsAtUnreachableBoundary()
{
    // The plan names boundaries past the end of the stream. The
    // split walk must stop at the first of them, as the fused walk
    // does, having delivered exactly the reachable checkpoints with
    // the fused bytes.
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("stream-1", workloads::Scale::Mini);
    core::SamplingConfig sc;
    sc.unitSize = 1000;
    sc.detailedWarming = 2000;
    sc.interval = 20;
    sc.warming = core::WarmingMode::Functional;
    const auto plan = overstatedPlan(spec, config, sc);
    CHECK_EQ(plan.size(), std::size_t(4));

    core::SimSession fusedSession(spec, config);
    core::CheckpointLibrary fused;
    const std::size_t reached = fusedCapture(fusedSession, sc, plan, fused);
    CHECK(reached >= 1 && reached + 1 < plan.size());

    core::SimSession splitSession(spec, config);
    core::CheckpointLibrary split =
        core::CheckpointLibrary::prepare(sc, plan);
    std::vector<std::size_t> delivered;
    core::CheckpointLibrary::capture(
        splitSession, sc, plan,
        [&](std::size_t s, core::ArchCheckpoint &&cp) {
            delivered.push_back(s);
            split.record(s, cp);
        });
    CHECK_EQ(delivered.size(), reached);
    for (std::size_t i = 0; i < delivered.size(); ++i)
        CHECK_EQ(delivered[i], i + 1);
    CHECK(!split.complete());
    CHECK(splitSession.finished());
    CHECK(splitSession.instCount() < plan[reached + 1].resumePos);
    CHECK_EQ(splitSession.instCount(), fusedSession.instCount());
    const core::LibraryKey key = core::LibraryKey::of(spec, config, sc);
    for (std::size_t s = 1; s <= reached; ++s) {
        util::BinaryWriter a, b;
        split.at(s).write(a);
        fused.at(s).write(b);
        CHECK(a.buffer() == b.buffer());
    }
}

/**
 * Build a library over an overstated plan: requireComplete must
 * refuse it, naming the unreachable shard (a ctest registration
 * matches the diagnostic).
 */
int
buildOverstated()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("stream-1", workloads::Scale::Mini);
    core::SamplingConfig sc;
    sc.unitSize = 1000;
    sc.detailedWarming = 2000;
    sc.interval = 20;
    sc.warming = core::WarmingMode::Functional;
    core::SimSession session(spec, config);
    core::CheckpointLibrary::build(session, sc,
                                   overstatedPlan(spec, config, sc));
    std::printf("accepted an overstated plan\n");
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::string(argv[1]) == "overstated")
        return buildOverstated();
    testPlanShards();
    testSaveRestoreRoundtrip();
    testWarmAsDetailedMatchesDetailedState();
    testShardedBitIdentical();
    testCheckpointPositions();
    testLibraryKeyMismatchNamesField();
    testSplitCaptureMatchesFused();
    testSplitCaptureStopsAtUnreachableBoundary();
    TEST_MAIN_SUMMARY();
}
