/**
 * @file
 * Determinism and persistence contracts of the co-run tier
 * (mp::MixSampler): runMix estimates are byte-identical serial vs 2
 * vs 5 threads and cold-store vs warm-store; a MixLibrary
 * save/load roundtrip is byte-exact and every mis-load refuses by
 * name (wrong mix, solo-flavor file, mix file through the solo
 * loader); and a hand-downgraded version-1 solo checkpoint library
 * still loads through the v1->v2 migration path and reproduces the
 * serial estimate bit for bit.
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "check.hh"
#include "core/checkpoint.hh"
#include "core/checkpoint_store.hh"
#include "core/sampler.hh"
#include "core/session.hh"
#include "estimate_fingerprint.hh"
#include "exec/thread_pool.hh"
#include "mp/mix_library.hh"
#include "mp/mix_sampler.hh"
#include "uarch/config.hh"
#include "util/binary_io.hh"
#include "workloads/benchmark.hh"

namespace fs = std::filesystem;

namespace {

using namespace smarts;
using smarts::test::fingerprint;

const char *kRoot = "test_mix_store";

core::SamplingConfig
mixSampling()
{
    core::SamplingConfig sc;
    sc.unitSize = 500;
    sc.detailedWarming = 1000;
    sc.interval = 50;
    sc.warming = core::WarmingMode::Functional;
    return sc;
}

/** The quick suite's contended pair (see tests/test_shared_mem.cc). */
mp::WorkloadMix
contendedMix(mem::PartitionPolicy policy)
{
    return mp::WorkloadMix::of(
        {workloads::findBenchmark("chase-1", workloads::Scale::Mini),
         workloads::findBenchmark("mix-1", workloads::Scale::Mini)},
        policy);
}

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path,
               const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** Rewrite @p path's trailing checksum after tampering with it. */
void
resealChecksum(const std::string &path)
{
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    const std::size_t payload = bytes.size() - 8;
    const std::uint64_t sum = util::fnv1a(bytes.data(), payload);
    for (int i = 0; i < 8; ++i)
        bytes[payload + i] =
            static_cast<std::uint8_t>(sum >> (8 * i));
    writeFileBytes(path, bytes);
}

/**
 * runMix must produce byte-identical estimates serially and at 2 and
 * 5 threads — the mix determinism contract, under real contention
 * and under way partitioning.
 */
void
testMixThreadDeterminism()
{
    const uarch::MachineConfig machine =
        uarch::MachineConfig::eightWay();
    const core::SamplingConfig sc = mixSampling();
    for (const mem::PartitionPolicy policy :
         {mem::PartitionPolicy::Shared,
          mem::PartitionPolicy::WayPartitioned}) {
        const mp::WorkloadMix mix = contendedMix(policy);
        const mp::MixEstimate serial = mp::runMix(mix, machine, sc);
        CHECK_EQ(serial.perProgram.size(), std::size_t(2));
        // The contract must not hold vacuously on an empty sample.
        CHECK(serial.perProgram[0].coRun.cpiStats.count() > 0);
        const mp::MixEstimate two =
            mp::runMix(mix, machine, sc, /*threads=*/2);
        const mp::MixEstimate five =
            mp::runMix(mix, machine, sc, /*threads=*/5);
        CHECK(serial.fingerprint() == two.fingerprint());
        CHECK(serial.fingerprint() == five.fingerprint());
        // The QoS numbers behind the bench table derive from the
        // fingerprinted state, so they are pinned transitively; spot
        // check that slowdown is sane under genuine contention.
        CHECK(serial.perProgram[0].slowdown() >= 1.0);
    }
}

/**
 * estimateMix through a CheckpointStore: the cold run captures and
 * persists the mix library, the warm run loads it back, and both
 * estimates are byte-identical (to each other and to serial).
 */
void
testMixStoreColdVsWarm()
{
    const uarch::MachineConfig machine =
        uarch::MachineConfig::eightWay();
    const core::SamplingConfig sc = mixSampling();
    const mp::WorkloadMix mix =
        contendedMix(mem::PartitionPolicy::Shared);

    const mp::MixEstimate serial = mp::runMix(mix, machine, sc);

    core::CheckpointStore store(kRoot);
    const std::string path =
        store.pathFor(mp::mixKey(mix, machine, sc));
    CHECK(!fs::exists(path));

    const mp::MixEstimate cold =
        mp::estimateMix(mix, machine, sc, /*threads=*/3, store);
    CHECK(fs::exists(path));
    const mp::MixEstimate warm =
        mp::estimateMix(mix, machine, sc, /*threads=*/2, store);

    CHECK(serial.fingerprint() == cold.fingerprint());
    CHECK(serial.fingerprint() == warm.fingerprint());
}

/**
 * MixLibrary persistence: save/load roundtrips byte-exactly, and
 * every mis-load refuses with a diagnostic — a mix library under a
 * different mix, a solo library through the mix loader, and a mix
 * library through the solo loader.
 */
void
testMixLibraryRoundtripAndRefusals()
{
    const uarch::MachineConfig machine =
        uarch::MachineConfig::eightWay();
    const core::SamplingConfig sc = mixSampling();
    const mp::WorkloadMix mix =
        contendedMix(mem::PartitionPolicy::Shared);
    const core::LibraryKey key = mp::mixKey(mix, machine, sc);

    // Build a real mix library over the full stream.
    mp::MixSampler sampler(mix, machine, sc);
    const std::uint64_t streamLength =
        sampler.measureStreamLength();
    const std::vector<core::ShardSpec> plan =
        core::CheckpointLibrary::planShards(sc, streamLength, 3);
    mp::MixSession capture = sampler.makeSession();
    const mp::MixLibrary built =
        mp::MixLibrary::build(capture, sc, plan);
    CHECK(built.complete());

    const std::string path = std::string(kRoot) + "/roundtrip.smck";
    std::string error;
    CHECK(built.save(mix, key, path, &error));

    const auto loaded = mp::MixLibrary::load(path, mix, key, &error);
    CHECK(loaded.has_value());
    {
        util::BinaryWriter a;
        built.serialize(mix, key, a);
        util::BinaryWriter b;
        loaded->serialize(mix, key, b);
        CHECK(a.buffer() == b.buffer());
    }

    // A loaded library must drive shards bit-identically to serial.
    {
        exec::ThreadPool pool(2);
        const mp::MixEstimate fromLibrary =
            sampler.runSharded(*loaded, pool);
        const mp::MixEstimate serial = sampler.run();
        CHECK(serial.fingerprint() == fromLibrary.fingerprint());
    }

    // A checkpoint whose shared hierarchy does not match the mix's
    // program count is refused at load, naming the count, not when
    // a shard job restores it.
    {
        struct Corruption
        {
            const char *what;
            void (*apply)(mp::MixState &);
        };
        const Corruption corruptions[] = {
            {"1 shared-hierarchy lanes",
             [](mp::MixState &st) { st.sharedMem.lanes.pop_back(); }},
            {"1 shared-L2 load counters",
             [](mp::MixState &st) { st.sharedMem.l2.loads.pop_back(); }},
            {"3 shared-L2 store counters",
             [](mp::MixState &st) { st.sharedMem.l2.stores.push_back(0); }},
            {"1 shared-L2 miss counters",
             [](mp::MixState &st) { st.sharedMem.l2.misses.pop_back(); }},
        };
        for (const Corruption &c : corruptions) {
            mp::MixLibrary bad = built;
            mp::MixCheckpoint cp = built.at(1);
            c.apply(cp.state);
            bad.record(1, cp);
            const std::string badPath =
                std::string(kRoot) + "/bad_lanes.smck";
            CHECK(bad.save(mix, key, badPath, &error));
            error.clear();
            const auto refused =
                mp::MixLibrary::load(badPath, mix, key, &error);
            CHECK(!refused.has_value());
            CHECK(error.find("is corrupt (checkpoint 1 carries " +
                             std::string(c.what) +
                             " for a 2-program mix)") !=
                  std::string::npos);
            if (error.find(c.what) == std::string::npos)
                std::fprintf(stderr, "  %s: %s\n", c.what,
                             error.c_str());
        }
    }

    // Wrong mix: same machine and design, different co-runner.
    {
        const mp::WorkloadMix other = mp::WorkloadMix::of(
            {workloads::findBenchmark("chase-1",
                                      workloads::Scale::Mini),
             workloads::findBenchmark("phase-1",
                                      workloads::Scale::Mini)});
        error.clear();
        const auto refused = mp::MixLibrary::load(
            path, other, mp::mixKey(other, machine, sc), &error);
        CHECK(!refused.has_value());
        CHECK(!error.empty());
    }

    // A solo library through the mix loader refuses by name.
    {
        const workloads::BenchmarkSpec spec =
            workloads::findBenchmark("chase-1",
                                     workloads::Scale::Mini);
        core::SimSession session(spec, machine);
        std::uint64_t soloLength = 0;
        {
            core::SimSession probe(spec, machine);
            soloLength = probe.fastForward(
                ~0ull >> 1, core::WarmingMode::None);
        }
        const std::vector<core::ShardSpec> soloPlan =
            core::CheckpointLibrary::planShards(sc, soloLength, 3);
        const core::CheckpointLibrary solo =
            core::CheckpointLibrary::build(session, sc, soloPlan);
        const core::LibraryKey soloKey =
            core::LibraryKey::of(spec, machine, sc);
        const std::string soloPath =
            std::string(kRoot) + "/solo.smck";
        CHECK(solo.save(soloKey, soloPath, &error));

        error.clear();
        const auto refused =
            mp::MixLibrary::load(soloPath, mix, key, &error);
        CHECK(!refused.has_value());
        CHECK(error.find("solo") != std::string::npos);
    }

    // The mix library through the solo loader refuses by name.
    {
        error.clear();
        const auto refused =
            core::CheckpointLibrary::load(path, key, &error);
        CHECK(!refused.has_value());
        CHECK(error.find("MixLibrary") != std::string::npos);
    }
}

/**
 * v1 -> v2 migration: a version-1 file (no flavor byte — the format
 * before the co-run tier) must still load and reproduce the serial
 * estimate bit for bit. The v1 bytes are produced by downgrading a
 * freshly serialized v2 library: drop the flavor byte at offset 16,
 * patch the version field back to 1, reseal the checksum — v1 is
 * exactly v2 minus the flavor byte by construction.
 */
void
testCheckpointV1MigrationLoad()
{
    const uarch::MachineConfig machine =
        uarch::MachineConfig::eightWay();
    const core::SamplingConfig sc = mixSampling();
    const workloads::BenchmarkSpec spec =
        workloads::findBenchmark("chase-1", workloads::Scale::Mini);
    const core::LibraryKey key =
        core::LibraryKey::of(spec, machine, sc);

    std::uint64_t streamLength = 0;
    {
        core::SimSession probe(spec, machine);
        streamLength =
            probe.fastForward(~0ull >> 1, core::WarmingMode::None);
    }
    const std::vector<core::ShardSpec> plan =
        core::CheckpointLibrary::planShards(sc, streamLength, 3);
    core::SimSession session(spec, machine);
    const core::CheckpointLibrary built =
        core::CheckpointLibrary::build(session, sc, plan);

    const std::string path = std::string(kRoot) + "/v1.smck";
    std::string error;
    CHECK(built.save(key, path, &error));

    // Downgrade to v1 on disk.
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    CHECK(bytes.size() > 24);
    CHECK_EQ(bytes[8], std::uint8_t(2));  // version u32 LE
    CHECK_EQ(bytes[16], std::uint8_t(0)); // solo flavor byte
    bytes[8] = 1;
    bytes.erase(bytes.begin() + 16);
    writeFileBytes(path, bytes);
    resealChecksum(path);

    const auto migrated =
        core::CheckpointLibrary::load(path, key, &error);
    CHECK(migrated.has_value());

    const core::SystematicSampler solo(sc);
    const core::SessionFactory factory = [&spec, &machine] {
        return std::make_unique<core::SimSession>(spec, machine);
    };
    core::SimSession serialSession(spec, machine);
    const core::SmartsEstimate serial = solo.run(serialSession);
    exec::ThreadPool pool(2);
    const core::SmartsEstimate sharded =
        solo.runSharded(factory, *migrated, pool);
    CHECK(fingerprint(serial) == fingerprint(sharded));
}

} // namespace

int
main()
{
    fs::remove_all(kRoot);
    fs::create_directories(kRoot);

    testMixThreadDeterminism();
    testMixStoreColdVsWarm();
    testMixLibraryRoundtripAndRefusals();
    testCheckpointV1MigrationLoad();
    TEST_MAIN_SUMMARY();
}
