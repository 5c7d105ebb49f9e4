/**
 * @file
 * Tests for persistent checkpoint libraries (core/checkpoint.hh
 * save/load, core/checkpoint_store.hh): load-vs-capture bit-identity
 * at 1/2/5 shards, the store-backed sampler and two-pass procedure
 * paths, one-pass multi-config capture equivalence, geometry-keyed
 * cross-config reuse — and, just as load-bearing, the refusals: a
 * truncated, corrupted, version-bumped or mis-keyed file must be
 * REJECTED with a diagnostic, never silently mis-warm a shard.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "core/checkpoint_store.hh"
#include "core/procedure.hh"
#include "core/sampler.hh"
#include "core/session.hh"
#include "exec/thread_pool.hh"
#include "uarch/config.hh"
#include "util/binary_io.hh"
#include "workloads/benchmark.hh"

#include "check.hh"
#include "estimate_fingerprint.hh"

using namespace smarts;
using smarts::test::fingerprint;
namespace fs = std::filesystem;

namespace {

const char *kRoot = "test_persist_store";

core::SamplingConfig
defaultSampling()
{
    core::SamplingConfig sc;
    sc.unitSize = 1000;
    sc.detailedWarming = 2000;
    sc.interval = 10;
    sc.warming = core::WarmingMode::Functional;
    return sc;
}

std::uint64_t
streamLengthOf(const workloads::BenchmarkSpec &spec,
               const uarch::MachineConfig &config)
{
    core::SimSession probe(spec, config);
    return probe.fastForward(~0ull >> 1, core::WarmingMode::None);
}

std::vector<std::uint8_t>
serializedBytes(const core::CheckpointLibrary &library,
                const core::LibraryKey &key)
{
    util::BinaryWriter out;
    library.serialize(key, out);
    return out.buffer();
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

void
testLoadVsCaptureBitIdentity()
{
    // A saved-then-loaded library must measure every unit
    // bit-identically to the serial run AND to the in-memory
    // library it came from, at 1, 2 and 5 shards.
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const std::uint64_t length = streamLengthOf(spec, config);
    const core::LibraryKey key = core::LibraryKey::of(spec, config, sc);

    auto factory = [&spec, &config] {
        return std::make_unique<core::SimSession>(spec, config);
    };
    core::SimSession serialSession(spec, config);
    const core::SmartsEstimate serial =
        core::SystematicSampler(sc).run(serialSession);
    CHECK(serial.units() > 0);

    exec::ThreadPool pool(2);
    for (const std::size_t shards : {std::size_t(1), std::size_t(2),
                                     std::size_t(5)}) {
        const auto plan =
            core::CheckpointLibrary::planShards(sc, length, shards);
        core::SimSession captureSession(spec, config);
        const auto built = core::CheckpointLibrary::build(
            captureSession, sc, plan);

        const std::string path =
            (fs::path(kRoot) /
             ("roundtrip_" + std::to_string(shards) + ".smck"))
                .string();
        std::string error;
        CHECK(built.save(key, path, &error));
        CHECK_EQ(error, std::string());

        const auto loaded =
            core::CheckpointLibrary::load(path, key, &error);
        CHECK(loaded.has_value());
        CHECK_EQ(error, std::string());

        // Byte-level identity of the reloaded library...
        CHECK(serializedBytes(*loaded, key) ==
              serializedBytes(built, key));
        // ...and estimate-level identity of what it measures.
        const core::SmartsEstimate warm =
            core::SystematicSampler(sc).runSharded(factory, *loaded,
                                                   pool);
        CHECK(fingerprint(warm) == fingerprint(serial));
    }
}

void
testStoreBackedSamplerAndProcedure()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("chase-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const std::uint64_t length = streamLengthOf(spec, config);
    const core::LibraryKey key = core::LibraryKey::of(spec, config, sc);

    auto factory = [&spec, &config] {
        return std::make_unique<core::SimSession>(spec, config);
    };
    core::SimSession serialSession(spec, config);
    const core::SmartsEstimate serial =
        core::SystematicSampler(sc).run(serialSession);

    exec::ThreadPool pool(2);
    core::CheckpointStore store(kRoot);
    CHECK(!store.contains(key));

    // Cold call: miss -> pipelined capture -> persisted library.
    const core::SmartsEstimate cold =
        core::SystematicSampler(sc).runSharded(factory, spec, config,
                                               length, 3, pool, store);
    CHECK(fingerprint(cold) == fingerprint(serial));
    CHECK(store.contains(key));
    std::string error;
    CHECK(store.tryLoad(key, &error).has_value());

    // Warm call: loads the persisted library (different requested
    // shard count on purpose — the stored plan wins, the estimate
    // cannot tell).
    const core::SmartsEstimate warm =
        core::SystematicSampler(sc).runSharded(factory, spec, config,
                                               length, 7, pool, store);
    CHECK(fingerprint(warm) == fingerprint(serial));

    // Store-backed two-pass procedure: bit-identical to the serial
    // procedure, and the rerun hits the store on every pass.
    core::ProcedureConfig procCfg;
    procCfg.unitSize = sc.unitSize;
    procCfg.detailedWarming = sc.detailedWarming;
    procCfg.warming = sc.warming;
    procCfg.nInit = 200;
    const core::SmartsProcedure proc(procCfg);

    const core::ProcedureResult reference =
        proc.estimate(factory, length);
    const core::ProcedureResult first = proc.estimateSharded(
        factory, spec, config, length, pool, 3, store);
    const core::ProcedureResult second = proc.estimateSharded(
        factory, spec, config, length, pool, 5, store);
    CHECK(fingerprint(first.final()) ==
          fingerprint(reference.final()));
    CHECK(fingerprint(second.final()) ==
          fingerprint(reference.final()));
    CHECK_EQ(first.metOnFirstTry(), reference.metOnFirstTry());
}

void
testRefusals()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("fsm-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const std::uint64_t length = streamLengthOf(spec, config);
    const core::LibraryKey key = core::LibraryKey::of(spec, config, sc);

    const auto plan =
        core::CheckpointLibrary::planShards(sc, length, 3);
    core::SimSession captureSession(spec, config);
    const auto library =
        core::CheckpointLibrary::build(captureSession, sc, plan);
    const std::string path =
        (fs::path(kRoot) / "refusals.smck").string();
    std::string error;
    CHECK(library.save(key, path, &error));
    const std::vector<std::uint8_t> good = readFileBytes(path);
    CHECK(good.size() > 64);

    auto expectRefusal = [&](const char *what, const char *needle) {
        std::string why;
        const auto result =
            core::CheckpointLibrary::load(path, key, &why);
        CHECK(!result.has_value());
        const bool mentions =
            why.find(needle) != std::string::npos;
        CHECK(mentions);
        if (!mentions)
            std::fprintf(stderr,
                         "  %s: diagnostic \"%s\" lacks \"%s\"\n",
                         what, why.c_str(), needle);
    };

    // Truncated file: cut mid-checkpoint.
    writeFileBytes(path, std::vector<std::uint8_t>(
                             good.begin(),
                             good.begin() + good.size() / 2));
    expectRefusal("truncation", "checksum");

    // Single flipped payload byte: the checksum catches it.
    {
        std::vector<std::uint8_t> bad = good;
        bad[bad.size() / 2] ^= 0x40;
        writeFileBytes(path, bad);
        expectRefusal("corruption", "checksum");
    }

    // Version bump (resealed checksum so only the version differs):
    // a future-format file must be refused, not misread.
    {
        std::vector<std::uint8_t> bad = good;
        bad[8] = 3; // version u32 sits right after the 8-byte magic.
        writeFileBytes(path, bad);
        resealChecksum(path);
        expectRefusal("version bump", "format version 3");
    }

    // Flavor byte flipped to mix (1): a co-run payload must be
    // routed to mp::MixLibrary, never misread as solo state.
    {
        std::vector<std::uint8_t> bad = good;
        bad[16] = 1; // flavor u8 sits after magic+version+endian.
        writeFileBytes(path, bad);
        resealChecksum(path);
        expectRefusal("mix flavor", "mp::MixLibrary");
    }

    // Bad magic.
    {
        std::vector<std::uint8_t> bad = good;
        bad[0] = 'X';
        writeFileBytes(path, bad);
        resealChecksum(path);
        expectRefusal("magic", "not a smarts checkpoint library");
    }

    // Shard count beyond what the payload could hold (a ShardSpec
    // encodes in at least 25 bytes): refused by name before the
    // plan is sized from it. The count u64 follows the 17-byte
    // header and the solo key.
    {
        util::BinaryWriter keyBytes;
        key.write(keyBytes);
        const std::size_t at = 17 + keyBytes.size();
        CHECK_EQ(util::loadLE<std::uint64_t>(good.data() + at),
                 std::uint64_t(plan.size()));
        const std::uint64_t remaining = good.size() - 8 - (at + 8);
        for (const std::uint64_t count :
             {remaining / 25 + 1, remaining}) {
            std::vector<std::uint8_t> bad = good;
            util::storeLE(bad.data() + at, count);
            writeFileBytes(path, bad);
            resealChecksum(path);
            expectRefusal("shard count", "shard count");
        }
    }

    // A bool byte holds 0 or 1: any other value is refused, or the
    // resealed file would load and re-serialize to other bytes. The
    // plan follows the shard count (25 bytes a shard, runsTail
    // last), then the slot count, slot 0's present byte (0, no
    // state) and slot 1's (1), then checkpoint 1: position,
    // unitIndex, 32 registers and the pc, then ArchState::finished.
    {
        util::BinaryWriter keyBytes;
        key.write(keyBytes);
        const std::size_t plan0 = 17 + keyBytes.size() + 8;
        const std::size_t lastTail = plan0 + plan.size() * 25 - 1;
        const std::size_t slot1 = plan0 + plan.size() * 25 + 8 + 1;
        const std::size_t finished = slot1 + 1 + 16 + 33 * 4;
        CHECK_EQ(good[lastTail], std::uint8_t(1));
        CHECK_EQ(good[slot1 - 1], std::uint8_t(0));
        CHECK_EQ(good[slot1], std::uint8_t(1));
        CHECK_EQ(good[finished], std::uint8_t(0));
        for (const auto &[what, at] :
             {std::pair<const char *, std::size_t>{"runsTail bool",
                                                   lastTail},
              {"slot-present bool", slot1},
              {"finished bool", finished}}) {
            std::vector<std::uint8_t> bad = good;
            bad[at] = 2;
            writeFileBytes(path, bad);
            resealChecksum(path);
            expectRefusal(what, "malformed");
        }
    }

    // Restore the good bytes: mis-keyed loads must refuse even when
    // the file itself is pristine.
    writeFileBytes(path, good);

    // Geometry mismatch: same benchmark and sampling design, other
    // machine. Silently loading would mis-warm every structure.
    {
        const core::LibraryKey key16 = core::LibraryKey::of(
            spec, uarch::MachineConfig::sixteenWay(), sc);
        std::string why;
        const auto result =
            core::CheckpointLibrary::load(path, key16, &why);
        CHECK(!result.has_value());
        CHECK(why.find("geometry") != std::string::npos);
    }

    // Sampling-design mismatch (different interval).
    {
        core::LibraryKey keyK = key;
        keyK.sampling.interval = 17;
        std::string why;
        const auto result =
            core::CheckpointLibrary::load(path, keyK, &why);
        CHECK(!result.has_value());
        CHECK(why.find("sampling-design") != std::string::npos);
    }

    // Benchmark mismatch.
    {
        core::LibraryKey keyB = key;
        keyB.benchmark = workloads::findBenchmark(
            "sort-1", workloads::Scale::Mini);
        std::string why;
        const auto result =
            core::CheckpointLibrary::load(path, keyB, &why);
        CHECK(!result.has_value());
        CHECK(why.find("benchmark") != std::string::npos);
    }

    // The pristine file still loads (the refusals above were about
    // the probe, not lingering state).
    CHECK(core::CheckpointLibrary::load(path, key, &error)
              .has_value());

    // Malformed plan: a checksum-valid, correctly-keyed file whose
    // plan no planShards() could produce (tail flag on shard 0)
    // must refuse — executing it would mis-measure, not mis-warm.
    {
        auto badPlan = plan;
        badPlan[0].runsTail = true;
        auto bad = core::CheckpointLibrary::prepare(sc, badPlan);
        for (std::size_t s = 1; s < badPlan.size(); ++s)
            bad.record(s, library.at(s));
        const std::string badPath =
            (fs::path(kRoot) / "badplan.smck").string();
        CHECK(bad.save(key, badPath, &error));
        std::string why;
        CHECK(!core::CheckpointLibrary::load(badPath, key, &why)
                   .has_value());
        CHECK(why.find("plan geometry") != std::string::npos);
    }

    // A store miss stays silent (no diagnostic), a refusal does not.
    core::CheckpointStore store(kRoot);
    core::LibraryKey missing = key;
    missing.sampling.offset = 123;
    std::string why;
    CHECK(!store.tryLoad(missing, &why).has_value());
    CHECK_EQ(why, std::string());

    // Hostile vector length: 4 * n overflows u64, which must not
    // bypass the bounds check — the reader fails, it never
    // allocates. (External writers can produce a valid checksum, so
    // the parser cannot trust any length field.)
    {
        util::BinaryWriter hostile;
        hostile.u64(1ull << 62);
        util::BinaryReader reader(hostile.buffer());
        CHECK(reader.vecU32().empty());
        CHECK(reader.failed());
    }
}

void
testMultiConfigCapture()
{
    // ONE MultiSession capture pass must produce, per config, the
    // byte-identical library a dedicated single-config pass builds.
    const auto cfg8 = uarch::MachineConfig::eightWay();
    const auto cfg16 = uarch::MachineConfig::sixteenWay();
    const auto spec =
        workloads::findBenchmark("bsearch-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const std::uint64_t length = streamLengthOf(spec, cfg8);
    const auto plan =
        core::CheckpointLibrary::planShards(sc, length, 4);

    core::MultiSession multi(spec, {cfg8, cfg16});
    const auto libraries =
        core::CheckpointLibrary::buildMulti(multi, sc, plan);
    CHECK_EQ(libraries.size(), std::size_t(2));

    const uarch::MachineConfig singles[] = {cfg8, cfg16};
    for (std::size_t c = 0; c < 2; ++c) {
        core::SimSession session(spec, singles[c]);
        const auto reference =
            core::CheckpointLibrary::build(session, sc, plan);
        const core::LibraryKey key =
            core::LibraryKey::of(spec, singles[c], sc);
        CHECK(serializedBytes(libraries[c], key) ==
              serializedBytes(reference, key));
    }

    // The store's ensure(): one pass for all misses, zero on rerun.
    core::CheckpointStore store(kRoot);
    core::SamplingConfig scEnsure = sc;
    scEnsure.detailedWarming = 4000; // distinct key space for this test.
    CHECK_EQ(store.ensure(spec, {cfg8, cfg16}, scEnsure, length, 4),
             std::size_t(2));
    CHECK_EQ(store.ensure(spec, {cfg8, cfg16}, scEnsure, length, 4),
             std::size_t(0));

    // "Stored" means LOADABLE: corrupt one file and ensure() must
    // recapture it, not report it present on mere existence.
    {
        const core::LibraryKey key8 =
            core::LibraryKey::of(spec, cfg8, scEnsure);
        const std::string path = store.pathFor(key8);
        std::vector<std::uint8_t> bytes = readFileBytes(path);
        bytes[bytes.size() / 2] ^= 0x10;
        writeFileBytes(path, bytes);
        CHECK(!store.tryLoad(key8).has_value());
        CHECK_EQ(store.ensure(spec, {cfg8, cfg16}, scEnsure, length,
                              4),
                 std::size_t(1));
        CHECK(store.tryLoad(key8).has_value());
    }
}

void
testOverstatedStreamLengthNotPersisted()
{
    // A mis-stated (too long) streamLength makes the tail shard
    // boundaries unreachable: the capture must stop BEFORE snapping
    // a bogus end-of-stream checkpoint, the incomplete library must
    // not be persisted (a saved one would be refused on every later
    // run, turning the store into a permanent recapture loop), and
    // the estimate must still equal serial.
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("alu-1", workloads::Scale::Mini);
    core::SamplingConfig sc = defaultSampling();
    sc.detailedWarming = 500; // distinct key space for this test.
    const std::uint64_t length = streamLengthOf(spec, config);
    const core::LibraryKey key = core::LibraryKey::of(spec, config, sc);

    auto factory = [&spec, &config] {
        return std::make_unique<core::SimSession>(spec, config);
    };
    core::SimSession serialSession(spec, config);
    const core::SmartsEstimate serial =
        core::SystematicSampler(sc).run(serialSession);

    exec::ThreadPool pool(2);
    core::CheckpointStore store(kRoot);
    const core::SmartsEstimate overstated =
        core::SystematicSampler(sc).runSharded(
            factory, spec, config, 2 * length, 3, pool, store);
    CHECK(fingerprint(overstated) == fingerprint(serial));
    CHECK(!store.contains(key)); // incomplete library: save refused.

    // With the true length the capture completes, persists, and the
    // next call loads it.
    const core::SmartsEstimate good =
        core::SystematicSampler(sc).runSharded(
            factory, spec, config, length, 3, pool, store);
    CHECK(fingerprint(good) == fingerprint(serial));
    CHECK(store.tryLoad(key).has_value());
}

void
testGeometryKeyedCrossConfigReuse()
{
    // Timing-only config changes hash to the same warm-state
    // geometry: the library captured for the baseline must serve
    // the variant, and the variant's store-backed estimate must
    // still be bit-identical to ITS OWN serial run.
    const auto base = uarch::MachineConfig::eightWay();
    auto variant = base;
    variant.name = "8-way-slow-mem";
    variant.mem.memLatency = 200;
    variant.energy.memAccess = 4.0;
    CHECK_EQ(uarch::warmGeometryHash(base),
             uarch::warmGeometryHash(variant));

    // A geometry change must NOT collide.
    auto bigger = base;
    bigger.mem.l1d.sizeBytes *= 2;
    CHECK(uarch::warmGeometryHash(base) !=
          uarch::warmGeometryHash(bigger));

    const auto spec =
        workloads::findBenchmark("stream-1", workloads::Scale::Mini);
    core::SamplingConfig sc = defaultSampling();
    sc.offset = 2; // distinct key space for this test.
    const std::uint64_t length = streamLengthOf(spec, base);

    exec::ThreadPool pool(2);
    core::CheckpointStore store(kRoot);

    // Populate with the BASE config...
    auto baseFactory = [&spec, &base] {
        return std::make_unique<core::SimSession>(spec, base);
    };
    core::SystematicSampler(sc).runSharded(baseFactory, spec, base,
                                           length, 3, pool, store);
    // ...and the variant's key must already be a hit.
    CHECK(store.contains(core::LibraryKey::of(spec, variant, sc)));

    auto variantFactory = [&spec, &variant] {
        return std::make_unique<core::SimSession>(spec, variant);
    };
    core::SimSession variantSerial(spec, variant);
    const core::SmartsEstimate serial =
        core::SystematicSampler(sc).run(variantSerial);
    const core::SmartsEstimate viaStore =
        core::SystematicSampler(sc).runSharded(
            variantFactory, spec, variant, length, 3, pool, store);
    CHECK(fingerprint(viaStore) == fingerprint(serial));
}

} // namespace

int
main()
{
    fs::remove_all(kRoot);
    fs::create_directories(kRoot);

    testLoadVsCaptureBitIdentity();
    testStoreBackedSamplerAndProcedure();
    testRefusals();
    testMultiConfigCapture();
    testGeometryKeyedCrossConfigReuse();
    testOverstatedStreamLengthNotPersisted();
    TEST_MAIN_SUMMARY();
}
