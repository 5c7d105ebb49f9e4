/**
 * @file
 * Tests for live-points (core/livepoint.hh,
 * docs/checkpoint-format.md § Version 2): delta-codec roundtrip
 * byte-identity and its refusal matrix; `.smlp` save/load
 * roundtrips and the library's own refusals (truncated, corrupt,
 * version-bumped, mis-keyed, off-grid files are REJECTED with a
 * diagnostic, never loaded); format migration (v2 and v3 files,
 * FNV-1a record hashes, load to the same estimate as v4's XXH64
 * ones; v3 and v4 differ only in the version and the hashes; a
 * header naming the wrong hash refuses); same-seed shuffle
 * reproducibility;
 * the early-stop estimate landing inside its confidence interval
 * of the full-run estimate; and the completion-mode bar —
 * runAnytime with epsilon = 0 must fold to an estimate
 * bit-identical to serial run() at 1, 2 and 5 threads. Runs under
 * TSan in CI to guard the batch-dispatch/pool handoff. Also pins the
 * bulk and borrowed BinaryReader paths the loader parses through,
 * and the record-count bound that keeps a crafted count from sizing
 * memory the file cannot back, and the copy-on-write data images
 * consecutive live-points share their unchanged pages through; that
 * the leapfrog cold path publishes a file byte-identical to build()
 * + save() at any thread count, chunk size and stop rule, and still
 * returns its estimate when the publish fails; and that load() over
 * a released library's points rebuilds its own file exactly.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint_store.hh"
#include "core/livepoint.hh"
#include "core/procedure.hh"
#include "core/sampler.hh"
#include "core/schedule.hh"
#include "core/session.hh"
#include "exec/thread_pool.hh"
#include "uarch/config.hh"
#include "util/binary_io.hh"
#include "util/delta_codec.hh"
#include "util/rng.hh"
#include "workloads/benchmark.hh"

#include "check.hh"
#include "estimate_fingerprint.hh"

using namespace smarts;
using smarts::test::fingerprint;
namespace fs = std::filesystem;

namespace {

const char *kDir = "test_livepoint_store";

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

/** Roundtrip @p data against @p base and demand byte identity. */
void
checkCodecRoundtrip(const std::vector<std::uint8_t> &base,
                    const std::vector<std::uint8_t> &data)
{
    const std::vector<std::uint8_t> delta =
        util::deltaEncode(base, data);
    std::string error;
    const auto back = util::deltaDecode(base, delta, &error);
    CHECK(back.has_value());
    CHECK_EQ(error, std::string());
    CHECK(back.has_value() && *back == data);
}

void
testDeltaCodecRoundtrips()
{
    const std::vector<std::uint8_t> empty;
    std::vector<std::uint8_t> a(4096), b(4096);
    for (std::size_t i = 0; i < a.size(); ++i) {
        // Realistic shape: long identical stretches with sparse
        // diffs, exactly what consecutive warm states look like.
        a[i] = static_cast<std::uint8_t>(i * 37 + (i >> 5));
        b[i] = a[i];
    }
    for (std::size_t i = 100; i < 130; ++i)
        b[i] ^= 0x5a;
    b[4000] ^= 1;

    checkCodecRoundtrip(empty, empty);
    checkCodecRoundtrip(empty, a);    // no base: all literal.
    checkCodecRoundtrip(a, a);        // identical: all zero runs.
    checkCodecRoundtrip(a, b);        // sparse diffs.
    checkCodecRoundtrip(b, a);
    checkCodecRoundtrip(a, empty);    // data shorter than base.
    checkCodecRoundtrip(
        std::vector<std::uint8_t>(a.begin(), a.begin() + 64),
        a);                           // data longer than base.
    checkCodecRoundtrip(a, std::vector<std::uint8_t>{0x42});

    // Identical data must compress to (nearly) nothing — the whole
    // point of chaining consecutive live-points.
    CHECK(util::deltaEncode(a, a).size() < 32);
    // Sparse diffs must cost far less than a full copy.
    CHECK(util::deltaEncode(a, b).size() < a.size() / 4);

    // Single-byte tamper anywhere in the delta must change the
    // decode (or refuse) — never silently yield the original.
    {
        std::vector<std::uint8_t> delta = util::deltaEncode(a, b);
        delta[delta.size() / 2] ^= 0x10;
        const auto mangled = util::deltaDecode(a, delta);
        CHECK(!mangled.has_value() || *mangled != b);
    }
}

void
testDeltaCodecRefusals()
{
    std::vector<std::uint8_t> base(256, 0x11);
    std::vector<std::uint8_t> data(256, 0x11);
    data[7] = 0x99;
    const std::vector<std::uint8_t> delta =
        util::deltaEncode(base, data);

    std::string error;

    // Truncated: any prefix must refuse, not decode short.
    for (const std::size_t keep :
         {std::size_t(0), std::size_t(4), std::size_t(9),
          delta.size() - 1}) {
        error.clear();
        const auto out = util::deltaDecode(
            base,
            std::vector<std::uint8_t>(delta.begin(),
                                      delta.begin() + keep),
            &error);
        CHECK(!out.has_value());
        CHECK(!error.empty());
    }

    // Trailing garbage after a well-formed stream.
    {
        std::vector<std::uint8_t> extra = delta;
        extra.push_back(0xee);
        error.clear();
        CHECK(!util::deltaDecode(base, extra, &error).has_value());
        CHECK(!error.empty());
    }

    // An absurd declared size must refuse before allocating.
    {
        util::BinaryWriter w;
        w.u64(~0ull >> 1);
        error.clear();
        CHECK(!util::deltaDecode(base, w.buffer(), &error)
                   .has_value());
        CHECK(!error.empty());
    }

    // Zero-progress ops (zeroRun = literalLen = 0) must refuse
    // instead of looping forever.
    {
        util::BinaryWriter w;
        w.u64(8);
        w.u32(0);
        w.u32(0);
        error.clear();
        CHECK(!util::deltaDecode(base, w.buffer(), &error)
                   .has_value());
        CHECK(!error.empty());
    }

    // Ops overrunning the declared size.
    {
        util::BinaryWriter w;
        w.u64(4);
        w.u32(8); // an 8-byte zero run into a 4-byte state.
        w.u32(0);
        error.clear();
        CHECK(!util::deltaDecode(base, w.buffer(), &error)
                   .has_value());
        CHECK(!error.empty());
    }
}

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

void
testLibraryCaptureGeometry()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();

    core::SimSession session(spec, config);
    const core::LivePointLibrary library =
        core::LivePointLibrary::build(session, sc);

    // The capture ran the stream out: its length is the truth.
    CHECK_EQ(library.streamLength(), session.instCount());
    CHECK(library.unitCount() > 0);
    CHECK(library.byteSize() > 0);

    // One live-point per grid unit, at most W before its unit, in
    // stream order.
    for (std::size_t i = 0; i < library.unitCount(); ++i) {
        const core::LivePoint &point = library.at(i);
        CHECK_EQ(point.unitIndex, sc.offset + i * sc.interval);
        const std::uint64_t unitStart =
            point.unitIndex * sc.unitSize;
        CHECK(point.position <= unitStart);
        CHECK(point.position + sc.detailedWarming >= unitStart);
        if (i)
            CHECK(point.position >= library.at(i - 1).position);
    }
}

void
testLibraryRoundtripAndRefusals()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("phase-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const core::LibraryKey key =
        core::LibraryKey::of(spec, config, sc);

    core::SimSession session(spec, config);
    const core::LivePointLibrary library =
        core::LivePointLibrary::build(session, sc);

    const std::string path =
        std::string(kDir) + "/roundtrip.smlp";
    std::string error;
    CHECK(library.save(key, path, &error));
    CHECK_EQ(error, std::string());

    // Loaded = saved, byte for byte: every point's identity and
    // serialized state must survive the delta chain.
    const auto loaded =
        core::LivePointLibrary::load(path, key, &error);
    CHECK(loaded.has_value());
    CHECK_EQ(error, std::string());
    CHECK_EQ(loaded->streamLength(), library.streamLength());
    CHECK_EQ(loaded->unitCount(), library.unitCount());
    for (std::size_t i = 0; i < library.unitCount(); ++i) {
        CHECK_EQ(loaded->at(i).unitIndex, library.at(i).unitIndex);
        CHECK_EQ(loaded->at(i).position, library.at(i).position);
        util::BinaryWriter a, b;
        library.at(i).arch.write(a);
        library.at(i).timing.write(a);
        loaded->at(i).arch.write(b);
        loaded->at(i).timing.write(b);
        if (!(a.buffer() == b.buffer())) {
            CHECK(a.buffer() == b.buffer());
            break; // one diagnostic is enough.
        }
    }

    auto refuses = [&key](const std::string &file) {
        std::string why;
        const bool refused =
            !core::LivePointLibrary::load(file, key, &why)
                 .has_value();
        CHECK(refused);
        CHECK(!why.empty());
        return refused;
    };
    const std::vector<std::uint8_t> good = readFileBytes(path);
    const std::string victim =
        std::string(kDir) + "/tampered.smlp";

    // Missing file.
    refuses(std::string(kDir) + "/nonexistent.smlp");

    // Truncation: the trailing file checksum catches it.
    writeFileBytes(victim,
                   std::vector<std::uint8_t>(
                       good.begin(), good.end() - good.size() / 3));
    refuses(victim);

    // Wrong magic (a shard library is not a live-point library).
    {
        std::vector<std::uint8_t> bad = good;
        bad[0] = 'X';
        writeFileBytes(victim, bad);
        resealChecksum(victim);
        refuses(victim);
    }

    // Version bump: a future format must refuse, not misparse; so
    // must a version older than the oldest readable one.
    for (const std::uint32_t version :
         {core::kLivePointFormatVersion + 1, std::uint32_t(1)}) {
        std::vector<std::uint8_t> bad = good;
        util::storeLE(bad.data() + 8, version);
        writeFileBytes(victim, bad);
        resealChecksum(victim);
        refuses(victim);
    }

    // Flavor byte flipped to mix (1): reserved — no reader exists.
    {
        std::vector<std::uint8_t> bad = good;
        bad[16] = 1; // flavor u8 sits after magic+version+endian.
        writeFileBytes(victim, bad);
        resealChecksum(victim);
        refuses(victim);
    }

    // Endianness marker.
    {
        std::vector<std::uint8_t> bad = good;
        bad[12] ^= 0xff;
        writeFileBytes(victim, bad);
        resealChecksum(victim);
        refuses(victim);
    }

    // Record-state corruption: flip one byte mid-payload and
    // reseal the FILE checksum — the per-record state checksum (or
    // the codec itself) must still pin the damage.
    {
        std::vector<std::uint8_t> bad = good;
        bad[bad.size() / 2] ^= 0x20;
        writeFileBytes(victim, bad);
        resealChecksum(victim);
        refuses(victim);
    }

    // Mis-keyed: a different sampling design must refuse even
    // though the file itself is pristine.
    {
        core::SamplingConfig other = sc;
        other.interval = sc.interval + 1;
        std::string why;
        CHECK(!core::LivePointLibrary::load(
                   path, core::LibraryKey::of(spec, config, other),
                   &why)
                   .has_value());
        CHECK(!why.empty());
    }
    // ...and a different machine geometry likewise.
    {
        std::string why;
        CHECK(!core::LivePointLibrary::load(
                   path,
                   core::LibraryKey::of(
                       spec, uarch::MachineConfig::sixteenWay(), sc),
                   &why)
                   .has_value());
        CHECK(!why.empty());
    }
}

using StateHash = std::uint64_t (*)(const std::uint8_t *, std::size_t);

std::uint64_t
fnv1aState(const std::uint8_t *data, std::size_t size)
{
    return util::fnv1a(data, size);
}

/**
 * A test-local `.smlp` writer for any header version over any record
 * hash, field for field as LivePointLibrary::serialize: version 2
 * omits the flavor byte, and each record carries @p hash of its
 * decoded state.
 */
void
writeVersioned(const core::LivePointLibrary &library,
               const core::LibraryKey &key, std::uint32_t version,
               StateHash hash, const std::string &path)
{
    util::BinaryWriter out;
    for (const char c : {'S', 'M', 'R', 'T', 'L', 'V', 'P', 'T'})
        out.u8(static_cast<std::uint8_t>(c));
    out.u32(version);
    out.u32(core::kCheckpointEndianMark);
    if (version >= 3)
        out.u8(core::kCheckpointFlavorSolo);
    key.write(out);
    out.u64(library.streamLength());
    out.u64(library.unitCount());
    std::vector<std::uint8_t> prev;
    for (std::size_t i = 0; i < library.unitCount(); ++i) {
        util::BinaryWriter raw;
        library.at(i).arch.write(raw);
        library.at(i).timing.write(raw);
        out.u64(library.at(i).unitIndex);
        out.u64(library.at(i).position);
        out.u64(hash(raw.buffer().data(), raw.size()));
        out.vecU8(util::deltaEncode(prev, raw.buffer()));
        prev = raw.buffer();
    }
    std::string error;
    CHECK(out.writeFile(path, &error));
}

void
testFormatMigration()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const core::LibraryKey key =
        core::LibraryKey::of(spec, config, sc);
    core::SimSession session(spec, config);
    const core::LivePointLibrary library =
        core::LivePointLibrary::build(session, sc);
    CHECK(library.unitCount() > 1);

    const std::string v4 = std::string(kDir) + "/migrate-v4.smlp";
    const std::string v3 = std::string(kDir) + "/migrate-v3.smlp";
    const std::string v2 = std::string(kDir) + "/migrate-v2.smlp";
    CHECK(library.save(key, v4));
    writeVersioned(library, key, 3, fnv1aState, v3);
    writeVersioned(library, key, 2, fnv1aState, v2);

    // The test writer mirrors the library's own: at version 4 over
    // XXH64 it writes the saved file byte for byte.
    const std::string mirror = std::string(kDir) + "/mirror.smlp";
    writeVersioned(library, key, 4, util::xxh64, mirror);
    CHECK(readFileBytes(mirror) == readFileBytes(v4));

    // Every readable version measures the same estimate.
    auto factory = [&spec, &config] {
        return std::make_unique<core::SimSession>(spec, config);
    };
    core::AnytimeOptions options;
    options.target.epsilon = 0.0; // completion mode: measure all.
    exec::ThreadPool pool(2);
    std::vector<std::vector<std::uint64_t>> prints;
    for (const std::string &path : {v4, v3, v2}) {
        std::string why;
        const auto loaded = core::LivePointLibrary::load(path, key, &why);
        CHECK(loaded.has_value());
        CHECK_EQ(why, std::string());
        if (!loaded)
            return;
        prints.push_back(fingerprint(
            core::SystematicSampler(sc)
                .runAnytime(factory, *loaded, pool, options)
                .estimate));
    }
    CHECK(prints[1] == prints[0]);
    CHECK(prints[2] == prints[0]);

    // v4 keeps v3's length and differs only at the version field and
    // each record's 8 state-hash bytes...
    const std::vector<std::uint8_t> bytes4 = readFileBytes(v4);
    const std::vector<std::uint8_t> bytes3 = readFileBytes(v3);
    CHECK_EQ(bytes4.size(), bytes3.size());
    std::vector<bool> mayDiffer(bytes4.size(), false);
    for (std::size_t b = 8; b < 12; ++b)
        mayDiffer[b] = true;
    util::BinaryWriter keyBytes;
    key.write(keyBytes);
    std::size_t at = 17 + keyBytes.size() + 16; // first record.
    for (std::size_t i = 0; i < library.unitCount(); ++i) {
        for (std::size_t b = at + 16; b < at + 24; ++b)
            mayDiffer[b] = true;
        at += 24;
        at += 8 + util::loadLE<std::uint64_t>(bytes4.data() + at);
    }
    // ...and so does the whole-file trailer over them.
    CHECK_EQ(at, bytes4.size() - 8);
    std::fill(mayDiffer.end() - 8, mayDiffer.end(), true);
    std::size_t differing = 0;
    for (std::size_t b = 0; b < std::min(bytes4.size(), bytes3.size());
         ++b)
        if (bytes4[b] != bytes3[b]) {
            ++differing;
            if (!mayDiffer[b]) {
                CHECK(mayDiffer[b]);
                break; // one diagnostic is enough.
            }
        }
    CHECK(differing > 0);

    // A header that names the wrong record hash refuses at record 0.
    const std::string mixed = std::string(kDir) + "/mixed.smlp";
    for (const auto &[version, hash] :
         {std::pair<std::uint32_t, StateHash>{3, util::xxh64},
          std::pair<std::uint32_t, StateHash>{4, fnv1aState}}) {
        writeVersioned(library, key, version, hash, mixed);
        std::string why;
        CHECK(!core::LivePointLibrary::load(mixed, key, &why)
                   .has_value());
        CHECK(why.find("live-point 0 fails its state hash") !=
              std::string::npos);
    }
}

void
testLoadReusesReleasedPoints()
{
    // load() with a recycler parses into the points of the last
    // library released to it, so a warm hit reuses that memory. A
    // load over another library's points (other unit count, other
    // cache geometry) must still rebuild its own file exactly.
    struct Saved
    {
        core::LibraryKey key;
        std::string path;
        std::vector<std::uint8_t> payload; ///< the file minus checksum.
    };
    auto save = [](const char *name, const uarch::MachineConfig &config,
                   std::uint64_t interval) {
        const auto spec =
            workloads::findBenchmark(name, workloads::Scale::Mini);
        core::SamplingConfig sc = defaultSampling();
        sc.interval = interval;
        Saved saved{core::LibraryKey::of(spec, config, sc),
                    std::string(kDir) + "/reuse-" + name + ".smlp", {}};
        core::SimSession session(spec, config);
        CHECK(core::LivePointLibrary::build(session, sc)
                  .save(saved.key, saved.path));
        saved.payload = readFileBytes(saved.path);
        saved.payload.resize(saved.payload.size() - 8);
        return saved;
    };
    const Saved few = save("sort-1", uarch::MachineConfig::eightWay(), 10);
    const Saved many =
        save("chase-1", uarch::MachineConfig::sixteenWay(), 4);

    const auto recycler = std::make_shared<core::LivePointRecycler>();
    auto reload = [&recycler](const Saved &saved) {
        std::optional<core::LivePointLibrary> library =
            core::LivePointLibrary::load(saved.path, saved.key, nullptr,
                                         recycler);
        CHECK(library.has_value());
        if (!library)
            return library;
        util::BinaryWriter out;
        library->serialize(saved.key, out);
        CHECK(out.buffer() == saved.payload);
        return library;
    };
    // Fewer points over more, more over fewer, other geometries.
    for (const Saved *saved : {&many, &few, &many, &few, &few})
        reload(*saved);

    // The same library reloaded reuses its predecessor's buffers.
    const std::uint32_t *tags = nullptr;
    if (auto library = reload(few))
        tags = library->at(0).timing.mem.l2.tags.data();
    if (auto library = reload(few))
        CHECK(library->at(0).timing.mem.l2.tags.data() == tags);

    // A store's loads share one recycler.
    core::CheckpointStore store(std::string(kDir) + "/reuse-store");
    CHECK(store.saveLivePoints(*reload(few), few.key));
    if (auto library = store.tryLoadLivePoints(few.key))
        tags = library->at(0).timing.mem.l2.tags.data();
    if (auto library = store.tryLoadLivePoints(few.key))
        CHECK(library->at(0).timing.mem.l2.tags.data() == tags);
}

void
testStoreRoundtrip()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("stream-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const core::LibraryKey key =
        core::LibraryKey::of(spec, config, sc);

    core::CheckpointStore store(kDir);
    CHECK(!store.tryLoadLivePoints(key).has_value()); // cold miss.

    // ensureLivePoints captures every miss in one pass, then hits.
    CHECK_EQ(store.ensureLivePoints(spec, {config}, sc),
             std::size_t(1));
    CHECK_EQ(store.ensureLivePoints(spec, {config}, sc),
             std::size_t(0));
    const auto warm = store.tryLoadLivePoints(key);
    CHECK(warm.has_value());
    CHECK(warm->unitCount() > 0);

    // Live-point files live next to shard files, distinct suffix.
    CHECK(fs::exists(store.livePointPathFor(key)));
    CHECK(store.livePointPathFor(key) != store.pathFor(key));

    // Multi-config capture: one pass, per-config libraries each
    // byte-identical to a single-config capture of that config.
    const auto sixteen = uarch::MachineConfig::sixteenWay();
    CHECK_EQ(store.ensureLivePoints(spec, {config, sixteen}, sc),
             std::size_t(1)); // 8-way already stored.
    const core::LibraryKey key16 =
        core::LibraryKey::of(spec, sixteen, sc);
    const auto multi = store.tryLoadLivePoints(key16);
    CHECK(multi.has_value());

    core::SimSession solo(spec, sixteen);
    const core::LivePointLibrary direct =
        core::LivePointLibrary::build(solo, sc);
    CHECK_EQ(multi->unitCount(), direct.unitCount());
    CHECK_EQ(multi->streamLength(), direct.streamLength());
    bool statesMatch = true;
    for (std::size_t i = 0;
         statesMatch && i < direct.unitCount(); ++i) {
        util::BinaryWriter a, b;
        multi->at(i).arch.write(a);
        multi->at(i).timing.write(a);
        direct.at(i).arch.write(b);
        direct.at(i).timing.write(b);
        statesMatch = a.buffer() == b.buffer();
    }
    CHECK(statesMatch);
}

void
checkAnytimeCompletionIdentical(const workloads::BenchmarkSpec &spec,
                                const uarch::MachineConfig &config,
                                const core::SamplingConfig &sc)
{
    auto factory = [&spec, &config] {
        return std::make_unique<core::SimSession>(spec, config);
    };
    core::SimSession serialSession(spec, config);
    const core::SmartsEstimate serial =
        core::SystematicSampler(sc).run(serialSession);
    CHECK(serial.units() > 0);

    core::SimSession captureSession(spec, config);
    const core::LivePointLibrary library =
        core::LivePointLibrary::build(captureSession, sc);

    core::AnytimeOptions options;
    options.target.epsilon = 0.0; // completion mode: measure all.
    for (const std::size_t threads :
         {std::size_t(1), std::size_t(2), std::size_t(5)}) {
        exec::ThreadPool pool(threads);
        const core::AnytimeResult result =
            core::SystematicSampler(sc).runAnytime(factory, library,
                                                   pool, options);
        CHECK(!result.earlyStopped);
        CHECK_EQ(result.unitsMeasured, result.unitsAvailable);
        CHECK(fingerprint(result.estimate) == fingerprint(serial));
    }
}

void
testAnytimeCompletionBitIdentical()
{
    const auto config = uarch::MachineConfig::eightWay();

    // The shard-identity roster: data-dependent branches, phase
    // alternation, pointer chasing.
    for (const char *name : {"sort-1", "phase-1", "chase-1"})
        checkAnytimeCompletionIdentical(
            workloads::findBenchmark(name, workloads::Scale::Mini),
            config, defaultSampling());

    // Nonzero offset, 16-way machine, sparser grid.
    {
        core::SamplingConfig sc;
        sc.unitSize = 1000;
        sc.detailedWarming = 4000;
        sc.interval = 17;
        sc.offset = 5;
        sc.warming = core::WarmingMode::Functional;
        checkAnytimeCompletionIdentical(
            workloads::findBenchmark("fsm-1",
                                     workloads::Scale::Mini),
            uarch::MachineConfig::sixteenWay(), sc);
    }

    // Truncation-prone: k=1, U coprime-ish with the stream length,
    // so the final unit is cut short; the dropped-instruction
    // accounting must match serial bit for bit.
    {
        core::SamplingConfig sc;
        sc.unitSize = 999;
        sc.detailedWarming = 0;
        sc.interval = 1;
        sc.warming = core::WarmingMode::Functional;
        const auto spec = workloads::findBenchmark(
            "alu-1", workloads::Scale::Mini);
        core::SimSession serialSession(spec, config);
        const core::SmartsEstimate serial =
            core::SystematicSampler(sc).run(serialSession);
        CHECK(serial.instructionsDropped > 0);
        checkAnytimeCompletionIdentical(spec, config, sc);
    }
}

void
testLeapfrogColdOverlapBitIdentical()
{
    // The LEAPFROG cold path: capture and measurement overlap at
    // per-unit grain, then the anytime stop rule is replayed over
    // the complete sample set — so the result must be bit-identical
    // to serial run() (completion mode) and to a warm-path
    // runAnytime (early-stop mode), at any thread count.
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    auto factory = [&spec, &config] {
        return std::make_unique<core::SimSession>(spec, config);
    };

    core::SimSession serialSession(spec, config);
    const core::SmartsEstimate serial =
        core::SystematicSampler(sc).run(serialSession);

    const core::LibraryKey key = core::LibraryKey::of(spec, config, sc);
    const std::string path =
        std::string(kDir) + "/leapfrog-collected.smlp";
    core::AnytimeOptions options;
    options.target.epsilon = 0.0; // completion mode: measure all.
    for (const std::size_t threads :
         {std::size_t(1), std::size_t(2), std::size_t(5)}) {
        exec::ThreadPool pool(threads);
        core::SimSession captureSession(spec, config);
        core::EncodedLivePoints collected;
        const core::AnytimeResult result =
            core::SystematicSampler(sc).runAnytimeLeapfrog(
                captureSession, factory, pool, options, &collected);
        CHECK(!result.earlyStopped);
        CHECK_EQ(result.unitsMeasured, result.unitsAvailable);
        CHECK(fingerprint(result.estimate) == fingerprint(serial));

        // The collected records are the real thing: published and
        // reloaded, a warm anytime run over them folds to the same
        // estimate.
        CHECK_EQ(collected.unitCount(), result.unitsAvailable);
        CHECK_EQ(collected.streamLength(),
                 result.estimate.streamLength);
        CHECK(collected.save(key, path));
        const auto loaded = core::LivePointLibrary::load(path, key);
        CHECK(loaded.has_value());
        if (!loaded)
            continue;
        const core::AnytimeResult warm =
            core::SystematicSampler(sc).runAnytime(
                factory, *loaded, pool, options);
        CHECK(fingerprint(warm.estimate) == fingerprint(serial));
    }

    // Early-stop replay: with a real confidence target the leapfrog
    // run measures EVERY unit (the stop rule cannot fire mid-capture
    // without biasing the shuffle) yet must report the identical
    // measured-set size, stop flag and estimate as the warm path
    // over the library it just captured.
    {
        const auto dense =
            workloads::findBenchmark("bsearch-1",
                                     workloads::Scale::Mini);
        auto denseFactory = [&dense, &config] {
            return std::make_unique<core::SimSession>(dense, config);
        };
        core::SamplingConfig dsc = defaultSampling();
        dsc.interval = 2;
        core::AnytimeOptions target;
        target.target.level = 0.997;
        target.target.epsilon = 0.03;
        target.seed = 7;

        exec::ThreadPool pool(2);
        core::SimSession captureSession(dense, config);
        const core::AnytimeResult leap =
            core::SystematicSampler(dsc).runAnytimeLeapfrog(
                captureSession, denseFactory, pool, target);
        core::SimSession buildSession(dense, config);
        const core::LivePointLibrary library =
            core::LivePointLibrary::build(buildSession, dsc);
        const core::AnytimeResult warm =
            core::SystematicSampler(dsc).runAnytime(
                denseFactory, library, pool, target);
        CHECK(leap.earlyStopped);
        CHECK_EQ(leap.earlyStopped, warm.earlyStopped);
        CHECK_EQ(leap.unitsMeasured, warm.unitsMeasured);
        CHECK(leap.unitsMeasured < leap.unitsAvailable);
        CHECK(fingerprint(leap.estimate) ==
              fingerprint(warm.estimate));
    }
}

void
testLeapfrogPublishesBuildSaveBytes()
{
    // The leapfrog cold path encodes each chunk's records inside the
    // pool job that measures the chunk, against the previous chunk's
    // last point. Whatever the thread count, the chunking or the stop
    // rule, the file it publishes must be the one build() + save()
    // writes over the same session, byte for byte.
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("bsearch-1", workloads::Scale::Mini);
    core::SamplingConfig sc = defaultSampling();
    sc.interval = 2;
    auto factory = [&spec, &config] {
        return std::make_unique<core::SimSession>(spec, config);
    };
    const core::LibraryKey key = core::LibraryKey::of(spec, config, sc);

    const std::string buildPath =
        std::string(kDir) + "/oracle-build.smlp";
    std::size_t units = 0;
    {
        core::SimSession session(spec, config);
        const core::LivePointLibrary library =
            core::LivePointLibrary::build(session, sc);
        units = library.unitCount();
        CHECK(library.save(key, buildPath));
    }
    const std::vector<std::uint8_t> want = readFileBytes(buildPath);
    CHECK(units > 8);
    CHECK(!want.empty());

    core::AnytimeOptions completion;
    completion.target.epsilon = 0.0;
    core::AnytimeOptions early;
    early.target.level = 0.997;
    early.target.epsilon = 0.03;
    early.seed = 7;

    // Completion mode over every (threads, chunk) pair; the
    // early-stopping target over one chunk size per thread count.
    struct Run
    {
        const core::AnytimeOptions &options;
        std::size_t threads;
        std::uint64_t chunk;
    };
    std::vector<Run> runs;
    const std::size_t threadCounts[] = {1, 2, 5};
    const std::uint64_t chunks[] = {1, 8, units + 1};
    for (std::size_t t = 0; t < 3; ++t) {
        for (const std::uint64_t chunk : chunks)
            runs.push_back({completion, threadCounts[t], chunk});
        runs.push_back({early, threadCounts[t], chunks[t]});
    }
    const std::string leapPath =
        std::string(kDir) + "/oracle-leapfrog.smlp";
    for (const Run &run : runs) {
        core::AnytimeOptions options = run.options;
        options.chunk = run.chunk;
        exec::ThreadPool pool(run.threads);
        core::SimSession session(spec, config);
        core::EncodedLivePoints records;
        const core::AnytimeResult result =
            core::SystematicSampler(sc).runAnytimeLeapfrog(
                session, factory, pool, options, &records);
        CHECK_EQ(result.earlyStopped, options.target.epsilon > 0.0);
        CHECK_EQ(records.unitCount(), units);
        fs::remove(leapPath);
        CHECK(records.save(key, leapPath));
        CHECK(readFileBytes(leapPath) == want);
    }

    // A store the records cannot be published to: the estimate is
    // still returned, equal to a cold run's over a writable store,
    // and the failed publish is reported as a warning.
    const std::string blocker = std::string(kDir) + "/not-a-dir";
    writeFileBytes(blocker, {0});
    std::uint64_t length;
    {
        core::SimSession probe(spec, config);
        length = probe.fastForward(~0ull >> 1, core::WarmingMode::None);
    }
    core::ProcedureConfig pc;
    pc.nInit = 200;
    const core::SmartsProcedure procedure(pc);
    exec::ThreadPool pool(2);
    core::CheckpointStore good(std::string(kDir) + "/publish-ok");
    const core::AnytimeResult expected = procedure.estimateAnytime(
        factory, spec, config, length, pool, good);
    CHECK_EQ(good.counters().saves, std::uint64_t(1));

    core::CheckpointStore bad(blocker + "/store");
    std::ostringstream warnings;
    std::streambuf *const saved = std::cerr.rdbuf(warnings.rdbuf());
    const core::AnytimeResult result = procedure.estimateAnytime(
        factory, spec, config, length, pool, bad);
    std::cerr.rdbuf(saved);
    CHECK(fingerprint(result.estimate) ==
          fingerprint(expected.estimate));
    CHECK_EQ(result.unitsMeasured, expected.unitsMeasured);
    CHECK_EQ(bad.counters().saves, std::uint64_t(0));
    CHECK(warnings.str().find("warning: checkpoint store: could not "
                              "persist") != std::string::npos);
}

void
testShuffleReproducibilityAndEarlyStop()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("bsearch-1",
                                 workloads::Scale::Mini);

    // A dense grid (k = 2) on a moderate-variance stream: Eq. 3
    // wants ~a quarter of the ~900 available units at 99.7%/±3%,
    // so the stop rule reliably fires long before the grid runs
    // out.
    core::SamplingConfig sc;
    sc.unitSize = 1000;
    sc.detailedWarming = 2000;
    sc.interval = 2;
    sc.warming = core::WarmingMode::Functional;

    auto factory = [&spec, &config] {
        return std::make_unique<core::SimSession>(spec, config);
    };
    core::SimSession captureSession(spec, config);
    const core::LivePointLibrary library =
        core::LivePointLibrary::build(captureSession, sc);
    CHECK(library.unitCount() > 64);

    exec::ThreadPool pool(2);
    core::AnytimeOptions options;
    options.target.level = 0.997;
    options.target.epsilon = 0.03;
    options.seed = 7;

    const core::AnytimeResult first =
        core::SystematicSampler(sc).runAnytime(factory, library,
                                               pool, options);

    // Same seed -> the identical measured set and estimate, run
    // after run and at another thread count.
    {
        const core::AnytimeResult again =
            core::SystematicSampler(sc).runAnytime(factory, library,
                                                   pool, options);
        CHECK_EQ(again.unitsMeasured, first.unitsMeasured);
        CHECK(fingerprint(again.estimate) ==
              fingerprint(first.estimate));
        exec::ThreadPool five(5);
        const core::AnytimeResult wide =
            core::SystematicSampler(sc).runAnytime(factory, library,
                                                   five, options);
        CHECK_EQ(wide.unitsMeasured, first.unitsMeasured);
        CHECK(fingerprint(wide.estimate) ==
              fingerprint(first.estimate));
    }

    // The early stop must actually save work here...
    CHECK(first.earlyStopped);
    CHECK(first.unitsMeasured < first.unitsAvailable);
    CHECK(first.unitsMeasured >= options.minUnits);

    // ...and the estimate it stops at must sit inside its own
    // confidence interval of the full-population estimate.
    core::AnytimeOptions full;
    full.target.epsilon = 0.0;
    const core::AnytimeResult complete =
        core::SystematicSampler(sc).runAnytime(factory, library,
                                               pool, full);
    const double ci =
        first.estimate.cpiConfidenceInterval(options.target.level) *
        first.estimate.cpi();
    CHECK(std::fabs(first.estimate.cpi() -
                    complete.estimate.cpi()) <= ci);

    // A different seed measures a different prefix (overwhelmingly
    // likely on >64 units) but must stop at a compatible estimate.
    core::AnytimeOptions reseeded = options;
    reseeded.seed = 99;
    const core::AnytimeResult other =
        core::SystematicSampler(sc).runAnytime(factory, library,
                                               pool, reseeded);
    CHECK(std::fabs(other.estimate.cpi() -
                    complete.estimate.cpi()) <=
          other.estimate.cpiConfidenceInterval(
              options.target.level) *
              other.estimate.cpi());
}

void
testEstimateAnytimeEndToEnd()
{
    // The procedure-level wrapper: cold call captures and persists,
    // warm call loads — and both yield the identical estimate.
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("bsearch-1",
                                 workloads::Scale::Mini);
    auto factory = [&spec, &config] {
        return std::make_unique<core::SimSession>(spec, config);
    };

    std::uint64_t length;
    {
        core::SimSession probe(spec, config);
        length =
            probe.fastForward(~0ull >> 1, core::WarmingMode::None);
    }

    core::ProcedureConfig pc;
    pc.nInit = 200;
    core::SmartsProcedure procedure(pc);
    core::CheckpointStore store(kDir);
    exec::ThreadPool pool(2);

    const core::AnytimeResult cold = procedure.estimateAnytime(
        factory, spec, config, length, pool, store);
    CHECK(cold.unitsMeasured > 0);
    const core::AnytimeResult rewarm = procedure.estimateAnytime(
        factory, spec, config, length, pool, store);
    CHECK_EQ(rewarm.unitsMeasured, cold.unitsMeasured);
    CHECK(fingerprint(rewarm.estimate) ==
          fingerprint(cold.estimate));
}

void
testBinaryReaderBulkAndBorrowed()
{
    // Bulk vectors decode little-endian, element for element.
    {
        util::BinaryWriter w;
        w.vecU32({0x01020304u, 0xa0b0c0d0u});
        w.vecU64({0x0102030405060708ull});
        const std::vector<std::uint8_t> &b = w.buffer();
        CHECK_EQ(b.size(), std::size_t(8 + 8 + 8 + 8));
        CHECK_EQ(int(b[8]), 0x04);
        CHECK_EQ(int(b[11]), 0x01);
        CHECK_EQ(int(b[24]), 0x08);
        util::BinaryReader in(b.data(), b.size());
        const std::vector<std::uint32_t> v32 = in.vecU32();
        const std::vector<std::uint64_t> v64 = in.vecU64();
        CHECK(in.ok());
        CHECK_EQ(in.remaining(), std::size_t(0));
        CHECK(v32 == std::vector<std::uint32_t>(
                         {0x01020304u, 0xa0b0c0d0u}));
        CHECK(v64 == std::vector<std::uint64_t>({0x0102030405060708ull}));
    }

    // Hostile lengths: one element past the bytes present, and a
    // count whose byte size wraps 64 bits. Both refuse stickily.
    for (const std::uint64_t n : {3ull, 1ull << 62, ~0ull}) {
        util::BinaryWriter w;
        w.u64(n);
        w.u64(0); // 8 bytes: room for two u32s or one u64.
        util::BinaryReader in32(w.buffer());
        CHECK(in32.vecU32().empty());
        CHECK(in32.failed());
        CHECK_EQ(in32.u8(), std::uint8_t(0));
        util::BinaryReader in64(w.buffer().data(), w.size());
        CHECK(in64.vecU64().empty());
        CHECK(in64.failed());
    }

    // view() borrows in place and fails stickily past the end.
    {
        const std::uint8_t bytes[5] = {1, 2, 3, 4, 5};
        util::BinaryReader in(bytes, sizeof bytes);
        const util::ByteView head = in.view(3);
        CHECK(in.ok());
        CHECK(head.data == bytes);
        CHECK_EQ(head.size, std::size_t(3));
        const util::ByteView past = in.view(3);
        CHECK(in.failed());
        CHECK(past.data == nullptr);
        CHECK_EQ(past.size, std::size_t(0));
        CHECK_EQ(in.u8(), std::uint8_t(0)); // 2 bytes left, still failed.
        CHECK(in.failed());
        CHECK_EQ(in.view(0).size, std::size_t(0));
        CHECK(in.failed());
    }

    // A captured live-point's state round-trips write -> read ->
    // write byte-equal through both an owned and a borrowed reader.
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("chase-1", workloads::Scale::Mini);
    core::SimSession session(spec, config);
    const core::LivePointLibrary library =
        core::LivePointLibrary::build(session, defaultSampling());
    CHECK(library.unitCount() > 1);
    const core::LivePoint &point =
        library.at(library.unitCount() / 2);
    util::BinaryWriter first;
    point.arch.write(first);
    point.timing.write(first);
    util::BinaryReader borrowed(first.buffer().data(), first.size());
    util::BinaryReader owned(first.buffer());
    for (util::BinaryReader *in : {&borrowed, &owned}) {
        core::ArchState arch;
        core::TimingState timing;
        arch.read(*in);
        timing.read(*in);
        CHECK(in->ok());
        CHECK_EQ(in->remaining(), std::size_t(0));
        util::BinaryWriter again;
        arch.write(again);
        timing.write(again);
        CHECK(again.buffer() == first.buffer());
    }
}

void
testRecordCountBounded()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("fsm-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const core::LibraryKey key =
        core::LibraryKey::of(spec, config, sc);
    core::SimSession session(spec, config);
    const core::LivePointLibrary library =
        core::LivePointLibrary::build(session, sc);
    const std::string path = std::string(kDir) + "/count.smlp";
    CHECK(library.save(key, path));
    const std::vector<std::uint8_t> good = readFileBytes(path);

    // The count u64 follows the 17-byte header, the key and the
    // streamLength u64.
    util::BinaryWriter keyBytes;
    key.write(keyBytes);
    const std::size_t at = 17 + keyBytes.size() + 8;
    const std::size_t payload = good.size() - 8;
    CHECK(std::equal(keyBytes.buffer().begin(), keyBytes.buffer().end(),
                     good.begin() + 17));
    CHECK_EQ(util::loadLE<std::uint64_t>(good.data() + at),
             std::uint64_t(library.unitCount()));

    // Counts a checksummed file cannot back — every record encodes
    // in at least 40 bytes — are refused by name, not allocated.
    const std::uint64_t remaining = payload - (at + 8);
    for (const std::uint64_t count :
         {remaining / 40 + 1, remaining, std::uint64_t(17311614)}) {
        std::vector<std::uint8_t> bad = good;
        util::storeLE(bad.data() + at, count);
        writeFileBytes(path, bad);
        resealChecksum(path);
        std::string why;
        CHECK(!core::LivePointLibrary::load(path, key, &why)
                   .has_value());
        CHECK(why.find("live-point count") != std::string::npos);
    }
}

/** The words of @p image, flat. */
std::vector<std::uint32_t>
wordsOf(const core::PagedImage &image)
{
    std::vector<std::uint32_t> words(image.size());
    image.copyTo(words.data());
    return words;
}

/**
 * Every consecutive pair of @p library's points shares a data-image
 * page exactly when the page's words are unchanged. Returns the
 * number of shared pages.
 */
std::size_t
checkConsecutiveSharing(const core::LivePointLibrary &library)
{
    constexpr std::size_t kPageWords = core::PagedImage::kPageWords;
    std::size_t shared = 0;
    bool sharedIffEqual = true;
    for (std::size_t i = 1; i < library.unitCount(); ++i) {
        const core::PagedImage &prev = library.at(i - 1).arch.data;
        const core::PagedImage &cur = library.at(i).arch.data;
        CHECK_EQ(cur.pageCount(), prev.pageCount());
        for (std::size_t p = 0; p < cur.pageCount(); ++p) {
            const std::size_t words =
                std::min(kPageWords, cur.size() - p * kPageWords);
            const bool equal = std::equal(
                cur.page(p), cur.page(p) + words, prev.page(p));
            const bool same = cur.page(p) == prev.page(p);
            sharedIffEqual = sharedIffEqual && equal == same;
            shared += same;
        }
    }
    CHECK(sharedIffEqual);
    return shared;
}

/**
 * Copy-on-write data images (core/paged_image.hh): consecutive
 * live-points share their unchanged pages, built or loaded, and the
 * configs of one buildMulti pass share every page; a changed page is
 * never shared; a snapshot's bytes survive later mutation of the
 * session it came from; and the serialized image is
 * BinaryWriter::vecU32 of its words, zero-length and partial last
 * pages included.
 */
void
testCopyOnWriteImages()
{
    const auto config = uarch::MachineConfig::eightWay();
    const core::SamplingConfig sc = defaultSampling();

    // phase-1's 512 KiB image: most pages are shared, so the library
    // is resident at well under one full image per point.
    const auto phase =
        workloads::findBenchmark("phase-1", workloads::Scale::Mini);
    core::SimSession session(phase, config);
    const core::LivePointLibrary built =
        core::LivePointLibrary::build(session, sc);
    CHECK(built.unitCount() > 100);
    CHECK_EQ(built.at(0).arch.data.pageCount(), std::size_t(128));
    const std::size_t sharedBuilt = checkConsecutiveSharing(built);
    CHECK(sharedBuilt > (built.unitCount() - 1) * 64);
    std::size_t flat = 0;
    for (std::size_t i = 0; i < built.unitCount(); ++i)
        flat += built.at(i).byteSize();
    CHECK(built.byteSize() < flat / 2);

    // A loaded library shares the same pages, so it is as small.
    const core::LibraryKey key = core::LibraryKey::of(phase, config, sc);
    const std::string path = std::string(kDir) + "/cow.smlp";
    CHECK(built.save(key, path));
    const std::optional<core::LivePointLibrary> loaded =
        core::LivePointLibrary::load(path, key);
    CHECK(loaded.has_value());
    if (loaded) {
        CHECK_EQ(loaded->unitCount(), built.unitCount());
        CHECK_EQ(checkConsecutiveSharing(*loaded), sharedBuilt);
        CHECK_EQ(loaded->byteSize(), built.byteSize());
        bool sameWords = true;
        for (std::size_t i = 0; i < built.unitCount(); ++i)
            sameWords = sameWords && wordsOf(loaded->at(i).arch.data) ==
                                         wordsOf(built.at(i).arch.data);
        CHECK(sameWords);
    }

    // One buildMulti pass: every config's point i holds the very
    // pages of the shared architectural snapshot.
    core::MultiSession multi(
        phase, {config, uarch::MachineConfig::sixteenWay()});
    const std::vector<core::LivePointLibrary> perConfig =
        core::LivePointLibrary::buildMulti(multi, sc);
    CHECK_EQ(perConfig.size(), std::size_t(2));
    CHECK_EQ(perConfig[0].unitCount(), built.unitCount());
    CHECK_EQ(checkConsecutiveSharing(perConfig[0]), sharedBuilt);
    bool acrossConfigs = true;
    for (std::size_t i = 0; i < perConfig[0].unitCount(); ++i) {
        const core::PagedImage &a = perConfig[0].at(i).arch.data;
        const core::PagedImage &b = perConfig[1].at(i).arch.data;
        for (std::size_t p = 0; p < a.pageCount(); ++p)
            acrossConfigs = acrossConfigs && a.page(p) == b.page(p);
    }
    CHECK(acrossConfigs);

    // sort-1's image is one partial page, rewritten every unit: no
    // two consecutive points may share it.
    const auto sort =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    core::SimSession sortSession(sort, config);
    const core::LivePointLibrary sorted =
        core::LivePointLibrary::build(sortSession, sc);
    CHECK(sorted.unitCount() > 1);
    CHECK_EQ(sorted.at(0).arch.data.size(), std::size_t(64));
    CHECK_EQ(sorted.at(0).arch.data.pageCount(), std::size_t(1));
    CHECK_EQ(checkConsecutiveSharing(sorted), std::size_t(0));

    // A snapshot is immutable: seeding the next snapshot from it,
    // running the session on and restoring it elsewhere leave its
    // serialized bytes as they were.
    core::SimSession live(sort, config);
    live.fastForward(5000, core::WarmingMode::Functional);
    core::ArchState snap;
    core::TimingState timing;
    live.saveState(snap, timing);
    util::BinaryWriter before;
    snap.write(before);
    core::ArchState next = snap;
    live.fastForward(5000, core::WarmingMode::Functional);
    live.saveState(next, timing);
    CHECK(wordsOf(next.data) != wordsOf(snap.data));
    CHECK(next.data.page(0) != snap.data.page(0));
    core::SimSession other(sort, config);
    other.restoreState(snap, timing);
    other.fastForward(5000, core::WarmingMode::Functional);
    util::BinaryWriter after;
    snap.write(after);
    CHECK(after.buffer() == before.buffer());

    // The serialized form is vecU32's, byte for byte, at every page
    // boundary case; read() restores the words and keeps nothing of
    // a differently sized image it was seeded with.
    Xoshiro256StarStar rng(0xc0);
    core::PagedImage seeded;
    for (const std::size_t n :
         {std::size_t(0), std::size_t(1), std::size_t(64),
          std::size_t(1023), std::size_t(1024), std::size_t(1025),
          std::size_t(2048), std::size_t(3000)}) {
        std::vector<std::uint32_t> words(n);
        for (std::uint32_t &w : words)
            w = static_cast<std::uint32_t>(rng.next());
        core::PagedImage image;
        image.assign(words.data(), words.size());
        util::BinaryWriter paged;
        image.write(paged);
        util::BinaryWriter flatOut;
        flatOut.vecU32(words);
        CHECK(paged.buffer() == flatOut.buffer());

        util::BinaryReader in(flatOut.buffer());
        seeded.read(in);
        CHECK(in.ok());
        CHECK_EQ(in.remaining(), std::size_t(0));
        CHECK(wordsOf(seeded) == words);
    }
}

} // namespace

/** One capture-oracle design and its pinned `.smlp` digest. */
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
 * Every warming mode; a nonzero offset on the 16-way machine; k = 1
 * with a unit size that does not divide the stream, so its last
 * live-point's unit ends mid-unit.
 */
const OracleCase kOracleCases[] = {
    {"sort-1", false, 1000, 2000, 10, 0, core::WarmingMode::Functional,
     0xecfd7dc532fb9997ull},
    {"sort-1", false, 1000, 2000, 10, 0, core::WarmingMode::CachesOnly,
     0xd258543c1dfca684ull},
    {"sort-1", false, 1000, 2000, 10, 0, core::WarmingMode::BpredOnly,
     0xbbb622bf9b40c4e2ull},
    {"sort-1", false, 1000, 2000, 10, 0, core::WarmingMode::None,
     0x704252e095f0a774ull},
    {"fsm-1", true, 1000, 4000, 17, 5, core::WarmingMode::Functional,
     0x5d7c5f0090e737e6ull},
    {"alu-1", false, 999, 0, 1, 0, core::WarmingMode::Functional,
     0x80602cce9559ccc3ull},
};

void
testSplitCaptureMatchesFused()
{
    // LivePointLibrary::build captures through core::SplitCapture (an
    // interpreter and a warming thread). Every point must equal the
    // one the fused per-instruction walk snaps, the serialized
    // library must match its pinned digest (the bytes a fused
    // capture writes), and the leapfrog, which captures the same
    // way, must publish those bytes and fold to serial run() at 1, 2
    // and 5 threads.
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

        core::SimSession fusedSession(spec, config);
        std::vector<core::LivePoint> fused;
        core::detail::captureWalk(
            fusedSession, sc, [](std::uint64_t) { return true; },
            [&](std::uint64_t unitIdx) {
                core::LivePoint &point = fused.emplace_back();
                point.saveFrom(fusedSession);
                point.unitIndex = unitIdx;
            });
        core::detail::runOut(fusedSession, sc.warming);

        core::SimSession splitSession(spec, config);
        const core::LivePointLibrary library =
            core::LivePointLibrary::build(splitSession, sc);
        CHECK_EQ(library.streamLength(), fusedSession.instCount());
        CHECK_EQ(splitSession.instCount(), fusedSession.instCount());
        CHECK_EQ(library.unitCount(), fused.size());
        CHECK(!fused.empty());
        for (std::size_t i = 0;
             i < std::min(fused.size(), library.unitCount()); ++i) {
            util::BinaryWriter a, b;
            library.at(i).write(a);
            fused[i].write(b);
            CHECK(a.buffer() == b.buffer());
        }
        util::BinaryWriter out;
        library.serialize(key, out);
        const std::uint64_t digest =
            util::xxh64(out.buffer().data(), out.size());
        CHECK_EQ(digest, c.digest);
        if (digest != c.digest)
            std::fprintf(stderr, "  %s/%d: .smlp digest %016llx\n",
                         c.benchmark, static_cast<int>(c.warming),
                         static_cast<unsigned long long>(digest));
        const std::string buildPath =
            std::string(kDir) + "/split-build.smlp";
        fs::remove(buildPath);
        CHECK(library.save(key, buildPath));
        const std::vector<std::uint8_t> want = readFileBytes(buildPath);

        core::SimSession serialSession(spec, config);
        const core::SmartsEstimate serial =
            core::SystematicSampler(sc).run(serialSession);
        auto factory = [&spec, &config] {
            return std::make_unique<core::SimSession>(spec, config);
        };
        core::AnytimeOptions completion;
        completion.target.epsilon = 0.0;
        completion.chunk = 8;
        const std::string leapPath =
            std::string(kDir) + "/split-leapfrog.smlp";
        for (const unsigned threads : {1u, 2u, 5u}) {
            exec::ThreadPool pool(threads);
            core::SimSession session(spec, config);
            core::EncodedLivePoints records;
            const core::AnytimeResult result =
                core::SystematicSampler(sc).runAnytimeLeapfrog(
                    session, factory, pool, completion, &records);
            CHECK(fingerprint(result.estimate) == fingerprint(serial));
            fs::remove(leapPath);
            CHECK(records.save(key, leapPath));
            CHECK(readFileBytes(leapPath) == want);
        }
    }
}

int
main()
{
    fs::remove_all(kDir);
    fs::create_directories(kDir);

    testDeltaCodecRoundtrips();
    testDeltaCodecRefusals();
    testLibraryCaptureGeometry();
    testLibraryRoundtripAndRefusals();
    testFormatMigration();
    testLoadReusesReleasedPoints();
    testStoreRoundtrip();
    testBinaryReaderBulkAndBorrowed();
    testRecordCountBounded();
    testCopyOnWriteImages();
    testAnytimeCompletionBitIdentical();
    testLeapfrogColdOverlapBitIdentical();
    testLeapfrogPublishesBuildSaveBytes();
    testShuffleReproducibilityAndEarlyStop();
    testEstimateAnytimeEndToEnd();
    testSplitCaptureMatchesFused();
    TEST_MAIN_SUMMARY();
}
