/**
 * @file
 * Tests for the distributed runners (smarts::distrib,
 * docs/distributed-runners.md): manifest and result-file
 * roundtrips; the refusal matrix (truncated, corrupt,
 * version-bumped, mis-keyed, wrong-study, wrong-job,
 * inconsistent-payload files are REJECTED with a diagnostic, never
 * merged); leader-merge bit-identity against serial run() at 1, 2
 * and 5 concurrent runners; duplicate-claim benignity (identical
 * bytes either way); abandoned-claim recovery via the stale-claim
 * window; the runner's capture fallback when the store's live-point
 * library is corrupt or missing; the exponential idle-poll backoff
 * (PollBackoff) of the wait loops; the elastic layer — weighted
 * per-runner claim order, claim heartbeats vs stealing, the
 * build-fingerprint handshake, range seeding, splitting and
 * overlapping-result tiling — and a chaos drill (runner dies
 * mid-drain, late joiner steals and finishes, merge stays
 * bit-identical with bounded duplication).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/checkpoint_store.hh"
#include "core/sampler.hh"
#include "core/session.hh"
#include "distrib/leader.hh"
#include "distrib/protocol.hh"
#include "distrib/runner.hh"
#include "distrib/store_service.hh"
#include "uarch/config.hh"
#include "util/binary_io.hh"
#include "workloads/benchmark.hh"

#include "check.hh"
#include "estimate_fingerprint.hh"

using namespace smarts;
using smarts::test::fingerprint;
namespace fs = std::filesystem;

namespace {

/**
 * RunnerOptions with only the fields the tests vary: names every
 * runner and sets the steal window, leaving the hooks defaulted
 * (spelled out so -Wmissing-field-initializers stays quiet under
 * -Wextra -Werror).
 */
distrib::RunnerOptions
runnerOpts(std::string id, double staleSeconds)
{
    distrib::RunnerOptions options;
    options.id = std::move(id);
    options.staleClaimSeconds = staleSeconds;
    return options;
}

const char *kQueue = "test_distrib_queue";
const char *kStore = "test_distrib_store";

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

core::SmartsEstimate
serialRun(const workloads::BenchmarkSpec &spec,
          const uarch::MachineConfig &config,
          const core::SamplingConfig &sc)
{
    core::SimSession session(spec, config);
    return core::SystematicSampler(sc).run(session);
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
 * Publish @p manifest into an emptied queue. The explicit wipe
 * matters: publishStudy deliberately PRESERVES the queue when the
 * incoming study is identical (tested below), and these suites
 * re-run the same study and need fresh claims/results each time.
 */
void
resetQueue(const distrib::JobManifest &manifest)
{
    fs::remove_all(kQueue);
    std::string error;
    CHECK(distrib::publishStudy(kQueue, manifest, &error));
    CHECK_EQ(error, std::string());
}

/**
 * Ship @p configs' live-points for @p spec into the test store and
 * plan a study of at most @p jobs unit ranges over them.
 */
distrib::JobManifest
shipStudy(const workloads::BenchmarkSpec &spec,
          const std::vector<uarch::MachineConfig> &configs,
          const core::SamplingConfig &sc, std::size_t jobs)
{
    core::CheckpointStore store(kStore);
    const distrib::LivePointPlan plan =
        distrib::ensureStudyLivePoints(store, spec, configs, sc);
    return distrib::planStudy(spec, configs, sc, plan.streamLength,
                              plan.totalUnits, jobs);
}

/** Drain @p manifest's queue with @p runners concurrent Runner
 *  threads; returns the jobs they executed in total. */
std::size_t
drainConcurrently(const distrib::JobManifest &manifest,
                  std::size_t runners, const std::string &prefix)
{
    std::vector<std::thread> crew;
    std::vector<std::size_t> executed(runners, 0);
    for (std::size_t r = 0; r < runners; ++r)
        crew.emplace_back([&, r] {
            distrib::Runner runner(
                kQueue, kStore,
                runnerOpts(prefix + std::to_string(r), -1.0));
            executed[r] = runner.drain(manifest);
        });
    for (std::thread &t : crew)
        t.join();
    std::size_t total = 0;
    for (const std::size_t n : executed)
        total += n;
    return total;
}

void
testManifestRoundtripAndRefusals()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const std::uint64_t length = streamLengthOf(spec, config);

    const distrib::JobManifest manifest = distrib::planStudy(
        spec, {config, uarch::MachineConfig::sixteenWay()}, sc,
        length, 60, 4);
    CHECK_EQ(manifest.configs.size(), std::size_t(2));
    CHECK_EQ(manifest.ranges.size(), std::size_t(4));
    CHECK_EQ(manifest.jobCount(), std::size_t(8));
    CHECK(manifest.studyId != 0);

    // The study id is a deterministic digest: same study, same id;
    // any parameter change, a different id.
    CHECK_EQ(distrib::planStudy(spec, manifest.configs, sc, length,
                                60, 4)
                 .studyId,
             manifest.studyId);
    core::SamplingConfig scOther = sc;
    scOther.offset = 1;
    CHECK(distrib::planStudy(spec, manifest.configs, scOther, length,
                             60, 4)
              .studyId != manifest.studyId);
    CHECK(distrib::planStudy(spec, manifest.configs, sc, length, 60,
                             5)
              .studyId != manifest.studyId);

    const std::string path =
        (fs::path(kQueue) / "roundtrip.smjm").string();
    std::string error;
    CHECK(manifest.save(path, &error));
    const auto loaded = distrib::JobManifest::load(path, &error);
    CHECK(loaded.has_value());
    CHECK_EQ(error, std::string());
    {
        util::BinaryWriter a, b;
        manifest.serialize(a);
        loaded->serialize(b);
        CHECK(a.buffer() == b.buffer());
    }

    const std::vector<std::uint8_t> good = readFileBytes(path);
    CHECK(good.size() > 64);

    auto expectRefusal = [&](const char *what, const char *needle) {
        std::string why;
        const auto result = distrib::JobManifest::load(path, &why);
        CHECK(!result.has_value());
        const bool mentions = why.find(needle) != std::string::npos;
        CHECK(mentions);
        if (!mentions)
            std::fprintf(stderr,
                         "  %s: diagnostic \"%s\" lacks \"%s\"\n",
                         what, why.c_str(), needle);
    };

    // Truncation and corruption land on the checksum.
    writeFileBytes(path, std::vector<std::uint8_t>(
                             good.begin(),
                             good.begin() + good.size() / 2));
    expectRefusal("truncation", "checksum");
    {
        std::vector<std::uint8_t> bad = good;
        bad[bad.size() / 2] ^= 0x20;
        writeFileBytes(path, bad);
        expectRefusal("corruption", "checksum");
    }

    // A version bump or a v2 file, resealed: refused by number,
    // naming both versions. There is no migration.
    for (const std::uint8_t version : {4, 2}) {
        std::vector<std::uint8_t> bad = good;
        bad[8] = version; // version u32 sits right after the magic.
        writeFileBytes(path, bad);
        resealChecksum(path);
        const std::string needle =
            "protocol version " + std::to_string(version) +
            "; this build speaks version 3";
        expectRefusal("version", needle.c_str());
    }

    // Bad magic.
    {
        std::vector<std::uint8_t> bad = good;
        bad[0] = 'X';
        writeFileBytes(path, bad);
        resealChecksum(path);
        expectRefusal("magic", "not a smarts job manifest");
    }

    // A range partition that does not tile the study: an overlap,
    // a gap at the end, an empty study.
    {
        distrib::JobManifest bad = manifest;
        bad.ranges[0].unitCount += 1;
        CHECK(bad.save(path, &error));
        expectRefusal("overlapping ranges", "ranges do not tile");
    }
    {
        distrib::JobManifest bad = manifest;
        bad.ranges.pop_back();
        CHECK(bad.save(path, &error));
        expectRefusal("uncovered units", "ranges cover 45 of 60");
    }
    {
        distrib::JobManifest bad = manifest;
        bad.totalUnits = 0;
        bad.ranges.clear();
        CHECK(bad.save(path, &error));
        expectRefusal("empty study", "a study of 0 units");
    }

    // A geometry hash this build's warmGeometryHash cannot
    // reproduce: leader/runner builds diverged.
    {
        distrib::JobManifest bad = manifest;
        bad.geometryHashes[1] ^= 1;
        CHECK(bad.save(path, &error));
        expectRefusal("foreign geometry hash", "does not reproduce");
    }

    // Build-fingerprint handshake: planStudy stamps this build's
    // fingerprint, and a manifest from a diverged build (different
    // timing model or protocol) refuses at load, naming both
    // fingerprints.
    CHECK_EQ(manifest.fingerprint, distrib::buildFingerprint());
    CHECK_EQ(distrib::buildFingerprint(),
             distrib::buildFingerprint()); // cached, stable.
    {
        distrib::JobManifest bad = manifest;
        bad.fingerprint ^= 0x5a5a;
        CHECK(bad.save(path, &error));
        expectRefusal("fingerprint mismatch", "fingerprint");
        std::string why;
        CHECK(!distrib::JobManifest::load(path, &why).has_value());
        // Diverged-build manifests must keep their own (digested)
        // study id, so the diagnostic can name the foreign build.
        CHECK(why.find("diverged") != std::string::npos);
    }
}

/**
 * Byte offsets of the manifest's two counts in @p manifest's
 * encoding: the config count and the range count.
 */
struct CountOffsets
{
    std::size_t configs, ranges;
};

CountOffsets
countOffsets(const distrib::JobManifest &manifest)
{
    core::LibraryKey base;
    base.benchmark = manifest.benchmark;
    base.sampling = manifest.sampling;
    util::BinaryWriter key;
    base.write(key);
    CountOffsets at{};
    // magic, version, endian, studyId, fingerprint, streamLength.
    at.configs = 8 + 4 + 4 + 3 * 8 + key.size();
    std::size_t configBytes = 0;
    for (const uarch::MachineConfig &c : manifest.configs) {
        util::BinaryWriter w;
        distrib::writeMachineConfig(w, c);
        configBytes += w.size() + 8; // + geometry hash.
    }
    // + totalUnits after the configs.
    at.ranges = at.configs + 4 + configBytes + 8;
    return at;
}

void
testManifestCountsBounded()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const std::uint64_t length = streamLengthOf(spec, config);
    const std::string path =
        (fs::path(kQueue) / "counts.smjm").string();

    // The smallest config a manifest can carry: empty name, plus
    // its u64 geometry hash.
    util::BinaryWriter minimal;
    distrib::writeMachineConfig(minimal, uarch::MachineConfig{});
    const std::uint64_t minConfig = minimal.size() + 8;

    // A count the remaining payload cannot back is refused by name
    // before anything is sized from it — including counts at or
    // under the remaining BYTE count, which parse no further.
    auto craft = [&](const distrib::JobManifest &manifest,
                     std::size_t at, int width,
                     std::uint64_t elementBytes, const char *what) {
        CHECK(manifest.save(path));
        const std::vector<std::uint8_t> good = readFileBytes(path);
        const std::uint64_t remaining = good.size() - 8 - (at + width);
        std::uint64_t counts[] = {remaining / elementBytes + 1,
                                  remaining, ~std::uint64_t(0)};
        if (width == 4)
            counts[2] = 0xffffffffu;
        for (const std::uint64_t count : counts) {
            std::vector<std::uint8_t> bad = good;
            if (width == 4)
                util::storeLE(bad.data() + at,
                              static_cast<std::uint32_t>(count));
            else
                util::storeLE(bad.data() + at, count);
            writeFileBytes(path, bad);
            resealChecksum(path);
            std::string why;
            CHECK(!distrib::JobManifest::load(path, &why).has_value());
            const std::string needle =
                std::string("is corrupt (") + what + " count " +
                std::to_string(count) + ")";
            const bool named = why.find(needle) != std::string::npos;
            CHECK(named);
            if (!named)
                std::fprintf(stderr, "  diagnostic \"%s\" lacks \"%s\"\n",
                             why.c_str(), needle.c_str());
        }
    };

    const distrib::JobManifest manifest = distrib::planStudy(
        spec, {config, uarch::MachineConfig::sixteenWay()}, sc,
        length, 60, 6);
    const CountOffsets at = countOffsets(manifest);
    {
        // The offsets are right: each names the encoded count.
        CHECK(manifest.save(path));
        const std::vector<std::uint8_t> good = readFileBytes(path);
        CHECK_EQ(util::loadLE<std::uint32_t>(good.data() + at.configs),
                 std::uint32_t(2));
        CHECK_EQ(util::loadLE<std::uint64_t>(good.data() + at.ranges),
                 std::uint64_t(6));
        CHECK_EQ(at.ranges + 8 + 16 * 6, good.size() - 8);
    }
    craft(manifest, at.configs, 4, minConfig, "config");
    craft(manifest, at.ranges, 8, 16, "range");
}

/**
 * A config whose geometry divides by zero or overflows a shift
 * (zero page size, empty BTB or RAS, 32+ history bits, zero width or
 * cache set size) is refused as corrupt by the manifest and store-
 * request readers, before any runner builds a session from it; an
 * odd but valid geometry (non-power-of-two sets, BTB, RAS and pages)
 * still round-trips.
 */
void
testConfigGeometryRefused()
{
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const std::string path =
        (fs::path(kQueue) / "geometry.smjm").string();
    fs::create_directories(kQueue);

    uarch::MachineConfig odd = uarch::MachineConfig::eightWay();
    odd.mem.l1d = {192 * 4 * 64, 4, 64, 2};
    odd.mem.dtlb.pageBytes = 6 * 1024;
    odd.bpred.btbEntries = 384;
    odd.bpred.rasEntries = 12;
    const distrib::JobManifest good =
        distrib::planStudy(spec, {odd}, sc, 1000000, 60, 2);
    CHECK(good.save(path));
    CHECK(distrib::JobManifest::load(path).has_value());

    struct Case
    {
        const char *what;
        void (*corrupt)(uarch::MachineConfig &);
    };
    const Case cases[] = {
        {"dtlb of 64 entries of 0B pages",
         [](uarch::MachineConfig &c) { c.mem.dtlb.pageBytes = 0; }},
        {"itlb of 0 entries",
         [](uarch::MachineConfig &c) { c.mem.itlb.entries = 0; }},
        {"512 BTB and 0 RAS entries",
         [](uarch::MachineConfig &c) { c.bpred.rasEntries = 0; }},
        {"12 history bits, 0 BTB",
         [](uarch::MachineConfig &c) { c.bpred.btbEntries = 0; }},
        {"32 history bits",
         [](uarch::MachineConfig &c) { c.bpred.historyBits = 32; }},
        {"issue width 0", [](uarch::MachineConfig &c) { c.width = 0; }},
        {"l1d geometry 0B",
         [](uarch::MachineConfig &c) { c.mem.l1d.sizeBytes = 0; }},
        // assoc * lineBytes = 2^32 wraps a 32-bit set size to zero.
        {"l2 geometry 262144B / 65536 ways / 65536B lines",
         [](uarch::MachineConfig &c) {
             c.mem.l2.assoc = 65536;
             c.mem.l2.lineBytes = 65536;
         }},
    };
    for (const Case &k : cases) {
        distrib::JobManifest bad = distrib::planStudy(
            spec, {uarch::MachineConfig::eightWay()}, sc, 1000000, 60,
            2);
        k.corrupt(bad.configs[0]);
        CHECK(bad.save(path));
        std::string why;
        CHECK(!distrib::JobManifest::load(path, &why).has_value());
        const bool named =
            why.find("is corrupt (config 0: ") != std::string::npos &&
            why.find(k.what) != std::string::npos;
        CHECK(named);
        if (!named)
            std::fprintf(stderr, "  diagnostic \"%s\" lacks \"%s\"\n",
                         why.c_str(), k.what);

        distrib::StoreRequest request;
        request.reqId = "geometry";
        request.benchmark = spec;
        request.sampling = sc;
        request.machine = bad.configs[0];
        const std::string reqPath =
            (fs::path(kQueue) / "geometry.req").string();
        CHECK(request.save(reqPath));
        why.clear();
        CHECK(!distrib::StoreRequest::load(reqPath, &why).has_value());
        CHECK(why.find("is corrupt (machine config: ") !=
              std::string::npos);
    }
}

void
testResultRoundtripAndRefusals()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("fsm-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();

    const distrib::JobManifest manifest =
        shipStudy(spec, {config}, sc, 3);
    const distrib::UnitRange job = manifest.ranges[1];

    distrib::Runner runner(kQueue, kStore, runnerOpts("roundtrip", -1.0));
    const std::optional<distrib::ShardResult> executed =
        runner.executeRange(manifest, 0, job);
    CHECK(executed.has_value());
    const distrib::ShardResult produced = *executed;
    CHECK_EQ(produced.studyId, manifest.studyId);
    CHECK(produced.range == job);
    CHECK(!produced.slice.obs.empty());

    const std::string path =
        (fs::path(kQueue) / "result_roundtrip.smrr").string();
    std::string error;
    CHECK(produced.save(path, &error));
    const auto loaded =
        distrib::ShardResult::load(path, manifest, 0, job, &error);
    CHECK(loaded.has_value());
    CHECK_EQ(error, std::string());
    {
        // Byte-level identity of the reloaded result.
        util::BinaryWriter a, b;
        produced.serialize(a);
        loaded->serialize(b);
        CHECK(a.buffer() == b.buffer());
    }

    const std::vector<std::uint8_t> good = readFileBytes(path);
    CHECK(good.size() > 64);

    auto expectRefusal = [&](const char *what, const char *needle,
                             const distrib::UnitRange &range) {
        std::string why;
        const auto result =
            distrib::ShardResult::load(path, manifest, 0, range, &why);
        CHECK(!result.has_value());
        const bool mentions = why.find(needle) != std::string::npos;
        CHECK(mentions);
        if (!mentions)
            std::fprintf(stderr,
                         "  %s: diagnostic \"%s\" lacks \"%s\"\n",
                         what, why.c_str(), needle);
    };

    // Truncated file.
    writeFileBytes(path, std::vector<std::uint8_t>(
                             good.begin(),
                             good.begin() + good.size() / 2));
    expectRefusal("truncation", "checksum", job);

    // Single flipped payload byte.
    {
        std::vector<std::uint8_t> bad = good;
        bad[bad.size() / 2] ^= 0x40;
        writeFileBytes(path, bad);
        expectRefusal("corruption", "checksum", job);
    }

    // A version bump or a v2 file, resealed.
    for (const std::uint8_t version : {4, 2}) {
        std::vector<std::uint8_t> bad = good;
        bad[8] = version;
        writeFileBytes(path, bad);
        resealChecksum(path);
        const std::string needle =
            "protocol version " + std::to_string(version) +
            "; this build speaks version 3";
        expectRefusal("version", needle.c_str(), job);
    }

    // Bad magic.
    {
        std::vector<std::uint8_t> bad = good;
        bad[0] = 'X';
        writeFileBytes(path, bad);
        resealChecksum(path);
        expectRefusal("magic", "not a smarts job result", job);
    }

    // Trailing garbage behind a valid checksum.
    {
        std::vector<std::uint8_t> bad = good;
        bad.insert(bad.end() - 8, {0xde, 0xad, 0xbe, 0xef});
        writeFileBytes(path, bad);
        resealChecksum(path);
        expectRefusal("trailing garbage", "trailing garbage", job);
    }

    // Restore the pristine bytes; the semantic refusals below are
    // about the expectation, not the file.
    writeFileBytes(path, good);
    CHECK(distrib::ShardResult::load(path, manifest, 0, job, &error)
              .has_value());

    // Wrong job: the file is range 1, the leader asked for range 2.
    expectRefusal("wrong range", "is the result of job",
                  manifest.ranges[2]);

    // Wrong study: a manifest differing in any field refuses the
    // result outright (study ids are digests of every field).
    {
        core::SamplingConfig scOther = sc;
        scOther.interval = 17;
        const distrib::JobManifest other = distrib::planStudy(
            spec, {config}, scOther, manifest.streamLength,
            manifest.totalUnits, 3);
        std::string why;
        CHECK(!distrib::ShardResult::load(path, other, 0, job, &why)
                   .has_value());
        CHECK(why.find("study") != std::string::npos);
    }

    // Wrong config: the right range under another config index.
    {
        distrib::ShardResult bad = produced;
        bad.configIndex = 1;
        CHECK(bad.save(path, &error));
        expectRefusal("wrong config", "is the result of job", job);
    }

    // Mis-keyed: right study id, wrong library key (geometry).
    {
        distrib::ShardResult bad = produced;
        bad.key.geometryHash ^= 1;
        CHECK(bad.save(path, &error));
        expectRefusal("key mismatch", "geometry", job);
    }

    // A range outside the study's units.
    {
        distrib::ShardResult bad = produced;
        bad.range = {manifest.totalUnits, 1};
        CHECK(bad.save(path, &error));
        expectRefusal("range outside", "outside this study",
                      bad.range);
    }

    // Internally inconsistent observation accounting.
    {
        distrib::ShardResult bad = produced;
        bad.slice.measured += 1;
        CHECK(bad.save(path, &error));
        expectRefusal("inconsistent payload", "inconsistent", job);
    }
    {
        distrib::ShardResult bad = produced;
        bad.slice.obs.resize(job.unitCount + 1);
        bad.slice.measured = bad.slice.obs.size() * sc.unitSize;
        CHECK(bad.save(path, &error));
        expectRefusal("observations past the range",
                      "observations for a", job);
    }
    {
        distrib::ShardResult bad = produced;
        bad.slice.endPos += 1;
        CHECK(bad.save(path, &error));
        expectRefusal("foreign stream", "covers a stream", job);
    }
}

void
testMergeBitIdentityAtRunnerCounts()
{
    // The tentpole contract: the leader's merged estimate equals
    // serial run() BYTE FOR BYTE at 1, 2 and 5 concurrent runners —
    // for every config of a multi-config study.
    const auto cfg8 = uarch::MachineConfig::eightWay();
    const auto cfg16 = uarch::MachineConfig::sixteenWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();

    const distrib::JobManifest manifest =
        shipStudy(spec, {cfg8, cfg16}, sc, 5);
    CHECK_EQ(manifest.jobCount(), std::size_t(10));
    // Re-ensuring an up-to-date store captures nothing.
    {
        core::CheckpointStore store(kStore);
        CHECK_EQ(distrib::ensureStudyLivePoints(store, spec,
                                                {cfg8, cfg16}, sc)
                     .captured,
                 std::size_t(0));
    }

    const core::SmartsEstimate serial8 = serialRun(spec, cfg8, sc);
    const core::SmartsEstimate serial16 = serialRun(spec, cfg16, sc);
    CHECK(serial8.units() > 0);

    for (const std::size_t runners :
         {std::size_t(1), std::size_t(2), std::size_t(5)}) {
        resetQueue(manifest);
        CHECK_EQ(drainConcurrently(manifest, runners, "crew-"),
                 manifest.jobCount());
        CHECK(distrib::studyComplete(kQueue, manifest));

        std::string error;
        const auto merged =
            distrib::mergeStudy(kQueue, manifest, &error);
        CHECK(merged.has_value());
        CHECK_EQ(merged->size(), std::size_t(2));
        CHECK(fingerprint((*merged)[0]) == fingerprint(serial8));
        CHECK(fingerprint((*merged)[1]) == fingerprint(serial16));
    }

    // collectStudy with a helping leader needs no runners at all.
    resetQueue(manifest);
    distrib::Runner helper(kQueue, kStore, runnerOpts("solo-leader", -1.0));
    std::string error;
    const auto collected = distrib::collectStudy(
        kQueue, manifest, /*timeoutSeconds=*/300.0, &helper, &error);
    CHECK(collected.has_value());
    CHECK(fingerprint((*collected)[0]) == fingerprint(serial8));
    CHECK(fingerprint((*collected)[1]) == fingerprint(serial16));

    // Republishing the IDENTICAL study preserves the completed
    // results (the deterministic study id is designed for restarted
    // leaders): the merge succeeds immediately, nothing re-runs.
    CHECK(distrib::publishStudy(kQueue, manifest, &error));
    CHECK(distrib::studyComplete(kQueue, manifest));
    const auto reused = distrib::collectStudy(
        kQueue, manifest, /*timeoutSeconds=*/5.0, nullptr, &error);
    CHECK(reused.has_value());
    CHECK(fingerprint((*reused)[0]) == fingerprint(serial8));

    // A DIFFERENT study (any field changed) resets the queue.
    {
        core::SamplingConfig scOther = sc;
        scOther.offset = 3;
        const distrib::JobManifest other = distrib::planStudy(
            spec, {cfg8, cfg16}, scOther, manifest.streamLength,
            manifest.totalUnits, 5);
        CHECK(distrib::publishStudy(kQueue, other, &error));
        CHECK(!distrib::studyComplete(kQueue, other));
        CHECK(!fs::exists(
            distrib::resultPath(kQueue, 0, manifest.ranges[0])));
        CHECK(distrib::listResultRanges(kQueue, 0).empty());
    }
    resetQueue(manifest);
    CHECK(distrib::collectStudy(kQueue, manifest, 300.0, &helper,
                                &error)
              .has_value());

    // A missing range result refuses the whole merge.
    std::error_code ec;
    fs::remove(distrib::resultPath(kQueue, 1, manifest.ranges[2]), ec);
    CHECK(!distrib::studyComplete(kQueue, manifest));
    CHECK(!distrib::mergeStudy(kQueue, manifest, &error).has_value());
    CHECK(!error.empty());
}

void
testClaimsDuplicatesAndRecovery()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("chase-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();

    const distrib::JobManifest manifest =
        shipStudy(spec, {config}, sc, 4);
    const core::SmartsEstimate serial = serialRun(spec, config, sc);

    // Claim exclusivity: of two claimants exactly one wins.
    resetQueue(manifest);
    CHECK(distrib::claimJob(kQueue, 0, manifest.ranges[0], "first"));
    CHECK(!distrib::claimJob(kQueue, 0, manifest.ranges[0], "second"));

    // Duplicate execution is benign: two runners that both execute
    // the same job publish BYTE-IDENTICAL result files (that is
    // what makes lost claim races and stale-claim stealing safe).
    {
        const distrib::UnitRange job = manifest.ranges[1];
        distrib::Runner a(kQueue, kStore, runnerOpts("dup-a", -1.0));
        distrib::Runner b(kQueue, kStore, runnerOpts("dup-b", -1.0));
        const auto ra = a.executeRange(manifest, 0, job);
        const auto rb = b.executeRange(manifest, 0, job);
        CHECK(ra.has_value() && rb.has_value());
        util::BinaryWriter wa, wb;
        ra->serialize(wa);
        rb->serialize(wb);
        CHECK(wa.buffer() == wb.buffer());

        std::string error;
        CHECK(distrib::publishResult(kQueue, *ra, &error));
        const std::vector<std::uint8_t> first =
            readFileBytes(distrib::resultPath(kQueue, 0, job));
        CHECK(distrib::publishResult(kQueue, *rb, &error));
        CHECK(readFileBytes(distrib::resultPath(kQueue, 0, job)) ==
              first);
    }

    // Abandoned-claim recovery: a crashed runner's claim (no
    // result behind it) blocks nothing once the stale window
    // passes.
    resetQueue(manifest);
    CHECK(distrib::claimJob(kQueue, 0, manifest.ranges[2],
                            "crashed-runner"));

    // A polite runner (no stealing) completes everything EXCEPT the
    // abandoned job, and the merge refuses the incomplete study.
    distrib::Runner polite(kQueue, kStore, runnerOpts("polite", -1.0));
    CHECK_EQ(polite.drain(manifest), manifest.jobCount() - 1);
    std::string error;
    CHECK(!distrib::mergeStudy(kQueue, manifest, &error).has_value());

    // A recovery runner with a zero stale window steals the
    // abandoned claim; now the study completes and merges
    // bit-identically to serial.
    distrib::Runner recovery(kQueue, kStore, runnerOpts("recovery", 0.0));
    CHECK_EQ(recovery.drain(manifest), std::size_t(1));
    const auto merged = distrib::mergeStudy(kQueue, manifest, &error);
    CHECK(merged.has_value());
    CHECK(fingerprint(merged->front()) == fingerprint(serial));

    // Poisoned-result recovery: a "complete" study with a corrupt
    // result file refuses a bare merge — and would refuse forever,
    // since claims treat an existing result as done. The leader's
    // collect loop must quarantine the file and get the job
    // re-executed rather than wedge.
    {
        const std::string victim =
            distrib::resultPath(kQueue, 0, manifest.ranges[1]);
        std::vector<std::uint8_t> bytes = readFileBytes(victim);
        bytes[bytes.size() / 2] ^= 0x08;
        writeFileBytes(victim, bytes);
        CHECK(distrib::studyComplete(kQueue, manifest));
        CHECK(!distrib::mergeStudy(kQueue, manifest, &error)
                   .has_value());

        distrib::Runner healer(kQueue, kStore, runnerOpts("healer", -1.0));
        const auto healed = distrib::collectStudy(
            kQueue, manifest, /*timeoutSeconds=*/300.0, &healer,
            &error);
        CHECK(healed.has_value());
        CHECK(fingerprint(healed->front()) == fingerprint(serial));
    }
}

void
testRunnerRepairsLivePoints()
{
    // A runner whose store copy lacks the study's live-points, or
    // holds a REFUSED (corrupt in transit) library, captures them
    // itself and persists the repair — without it every later study
    // for the key would pay the recapture again — and the study
    // still merges bit-identically to serial.
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("stream-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const core::SmartsEstimate serial = serialRun(spec, config, sc);

    const distrib::JobManifest manifest =
        shipStudy(spec, {config}, sc, 3);
    core::CheckpointStore store(kStore);
    const core::LibraryKey key = manifest.keyFor(0);
    const std::string libPath = store.livePointPathFor(key);
    std::vector<std::uint8_t> bytes = readFileBytes(libPath);
    bytes[bytes.size() / 2] ^= 0x04;
    writeFileBytes(libPath, bytes);
    CHECK(!store.tryLoadLivePoints(key).has_value());

    resetQueue(manifest);
    distrib::Runner repairer(kQueue, kStore, runnerOpts("repairer", -1.0));
    CHECK_EQ(repairer.drain(manifest), manifest.jobCount());
    CHECK(store.tryLoadLivePoints(key).has_value());
    std::string error;
    const auto healed = distrib::mergeStudy(kQueue, manifest, &error);
    CHECK(healed.has_value());
    CHECK(fingerprint(healed->front()) == fingerprint(serial));

    // A runner pointed at an EMPTY store captures and persists too.
    const std::string emptyStore = std::string(kStore) + "_empty";
    fs::remove_all(emptyStore);
    resetQueue(manifest);
    {
        distrib::Runner storeless(kQueue, emptyStore,
                                  runnerOpts("storeless", -1.0));
        CHECK_EQ(storeless.drain(manifest), manifest.jobCount());
    }
    CHECK(core::CheckpointStore(emptyStore)
              .tryLoadLivePoints(key)
              .has_value());
    const auto captured = distrib::mergeStudy(kQueue, manifest, &error);
    CHECK(captured.has_value());
    CHECK(fingerprint(captured->front()) == fingerprint(serial));
    fs::remove_all(emptyStore);
}

void
testPollBackoff()
{
    // The wait loops' idle backoff: doubles per idle poll from the
    // seed to the ~1 s cap, and any progress resets it to the seed.
    distrib::PollBackoff backoff;
    CHECK_EQ(backoff.currentMs(), 100.0);
    CHECK_EQ(backoff.nextMs(), 100.0);
    CHECK_EQ(backoff.nextMs(), 200.0);
    CHECK_EQ(backoff.nextMs(), 400.0);
    CHECK_EQ(backoff.nextMs(), 800.0);
    CHECK_EQ(backoff.nextMs(), 1000.0); // capped, not 1600.
    CHECK_EQ(backoff.nextMs(), 1000.0); // stays at the cap.
    backoff.reset();
    CHECK_EQ(backoff.currentMs(), 100.0);

    // A custom seed (smarts_runner --poll-ms=) still caps at ~1 s.
    distrib::PollBackoff fast(25.0);
    CHECK_EQ(fast.nextMs(), 25.0);
    CHECK_EQ(fast.nextMs(), 50.0);
    CHECK_EQ(fast.nextMs(), 100.0);

    // Degenerate seeds never wedge the loop: non-positive seeds
    // clamp to 1 ms, and a cap below the seed collapses to it.
    distrib::PollBackoff clamped(0.0);
    CHECK_EQ(clamped.currentMs(), 1.0);
    distrib::PollBackoff flat(500.0, 100.0);
    CHECK_EQ(flat.nextMs(), 500.0);
    CHECK_EQ(flat.nextMs(), 500.0);

    // awaitManifest takes the poll seed as a parameter; a manifest
    // already on disk returns without sleeping even at a huge seed.
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const distrib::JobManifest manifest =
        distrib::planStudy(spec, {config}, defaultSampling(),
                           streamLengthOf(spec, config), 60, 2);
    resetQueue(manifest);
    distrib::Runner runner(kQueue, kStore, runnerOpts("poller", -1.0));
    std::string error;
    const auto found = runner.awaitManifest(
        /*waitSeconds=*/0.0, &error, /*pollMillis=*/60'000.0);
    CHECK(found.has_value());
    CHECK_EQ(found->studyId, manifest.studyId);
}

void
testClaimOrderPermutations()
{
    const auto cfg8 = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const std::uint64_t length = streamLengthOf(spec, cfg8);
    const distrib::JobManifest manifest = distrib::planStudy(
        spec, {cfg8, uarch::MachineConfig::sixteenWay()}, sc, length,
        60, 4);

    // A claim order is a PERMUTATION of the (config × range) grid:
    // every job exactly once, nothing invented.
    const auto order =
        distrib::claimOrder(manifest, manifest.ranges, "runner-a");
    CHECK_EQ(order.size(), manifest.jobCount());
    std::set<std::tuple<std::uint32_t, std::uint64_t, std::uint64_t>>
        seen;
    for (const auto &[c, r] : order) {
        seen.emplace(c, r.firstUnit, r.unitCount);
        CHECK(c < manifest.configs.size());
        CHECK(std::find(manifest.ranges.begin(), manifest.ranges.end(),
                        r) != manifest.ranges.end());
    }
    CHECK_EQ(seen.size(), order.size());

    // Deterministic per (study, runner id)...
    CHECK(distrib::claimOrder(manifest, manifest.ranges, "runner-a") ==
          order);

    // ...and decorrelated across runner ids: with 8 jobs, at least
    // one of a handful of other ids must probe in a different order
    // (all identical would defeat the point of per-runner shuffles).
    bool differs = false;
    for (int i = 0; i < 8 && !differs; ++i)
        differs = distrib::claimOrder(
                      manifest, manifest.ranges,
                      "runner-b" + std::to_string(i)) != order;
    CHECK(differs);

    // Weight bias: a range 100× heavier than its peers should be
    // probed FIRST by the overwhelming majority of runners. The ids
    // are fixed, so this is a deterministic property of the shuffle,
    // not a flaky statistical one.
    const std::vector<distrib::UnitRange> ranges = {
        {0, 1}, {1, 1}, {2, 1}, {3, 100}};
    const distrib::JobManifest narrow =
        distrib::planStudy(spec, {cfg8}, sc, length, 103, 4);
    int bigFirst = 0;
    for (int i = 0; i < 20; ++i) {
        const auto ro = distrib::claimOrder(
            narrow, ranges, "weigher-" + std::to_string(i));
        CHECK_EQ(ro.size(), ranges.size());
        if (ro.front().second.unitCount == 100)
            ++bigFirst;
    }
    CHECK(bigFirst >= 15);
}

void
testHeartbeatAndStealing()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const distrib::JobManifest manifest = distrib::planStudy(
        spec, {config}, sc, streamLengthOf(spec, config), 60, 4);
    resetQueue(manifest);

    const distrib::UnitRange job = manifest.ranges[0];
    const std::string claim = distrib::claimPath(kQueue, 0, job);
    auto ageClaim = [&] {
        fs::last_write_time(claim,
                            fs::file_time_type::clock::now() -
                                std::chrono::hours(2));
    };

    // A FRESH claim is never stolen, however aggressive the window.
    CHECK(distrib::claimJob(kQueue, 0, job, "a"));
    CHECK(!distrib::claimJob(kQueue, 0, job, "b", 3600.0));

    // Once the claim ages past the window unrefreshed, it steals.
    ageClaim();
    CHECK(distrib::claimJob(kQueue, 0, job, "b", 3600.0));
    // The thief's claim is fresh again.
    CHECK(!distrib::claimJob(kQueue, 0, job, "c", 3600.0));

    // The heartbeat is what separates LIVE long jobs from dead
    // ones: an aged claim its holder touchClaim()ed is fresh and
    // must NOT steal...
    ageClaim();
    CHECK(distrib::touchClaim(claim));
    CHECK(!distrib::claimJob(kQueue, 0, job, "c", 3600.0));

    // ...while one never refreshed again does.
    ageClaim();
    CHECK(distrib::claimJob(kQueue, 0, job, "c", 3600.0));
}

void
testAwaitManifestPollsThroughRefusals()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const distrib::JobManifest manifest =
        distrib::planStudy(spec, {config}, defaultSampling(),
                           streamLengthOf(spec, config), 60, 2);

    // Plant an UNLOADABLE manifest: a leftover from an incompatible
    // build that the leader is about to replace.
    fs::remove_all(kQueue);
    fs::create_directories(kQueue);
    writeFileBytes(distrib::manifestPath(kQueue),
                   {'g', 'a', 'r', 'b', 'a', 'g', 'e'});

    distrib::Runner runner(kQueue, kStore, runnerOpts("waiter", -1.0));
    std::string error;

    // The refusal does NOT end the wait early; on timeout the error
    // surfaces the last refusal instead of claiming no manifest.
    CHECK(!runner.awaitManifest(0.0, &error, 10.0).has_value());
    CHECK(error.find("last refusal") != std::string::npos);

    // A leader replacing the garbage mid-wait is picked up by the
    // same polling loop.
    std::thread leader([&] {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(150));
        std::string publishError;
        CHECK(distrib::publishStudy(kQueue, manifest,
                                    &publishError));
    });
    const auto found =
        runner.awaitManifest(/*waitSeconds=*/30.0, &error,
                             /*pollMillis=*/20.0);
    leader.join();
    CHECK(found.has_value());
    CHECK_EQ(found->studyId, manifest.studyId);
}

void
testUnitRangeStudy()
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();

    core::CheckpointStore store(kStore);
    const distrib::LivePointPlan plan =
        distrib::ensureStudyLivePoints(store, spec, {config}, sc);
    CHECK(plan.totalUnits > 12);
    CHECK(plan.streamLength > 0);

    const distrib::JobManifest manifest = distrib::planStudy(
        spec, {config}, sc, plan.streamLength, plan.totalUnits, 6);
    CHECK_EQ(manifest.ranges.size(), std::size_t(6));
    CHECK_EQ(manifest.jobCount(), std::size_t(6));
    {
        // The seed partition tiles [0, totalUnits) exactly.
        std::uint64_t cursor = 0;
        for (const distrib::UnitRange &r : manifest.ranges) {
            CHECK_EQ(r.firstUnit, cursor);
            cursor += r.unitCount;
        }
        CHECK_EQ(cursor, plan.totalUnits);
    }

    const core::SmartsEstimate serial = serialRun(spec, config, sc);

    // The manifest roundtrips (totalUnits and ranges intact).
    resetQueue(manifest);
    {
        std::string error;
        const auto loaded = distrib::JobManifest::load(
            distrib::manifestPath(kQueue), &error);
        CHECK(loaded.has_value());
        CHECK_EQ(loaded->totalUnits, plan.totalUnits);
        CHECK(loaded->ranges == manifest.ranges);
    }
    // publishStudy seeded the live partition markers.
    CHECK_EQ(distrib::listRanges(kQueue).size(),
             manifest.ranges.size());

    // One or two runners drain the whole study; the tiled merge is
    // bit-identical to serial run().
    for (const std::size_t runners :
         {std::size_t(1), std::size_t(2)}) {
        resetQueue(manifest);
        CHECK_EQ(drainConcurrently(manifest, runners, "unit-crew-"),
                 manifest.jobCount());
        CHECK(distrib::studyComplete(kQueue, manifest));
        std::string error;
        const auto merged =
            distrib::mergeStudy(kQueue, manifest, &error);
        CHECK(merged.has_value());
        CHECK(fingerprint(merged->front()) == fingerprint(serial));
    }

    // Splitting re-grains the live partition; the result
    // granularity changes but the tiled merge stays bit-identical.
    resetQueue(manifest);
    CHECK(distrib::splitRemainingRanges(kQueue, manifest, 1) > 0);
    CHECK(distrib::listRanges(kQueue).size() >
          manifest.ranges.size());
    {
        distrib::Runner runner(kQueue, kStore,
                               runnerOpts("post-split", -1.0));
        CHECK(runner.drain(manifest) > 0);
        CHECK(distrib::studyComplete(kQueue, manifest));
        std::string error;
        const auto merged =
            distrib::mergeStudy(kQueue, manifest, &error);
        CHECK(merged.has_value());
        CHECK(fingerprint(merged->front()) == fingerprint(serial));
    }

    // A claimed or completed range never splits.
    resetQueue(manifest);
    CHECK(distrib::claimJob(kQueue, 0, manifest.ranges[0], "holder"));
    const std::size_t splits =
        distrib::splitRemainingRanges(kQueue, manifest, 1);
    CHECK(splits > 0);
    bool parentSurvives = false;
    for (const distrib::UnitRange &r : distrib::listRanges(kQueue))
        parentSurvives |= r == manifest.ranges[0];
    CHECK(parentSurvives);

    // OVERLAPPING results — a parent range published by a racing
    // claimant plus children published after a split — still tile
    // into the bit-identical estimate (largest-at-cursor wins).
    {
        distrib::Runner racer(kQueue, kStore, runnerOpts("racer", -1.0));
        const distrib::UnitRange parent = manifest.ranges[0];
        const auto parentResult =
            racer.executeRange(manifest, 0, parent);
        CHECK(parentResult.has_value());
        std::string error;
        CHECK(distrib::publishResult(kQueue, *parentResult,
                                     &error));
        const distrib::UnitRange childA{parent.firstUnit,
                                        parent.unitCount / 2};
        const distrib::UnitRange childB{
            parent.firstUnit + parent.unitCount / 2,
            parent.unitCount - parent.unitCount / 2};
        const auto ra = racer.executeRange(manifest, 0, childA);
        const auto rb = racer.executeRange(manifest, 0, childB);
        CHECK(ra.has_value() && rb.has_value());
        CHECK(distrib::publishResult(kQueue, *ra, &error));
        CHECK(distrib::publishResult(kQueue, *rb, &error));

        distrib::Runner rest(kQueue, kStore, runnerOpts("rest", 0.0));
        rest.drain(manifest);
        CHECK(distrib::studyComplete(kQueue, manifest));
        const auto merged =
            distrib::mergeStudy(kQueue, manifest, &error);
        CHECK(merged.has_value());
        CHECK(fingerprint(merged->front()) == fingerprint(serial));
    }
}

void
testChaosElasticity()
{
    // The chaos drill: one runner DIES mid-drain (cooperative
    // cancel between units — its partial job is abandoned, never
    // published), a second joins LATE with a tight steal window,
    // and the merged study must still be bit-identical to serial
    // with a bounded execution count per job.
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("fsm-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();

    core::CheckpointStore store(kStore);
    const distrib::LivePointPlan plan =
        distrib::ensureStudyLivePoints(store, spec, {config}, sc);
    const distrib::JobManifest manifest = distrib::planStudy(
        spec, {config}, sc, plan.streamLength, plan.totalUnits, 5);
    resetQueue(manifest);
    const core::SmartsEstimate serial = serialRun(spec, config, sc);

    std::mutex tallyMutex;
    std::map<std::string, int> tally;
    auto count = [&](const std::string &job) {
        std::lock_guard<std::mutex> lock(tallyMutex);
        ++tally[job];
    };

    // Runner A dies as its SECOND job starts: the cancel hook trips
    // after two onExecute calls, so job 2's claim is left behind
    // with no result — exactly what a crashed host looks like.
    std::atomic<int> started{0};
    distrib::RunnerOptions aOpt;
    aOpt.id = "chaos-a";
    aOpt.heartbeatSeconds = 0.0; // heartbeat every unit.
    aOpt.cancelled = [&] { return started.load() >= 2; };
    aOpt.onExecute = [&](const std::string &job) {
        ++started;
        count(job);
    };
    std::thread victim([&] {
        distrib::Runner a(kQueue, kStore, aOpt);
        a.drain(manifest);
    });
    victim.join();
    CHECK_EQ(started.load(), 2);
    CHECK(!distrib::studyComplete(kQueue, manifest));

    // Runner B joins late, steals the abandoned claim once it ages
    // past the (tight) window, and finishes the study.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    distrib::RunnerOptions bOpt;
    bOpt.id = "chaos-b";
    bOpt.staleClaimSeconds = 0.4;
    bOpt.onExecute = count;
    distrib::Runner b(kQueue, kStore, bOpt);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(300);
    while (!distrib::studyComplete(kQueue, manifest)) {
        CHECK(std::chrono::steady_clock::now() < deadline);
        b.drain(manifest);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(100));
    }

    // Bounded duplication: the abandoned job ran at most twice
    // (once per claimant), every other job exactly once.
    int over = 0, twice = 0;
    for (const auto &[job, n] : tally) {
        if (n > 2)
            ++over;
        if (n == 2)
            ++twice;
    }
    CHECK_EQ(over, 0);
    CHECK(twice <= 1);

    std::string error;
    const auto merged =
        distrib::mergeStudy(kQueue, manifest, &error);
    CHECK(merged.has_value());
    CHECK(fingerprint(merged->front()) == fingerprint(serial));
}

/**
 * Wait up to @p seconds for @p ready, polling every few ms; true
 * once it holds.
 */
template <typename Ready>
bool
waitFor(double seconds, Ready &&ready)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    while (!ready()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
}

void
testCollectSplitsOnlyForLateRunners()
{
    // collectStudy splits the unclaimed ranges when a runner it has
    // not seen claim before starts mid-study. A leader that helps
    // nobody (smarts_runner --leader --no-work) usually polls before
    // any runner has claimed: its first runner is the study's first,
    // not a join, and must not split anything. A runner arriving
    // after another has started is a join, and must.
    const auto config = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const core::SamplingConfig sc = defaultSampling();
    const distrib::JobManifest manifest =
        shipStudy(spec, {config}, sc, 4);
    CHECK_EQ(manifest.jobCount(), std::size_t(4));
    // Every seed range is long enough to split (2 x the default 8).
    for (const distrib::UnitRange &r : manifest.ranges)
        CHECK(r.unitCount >= 16);
    const core::SmartsEstimate serial = serialRun(spec, config, sc);

    struct Collected
    {
        std::optional<std::vector<core::SmartsEstimate>> estimates;
        std::string error;
    };
    auto collect = [&manifest](Collected &out) {
        return std::thread([&manifest, &out] {
            out.estimates = distrib::collectStudy(
                kQueue, manifest, 120.0, nullptr, &out.error, 1.0);
        });
    };

    // One runner, started after the leader's first polls. Its first
    // job holds its claim past the leader's 1 s backoff cap, so the
    // leader polls while that claim is the only one.
    {
        resetQueue(manifest);
        Collected collected;
        std::thread leader = collect(collected);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        std::size_t executed = 0;
        {
            distrib::RunnerOptions options = runnerOpts("only", -1.0);
            bool first = true;
            options.onExecute = [&first](const std::string &) {
                if (std::exchange(first, false))
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1500));
            };
            distrib::Runner runner(kQueue, kStore, options);
            executed = runner.drain(manifest);
        }
        leader.join();
        CHECK(collected.estimates.has_value());
        CHECK_EQ(collected.error, std::string());
        if (collected.estimates)
            CHECK(fingerprint(collected.estimates->front()) ==
                  fingerprint(serial));
        CHECK_EQ(executed, manifest.jobCount());
        CHECK_EQ(distrib::listRanges(kQueue).size(),
                 manifest.ranges.size());
    }

    // A second runner joining while the first holds its first claim:
    // the leader has seen the first, so the second is a newcomer and
    // the two unclaimed ranges split. The second runner's first job
    // waits for the split before either runner moves on.
    {
        resetQueue(manifest);
        Collected collected;
        std::thread leader = collect(collected);
        std::atomic<bool> firstStarted{false}, release{false};
        bool splitSeen = false;

        distrib::RunnerOptions aOpt = runnerOpts("early", -1.0);
        aOpt.onExecute = [&](const std::string &) {
            if (firstStarted.exchange(true))
                return;
            waitFor(30.0, [&] { return release.load(); });
        };
        std::thread early([&] {
            distrib::Runner runner(kQueue, kStore, aOpt);
            runner.drain(manifest);
        });
        waitFor(30.0, [&] { return firstStarted.load(); });
        // Past the backoff cap: the leader has polled and seen "early".
        std::this_thread::sleep_for(std::chrono::milliseconds(1500));

        distrib::RunnerOptions bOpt = runnerOpts("late", -1.0);
        bool bFirst = true;
        bOpt.onExecute = [&](const std::string &) {
            if (!std::exchange(bFirst, false))
                return;
            splitSeen = waitFor(10.0, [&] {
                return distrib::listRanges(kQueue).size() >
                       manifest.ranges.size();
            });
            release = true;
        };
        {
            distrib::Runner runner(kQueue, kStore, bOpt);
            runner.drain(manifest);
        }
        release = true;
        early.join();
        leader.join();
        CHECK(splitSeen);
        CHECK(distrib::listRanges(kQueue).size() >
              manifest.ranges.size());
        CHECK(collected.estimates.has_value());
        if (collected.estimates)
            CHECK(fingerprint(collected.estimates->front()) ==
                  fingerprint(serial));
    }
}

} // namespace

int
main()
{
    fs::remove_all(kQueue);
    fs::remove_all(kStore);
    fs::create_directories(kQueue);
    fs::create_directories(kStore);

    testManifestRoundtripAndRefusals();
    testManifestCountsBounded();
    testConfigGeometryRefused();
    testResultRoundtripAndRefusals();
    testMergeBitIdentityAtRunnerCounts();
    testClaimsDuplicatesAndRecovery();
    testRunnerRepairsLivePoints();
    testPollBackoff();
    testClaimOrderPermutations();
    testHeartbeatAndStealing();
    testAwaitManifestPollsThroughRefusals();
    testUnitRangeStudy();
    testChaosElasticity();
    testCollectSplitsOnlyForLateRunners();
    TEST_MAIN_SUMMARY();
}
