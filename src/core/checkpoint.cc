#include "core/checkpoint.hh"

#include <algorithm>
#include <cstdio>

#include "core/capture.hh"
#include "uarch/config.hh"
#include "util/logging.hh"

namespace smarts::core {

namespace {

const char *
warmingName(WarmingMode mode)
{
    switch (mode) {
      case WarmingMode::None: return "none";
      case WarmingMode::CachesOnly: return "cache";
      case WarmingMode::BpredOnly: return "bpred";
      case WarmingMode::Functional: return "func";
    }
    return "?";
}

const char *
scaleName(workloads::Scale scale)
{
    switch (scale) {
      case workloads::Scale::Mini: return "mini";
      case workloads::Scale::Small: return "small";
      case workloads::Scale::Large: return "large";
    }
    return "?";
}

} // namespace

LibraryKey
LibraryKey::of(const workloads::BenchmarkSpec &spec,
               const uarch::MachineConfig &config,
               const SamplingConfig &sampling)
{
    LibraryKey key;
    key.benchmark = spec;
    key.geometryHash = uarch::warmGeometryHash(config);
    key.sampling = sampling;
    return key;
}

void
LibraryKey::write(util::BinaryWriter &out) const
{
    benchmark.write(out);
    out.u64(geometryHash);
    out.u64(sampling.unitSize);
    out.u64(sampling.detailedWarming);
    out.u64(sampling.interval);
    out.u64(sampling.offset);
    out.u32(static_cast<std::uint32_t>(sampling.warming));
}

LibraryKey
LibraryKey::read(util::BinaryReader &in)
{
    LibraryKey key;
    key.benchmark = workloads::BenchmarkSpec::read(in);
    key.geometryHash = in.u64();
    key.sampling.unitSize = in.u64();
    key.sampling.detailedWarming = in.u64();
    key.sampling.interval = in.u64();
    key.sampling.offset = in.u64();
    key.sampling.warming = static_cast<WarmingMode>(in.u32());
    return key;
}

std::string
LibraryKey::dirName() const
{
    return log::format(benchmark.name, "-",
                       scaleName(benchmark.scale));
}

namespace {

std::string
keyFileStem(const LibraryKey &key)
{
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(key.geometryHash));
    return log::format("U", key.sampling.unitSize, "_W",
                       key.sampling.detailedWarming, "_k",
                       key.sampling.interval, "_j",
                       key.sampling.offset, "_",
                       warmingName(key.sampling.warming), "_g", hash);
}

} // namespace

std::string
LibraryKey::fileName() const
{
    return keyFileStem(*this) + ".smck";
}

std::string
LibraryKey::livePointFileName() const
{
    return keyFileStem(*this) + ".smlp";
}

std::string
LibraryKey::mismatchAgainst(const LibraryKey &other) const
{
    // Each refusal names the component that differs and prints it
    // from both keys, so the two printed values always differ.
    auto mismatch = [](const std::string &what, const auto &file,
                       const auto &expected) {
        return log::format(what, " mismatch (file: ", file,
                           ", expected: ", expected, ")");
    };
    auto label = [](const workloads::BenchmarkSpec &b) {
        return log::format(b.name, "-", scaleName(b.scale));
    };
    const workloads::BenchmarkSpec &fileBench = other.benchmark;
    if (benchmark.name != fileBench.name ||
        benchmark.scale != fileBench.scale)
        return mismatch("benchmark", label(fileBench),
                        label(benchmark));
    const std::string bench = "benchmark " + label(benchmark);
    if (benchmark.kernel != fileBench.kernel)
        return mismatch(bench + " kernel",
                        static_cast<std::uint32_t>(fileBench.kernel),
                        static_cast<std::uint32_t>(benchmark.kernel));
    if (benchmark.variant != fileBench.variant)
        return mismatch(bench + " variant", fileBench.variant,
                        benchmark.variant);
    if (benchmark.seed != fileBench.seed)
        return mismatch(bench + " seed", fileBench.seed,
                        benchmark.seed);

    auto design = [](const SamplingConfig &sc) {
        return log::format("U", sc.unitSize, "/W", sc.detailedWarming,
                           "/k", sc.interval, "/j", sc.offset);
    };
    if (design(sampling) != design(other.sampling))
        return mismatch("sampling-design", design(other.sampling),
                        design(sampling));
    if (sampling.warming != other.sampling.warming)
        return mismatch("warming-mode",
                        warmingName(other.sampling.warming),
                        warmingName(sampling.warming));
    if (geometryHash != other.geometryHash) {
        char fileHash[17], wantHash[17];
        std::snprintf(fileHash, sizeof fileHash, "%016llx",
                      static_cast<unsigned long long>(
                          other.geometryHash));
        std::snprintf(wantHash, sizeof wantHash, "%016llx",
                      static_cast<unsigned long long>(geometryHash));
        return log::format(
            "config-geometry hash mismatch (file: ", fileHash,
            ", expected: ", wantHash,
            " — the machine's caches/TLBs/predictor differ from "
            "the capture machine's)");
    }
    return {};
}

std::string
LibraryKey::defect() const
{
    if (benchmark.kernel > workloads::Kernel::Mix)
        return log::format("unknown benchmark kernel ",
                           static_cast<std::uint32_t>(benchmark.kernel));
    if (benchmark.scale > workloads::Scale::Large)
        return log::format("unknown benchmark scale ",
                           static_cast<std::uint32_t>(benchmark.scale));
    if (sampling.warming > WarmingMode::Functional)
        return log::format("unknown warming mode ",
                           static_cast<std::uint32_t>(sampling.warming));
    if (!sampling.unitSize || !sampling.interval)
        return log::format("zero unit size or interval (U",
                           sampling.unitSize, ", k", sampling.interval,
                           ")");
    return {};
}

std::vector<ShardSpec>
CheckpointLibrary::planShards(const SamplingConfig &config,
                              std::uint64_t streamLength,
                              std::size_t shards)
{
    const std::uint64_t u = config.unitSize;
    const std::uint64_t k = config.interval;
    const std::uint64_t offset = config.offset;
    if (!u || !k)
        SMARTS_FATAL("planShards needs nonzero unit size and interval");

    // Measured units whose start lies inside the stream (the last
    // may be truncated; the serial loop still iterates it).
    std::uint64_t unitCount = 0;
    if (streamLength && offset <= (streamLength - 1) / u)
        unitCount = ((streamLength - 1) / u - offset) / k + 1;

    const std::uint64_t want = shards ? shards : 1;
    const std::uint64_t count =
        std::max<std::uint64_t>(
            1, std::min<std::uint64_t>(want, unitCount ? unitCount
                                                       : 1));

    std::vector<ShardSpec> plan(count);
    for (std::uint64_t s = 0; s < count; ++s) {
        const std::uint64_t mBegin = unitCount * s / count;
        const std::uint64_t mEnd = unitCount * (s + 1) / count;
        plan[s].firstUnitIndex = offset + mBegin * k;
        plan[s].unitCount = mEnd - mBegin;
        // The serial loop reaches unit mBegin's iteration exactly at
        // the previous measured unit's end (shard boundaries are
        // interior, so that unit is complete).
        plan[s].resumePos =
            s == 0 ? 0 : (offset + (mBegin - 1) * k) * u + u;
        plan[s].runsTail = s + 1 == count;
    }
    return plan;
}

std::string
CheckpointLibrary::validatePlan(const SamplingConfig &config,
                                const std::vector<ShardSpec> &plan)
{
    if (plan.empty())
        return "the plan has no shards";
    if (!config.unitSize || !config.interval)
        return "the sampling design has a zero unit size or interval";
    std::uint64_t expectIdx = config.offset;
    for (std::size_t s = 0; s < plan.size(); ++s) {
        const ShardSpec &shard = plan[s];
        const bool contiguous =
            shard.firstUnitIndex == expectIdx &&
            shard.firstUnitIndex <= ~0ull / config.unitSize &&
            shard.runsTail == (s + 1 == plan.size()) &&
            (s == 0 ||
             (shard.unitCount >= 1 &&
              shard.resumePos ==
                  (shard.firstUnitIndex - config.interval) *
                          config.unitSize +
                      config.unitSize)) &&
            (s > 0 || shard.resumePos == 0);
        if (!contiguous)
            return log::format("shard ", s,
                               " breaks the contiguous plan "
                               "geometry");
        // Overflow-checked advance: a hostile plan (the checksum
        // only proves the writer was careful, not honest) could
        // pick unitCount * interval ≡ 0 mod 2^64 so the next shard
        // "contiguously" overlaps this one — wrapping here would
        // accept exactly the overlapping plan this function exists
        // to refuse.
        if (shard.unitCount > ~0ull / config.interval)
            return log::format("shard ", s,
                               " has an overflowing unit count");
        const std::uint64_t span = shard.unitCount * config.interval;
        if (expectIdx > ~0ull - span)
            return log::format("shard ", s,
                               " has an overflowing unit count");
        expectIdx += span;
    }
    return {};
}

void
CheckpointLibrary::capture(SimSession &session,
                           const SamplingConfig &config,
                           const std::vector<ShardSpec> &plan,
                           const CheckpointSink &sink)
{
    SplitCapture split(session);
    detail::captureShards(split, config, plan, [&](std::size_t s) {
        // All but the memory hierarchy here, at the boundary; the
        // hierarchy where the warming thread reaches it.
        ArchCheckpoint cp;
        split.saveCore(cp.arch, cp.timing);
        cp.position = cp.arch.instCount;
        cp.unitIndex = plan[s].firstUnitIndex;
        split.atWarmer([&sink, s, cp = std::move(cp)](
                           const mem::MemHierarchy &memory) mutable {
            memory.saveState(cp.timing.mem);
            sink(s, std::move(cp));
        });
    });
    split.finish();
}

std::vector<CheckpointLibrary>
CheckpointLibrary::buildMulti(MultiSession &session,
                              const SamplingConfig &config,
                              const std::vector<ShardSpec> &plan)
{
    std::vector<CheckpointLibrary> libraries(
        session.configCount(), prepare(config, plan));

    ArchState arch;
    std::vector<TimingState> timings;
    detail::captureShards(session, config, plan, [&](std::size_t s) {
        // One architectural snapshot, one timing snapshot per
        // config: library c gets exactly the checkpoint a
        // single-config capture of config c would have taken here.
        session.saveState(arch, timings);
        for (std::size_t c = 0; c < libraries.size(); ++c) {
            ArchCheckpoint cp;
            cp.arch = arch;
            cp.timing = std::move(timings[c]);
            cp.position = session.instCount();
            cp.unitIndex = plan[s].firstUnitIndex;
            libraries[c].checkpoints_[s] = std::move(cp);
        }
    });
    for (const CheckpointLibrary &library : libraries)
        library.requireComplete();
    return libraries;
}

void
CheckpointLibrary::serialize(const LibraryKey &key,
                             util::BinaryWriter &out) const
{
    writeHeader(out, kCheckpointFlavorSolo);
    key.write(out);
    writePlanAndSlots(out);
}

bool
CheckpointLibrary::save(const LibraryKey &key, const std::string &path,
                        std::string *error, bool createDirs) const
{
    util::BinaryWriter out;
    serialize(key, out);
    return out.writeFile(path, error, createDirs);
}

std::optional<CheckpointLibrary>
CheckpointLibrary::load(const std::string &path,
                        const LibraryKey &expect, std::string *error)
{
    // v1 files (no flavor byte, always solo state) still load: the
    // v1→v2 migration path. The solo flavor has no identity block
    // beyond the key.
    static const Flavor solo{
        kCheckpointFlavorSolo, 1,
        " (co-run mix) state; load it through mp::MixLibrary, not "
        "the solo library loader"};
    return loadContainer(
        path, expect, solo,
        [](util::BinaryReader &) { return std::string(); },
        [](std::size_t, const ArchCheckpoint &) {
            return std::string();
        },
        error);
}

} // namespace smarts::core
