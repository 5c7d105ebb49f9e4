#include "mp/mix_library.hh"

#include "util/logging.hh"

namespace smarts::mp {

void
MixLibrary::serialize(const WorkloadMix &mix,
                      const core::LibraryKey &key,
                      util::BinaryWriter &out) const
{
    writeHeader(out, core::kCheckpointFlavorMix);
    // The mix identity block: the co-run state depends on EVERY
    // program's stream and on the partition policy, so both are part
    // of what a loader must match before resuming.
    out.u8(static_cast<std::uint8_t>(mix.policy));
    out.u32(static_cast<std::uint32_t>(mix.programs.size()));
    for (const workloads::BenchmarkSpec &spec : mix.programs) {
        out.str(spec.name);
        out.u32(static_cast<std::uint32_t>(spec.kernel));
        out.u32(spec.variant);
        out.u64(spec.seed);
        out.u32(static_cast<std::uint32_t>(spec.scale));
    }
    key.write(out);
    writePlanAndSlots(out);
}

bool
MixLibrary::save(const WorkloadMix &mix, const core::LibraryKey &key,
                 const std::string &path, std::string *error,
                 bool createDirs) const
{
    util::BinaryWriter out;
    serialize(mix, key, out);
    return out.writeFile(path, error, createDirs);
}

std::optional<MixLibrary>
MixLibrary::load(const std::string &path,
                 const WorkloadMix &expectMix,
                 const core::LibraryKey &expect, std::string *error)
{
    // Flavored payloads only exist from v2 on; a v1 file is always
    // solo state, so refuse it here by construction.
    static const Flavor mixFlavor{
        core::kCheckpointFlavorMix, core::kCheckpointFormatVersion,
        "; mix libraries exist only in version ",
        " (solo) state; load it through core::CheckpointLibrary, not "
        "the mix loader"};
    const std::size_t programCount = expectMix.programs.size();
    auto readMix = [&](util::BinaryReader &in) -> std::string {
        const auto policy = static_cast<mem::PartitionPolicy>(in.u8());
        const std::uint32_t count = in.u32();
        if (in.failed() || count > in.remaining())
            return log::format(" is corrupt (program count ", count,
                               ")");
        if (policy != expectMix.policy || count != programCount)
            return log::format(
                ": mix mismatch (file: ", count, " programs, policy ",
                mem::partitionPolicyName(policy), "; expected: ",
                programCount, " programs, policy ",
                mem::partitionPolicyName(expectMix.policy), ")");
        for (std::uint32_t p = 0; p < count; ++p) {
            workloads::BenchmarkSpec spec;
            spec.name = in.str();
            spec.kernel = static_cast<workloads::Kernel>(in.u32());
            spec.variant = in.u32();
            spec.seed = in.u64();
            spec.scale = static_cast<workloads::Scale>(in.u32());
            const workloads::BenchmarkSpec &want = expectMix.programs[p];
            if (spec.name != want.name || spec.kernel != want.kernel ||
                spec.variant != want.variant ||
                spec.seed != want.seed || spec.scale != want.scale)
                return log::format(": mix mismatch (program ", p,
                                   " is ", spec.name, ", expected ",
                                   want.name, ")");
        }
        return {};
    };
    auto checkLanes = [programCount](std::size_t s,
                                     const MixCheckpoint &cp) {
        if (cp.state.archs.size() == programCount &&
            cp.state.lanes.size() == programCount)
            return std::string();
        return log::format(" is corrupt (checkpoint ", s, " carries ",
                           cp.state.archs.size(), " programs for a ",
                           programCount, "-program mix)");
    };
    return loadContainer(path, expect, mixFlavor, readMix, checkLanes,
                         error);
}

} // namespace smarts::mp
