/**
 * @file
 * MixLibrary: the checkpoint library of a CO-RUN (mp::MixSession)
 * sampling run, with positions counted in ROUNDS. It is the second
 * flavor of core::ShardLibrary — the same plan (a round is to a mix
 * what an instruction is to a solo run), capture walk, container and
 * loader ladder as core::CheckpointLibrary — and adds only its
 * identity block: the partition policy and the program list. On disk
 * it is the versioned `.smck` format (docs/checkpoint-format.md)
 * with flavor byte 1, so one CheckpointStore serves both tiers, and
 * a mis-flavored load refuses by name from either loader.
 */

#ifndef SMARTS_MP_MIX_LIBRARY_HH
#define SMARTS_MP_MIX_LIBRARY_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "mp/mix_session.hh"

namespace smarts::mp {

/** Full warm co-run state, resumable into a same-mix MixSession. */
struct MixCheckpoint
{
    using Session = MixSession;

    MixState state;

    /** Round position the checkpoint resumes at. */
    std::uint64_t position = 0;

    /** First measured grid index of the shard this resume feeds. */
    std::uint64_t unitIndex = 0;

    std::size_t
    byteSize() const
    {
        return state.byteSize() + 2 * sizeof(std::uint64_t);
    }

    /** True for an unfilled slot (no state captured or loaded). */
    bool
    empty() const
    {
        return state.archs.empty();
    }

    /** Snapshot @p session's state and round position. */
    void
    saveFrom(const MixSession &session)
    {
        session.saveState(state);
        position = session.roundCount();
    }

    void
    restoreInto(MixSession &session) const
    {
        session.restoreState(state);
    }

    /** Field order is normative: docs/checkpoint-format.md. */
    void
    write(util::BinaryWriter &out) const
    {
        out.u64(position);
        out.u64(unitIndex);
        state.write(out);
    }

    void
    read(util::BinaryReader &in)
    {
        position = in.u64();
        unitIndex = in.u64();
        state.read(in);
    }
};

/**
 * The shard plan plus every captured co-run resume checkpoint of one
 * (mix, machine, sampling design) — core::ShardLibrary's lifecycle
 * (capture, build, prepare/record/complete) and refusal discipline.
 */
class MixLibrary : public core::ShardLibrary<MixLibrary, MixCheckpoint>
{
  public:
    /**
     * Serialize under (@p mix, @p key) — @p key should be
     * mixKey(mix, machine, sampling) — and publish atomically at
     * @p path. False with @p error set on filesystem failure.
     */
    bool save(const WorkloadMix &mix, const core::LibraryKey &key,
              const std::string &path, std::string *error = nullptr,
              bool createDirs = true) const;

    /**
     * Load a mix library from @p path, refusing — nullopt plus a
     * diagnostic in @p error — on anything short of an exact match:
     * corrupt file, wrong version, a solo-flavor payload, a program
     * list or partition policy differing from @p expectMix, or a key
     * mismatch against @p expect.
     */
    static std::optional<MixLibrary>
    load(const std::string &path, const WorkloadMix &expectMix,
         const core::LibraryKey &expect,
         std::string *error = nullptr);

    /** Serialize to @p out (save() = serialize + checksummed file). */
    void serialize(const WorkloadMix &mix,
                   const core::LibraryKey &key,
                   util::BinaryWriter &out) const;
};

} // namespace smarts::mp

#endif // SMARTS_MP_MIX_LIBRARY_HH
