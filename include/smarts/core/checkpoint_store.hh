/**
 * @file
 * CheckpointStore: a directory of persisted checkpoint libraries,
 * keyed by LibraryKey — benchmark, sampling design, and the machine
 * config's warm-state geometry hash. The layout is one subdirectory
 * per (benchmark, scale) holding one `.smck` file per (sampling,
 * geometry) key:
 *
 *   <root>/<benchmark>-<scale>/U<u>_W<w>_k<k>_j<j>_<warm>_g<hash>.smck
 *
 * The store is the reuse point the ROADMAP names: a library captured
 * by one process serves every later one — the two-pass procedure's
 * second run, repeated design studies, latency/energy sweeps (whose
 * configs hash to the same geometry), and external runners that
 * speak the documented format.
 *
 * Beyond the lab-artifact basics, the store is a bounded cache
 * service (docs/store-service.md):
 *
 *  - A byte budget (StoreOptions::budgetBytes) with LRU-by-atime GC.
 *    Access order is a LOGICAL clock persisted in a journaled
 *    `store-index` file (core/store_index.hh), so GC picks victims
 *    without statting the world and tests can script the sequence.
 *  - Concurrent-reader-safe eviction: GC renames victims into
 *    `<root>/.trash/` before deleting, so an already-open reader
 *    keeps its intact bytes (POSIX) and a racing opener gets a
 *    clean miss, never a torn file.
 *  - A pin/lease protocol: hard-link markers under `<root>/.pins/`
 *    (the distrib claim idiom) exempt an entry from eviction while
 *    a holder measures from it; StoreLease releases on destruction.
 *  - Op counters (hits/misses/refusals/evictions/stat calls...) so
 *    cache behavior is assertable in tests and exportable by the
 *    store daemon (tools/smarts_stored.cc) as BENCH_store.json.
 *
 * Loads verify everything (docs/checkpoint-format.md): checksum,
 * format version, and the full key. A file that fails any check is
 * treated as a miss — recapture, never mis-warm.
 */

#ifndef SMARTS_CORE_CHECKPOINT_STORE_HH
#define SMARTS_CORE_CHECKPOINT_STORE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <atomic>

#include "core/checkpoint.hh"
#include "core/livepoint.hh"
#include "core/store_index.hh"

namespace smarts::core {

/** Cache policy knobs (defaults reproduce the unbounded store). */
struct StoreOptions
{
    /** Byte budget over tracked entries; 0 = never evict. */
    std::uint64_t budgetBytes = 0;
};

/** Point-in-time snapshot of the store's operation counters. */
struct StoreCounters
{
    std::uint64_t hits = 0;      ///< loads served from a valid file.
    std::uint64_t misses = 0;    ///< no file for the key.
    std::uint64_t refusals = 0;  ///< file present but failed checks.
    std::uint64_t saves = 0;     ///< libraries published.
    std::uint64_t touches = 0;   ///< atime bumps (hits + touch()).
    std::uint64_t evictions = 0; ///< entries GC removed.
    std::uint64_t bytesEvicted = 0;
    std::uint64_t statCalls = 0;  ///< entry-existence probes on disk.
    std::uint64_t dirEnsures = 0; ///< create_directories actually run.
    std::uint64_t pinSkips = 0;   ///< evictions vetoed by a pin.
    std::uint64_t rebuilds = 0;   ///< index rebuilt by directory scan.
    std::uint64_t gcRuns = 0;
};

/**
 * RAII pin: while alive, GC will not evict the leased entry. Move-
 * only; the destructor removes the pin marker. Obtained from
 * CheckpointStore::pin() — nullopt means the (entry, owner) pin is
 * already held or the entry vanished first.
 */
class StoreLease
{
  public:
    StoreLease() = default;
    StoreLease(StoreLease &&other) noexcept { swap(other); }
    StoreLease &
    operator=(StoreLease &&other) noexcept
    {
        release();
        swap(other);
        return *this;
    }
    StoreLease(const StoreLease &) = delete;
    StoreLease &operator=(const StoreLease &) = delete;
    ~StoreLease() { release(); }

    explicit operator bool() const { return !markerPath_.empty(); }

    /** Absolute path of the pinned library file. */
    const std::string &
    entryPath() const
    {
        return entryPath_;
    }

    /** Drop the pin now (idempotent). */
    void release();

  private:
    friend class CheckpointStore;
    StoreLease(std::string marker, std::string entry)
        : markerPath_(std::move(marker)), entryPath_(std::move(entry))
    {
    }
    void
    swap(StoreLease &other) noexcept
    {
        markerPath_.swap(other.markerPath_);
        entryPath_.swap(other.entryPath_);
    }

    std::string markerPath_;
    std::string entryPath_;
};

class CheckpointStore
{
  public:
    /** Open (lazily creating) the store rooted at @p root. */
    explicit CheckpointStore(std::string root);

    /** Open with cache policy (budget ⇒ GC after saves). */
    CheckpointStore(std::string root, StoreOptions options);

    const std::string &
    root() const
    {
        return root_;
    }

    const StoreOptions &
    options() const
    {
        return options_;
    }

    /** Absolute-or-relative path a key's library lives at. */
    std::string pathFor(const LibraryKey &key) const;

    /** True when a file exists for @p key (index first, then disk). */
    bool contains(const LibraryKey &key) const;

    /**
     * Load and fully validate @p key's library. A missing file is a
     * silent miss (empty @p error); an existing file that refuses —
     * corrupt, wrong version, mis-keyed — is a miss with the
     * diagnostic in @p error. The load runs under an internal pin
     * so concurrent GC never unlinks the entry mid-read.
     */
    std::optional<CheckpointLibrary>
    tryLoad(const LibraryKey &key, std::string *error = nullptr) const;

    /** Persist @p library under @p key (atomic publish + GC). */
    bool save(const LibraryKey &key, const CheckpointLibrary &library,
              std::string *error = nullptr) const;

    /**
     * Make sure a library exists for every config of an N-config
     * design study, capturing ALL misses in ONE MultiSession
     * streaming pass (CheckpointLibrary::buildMulti). Configs whose
     * geometry hashes collide — e.g. a latency-only sweep — share a
     * key and are captured once. Returns the number of libraries
     * captured (0 = every config was already stored).
     */
    std::size_t ensure(const workloads::BenchmarkSpec &spec,
                       const std::vector<uarch::MachineConfig> &configs,
                       const SamplingConfig &sampling,
                       std::uint64_t streamLength,
                       std::size_t shards) const;

    /**
     * Path of @p key's LIVE-POINT library (core/livepoint.hh): same
     * directory and stem as the shard library, `.smlp` extension.
     */
    std::string livePointPathFor(const LibraryKey &key) const;

    /**
     * Load and fully validate @p key's live-point library, with the
     * same miss semantics as tryLoad: a missing file is a silent
     * miss, an existing file that refuses is a miss with the
     * diagnostic — naming the failing record or mismatched key
     * component — in @p error. Loads through one store share a
     * LivePointRecycler: each parses into the memory of the library
     * released before it.
     */
    std::optional<LivePointLibrary>
    tryLoadLivePoints(const LibraryKey &key,
                      std::string *error = nullptr) const;

    /** Persist @p library under @p key (atomic publish + GC). */
    bool saveLivePoints(const LivePointLibrary &library,
                        const LibraryKey &key,
                        std::string *error = nullptr) const;

    /** Persist the leapfrog cold path's encoded records the same
     *  way (runAnytimeLeapfrog's persist sink). */
    bool saveLivePoints(const EncodedLivePoints &records,
                        const LibraryKey &key,
                        std::string *error = nullptr) const;

    /**
     * Make sure a live-point library exists for every config of an
     * N-config study, capturing ALL misses in ONE MultiSession
     * streaming pass (LivePointLibrary::buildMulti), deduplicating
     * geometry-equal configs exactly as ensure() does. Returns the
     * number of libraries captured (0 = every config was stored).
     */
    std::size_t
    ensureLivePoints(const workloads::BenchmarkSpec &spec,
                     const std::vector<uarch::MachineConfig> &configs,
                     const SamplingConfig &sampling) const;

    /**
     * Generic flavor of tryLoad for payloads the core does not know
     * how to parse (e.g. mp::MixLibrary): the full store protocol —
     * index-first existence check, pinned read, hit/miss/refusal
     * accounting, vanished-entry cleanup — around a caller-supplied
     * @p loader that reads and validates the file at the entry's
     * path. Returns true on a hit (loader succeeded); a missing
     * entry is a silent miss (empty @p error), a loader refusal on a
     * still-existing file is a miss with the loader's diagnostic.
     */
    bool loadEntry(const LibraryKey &key,
                   const std::function<bool(const std::string &path,
                                            std::string *error)> &loader,
                   std::string *error = nullptr) const;

    /**
     * Generic flavor of save: directory creation, the atomic
     * publish (the @p writer must go through BinaryWriter::writeFile
     * or an equivalent temp+rename), and index/journal/GC
     * bookkeeping around a caller-supplied @p writer.
     */
    bool publishEntry(const LibraryKey &key,
                      const std::function<bool(const std::string &path,
                                               std::string *error)> &writer,
                      std::string *error = nullptr) const;

    // --- cache service surface -----------------------------------

    /**
     * Pin @p key's entry (shard library, or live-point library when
     * @p livePoints) against eviction. One pin per (entry, owner):
     * a second pin() with the same owner while the first lease is
     * alive returns nullopt — the exclusivity the daemon's single-
     * flight capture keys off. Also nullopt when the entry does not
     * exist (nothing to protect).
     */
    std::optional<StoreLease> pin(const LibraryKey &key,
                                  bool livePoints,
                                  const std::string &owner) const;

    /**
     * Record an access to @p key's entry without loading it: bumps
     * the logical atime (journaled), making the entry most-recently
     * used. Returns the new atime, or 0 when the entry is not
     * tracked. This is how tests script an exact LRU sequence and
     * how the daemon marks remote hits.
     */
    std::uint64_t touch(const LibraryKey &key, bool livePoints) const;

    /**
     * Evict least-recently-used entries until tracked bytes fit the
     * budget (no-op when unbounded or already within). Pinned
     * entries are skipped. Returns the number evicted. Runs
     * automatically after each save when a budget is set; public so
     * tests and the daemon can force a pass.
     */
    std::size_t gc(std::string *error = nullptr) const;

    /** Bytes currently tracked by the index. */
    std::uint64_t totalBytes() const;

    /** Counter snapshot (atomic reads; safe while others operate). */
    StoreCounters counters() const;

    /** The journal path (`<root>/store-index`). */
    std::string indexPath() const;

  private:
    /** Key's path relative to the root ('/'-separated). */
    std::string relFor(const LibraryKey &key, bool livePoints) const;

    using EntryIo = std::function<bool(const std::string &path,
                                       std::string *error)>;

    /** loadEntry for either entry kind (the one load protocol). */
    bool loadAt(const LibraryKey &key, bool livePoints,
                const EntryIo &loader, std::string *error) const;

    /** publishEntry for either entry kind (the one publish path). */
    bool publishAt(const LibraryKey &key, bool livePoints,
                   const EntryIo &writer, std::string *error) const;

    /**
     * The miss/dedup loop of ensure() and ensureLivePoints(): the
     * configs whose key (in the live-point store when @p livePoints)
     * has no library that loads, one per geometry hash, captured in
     * one MultiSession that @p capture streams and saves from.
     * Returns the number of libraries captured.
     */
    std::size_t captureMissing(
        const workloads::BenchmarkSpec &spec,
        const std::vector<uarch::MachineConfig> &configs,
        const SamplingConfig &sampling, bool livePoints,
        const std::function<void(MultiSession &,
                                 const std::vector<LibraryKey> &)>
            &capture) const;

    /** Lazily load-or-rebuild the index; callers hold @c mu_. */
    StoreIndex &indexLocked() const;

    /**
     * Existence check that prefers the in-memory index and falls
     * back to ONE disk probe (counted in statCalls) for entries
     * another process may have published; a probe that finds the
     * file installs it in the index so the next check is free.
     */
    bool entryExists(const std::string &rel) const;

    /** Memoized create_directories for an entry path's parent. */
    void ensureDirFor(const std::string &path) const;

    /** Record a publish: index Add + journal append + GC. */
    void notePublish(const std::string &rel,
                     const std::string &path) const;

    /** Record a hit: atime bump + journal Touch. */
    void noteAccess(const std::string &rel) const;

    /** Drop a vanished entry from index + journal. */
    void noteVanished(const std::string &rel) const;

    /** Pin-marker path for (entry rel-path, owner). */
    std::string markerFor(const std::string &rel,
                          const std::string &owner) const;

    /** Any pin marker alive for @p rel? */
    bool isPinned(const std::string &rel) const;

    /** Evict under @c mu_; shared by gc() and the post-save hook. */
    std::size_t gcLocked(std::string *error) const;

    std::string root_;
    StoreOptions options_;

    mutable std::mutex mu_;
    mutable std::optional<StoreIndex> index_;
    mutable std::set<std::string> ensuredDirs_;

    /** The live-point loads' decode memory, reused hit to hit. */
    std::shared_ptr<LivePointRecycler> recycler_ =
        std::make_shared<LivePointRecycler>();

    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    mutable std::atomic<std::uint64_t> refusals_{0};
    mutable std::atomic<std::uint64_t> saves_{0};
    mutable std::atomic<std::uint64_t> touches_{0};
    mutable std::atomic<std::uint64_t> evictions_{0};
    mutable std::atomic<std::uint64_t> bytesEvicted_{0};
    mutable std::atomic<std::uint64_t> statCalls_{0};
    mutable std::atomic<std::uint64_t> dirEnsures_{0};
    mutable std::atomic<std::uint64_t> pinSkips_{0};
    mutable std::atomic<std::uint64_t> rebuilds_{0};
    mutable std::atomic<std::uint64_t> gcRuns_{0};
};

} // namespace smarts::core

#endif // SMARTS_CORE_CHECKPOINT_STORE_HH
