#include "core/checkpoint_store.hh"

#include <atomic>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "util/logging.hh"

namespace smarts::core {

namespace fs = std::filesystem;

namespace {

/** Service subdirectories below the store root. */
constexpr const char *kPinsDir = ".pins";
constexpr const char *kTrashDir = ".trash";

/** Per-process uniquifier for internal pin owners + trash names. */
std::string
uniqueTag()
{
    static std::atomic<unsigned> serial{0};
    return log::format(::getpid(), ".",
                             serial.fetch_add(1));
}

/** Entry rel-path flattened to one marker-safe filename piece. */
std::string
stemOf(const std::string &rel)
{
    std::string stem = rel;
    for (char &c : stem)
        if (c == '/')
            c = '~';
    return stem;
}

} // namespace

void
StoreLease::release()
{
    if (markerPath_.empty())
        return;
    std::error_code ec;
    fs::remove(markerPath_, ec);
    markerPath_.clear();
    entryPath_.clear();
}

CheckpointStore::CheckpointStore(std::string root)
    : CheckpointStore(std::move(root), StoreOptions{})
{
}

CheckpointStore::CheckpointStore(std::string root,
                                 StoreOptions options)
    : root_(std::move(root)), options_(options)
{
    if (root_.empty())
        SMARTS_FATAL("checkpoint store needs a root directory");
}

std::string
CheckpointStore::pathFor(const LibraryKey &key) const
{
    return (fs::path(root_) / key.dirName() / key.fileName())
        .string();
}

std::string
CheckpointStore::livePointPathFor(const LibraryKey &key) const
{
    return (fs::path(root_) / key.dirName() /
            key.livePointFileName())
        .string();
}

std::string
CheckpointStore::relFor(const LibraryKey &key, bool livePoints) const
{
    return key.dirName() + "/" +
           (livePoints ? key.livePointFileName() : key.fileName());
}

std::string
CheckpointStore::indexPath() const
{
    return (fs::path(root_) / "store-index").string();
}

StoreIndex &
CheckpointStore::indexLocked() const
{
    if (index_)
        return *index_;

    std::error_code ec;
    fs::create_directories(root_, ec);

    // Sweep trash a crashed GC left behind: those files were
    // renamed off their entry paths, so nothing can load them.
    const fs::path trash = fs::path(root_) / kTrashDir;
    if (fs::exists(trash, ec))
        for (const fs::directory_entry &e :
             fs::directory_iterator(trash, ec))
            fs::remove(e.path(), ec);

    std::string error;
    if (std::optional<StoreIndex> loaded =
            StoreIndex::load(indexPath(), &error)) {
        index_ = std::move(*loaded);
        if (index_->wantsCompaction())
            index_->saveSnapshot(indexPath());
        return *index_;
    }

    const bool hadJournal = fs::exists(indexPath(), ec);
    if (hadJournal)
        SMARTS_WARN("checkpoint store: ", error,
                    "; rebuilding the index by directory scan");
    index_ = StoreIndex::rebuild(root_);
    if (hadJournal || index_->entryCount() > 0) {
        rebuilds_.fetch_add(1, std::memory_order_relaxed);
        std::string snapError;
        if (!index_->saveSnapshot(indexPath(), &snapError))
            SMARTS_WARN("checkpoint store: cannot snapshot rebuilt "
                        "index: ",
                        snapError);
    }
    return *index_;
}

bool
CheckpointStore::entryExists(const std::string &rel) const
{
    std::lock_guard<std::mutex> lock(mu_);
    StoreIndex &index = indexLocked();
    if (index.contains(rel))
        return true;
    // Index miss: ONE disk probe — another process may have
    // published since our journal view. Finding it installs the
    // entry so the next check is free; this is the only place a
    // lookup stats the world.
    statCalls_.fetch_add(1, std::memory_order_relaxed);
    std::error_code ec;
    const std::uint64_t bytes =
        fs::file_size(fs::path(root_) / rel, ec);
    if (ec)
        return false;
    index.noteAdd(rel, bytes);
    return true;
}

void
CheckpointStore::ensureDirFor(const std::string &path) const
{
    const fs::path parent = fs::path(path).parent_path();
    if (parent.empty())
        return;
    std::lock_guard<std::mutex> lock(mu_);
    if (!ensuredDirs_.insert(parent.string()).second)
        return;
    std::error_code ec;
    fs::create_directories(parent, ec);
    dirEnsures_.fetch_add(1, std::memory_order_relaxed);
}

void
CheckpointStore::notePublish(const std::string &rel,
                             const std::string &path) const
{
    std::error_code ec;
    const std::uint64_t bytes = fs::file_size(path, ec);
    std::lock_guard<std::mutex> lock(mu_);
    StoreIndex &index = indexLocked();
    const std::uint64_t atime = index.noteAdd(rel, bytes);
    std::string error;
    if (!StoreIndex::appendRecord(indexPath(), StoreIndex::Op::Add,
                                  rel, bytes, atime, &error))
        SMARTS_WARN("checkpoint store: journal append failed: ",
                    error);
    saves_.fetch_add(1, std::memory_order_relaxed);
    if (options_.budgetBytes)
        gcLocked(nullptr);
    if (index.wantsCompaction())
        index.saveSnapshot(indexPath());
}

void
CheckpointStore::noteAccess(const std::string &rel) const
{
    std::lock_guard<std::mutex> lock(mu_);
    StoreIndex &index = indexLocked();
    const std::uint64_t atime = index.noteTouch(rel);
    if (atime == 0)
        return;
    touches_.fetch_add(1, std::memory_order_relaxed);
    StoreIndex::appendRecord(indexPath(), StoreIndex::Op::Touch,
                             rel, 0, atime);
}

void
CheckpointStore::noteVanished(const std::string &rel) const
{
    std::lock_guard<std::mutex> lock(mu_);
    StoreIndex &index = indexLocked();
    if (!index.contains(rel))
        return;
    index.noteRemove(rel);
    StoreIndex::appendRecord(indexPath(), StoreIndex::Op::Remove,
                             rel, 0, 0);
}

std::string
CheckpointStore::markerFor(const std::string &rel,
                           const std::string &owner) const
{
    return (fs::path(root_) / kPinsDir /
            (stemOf(rel) + "." + owner + ".pin"))
        .string();
}

bool
CheckpointStore::isPinned(const std::string &rel) const
{
    const std::string prefix = stemOf(rel) + ".";
    std::error_code ec;
    for (const fs::directory_entry &e : fs::directory_iterator(
             fs::path(root_) / kPinsDir, ec)) {
        const std::string name = e.path().filename().string();
        if (name.size() > prefix.size() + 4 &&
            name.compare(0, prefix.size(), prefix) == 0 &&
            name.compare(name.size() - 4, 4, ".pin") == 0)
            return true;
    }
    return false;
}

std::optional<StoreLease>
CheckpointStore::pin(const LibraryKey &key, bool livePoints,
                     const std::string &owner) const
{
    const std::string rel = relFor(key, livePoints);
    const std::string path =
        livePoints ? livePointPathFor(key) : pathFor(key);
    const std::string marker = markerFor(rel, owner);
    ensureDirFor(marker);

    // The distrib claim idiom: write a private temp, then
    // create_hard_link — an atomic create-exclusive, so exactly one
    // pin per (entry, owner) wins.
    const std::string tmp = marker + ".tmp." + uniqueTag();
    {
        std::ofstream out(tmp, std::ios::trunc);
        out << owner << "\n";
        if (!out)
            return std::nullopt;
    }
    std::error_code ec;
    fs::create_hard_link(tmp, marker, ec);
    std::error_code rmEc;
    fs::remove(tmp, rmEc);
    if (ec)
        return std::nullopt; // already held by this owner.

    // Marker first, THEN verify the entry file: GC checks markers
    // after its rename, so one of us is guaranteed to see the
    // other. An entry that is gone (or mid-eviction) refuses the
    // lease rather than protecting nothing.
    if (!fs::exists(path, ec) || ec) {
        fs::remove(marker, rmEc);
        return std::nullopt;
    }
    return StoreLease(marker, path);
}

std::uint64_t
CheckpointStore::touch(const LibraryKey &key, bool livePoints) const
{
    const std::string rel = relFor(key, livePoints);
    if (!entryExists(rel))
        return 0;
    std::lock_guard<std::mutex> lock(mu_);
    StoreIndex &index = indexLocked();
    const std::uint64_t atime = index.noteTouch(rel);
    if (atime != 0) {
        touches_.fetch_add(1, std::memory_order_relaxed);
        StoreIndex::appendRecord(indexPath(), StoreIndex::Op::Touch,
                                 rel, 0, atime);
    }
    return atime;
}

std::size_t
CheckpointStore::gc(std::string *error) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return gcLocked(error);
}

std::size_t
CheckpointStore::gcLocked(std::string *error) const
{
    StoreIndex &index = indexLocked();
    if (options_.budgetBytes == 0 ||
        index.totalBytes() <= options_.budgetBytes)
        return 0;
    gcRuns_.fetch_add(1, std::memory_order_relaxed);

    std::error_code ec;
    const fs::path trashDir = fs::path(root_) / kTrashDir;
    fs::create_directories(trashDir, ec);

    std::size_t evicted = 0;
    for (const auto &[rel, entry] : index.lruOrder()) {
        if (index.totalBytes() <= options_.budgetBytes)
            break;
        if (isPinned(rel)) {
            pinSkips_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        const fs::path src = fs::path(root_) / rel;
        const fs::path trash =
            trashDir / (stemOf(rel) + "." + uniqueTag());
        fs::rename(src, trash, ec);
        if (ec) {
            // Already gone (another process evicted, or the file
            // never landed): drop the stale index entry.
            index.noteRemove(rel);
            StoreIndex::appendRecord(indexPath(),
                                     StoreIndex::Op::Remove, rel, 0,
                                     0);
            continue;
        }
        if (isPinned(rel)) {
            // A pin landed between our check and the rename. The
            // pinner's verify may have already seen the entry
            // missing (it refuses the lease then), but if it holds
            // a lease the entry MUST survive: put it back.
            std::error_code backEc;
            fs::rename(trash, src, backEc);
            if (backEc && error)
                *error = log::format(
                    "cannot restore pinned ", rel, ": ",
                    backEc.message());
            pinSkips_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        fs::remove(trash, ec);
        ++evicted;
        evictions_.fetch_add(1, std::memory_order_relaxed);
        bytesEvicted_.fetch_add(entry.bytes,
                                std::memory_order_relaxed);
        index.noteRemove(rel);
        StoreIndex::appendRecord(indexPath(),
                                 StoreIndex::Op::Remove, rel, 0, 0);
    }
    return evicted;
}

std::uint64_t
CheckpointStore::totalBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return indexLocked().totalBytes();
}

StoreCounters
CheckpointStore::counters() const
{
    StoreCounters c;
    c.hits = hits_.load(std::memory_order_relaxed);
    c.misses = misses_.load(std::memory_order_relaxed);
    c.refusals = refusals_.load(std::memory_order_relaxed);
    c.saves = saves_.load(std::memory_order_relaxed);
    c.touches = touches_.load(std::memory_order_relaxed);
    c.evictions = evictions_.load(std::memory_order_relaxed);
    c.bytesEvicted = bytesEvicted_.load(std::memory_order_relaxed);
    c.statCalls = statCalls_.load(std::memory_order_relaxed);
    c.dirEnsures = dirEnsures_.load(std::memory_order_relaxed);
    c.pinSkips = pinSkips_.load(std::memory_order_relaxed);
    c.rebuilds = rebuilds_.load(std::memory_order_relaxed);
    c.gcRuns = gcRuns_.load(std::memory_order_relaxed);
    return c;
}

bool
CheckpointStore::contains(const LibraryKey &key) const
{
    return entryExists(relFor(key, /*livePoints=*/false));
}

std::optional<CheckpointLibrary>
CheckpointStore::tryLoad(const LibraryKey &key,
                         std::string *error) const
{
    std::optional<CheckpointLibrary> library;
    loadAt(
        key, /*livePoints=*/false,
        [&](const std::string &path, std::string *loadError) {
            library = CheckpointLibrary::load(path, key, loadError);
            return library.has_value();
        },
        error);
    return library;
}

bool
CheckpointStore::save(const LibraryKey &key,
                      const CheckpointLibrary &library,
                      std::string *error) const
{
    if (!library.complete()) {
        if (error)
            *error = "library is incomplete (capture ended before "
                     "every shard boundary)";
        return false;
    }
    return publishAt(
        key, /*livePoints=*/false,
        [&](const std::string &path, std::string *saveError) {
            return library.save(key, path, saveError,
                                /*createDirs=*/false);
        },
        error);
}

bool
CheckpointStore::loadEntry(const LibraryKey &key, const EntryIo &loader,
                           std::string *error) const
{
    return loadAt(key, /*livePoints=*/false, loader, error);
}

bool
CheckpointStore::loadAt(const LibraryKey &key, bool livePoints,
                        const EntryIo &loader, std::string *error) const
{
    if (error)
        error->clear();
    const std::string rel = relFor(key, livePoints);
    const std::string path =
        livePoints ? livePointPathFor(key) : pathFor(key);
    if (!entryExists(rel)) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false; // plain miss, no diagnostic.
    }

    // Pin while reading so concurrent GC leaves the bytes alone; a
    // refused lease means the entry vanished under us — that is a
    // clean miss, not a refusal.
    std::optional<StoreLease> lease =
        pin(key, livePoints, "ld" + uniqueTag());
    if (!lease) {
        noteVanished(rel);
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }

    if (loader(path, error)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        noteAccess(rel);
        return true;
    }
    std::error_code ec;
    if (!fs::exists(path, ec)) {
        // Evicted between the pin race and the open: clean miss.
        if (error)
            error->clear();
        noteVanished(rel);
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    refusals_.fetch_add(1, std::memory_order_relaxed);
    return false;
}

bool
CheckpointStore::publishEntry(const LibraryKey &key,
                              const EntryIo &writer,
                              std::string *error) const
{
    return publishAt(key, /*livePoints=*/false, writer, error);
}

bool
CheckpointStore::publishAt(const LibraryKey &key, bool livePoints,
                           const EntryIo &writer,
                           std::string *error) const
{
    const std::string path =
        livePoints ? livePointPathFor(key) : pathFor(key);
    ensureDirFor(path);
    if (!writer(path, error))
        return false;
    notePublish(relFor(key, livePoints), path);
    return true;
}

std::optional<LivePointLibrary>
CheckpointStore::tryLoadLivePoints(const LibraryKey &key,
                                   std::string *error) const
{
    std::optional<LivePointLibrary> library;
    loadAt(
        key, /*livePoints=*/true,
        [&](const std::string &path, std::string *loadError) {
            library =
                LivePointLibrary::load(path, key, loadError, recycler_);
            return library.has_value();
        },
        error);
    return library;
}

bool
CheckpointStore::saveLivePoints(const LivePointLibrary &library,
                                const LibraryKey &key,
                                std::string *error) const
{
    return publishAt(
        key, /*livePoints=*/true,
        [&](const std::string &path, std::string *saveError) {
            return library.save(key, path, saveError,
                                /*createDirs=*/false);
        },
        error);
}

bool
CheckpointStore::saveLivePoints(const EncodedLivePoints &records,
                                const LibraryKey &key,
                                std::string *error) const
{
    return publishAt(
        key, /*livePoints=*/true,
        [&](const std::string &path, std::string *saveError) {
            return records.save(key, path, saveError,
                                /*createDirs=*/false);
        },
        error);
}

std::size_t
CheckpointStore::captureMissing(
    const workloads::BenchmarkSpec &spec,
    const std::vector<uarch::MachineConfig> &configs,
    const SamplingConfig &sampling, bool livePoints,
    const std::function<void(MultiSession &,
                             const std::vector<LibraryKey> &)> &capture)
    const
{
    // Collect the configs whose key is missing, deduplicating
    // geometry-equal configs (their warm state is identical, so one
    // captured library serves them all). "Present" means a library
    // that actually LOADS — a file that exists but refuses (stale
    // version, corruption) is a miss to recapture, or ensure()
    // would report configs as stored that nothing can resume.
    std::vector<uarch::MachineConfig> missing;
    std::vector<LibraryKey> missingKeys;
    for (const uarch::MachineConfig &config : configs) {
        const LibraryKey key = LibraryKey::of(spec, config, sampling);
        std::string error;
        if (livePoints ? tryLoadLivePoints(key, &error).has_value()
                       : tryLoad(key, &error).has_value())
            continue;
        if (!error.empty())
            SMARTS_WARN("checkpoint store: recapturing ",
                        livePoints ? "live-points " : "", "(", error,
                        ")");
        bool duplicate = false;
        for (const LibraryKey &seen : missingKeys)
            duplicate |= seen.geometryHash == key.geometryHash;
        if (duplicate)
            continue;
        missing.push_back(config);
        missingKeys.push_back(key);
    }
    if (missing.empty())
        return 0;
    MultiSession session(spec, missing);
    capture(session, missingKeys);
    return missingKeys.size();
}

std::size_t
CheckpointStore::ensure(
    const workloads::BenchmarkSpec &spec,
    const std::vector<uarch::MachineConfig> &configs,
    const SamplingConfig &sampling, std::uint64_t streamLength,
    std::size_t shards) const
{
    return captureMissing(
        spec, configs, sampling, /*livePoints=*/false,
        [&](MultiSession &session, const std::vector<LibraryKey> &keys) {
            const std::vector<CheckpointLibrary> libraries =
                CheckpointLibrary::buildMulti(
                    session, sampling,
                    CheckpointLibrary::planShards(sampling, streamLength,
                                                  shards));
            for (std::size_t i = 0; i < libraries.size(); ++i) {
                std::string error;
                if (!save(keys[i], libraries[i], &error))
                    SMARTS_FATAL("checkpoint store: cannot save ",
                                 pathFor(keys[i]), ": ", error);
            }
        });
}

std::size_t
CheckpointStore::ensureLivePoints(
    const workloads::BenchmarkSpec &spec,
    const std::vector<uarch::MachineConfig> &configs,
    const SamplingConfig &sampling) const
{
    return captureMissing(
        spec, configs, sampling, /*livePoints=*/true,
        [&](MultiSession &session, const std::vector<LibraryKey> &keys) {
            const std::vector<LivePointLibrary> libraries =
                LivePointLibrary::buildMulti(session, sampling);
            for (std::size_t i = 0; i < libraries.size(); ++i) {
                std::string error;
                if (!saveLivePoints(libraries[i], keys[i], &error))
                    SMARTS_FATAL("checkpoint store: cannot save ",
                                 livePointPathFor(keys[i]), ": ",
                                 error);
            }
        });
}

} // namespace smarts::core
