#include "core/store_index.hh"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "util/binary_io.hh"
#include "util/logging.hh"

namespace smarts::core {

namespace fs = std::filesystem;

namespace {

/** The journal header (util::FileKind). */
constexpr util::FileKind kStoreIndexFile{
    "SMRTSIDX", kStoreIndexFormatVersion, kStoreIndexFormatVersion,
    "store index", "format version"};

/**
 * One journal record: the encoded fields followed by the FNV-1a of
 * exactly those bytes, so a reader can tell a complete record from
 * the ragged tail a crash mid-append leaves.
 */
void
encodeRecord(util::BinaryWriter &out, StoreIndex::Op op,
             const std::string &rel, std::uint64_t bytes,
             std::uint64_t atime)
{
    const std::size_t start = out.size();
    out.u8(static_cast<std::uint8_t>(op));
    out.str(rel);
    out.u64(bytes);
    out.u64(atime);
    out.u64(util::fnv1a(out.buffer().data() + start, out.size() - start));
}

/** True for files the index tracks: shard + live-point libraries. */
bool
isStoreEntry(const fs::path &path)
{
    const std::string ext = path.extension().string();
    if (ext != ".smck" && ext != ".smlp")
        return false;
    // In-flight atomic publishes look like "<name>.smck.tmp.<pid>.."
    // — extension() sees ".tmp..." pieces, not .smck, so they fall
    // out above; this guards renamed-away leftovers too.
    return path.filename().string().find(".tmp.") ==
           std::string::npos;
}

} // namespace

std::optional<StoreIndex>
StoreIndex::load(const std::string &path, std::string *error)
{
    auto refuse = [error](std::string why) {
        if (error)
            *error = std::move(why);
        return std::nullopt;
    };

    std::ifstream file(path, std::ios::binary | std::ios::ate);
    if (!file)
        return refuse(log::format("cannot open ", path));
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(file.tellg()));
    file.seekg(0);
    // smarts-lint: allow(checksum-before-use) raw whole-file read
    // into the buffer; readHeader validates it before any record is
    // decoded, and each record carries its own checksum.
    file.read(reinterpret_cast<char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!file)
        return refuse(log::format("short read from ", path));

    // The journal parses through a borrowed reader; a record's start
    // is where the bytes left began, and its checksum covers the
    // bytes from there to the checksum field.
    util::BinaryReader in(bytes.data(), bytes.size());
    if (!util::readHeader(in, kStoreIndexFile, path, error))
        return std::nullopt;

    StoreIndex index;
    while (in.remaining() > 0) {
        const std::size_t recordStart = bytes.size() - in.remaining();
        const std::uint8_t op = in.u8();
        const std::string rel = in.str();
        const std::uint64_t entryBytes = in.u64();
        const std::uint64_t atime = in.u64();
        if (in.failed())
            return refuse(log::format(
                path, " record at byte ", recordStart,
                " is truncated (crash mid-append?)"));
        const std::uint64_t expected =
            util::fnv1a(bytes.data() + recordStart,
                        bytes.size() - in.remaining() - recordStart);
        if (in.u64() != expected || in.failed())
            return refuse(log::format(
                path, " record at byte ", recordStart,
                " failed its checksum (torn or corrupt)"));

        ++index.journalRecords_;
        switch (static_cast<Op>(op)) {
        case Op::Add:
            index.noteAddAt(rel, entryBytes, atime);
            break;
        case Op::Touch: {
            // Touch of a path this journal never Added is fine —
            // another process's interleaved lifecycle — but the
            // clock must still advance past it.
            const auto it = index.entries_.find(rel);
            if (it != index.entries_.end())
                it->second.atime = atime;
            if (atime >= index.clock_)
                index.clock_ = atime + 1;
            break;
        }
        case Op::Remove:
            index.noteRemove(rel);
            break;
        default:
            return refuse(log::format(
                path, " record at byte ", recordStart,
                " has unknown op ", int(op)));
        }
    }
    return index;
}

StoreIndex
StoreIndex::rebuild(const std::string &root)
{
    // Gather every library file with its modification time, sort
    // oldest-first (path as tiebreak so equal-mtime files — common
    // on coarse-granularity filesystems — still order the same way
    // every rebuild), and hand out logical atimes by that ordinal.
    struct Found
    {
        fs::file_time_type mtime;
        std::string rel;
        std::uint64_t bytes;
    };
    std::vector<Found> found;
    std::error_code ec;
    const fs::path rootPath(root);
    for (fs::recursive_directory_iterator
             it(rootPath,
                fs::directory_options::skip_permission_denied, ec),
         end;
         !ec && it != end; it.increment(ec)) {
        const fs::path &p = it->path();
        const std::string name = p.filename().string();
        if (it->is_directory(ec)) {
            // Service directories hold pins and evicted trash, not
            // entries.
            if (name == ".pins" || name == ".trash")
                it.disable_recursion_pending();
            continue;
        }
        if (!isStoreEntry(p))
            continue;
        std::error_code statEc;
        const std::uint64_t bytes = fs::file_size(p, statEc);
        // Rebuild seeds LRU order from mtimes: the only recency
        // signal that survives losing the journal. Logical atimes
        // take over from here on.
        const fs::file_time_type mtime = fs::last_write_time(p, statEc); // smarts-lint: allow(no-ambient-nondeterminism) rebuild re-seeds LRU order from file mtimes; result order is pinned by sort below and never feeds an estimate
        if (statEc)
            continue; // vanished mid-scan (concurrent GC) — skip.
        found.push_back(
            {mtime, fs::relative(p, rootPath, statEc).generic_string(),
             bytes});
    }
    std::sort(found.begin(), found.end(),
              [](const Found &a, const Found &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.rel < b.rel;
              });

    StoreIndex index;
    for (const Found &f : found)
        index.noteAdd(f.rel, f.bytes);
    index.journalRecords_ = 0; // nothing replayed; fresh ledger.
    return index;
}

bool
StoreIndex::saveSnapshot(const std::string &path,
                         std::string *error) const
{
    util::BinaryWriter out;
    util::writeHeader(out, kStoreIndexFile);
    for (const auto &[rel, entry] : entries_)
        encodeRecord(out, Op::Add, rel, entry.bytes, entry.atime);

    // Same atomic-publish idiom as BinaryWriter::writeFile, minus
    // the trailing whole-file checksum (appends would invalidate
    // it; records carry their own).
    static std::atomic<unsigned> serial{0};
    const fs::path tmp(log::format(
        path, ".tmp.", ::getpid(), ".", serial.fetch_add(1)));
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f) {
            if (error)
                *error = log::format("cannot open ",
                                           tmp.string());
            return false;
        }
        f.write(reinterpret_cast<const char *>(out.buffer().data()),
                static_cast<std::streamsize>(out.size()));
        if (!f) {
            if (error)
                *error =
                    log::format("short write to ", tmp.string());
            return false;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        if (error)
            *error = log::format("cannot publish ", path, ": ",
                                       ec.message());
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

bool
StoreIndex::appendRecord(const std::string &path, Op op,
                         const std::string &rel, std::uint64_t bytes,
                         std::uint64_t atime, std::string *error)
{
    std::error_code ec;
    const bool fresh =
        !fs::exists(path, ec) || fs::file_size(path, ec) == 0;

    util::BinaryWriter out;
    if (fresh)
        util::writeHeader(out, kStoreIndexFile);
    encodeRecord(out, op, rel, bytes, atime);

    // One write() per record: POSIX O_APPEND keeps concurrent
    // appenders from overwriting each other, and a rare torn
    // interleave is caught by the record checksum at the next
    // load(), which falls back to rebuild().
    std::ofstream f(path, std::ios::binary | std::ios::app);
    if (!f) {
        if (error)
            *error = log::format("cannot open ", path,
                                       " for append");
        return false;
    }
    f.write(reinterpret_cast<const char *>(out.buffer().data()),
            static_cast<std::streamsize>(out.size()));
    f.flush();
    if (!f) {
        if (error)
            *error = log::format("short append to ", path);
        return false;
    }
    return true;
}

void
StoreIndex::noteAddAt(const std::string &rel, std::uint64_t bytes,
                      std::uint64_t atime)
{
    StoreIndexEntry &entry = entries_[rel];
    totalBytes_ -= entry.bytes; // replace: retire the old size.
    entry.bytes = bytes;
    entry.atime = atime;
    totalBytes_ += bytes;
    if (atime >= clock_)
        clock_ = atime + 1;
}

std::uint64_t
StoreIndex::noteAdd(const std::string &rel, std::uint64_t bytes)
{
    const std::uint64_t atime = clock_;
    noteAddAt(rel, bytes, atime);
    return atime;
}

std::uint64_t
StoreIndex::noteTouch(const std::string &rel)
{
    const auto it = entries_.find(rel);
    if (it == entries_.end())
        return 0;
    it->second.atime = clock_++;
    return it->second.atime;
}

void
StoreIndex::noteRemove(const std::string &rel)
{
    const auto it = entries_.find(rel);
    if (it == entries_.end())
        return;
    totalBytes_ -= it->second.bytes;
    entries_.erase(it);
}

std::vector<std::pair<std::string, StoreIndexEntry>>
StoreIndex::lruOrder() const
{
    std::vector<std::pair<std::string, StoreIndexEntry>> order(
        entries_.begin(), entries_.end());
    std::sort(order.begin(), order.end(),
              [](const auto &a, const auto &b) {
                  if (a.second.atime != b.second.atime)
                      return a.second.atime < b.second.atime;
                  return a.first < b.first;
              });
    return order;
}

} // namespace smarts::core
