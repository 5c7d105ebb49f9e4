#include "util/binary_io.hh"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include <sys/mman.h>
#include <unistd.h>

#include "util/logging.hh"

namespace smarts::util {

namespace fs = std::filesystem;

bool
writeFile(const std::string &path, const std::vector<ByteView> &segments,
          std::string *error, bool createDirs)
{
    std::uint64_t checksum = fnv1a(nullptr, 0); // the offset basis.
    for (const ByteView &segment : segments)
        checksum = fnv1a(segment.data, segment.size, checksum);

    std::error_code ec;
    const fs::path target(path);
    if (createDirs && target.has_parent_path()) {
        fs::create_directories(target.parent_path(), ec);
        if (ec) {
            if (error)
                *error = log::format("cannot create directory ",
                                     target.parent_path().string(),
                                     ": ", ec.message());
            return false;
        }
    }

    // Write-then-rename so a crash mid-write never leaves a
    // half-written file behind a valid library path. The temp name
    // carries the pid and a per-process counter so two processes
    // (or threads) racing to save the same key each write their own
    // file; last rename wins with a complete library either way.
    static std::atomic<unsigned> serial{0};
    const fs::path tmp(log::format(path, ".tmp.", ::getpid(), ".",
                                   serial.fetch_add(1)));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            if (error)
                *error = log::format("cannot open ", tmp.string(),
                                     " for writing");
            return false;
        }
        for (const ByteView &segment : segments)
            out.write(reinterpret_cast<const char *>(segment.data),
                      static_cast<std::streamsize>(segment.size));
        std::uint8_t trailer[8];
        storeLE(trailer, checksum);
        out.write(reinterpret_cast<const char *>(trailer),
                  sizeof trailer);
        if (!out) {
            if (error)
                *error = log::format("short write to ", tmp.string());
            out.close();
            fs::remove(tmp, ec);
            return false;
        }
    }
    fs::rename(tmp, target, ec);
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
BinaryWriter::writeFile(const std::string &path, std::string *error,
                        bool createDirs) const
{
    return util::writeFile(path,
                           {ByteView{buffer_.data(), buffer_.size()}},
                           error, createDirs);
}

BinaryReader::Pages::Pages(std::size_t size)
{
    void *addr = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (addr != MAP_FAILED) {
        data_ = static_cast<std::uint8_t *>(addr);
        size_ = size;
    }
}

BinaryReader::Pages::~Pages()
{
    if (data_)
        ::munmap(data_, size_);
}

BinaryReader
BinaryReader::fromFile(const std::string &path, std::string *error)
{
    auto failed = [error](std::string why) {
        if (error)
            *error = std::move(why);
        BinaryReader reader({});
        reader.failed_ = true;
        return reader;
    };

    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return failed(log::format("cannot open ", path));
    const std::streamoff size = in.tellg();
    if (size < 8)
        return failed(log::format(path, " is truncated (", size,
                                  " bytes, no room for a checksum)"));
    in.seekg(0);
    Pages pages(static_cast<std::size_t>(size));
    if (!pages.data())
        return failed(log::format("cannot map ", size,
                                  " bytes to read ", path));
    in.read(reinterpret_cast<char *>(pages.data()), size);
    if (!in)
        return failed(log::format("short read from ", path));

    const std::size_t payload = static_cast<std::size_t>(size) - 8;
    const std::uint64_t stored =
        loadLE<std::uint64_t>(pages.data() + payload);
    if (fnv1a(pages.data(), payload) != stored)
        return failed(log::format(
            path, " failed its checksum (truncated or corrupt)"));

    BinaryReader reader(pages.data(), payload);
    reader.pages_ = std::move(pages);
    return reader;
}

void
writeHeader(BinaryWriter &out, const FileKind &kind)
{
    out.words(reinterpret_cast<const std::uint8_t *>(kind.magic), 8);
    out.u32(kind.version);
    out.u32(kEndianMark);
}

std::uint32_t
readHeader(BinaryReader &in, const FileKind &kind,
           const std::string &path, std::string *error)
{
    auto refuse = [error](std::string why) {
        if (error)
            *error = std::move(why);
        return std::uint32_t(0);
    };
    if (in.failed())
        return 0;
    if (in.remaining() < 16)
        return refuse(log::format(path, " is truncated (",
                                  in.remaining(),
                                  " bytes, no room for its header)"));
    if (std::memcmp(in.view(8).data, kind.magic, 8) != 0)
        return refuse(log::format(path, " is not a smarts ", kind.name));
    // Anything newer than this build is refused, not guessed.
    const std::uint32_t version = in.u32();
    if (version < kind.oldestVersion || version > kind.version)
        return refuse(
            kind.oldestVersion == kind.version
                ? log::format(path, " is ", kind.versionName, " ",
                              version, "; this build speaks version ",
                              kind.version)
                : log::format(path, " is ", kind.versionName, " ",
                              version, "; this build reads versions ",
                              kind.oldestVersion, " to ", kind.version));
    if (in.u32() != kEndianMark)
        return refuse(log::format(path, " has a bad endianness marker"));
    return version;
}

} // namespace smarts::util
