/**
 * @file
 * Binary serialization primitives for the persistent checkpoint
 * format (docs/checkpoint-format.md): a BinaryWriter that encodes
 * every multi-byte value LITTLE-ENDIAN — whole words and word
 * vectors are copied in bulk, with one in-place byte swap on a
 * big-endian host, so a library written on any host reads back on
 * any other — and a BinaryReader that never trusts the file: every
 * read checks the remaining bytes and flips a sticky fail() flag
 * instead of running past the end, which is how truncated or
 * corrupt files are refused rather than mis-parsed. A reader either
 * owns its bytes or borrows a range (a delta payload, a decoded
 * live-point state) and hands out bounds-checked view() slices, so
 * nested records parse without being copied. xxh64() is the
 * word-wide hash `.smlp` v4 records check their decoded state with.
 *
 * Writers accumulate into a memory buffer; writeFile() appends an
 * FNV-1a checksum of everything before it and publishes the file
 * atomically (write to a temp name, then rename), so a crashed or
 * concurrent writer can never leave a half-written library behind a
 * valid path. The free writeFile() is that one publish path over a
 * sequence of byte segments, for files assembled from pieces
 * encoded apart (a live-point library's per-chunk records).
 *
 * Every on-disk format opens with the same 16-byte header (magic,
 * version, endianness mark; docs/checkpoint-format.md § File
 * header): each declares one FileKind and frames through
 * writeHeader()/readHeader(), the one place the header is written
 * and checked.
 */

#ifndef SMARTS_UTIL_BINARY_IO_HH
#define SMARTS_UTIL_BINARY_IO_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace smarts::util {

/** True on a big-endian host, whose words the format byte-swaps. */
constexpr bool kBigEndianHost =
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    true;
#else
    false;
#endif

/**
 * Reorder @p count packed @p Word values at @p bytes between host
 * and little-endian byte order, in place. Its own inverse, and a
 * no-op on a little-endian host — the one code path both directions
 * of every multi-byte field go through.
 */
template <typename Word>
inline void
swapLittleEndian(std::uint8_t *bytes, std::size_t count)
{
    if constexpr (kBigEndianHost)
        for (std::size_t i = 0; i < count; ++i)
            std::reverse(bytes + i * sizeof(Word),
                         bytes + (i + 1) * sizeof(Word));
}

/** Decode one little-endian @p Word from @p bytes. */
template <typename Word>
inline Word
loadLE(const std::uint8_t *bytes)
{
    Word v = 0;
    std::memcpy(&v, bytes, sizeof v);
    swapLittleEndian<Word>(reinterpret_cast<std::uint8_t *>(&v), 1);
    return v;
}

/** Encode @p v little-endian into @p bytes. */
template <typename Word>
inline void
storeLE(std::uint8_t *bytes, Word v)
{
    std::memcpy(bytes, &v, sizeof v);
    swapLittleEndian<Word>(bytes, 1);
}

/** A borrowed byte range (BinaryReader::view). */
struct ByteView
{
    const std::uint8_t *data = nullptr;
    std::size_t size = 0;
};

/** FNV-1a 64-bit over @p size bytes (the format's checksum). */
inline std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t size,
      std::uint64_t hash = 0xcbf29ce484222325ull)
{
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= data[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/**
 * XXH64 (seed 0) over @p size bytes: the `.smlp` v4 per-record state
 * hash (docs/checkpoint-format.md § Record hash and the version
 * ladder). Standard XXH64 reads its lanes as little-endian words,
 * which loadLE makes true on every host, so a file hashes the same
 * wherever it is written or read.
 */
inline std::uint64_t
xxh64(const std::uint8_t *data, std::size_t size)
{
    constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ull;
    constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
    constexpr std::uint64_t kP3 = 0x165667b19e3779f9ull;
    constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ull;
    constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ull;
    auto rotl = [](std::uint64_t x, int r) {
        return (x << r) | (x >> (64 - r));
    };
    auto round = [&rotl](std::uint64_t acc, std::uint64_t lane) {
        return rotl(acc + lane * kP2, 31) * kP1;
    };
    auto merge = [&round](std::uint64_t acc, std::uint64_t lane) {
        return (acc ^ round(0, lane)) * kP1 + kP4;
    };

    const std::uint8_t *p = data;
    const std::uint8_t *const end = data + size;
    std::uint64_t h;
    if (size >= 32) {
        // Four independent lanes over 32-byte stripes.
        std::uint64_t v1 = kP1 + kP2, v2 = kP2, v3 = 0, v4 = 0 - kP1;
        for (; end - p >= 32; p += 32) {
            v1 = round(v1, loadLE<std::uint64_t>(p));
            v2 = round(v2, loadLE<std::uint64_t>(p + 8));
            v3 = round(v3, loadLE<std::uint64_t>(p + 16));
            v4 = round(v4, loadLE<std::uint64_t>(p + 24));
        }
        h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
        h = merge(merge(merge(merge(h, v1), v2), v3), v4);
    } else {
        h = kP5;
    }
    h += size;
    for (; end - p >= 8; p += 8)
        h = rotl(h ^ round(0, loadLE<std::uint64_t>(p)), 27) * kP1 +
            kP4;
    if (end - p >= 4) {
        h = rotl(h ^ loadLE<std::uint32_t>(p) * kP1, 23) * kP2 + kP3;
        p += 4;
    }
    for (; p < end; ++p)
        h = rotl(h ^ *p * kP5, 11) * kP1;
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    return h ^ (h >> 32);
}

/**
 * Publish @p segments, in order, as one file at @p path followed by
 * the FNV-1a checksum of all their bytes, atomically (temp file +
 * rename): the one publish path, BinaryWriter::writeFile being its
 * one-segment case. The checksum is folded across the segments and
 * each is written where it lies, so the file's bytes are never
 * gathered into one buffer. Returns false with @p error set on any
 * filesystem failure; @p createDirs as for BinaryWriter::writeFile.
 */
bool writeFile(const std::string &path,
               const std::vector<ByteView> &segments,
               std::string *error, bool createDirs = true);

/** Accumulates little-endian encoded values into a byte buffer. */
class BinaryWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buffer_.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        words(&v, 1);
    }

    void
    u64(std::uint64_t v)
    {
        words(&v, 1);
    }

    /**
     * IEEE-754 double as its raw 64-bit pattern, little-endian —
     * the round trip is bit-exact, which is what lets per-shard
     * result files reproduce an estimate byte for byte.
     */
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    /** Length-prefixed (u32) UTF-8/ASCII bytes. */
    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        buffer_.insert(buffer_.end(), s.begin(), s.end());
    }

    /** Length-prefixed (u64) element vectors. */
    void
    vecU8(const std::vector<std::uint8_t> &v)
    {
        u64(v.size());
        buffer_.insert(buffer_.end(), v.begin(), v.end());
    }

    void
    vecU32(const std::vector<std::uint32_t> &v)
    {
        u64(v.size());
        words(v.data(), v.size());
    }

    void
    vecU64(const std::vector<std::uint64_t> &v)
    {
        u64(v.size());
        words(v.data(), v.size());
    }

    /**
     * Append @p count host words as packed little-endian bytes, with
     * no length prefix: a vector written in pieces (core::PagedImage)
     * writes its u64 count, then each piece.
     */
    template <typename Word>
    void
    words(const Word *values, std::size_t count)
    {
        const auto *bytes =
            reinterpret_cast<const std::uint8_t *>(values);
        const std::size_t at = buffer_.size();
        buffer_.insert(buffer_.end(), bytes,
                       bytes + count * sizeof(Word));
        swapLittleEndian<Word>(buffer_.data() + at, count);
    }

    const std::vector<std::uint8_t> &
    buffer() const
    {
        return buffer_;
    }

    std::size_t
    size() const
    {
        return buffer_.size();
    }

    /**
     * Exchange the buffer with @p other, then start empty: a writer
     * reused record after record keeps one allocation alive while
     * @p other takes the bytes just written.
     */
    void
    swapOut(std::vector<std::uint8_t> &other)
    {
        buffer_.swap(other);
        buffer_.clear();
    }

    /**
     * Append the FNV-1a checksum of the buffer, then publish the
     * result at @p path atomically (temp file + rename). Returns
     * false with @p error set on any filesystem failure. Callers
     * that already guaranteed the parent directory — e.g. the
     * checkpoint store's memoized ensureDirFor — pass
     * @p createDirs false to skip the per-write re-stat.
     */
    bool writeFile(const std::string &path, std::string *error,
                   bool createDirs = true) const;

  private:
    std::vector<std::uint8_t> buffer_;
};

/**
 * Decodes a little-endian byte buffer with sticky failure: any read
 * past the end returns zero values and latches fail(), so callers
 * can parse a whole structure and check once at the end. The buffer
 * is either owned (moved in) or borrowed (pointer + size, which must
 * outlive the reader).
 */
class BinaryReader
{
  public:
    explicit BinaryReader(std::vector<std::uint8_t> data)
        : owned_(std::move(data)), data_(owned_.data()),
          size_(owned_.size())
    {
    }

    /** Borrow @p size bytes at @p data; nothing is copied. */
    BinaryReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    // Moving keeps an owned buffer's storage (and so data_) in
    // place; a copy would leave data_ pointing into the source.
    BinaryReader(BinaryReader &&) = default;
    BinaryReader &operator=(BinaryReader &&) = default;
    BinaryReader(const BinaryReader &) = delete;
    BinaryReader &operator=(const BinaryReader &) = delete;

    /**
     * Read @p path, verify the trailing FNV-1a checksum, and return
     * a reader over the payload (checksum stripped). Nullptr-style
     * failure: ok() is false and @p error says why (missing file,
     * short file, checksum mismatch = truncation or corruption).
     * The bytes are read into pages of their own, mapped for this
     * reader and unmapped with it, so a library file of many MiB
     * never passes through the heap: it leaves no free block behind
     * and does not raise the allocator's thresholds for returning
     * freed memory to the system.
     */
    static BinaryReader fromFile(const std::string &path,
                                 std::string *error);

    std::uint8_t
    u8()
    {
        if (!require(1))
            return 0;
        return data_[pos_++];
    }

    /** A bool byte: 0 or 1. Any other value latches fail(), so a
     *  flag has exactly one encoding. */
    bool
    flag()
    {
        const std::uint8_t b = u8();
        if (b > 1)
            failed_ = true;
        return b == 1;
    }

    std::uint32_t
    u32()
    {
        return word<std::uint32_t>();
    }

    std::uint64_t
    u64()
    {
        return word<std::uint64_t>();
    }

    /** Bit-exact inverse of BinaryWriter::f64. */
    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string
    str()
    {
        const ByteView bytes = view(u32());
        return std::string(bytes.data, bytes.data + bytes.size);
    }

    std::vector<std::uint8_t>
    vecU8()
    {
        std::vector<std::uint8_t> v;
        vecU8(v);
        return v;
    }

    std::vector<std::uint32_t>
    vecU32()
    {
        std::vector<std::uint32_t> v;
        words(v);
        return v;
    }

    std::vector<std::uint64_t>
    vecU64()
    {
        std::vector<std::uint64_t> v;
        words(v);
        return v;
    }

    /**
     * The same vectors read into @p out, reusing its storage: a state
     * read over one of the same shape (a recycled live-point)
     * allocates nothing.
     */
    void
    vecU8(std::vector<std::uint8_t> &out)
    {
        const ByteView bytes = view(u64());
        out.assign(bytes.data, bytes.data + bytes.size);
    }

    void
    vecU32(std::vector<std::uint32_t> &out)
    {
        words(out);
    }

    void
    vecU64(std::vector<std::uint64_t> &out)
    {
        words(out);
    }

    /**
     * The next @p n bytes, borrowed in place (valid while the
     * reader's buffer is); an empty view — and fail() — when fewer
     * remain.
     */
    ByteView
    view(std::uint64_t n)
    {
        if (!require(n))
            return {};
        const ByteView bytes{data_ + pos_, static_cast<std::size_t>(n)};
        pos_ += bytes.size;
        return bytes;
    }

    /**
     * A u64-counted run of little-endian @p Word values, borrowed in
     * place: the count is checked against the bytes left before
     * anything is sized from it, so a hostile count fails here
     * instead of driving an allocation. An empty view and fail()
     * when the words are not there.
     */
    template <typename Word>
    ByteView
    wordsView()
    {
        const std::uint64_t n = count(sizeof(Word));
        return failed_ ? ByteView{} : view(n * sizeof(Word));
    }

    /**
     * A u64 element count, bounded by the bytes left: when
     * @p minElementBytes-byte elements that many could not all be
     * there, it latches fail() and returns 0. Size a container from
     * this, never from a raw u64(), so a hostile count fails before
     * it drives an allocation.
     */
    std::uint64_t
    count(std::size_t minElementBytes)
    {
        // Divide, don't multiply: minElementBytes * n wraps for a
        // hostile length field, and the whole point is refusing
        // such files.
        const std::uint64_t n = u64();
        const std::size_t width =
            std::max<std::size_t>(minElementBytes, 1);
        if (failed_ || n > remaining() / width) {
            failed_ = true;
            return 0;
        }
        return n;
    }

    /** False once any read overran the buffer (truncated payload). */
    bool
    failed() const
    {
        return failed_;
    }

    bool
    ok() const
    {
        return !failed_;
    }

    /** Bytes left unconsumed (a well-formed file ends at zero). */
    std::size_t
    remaining() const
    {
        return size_ - pos_;
    }

  private:
    bool
    require(std::uint64_t bytes)
    {
        if (failed_ || bytes > size_ - pos_) {
            failed_ = true;
            return false;
        }
        return true;
    }

    template <typename Word>
    Word
    word()
    {
        if (!require(sizeof(Word)))
            return 0;
        const Word v = loadLE<Word>(data_ + pos_);
        pos_ += sizeof(Word);
        return v;
    }

    /** A u64-counted vector of words into @p v, copied in bulk. */
    template <typename Word>
    void
    words(std::vector<Word> &v)
    {
        const ByteView bytes = wordsView<Word>();
        v.resize(bytes.size / sizeof(Word));
        if (!v.empty()) {
            auto *out = reinterpret_cast<std::uint8_t *>(v.data());
            std::memcpy(out, bytes.data, bytes.size);
            swapLittleEndian<Word>(out, v.size());
        }
    }

    /** Anonymous pages a file was read into; unmapped on destruction. */
    class Pages
    {
      public:
        Pages() = default;
        explicit Pages(std::size_t size);
        Pages(Pages &&other) noexcept
            : data_(std::exchange(other.data_, nullptr)),
              size_(std::exchange(other.size_, 0))
        {
        }
        Pages &
        operator=(Pages &&other) noexcept
        {
            std::swap(data_, other.data_);
            std::swap(size_, other.size_);
            return *this;
        }
        Pages(const Pages &) = delete;
        Pages &operator=(const Pages &) = delete;
        ~Pages();

        /** Null when the mapping failed. */
        std::uint8_t *
        data() const
        {
            return data_;
        }

      private:
        std::uint8_t *data_ = nullptr;
        std::size_t size_ = 0;
    };

    std::vector<std::uint8_t> owned_;
    Pages pages_;
    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

/**
 * The endianness mark every file header carries: written through the
 * little-endian encoder, so a file always holds bytes 04 03 02 01. A
 * reader that decodes it as anything but 0x01020304 is applying the
 * wrong byte order.
 */
constexpr std::uint32_t kEndianMark = 0x01020304u;

/**
 * One on-disk format's header: its magic, the version this build
 * writes (the newest it reads), the oldest version it reads, and the
 * names its refusals print.
 */
struct FileKind
{
    const char *magic;           ///< 8 bytes, no terminator stored.
    std::uint32_t version;       ///< written; the newest read.
    std::uint32_t oldestVersion; ///< the oldest read.
    const char *name;            ///< "<path> is not a smarts <name>".
    const char *versionName;     ///< "<path> is <versionName> N; ...".
};

/** Append @p kind's header: magic, version, endianness mark. */
void writeHeader(BinaryWriter &out, const FileKind &kind);

/**
 * Check that @p in, read from @p path, opens with @p kind's header:
 * the magic, then a version in [oldestVersion, version], then the
 * endianness mark, refusing on the first that fails. Returns the
 * version read, the reader left just past the header; 0 with the
 * refusal in @p error otherwise. A reader that arrives failed
 * (BinaryReader::fromFile could not open or verify the file) keeps
 * the diagnostic @p error already holds.
 */
std::uint32_t readHeader(BinaryReader &in, const FileKind &kind,
                         const std::string &path, std::string *error);

/**
 * Bytes a default-constructed T writes: for a state whose
 * variable-length fields all start empty, the fewest bytes one T can
 * occupy — the element bound BinaryReader::count wants. Computed
 * once per type.
 */
template <typename T>
std::size_t
minEncodedBytes()
{
    static const std::size_t bytes = [] {
        BinaryWriter out;
        T{}.write(out);
        return out.size();
    }();
    return bytes;
}

} // namespace smarts::util

#endif // SMARTS_UTIL_BINARY_IO_HH
