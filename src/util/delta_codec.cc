#include "util/delta_codec.hh"

#include <algorithm>
#include <cstring>
#include <new>

#include "util/binary_io.hh"
#include "util/logging.hh"

namespace smarts::util {

namespace {

/**
 * A zero run shorter than one op header (8 bytes) costs more to
 * encode as a run than to carry inside the surrounding literal, so
 * the encoder only breaks a literal for runs at least this long.
 */
constexpr std::size_t kMinZeroRun = 8;

/** u32 op fields cap a single zero run or literal. */
constexpr std::size_t kMaxRun = 0xffffffffu;

constexpr std::size_t kWord = sizeof(std::uint64_t);

/** The word at @p at of a @p size-byte range, zero past its end. */
inline std::uint64_t
wordAt(const std::uint8_t *bytes, std::size_t size, std::size_t at)
{
    if (at + kWord <= size)
        return loadLE<std::uint64_t>(bytes + at);
    std::uint8_t tail[kWord] = {};
    if (at < size)
        std::memcpy(tail, bytes + at, size - at);
    return loadLE<std::uint64_t>(tail);
}

/** Byte index of the lowest nonzero byte of nonzero @p word. */
inline std::size_t
firstSetByte(std::uint64_t word)
{
    return static_cast<std::size_t>(__builtin_ctzll(word)) / 8;
}

/** dst[i] ^= src[i] for @p n bytes, a word at a time. */
void
xorInto(std::uint8_t *dst, const std::uint8_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + kWord <= n; i += kWord) {
        std::uint64_t a = 0, b = 0;
        std::memcpy(&a, dst + i, kWord);
        std::memcpy(&b, src + i, kWord);
        a ^= b;
        std::memcpy(dst + i, &a, kWord);
    }
    if (i < n) {
        std::uint64_t a = 0, b = 0;
        std::memcpy(&a, dst + i, n - i);
        std::memcpy(&b, src + i, n - i);
        a ^= b;
        std::memcpy(dst + i, &a, n - i);
    }
}

/**
 * The XOR residue of data against the zero-padded base, read a word
 * at a time. Residue bytes past the payload read as zero, so every
 * scan clamps its answer to size.
 */
struct Residue
{
    const std::uint8_t *base;
    std::size_t baseSize; ///< clamped to size: longer bases truncate.
    const std::uint8_t *data;
    std::size_t size;

    std::uint64_t
    word(std::size_t at) const
    {
        return wordAt(data, size, at) ^ wordAt(base, baseSize, at);
    }

    /** Length of the all-zero residue run starting at @p at. */
    std::size_t
    zeroRunAt(std::size_t at) const
    {
        for (std::size_t i = at; i < size; i += kWord)
            if (const std::uint64_t x = word(i))
                return i + firstSetByte(x) - at;
        return size - at;
    }

    /** First index at or after @p at whose residue is zero. */
    std::size_t
    nextZeroAt(std::size_t at) const
    {
        constexpr std::uint64_t kLow = 0x0101010101010101ull;
        constexpr std::uint64_t kHigh = 0x8080808080808080ull;
        for (std::size_t i = at; i < size; i += kWord) {
            const std::uint64_t x = word(i);
            // The lowest flagged byte of this classic zero-byte test
            // is exactly x's lowest zero byte (borrows only run
            // upward from a zero byte).
            if (const std::uint64_t zeros = (x - kLow) & ~x & kHigh)
                return std::min(i + firstSetByte(zeros), size);
        }
        return size;
    }

    /** Write the residue of [@p from, @p from + @p n) to @p out. */
    void
    copyOut(std::uint8_t *out, std::size_t from, std::size_t n) const
    {
        std::memcpy(out, data + from, n);
        if (from < baseSize)
            xorInto(out, base + from, std::min(n, baseSize - from));
    }
};

} // namespace

std::vector<std::uint8_t>
deltaEncode(const std::vector<std::uint8_t> &base,
            const std::vector<std::uint8_t> &data)
{
    const std::size_t size = data.size();
    const Residue residue{base.data(), std::min(base.size(), size),
                          data.data(), size};
    std::vector<std::uint8_t> out(sizeof(std::uint64_t));
    storeLE<std::uint64_t>(out.data(), size);

    std::size_t pos = 0;
    while (pos < size) {
        const std::size_t zeros =
            std::min(residue.zeroRunAt(pos), kMaxRun);
        const std::size_t scan = pos + zeros;

        // Extend the literal until the next worthwhile zero run (or
        // the end of the payload, or the u32 length cap). A run is
        // measured from its first byte, so shorter runs are stepped
        // over whole and stay inside the literal.
        std::size_t end = scan;
        while (end < size && end - scan < kMaxRun) {
            const std::size_t zero = residue.nextZeroAt(end);
            const std::size_t run =
                zero < size ? residue.zeroRunAt(zero) : 0;
            if (zero == size || run >= kMinZeroRun) {
                end = zero;
                break;
            }
            end = zero + run;
        }
        const std::size_t literal = std::min(end - scan, kMaxRun);

        const std::size_t at = out.size();
        out.resize(at + 2 * sizeof(std::uint32_t) + literal);
        std::uint8_t *op = out.data() + at;
        storeLE(op, static_cast<std::uint32_t>(zeros));
        storeLE(op + sizeof(std::uint32_t),
                static_cast<std::uint32_t>(literal));
        residue.copyOut(op + 2 * sizeof(std::uint32_t), scan, literal);
        pos = scan + literal;
    }
    return out;
}

bool
deltaApply(std::vector<std::uint8_t> &state, const std::uint8_t *bytes,
           std::size_t size, std::string *error)
{
    auto refuse = [error](std::string why) {
        if (error)
            *error = std::move(why);
        return false;
    };

    BinaryReader in(bytes, size);
    const std::uint64_t rawSize = in.u64();
    if (in.failed())
        return refuse("delta stream is truncated");
    // A corrupt size field could demand more memory than the stream
    // could ever justify: every encoded byte covers at most one
    // payload byte plus what zero runs (8-byte ops covering up to
    // 2^32 bytes each) can add.
    if (rawSize > size + (size / kMinZeroRun + 1) * 0xffffffffull)
        return refuse(log::format("delta declares an absurd payload "
                                  "size (", rawSize, " bytes)"));

    // Structural pre-walk, allocation-free: a corrupt stream must be
    // refused BEFORE the state is resized from it — or a flipped size
    // field turns into an out-of-memory crash instead of a
    // diagnostic, and a refused record leaves the state half-applied.
    // Only a stream whose ops cover exactly rawSize with every
    // literal byte present reaches the applying pass.
    std::uint64_t covered = 0;
    while (covered < rawSize) {
        const std::uint32_t zeros = in.u32();
        const std::uint32_t literal = in.u32();
        if (in.failed())
            return refuse("delta stream is truncated");
        if (!zeros && !literal)
            return refuse("delta contains a zero-progress op");
        if (zeros + std::uint64_t(literal) > rawSize - covered)
            return refuse("delta ops overrun the declared size");
        in.view(literal);
        if (in.failed())
            return refuse("delta stream is truncated");
        covered += zeros + std::uint64_t(literal);
    }
    if (in.remaining() != 0)
        return refuse("delta stream has trailing garbage");

    try {
        state.resize(static_cast<std::size_t>(rawSize));
    } catch (const std::bad_alloc &) {
        return refuse(log::format("delta payload does not fit in "
                                  "memory (", rawSize, " bytes)"));
    }
    // The base is zero-padded (or truncated) to rawSize by the
    // resize; zero runs keep it as is, literals XOR into it.
    BinaryReader ops(bytes + sizeof(std::uint64_t),
                     size - sizeof(std::uint64_t));
    for (std::size_t at = 0; at < rawSize;) {
        at += ops.u32();
        const ByteView literal = ops.view(ops.u32());
        xorInto(state.data() + at, literal.data, literal.size);
        at += literal.size;
    }
    return true;
}

std::optional<std::vector<std::uint8_t>>
deltaDecode(const std::vector<std::uint8_t> &base,
            const std::vector<std::uint8_t> &delta,
            std::string *error)
{
    std::vector<std::uint8_t> out = base;
    if (!deltaApply(out, delta.data(), delta.size(), error))
        return std::nullopt;
    return out;
}

} // namespace smarts::util
