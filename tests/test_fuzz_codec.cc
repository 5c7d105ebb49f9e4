/**
 * @file
 * Fuzz-style robustness tests for the two binary decoders that
 * consume files an external party (or a crashed writer) controls:
 * util::deltaDecode and the StoreIndex journal replay. Deterministic
 * xoshiro-driven mutation loops — >= 10k cases each — assert the
 * decoders' whole contract: REFUSE (nullopt/diagnostic) or decode,
 * never crash, never overrun (the latter enforced by the CI
 * ASan/UBSan matrices running this binary). Seeds are fixed so a
 * failure reproduces bit-for-bit on any host.
 *
 * The word-wide codec is also checked for equivalence against a
 * byte-at-a-time reference encoder and decoder kept here as the
 * oracle: identical delta bytes, identical decoded payloads,
 * identical refusals — and a refused stream leaves deltaApply's
 * in-place state untouched.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "check.hh"
#include "core/store_index.hh"
#include "util/delta_codec.hh"
#include "util/rng.hh"

namespace fs = std::filesystem;

namespace {

using namespace smarts;

constexpr const char *kRoot = "fuzz_codec_tmp";

/** Mutate 1..8 random bytes; sometimes truncate or extend. */
std::vector<std::uint8_t>
mutate(const std::vector<std::uint8_t> &original,
       Xoshiro256StarStar &rng)
{
    std::vector<std::uint8_t> bytes = original;
    if (!bytes.empty() && rng.chance(0.15))
        bytes.resize(rng.below(bytes.size()));
    if (rng.chance(0.10)) {
        const std::uint64_t extra = 1 + rng.below(32);
        for (std::uint64_t i = 0; i < extra; ++i)
            bytes.push_back(static_cast<std::uint8_t>(rng.next()));
    }
    if (!bytes.empty()) {
        const std::uint64_t flips = 1 + rng.below(8);
        for (std::uint64_t i = 0; i < flips; ++i)
            bytes[rng.below(bytes.size())] =
                static_cast<std::uint8_t>(rng.next());
    }
    return bytes;
}

/** A realistically sparse payload pair, as livepoint chains see. */
void
makeCorpusPair(Xoshiro256StarStar &rng, std::size_t size,
               std::vector<std::uint8_t> &base,
               std::vector<std::uint8_t> &data)
{
    base.assign(size, 0);
    for (std::size_t i = 0; i < size; ++i)
        base[i] = static_cast<std::uint8_t>(rng.next());
    data = base;
    // Sparse diffs: a few short dirty stretches.
    const std::uint64_t stretches = 1 + rng.below(6);
    for (std::uint64_t s = 0; s < stretches && !data.empty(); ++s) {
        std::size_t at = rng.below(data.size());
        const std::uint64_t len = 1 + rng.below(64);
        for (std::uint64_t i = 0; i < len && at < data.size();
             ++i, ++at)
            data[at] = static_cast<std::uint8_t>(rng.next());
    }
}

void
testDeltaCodecFuzz()
{
    Xoshiro256StarStar rng(0xde17ac0de5eedull);

    // Corpus of valid (base, data, delta) triples at several sizes,
    // including empty and size-mismatched bases.
    struct Case
    {
        std::vector<std::uint8_t> base;
        std::vector<std::uint8_t> data;
        std::vector<std::uint8_t> delta;
    };
    std::vector<Case> corpus;
    for (std::size_t size : {std::size_t(0), std::size_t(1),
                             std::size_t(63), std::size_t(256),
                             std::size_t(2048)}) {
        Case c;
        makeCorpusPair(rng, size, c.base, c.data);
        c.delta = util::deltaEncode(c.base, c.data);
        corpus.push_back(std::move(c));
        // A first-of-chain record: empty base, data stored literal.
        Case first;
        makeCorpusPair(rng, size, first.data, first.data);
        first.delta = util::deltaEncode({}, first.data);
        corpus.push_back(std::move(first));
    }

    // Sanity: every corpus delta roundtrips exactly.
    for (const Case &c : corpus) {
        std::string error;
        const auto out = util::deltaDecode(c.base, c.delta, &error);
        CHECK(out && *out == c.data);
    }

    // Mutation loop: 12k mutated deltas must each either refuse
    // with a diagnostic or produce a payload — never crash or read
    // out of bounds (ASan/UBSan enforce the latter in CI).
    std::uint64_t refused = 0;
    std::uint64_t decoded = 0;
    for (int i = 0; i < 12000; ++i) {
        const Case &c = corpus[rng.below(corpus.size())];
        const std::vector<std::uint8_t> bad = mutate(c.delta, rng);
        std::string error;
        const auto out = util::deltaDecode(c.base, bad, &error);
        if (out) {
            ++decoded;
            if (bad == c.delta)
                CHECK(*out == c.data);
        } else {
            ++refused;
            CHECK(!error.empty());
        }
    }
    // The loop must exercise BOTH outcomes, or the property is
    // vacuous (e.g. a mutator that always destroys the header).
    CHECK(refused > 0);
    CHECK(decoded > 0);

    // Pure-garbage streams: all refusals, never crashes.
    for (int i = 0; i < 3000; ++i) {
        std::vector<std::uint8_t> garbage(rng.below(512));
        for (std::uint8_t &b : garbage)
            b = static_cast<std::uint8_t>(rng.next());
        std::string error;
        const auto out = util::deltaDecode({}, garbage, &error);
        if (!out)
            CHECK(!error.empty());
    }
}

// ----------------------------------------------------------------
// Reference codec: the format's definition, one byte at a time.
// ----------------------------------------------------------------

constexpr std::size_t kRefMinZeroRun = 8;
constexpr std::size_t kRefMaxRun = 0xffffffffu;

std::uint8_t
refResidue(const std::vector<std::uint8_t> &base,
           const std::vector<std::uint8_t> &data, std::size_t i)
{
    const std::uint8_t b = i < base.size() ? base[i] : 0;
    return static_cast<std::uint8_t>(data[i] ^ b);
}

std::size_t
refZeroRun(const std::vector<std::uint8_t> &base,
           const std::vector<std::uint8_t> &data, std::size_t i)
{
    std::size_t n = 0;
    while (i + n < data.size() && refResidue(base, data, i + n) == 0)
        ++n;
    return n;
}

void
refPut(std::vector<std::uint8_t> &out, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::vector<std::uint8_t>
refEncode(const std::vector<std::uint8_t> &base,
          const std::vector<std::uint8_t> &data)
{
    std::vector<std::uint8_t> out;
    refPut(out, data.size(), 8);
    std::size_t pos = 0;
    while (pos < data.size()) {
        const std::size_t zeros =
            std::min(refZeroRun(base, data, pos), kRefMaxRun);
        const std::size_t scan = pos + zeros;
        std::size_t literal = 0;
        while (scan + literal < data.size() && literal < kRefMaxRun) {
            const std::size_t run =
                refZeroRun(base, data, scan + literal);
            if (run >= kRefMinZeroRun)
                break;
            literal += run ? run : 1;
        }
        literal = std::min({literal, data.size() - scan, kRefMaxRun});
        refPut(out, zeros, 4);
        refPut(out, literal, 4);
        for (std::size_t i = 0; i < literal; ++i)
            out.push_back(refResidue(base, data, scan + i));
        pos = scan + literal;
    }
    return out;
}

std::optional<std::vector<std::uint8_t>>
refDecode(const std::vector<std::uint8_t> &base,
          const std::vector<std::uint8_t> &delta, std::string *error)
{
    auto refuse = [error](std::string why) {
        *error = std::move(why);
        return std::nullopt;
    };
    std::size_t at = 0;
    auto get = [&delta, &at](int bytes) {
        std::uint64_t v = 0;
        for (int i = 0; i < bytes; ++i)
            v |= std::uint64_t(delta[at++]) << (8 * i);
        return v;
    };
    if (delta.size() < 8)
        return refuse("delta stream is truncated");
    const std::uint64_t rawSize = get(8);
    if (rawSize > delta.size() + (delta.size() / kRefMinZeroRun + 1) *
                                     0xffffffffull)
        return refuse("delta declares an absurd payload size (" +
                      std::to_string(rawSize) + " bytes)");

    // Structural walk first, so a stream that cannot cover rawSize
    // is refused before any byte is materialized.
    std::uint64_t covered = 0;
    while (covered < rawSize) {
        if (delta.size() - at < 8)
            return refuse("delta stream is truncated");
        const std::uint64_t zeros = get(4);
        const std::uint64_t literal = get(4);
        if (!zeros && !literal)
            return refuse("delta contains a zero-progress op");
        if (zeros + literal > rawSize - covered)
            return refuse("delta ops overrun the declared size");
        if (delta.size() - at < literal)
            return refuse("delta stream is truncated");
        at += literal;
        covered += zeros + literal;
    }
    if (at != delta.size())
        return refuse("delta stream has trailing garbage");

    std::vector<std::uint8_t> out;
    at = 8;
    while (out.size() < rawSize) {
        const std::uint64_t zeros = get(4);
        const std::uint64_t literal = get(4);
        for (std::uint64_t i = 0; i < zeros; ++i) {
            const std::size_t k = out.size();
            out.push_back(k < base.size() ? base[k] : 0);
        }
        for (std::uint64_t i = 0; i < literal; ++i) {
            const std::size_t k = out.size();
            const std::uint8_t b = k < base.size() ? base[k] : 0;
            out.push_back(static_cast<std::uint8_t>(delta[at++] ^ b));
        }
    }
    return out;
}

/**
 * A (base, data) pair whose residue alternates literal stretches
 * with zero runs from a menu weighted toward the encoder's edges —
 * runs of 7, 8 and 9 bytes at every word phase — over payload and
 * base sizes that are rarely multiples of 8, including empty ones
 * and bases shorter or longer than the data.
 */
void
makeEdgePair(Xoshiro256StarStar &rng, std::vector<std::uint8_t> &base,
             std::vector<std::uint8_t> &data)
{
    const std::size_t size =
        rng.chance(0.05) ? 0 : static_cast<std::size_t>(rng.below(300));
    // Empty, shorter, longer or equal base, a quarter each.
    const std::uint64_t shape = rng.below(4);
    const std::size_t baseSize =
        shape == 0   ? 0
        : shape == 1 ? static_cast<std::size_t>(rng.below(size + 1))
        : shape == 2 ? size + static_cast<std::size_t>(rng.below(40))
                     : size;
    base.resize(baseSize);
    for (std::uint8_t &b : base)
        b = rng.chance(0.3) ? 0 : static_cast<std::uint8_t>(rng.next());

    std::vector<std::uint8_t> residue;
    static constexpr std::size_t kRuns[] = {1, 2, 6, 7, 8, 9,
                                            15, 16, 17, 40};
    while (residue.size() < size) {
        const std::size_t literal = rng.below(12);
        for (std::size_t i = 0; i < literal; ++i)
            residue.push_back(
                static_cast<std::uint8_t>(1 + rng.below(255)));
        const std::size_t run = kRuns[rng.below(std::size(kRuns))];
        residue.insert(residue.end(), run, 0);
    }
    residue.resize(size);
    data.resize(size);
    for (std::size_t i = 0; i < size; ++i)
        data[i] = static_cast<std::uint8_t>(
            residue[i] ^ (i < base.size() ? base[i] : 0));
}

void
testDeltaCodecMatchesReference()
{
    Xoshiro256StarStar rng(0xc0dec0e971ull);
    std::uint64_t refusals = 0;
    for (int i = 0; i < 12000; ++i) {
        std::vector<std::uint8_t> base, data;
        makeEdgePair(rng, base, data);
        const std::vector<std::uint8_t> delta =
            util::deltaEncode(base, data);
        if (!(delta == refEncode(base, data))) {
            CHECK(delta == refEncode(base, data));
            return; // one diagnostic is enough.
        }

        std::vector<std::uint8_t> state = base;
        std::string error;
        CHECK(util::deltaApply(state, delta.data(), delta.size(),
                               &error));
        const auto ref = refDecode(base, delta, &error);
        CHECK(ref.has_value() && state == *ref && state == data);

        // A mutated stream: same verdict and diagnostic as the
        // reference, and a refused one leaves the state as it was.
        const std::vector<std::uint8_t> bad = mutate(delta, rng);
        std::string refError;
        const auto want = refDecode(base, bad, &refError);
        state = base;
        error.clear();
        const bool applied =
            util::deltaApply(state, bad.data(), bad.size(), &error);
        CHECK_EQ(applied, want.has_value());
        if (applied) {
            CHECK(state == *want);
        } else {
            ++refusals;
            CHECK(state == base);
            CHECK_EQ(error, refError);
        }
    }
    CHECK(refusals > 0);
}

void
writeBytes(const std::string &path,
           const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
testStoreIndexJournalFuzz()
{
    Xoshiro256StarStar rng(0x5104e17dec0dedull);

    const std::string valid =
        std::string(kRoot) + "/valid-journal";
    const std::string target =
        std::string(kRoot) + "/fuzzed-journal";

    // Build a realistic journal: adds, touches, removes, replays.
    std::string error;
    const char *rels[] = {"a/lib1.smck", "a/lib2.smck",
                          "b/points.smlp", "mix-a+b/lib.smck"};
    std::uint64_t atime = 0;
    for (int round = 0; round < 6; ++round)
        for (const char *rel : rels) {
            CHECK(core::StoreIndex::appendRecord(
                valid, core::StoreIndex::Op::Add, rel,
                1000 + rng.below(50000), ++atime, &error));
            if (rng.chance(0.5))
                CHECK(core::StoreIndex::appendRecord(
                    valid, core::StoreIndex::Op::Touch, rel, 0,
                    ++atime, &error));
            if (rng.chance(0.2))
                CHECK(core::StoreIndex::appendRecord(
                    valid, core::StoreIndex::Op::Remove, rel, 0,
                    ++atime, &error));
        }

    // Sanity: the untouched journal replays.
    const auto sane = core::StoreIndex::load(valid, &error);
    CHECK(sane.has_value());
    const std::vector<std::uint8_t> journal = readBytes(valid);
    CHECK(journal.size() > 64);

    // Mutation loop: 10k corrupted journals must each either refuse
    // with a diagnostic or replay into a consistent index.
    std::uint64_t refused = 0;
    std::uint64_t replayed = 0;
    for (int i = 0; i < 10000; ++i) {
        writeBytes(target, mutate(journal, rng));
        std::string why;
        const auto index = core::StoreIndex::load(target, &why);
        if (index) {
            ++replayed;
            // Whatever replayed must be internally consistent.
            std::uint64_t total = 0;
            for (const auto &entry : index->entries())
                total += entry.second.bytes;
            CHECK_EQ(total, index->totalBytes());
            CHECK(index->entryCount() <= index->journalRecords());
        } else {
            ++refused;
            CHECK(!why.empty());
        }
    }
    CHECK(refused > 0);
    // Per-record checksums mean most byte flips are caught; a
    // replay can still succeed (e.g. mutations inside a record that
    // a truncation then drops), so don't require replays — but DO
    // require the loop saw refusals, and print nothing either way.

    // Pure-garbage files: never crash.
    for (int i = 0; i < 2000; ++i) {
        std::vector<std::uint8_t> garbage(rng.below(256));
        for (std::uint8_t &b : garbage)
            b = static_cast<std::uint8_t>(rng.next());
        writeBytes(target, garbage);
        std::string why;
        const auto index = core::StoreIndex::load(target, &why);
        if (!index)
            CHECK(!why.empty());
    }
    (void)replayed;
}

} // namespace

int
main()
{
    fs::remove_all(kRoot);
    fs::create_directories(kRoot);

    testDeltaCodecFuzz();
    testDeltaCodecMatchesReference();
    testStoreIndexJournalFuzz();
    TEST_MAIN_SUMMARY();
}
