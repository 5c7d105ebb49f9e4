/**
 * @file
 * Delta codec for consecutive checkpoint states: XOR the payload
 * against a base (the previous live-point's raw state), then
 * run-length encode the zero bytes. Successive sampling units share
 * almost all of their serialized state — data image, cache arrays,
 * predictor tables — so the XOR residue is overwhelmingly zero and a
 * library of per-unit live-points (core/livepoint.hh) stays within a
 * small multiple of one full checkpoint on disk.
 *
 * Encoded stream (little-endian, on top of BinaryWriter/Reader;
 * normative layout in docs/checkpoint-format.md § Version 2):
 *
 *   u64 rawSize
 *   repeat until rawSize bytes are covered:
 *     u32 zeroRun      XOR-residue bytes equal to the base
 *     u32 literalLen   differing bytes, XOR residues follow verbatim
 *     u8[literalLen]
 *
 * The base is conceptually zero-padded to rawSize, so the first
 * record of a chain deltas against an empty base and simply stores
 * its literal bytes. Decoding never trusts the stream: overrunning
 * ops, zero-progress ops, truncation and trailing garbage are all
 * refused with a diagnostic instead of mis-decoded.
 *
 * Both directions work a word at a time: the encoder finds zero
 * residue by XORing 8-byte words, and deltaApply() rewrites a chain's
 * running state in place — zero runs cost nothing, literals XOR in —
 * so decoding a record costs O(changed bytes), not O(state).
 */

#ifndef SMARTS_UTIL_DELTA_CODEC_HH
#define SMARTS_UTIL_DELTA_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace smarts::util {

/** Encode @p data as a delta against @p base (zero-padded). */
std::vector<std::uint8_t>
deltaEncode(const std::vector<std::uint8_t> &base,
            const std::vector<std::uint8_t> &data);

/**
 * Invert deltaEncode in place: turn @p state (the base) into the
 * payload encoded by the @p size delta bytes at @p bytes. The whole
 * op stream is validated first, so on any malformed input
 * (truncated stream, ops overrunning the declared size,
 * zero-progress ops, trailing garbage) this returns false with a
 * diagnostic in @p error and leaves @p state untouched.
 */
bool deltaApply(std::vector<std::uint8_t> &state,
                const std::uint8_t *bytes, std::size_t size,
                std::string *error = nullptr);

/**
 * Invert deltaEncode into a fresh buffer: a copy of @p base with
 * @p delta applied. Nullopt with a diagnostic in @p error on any
 * malformed input, as deltaApply().
 */
std::optional<std::vector<std::uint8_t>>
deltaDecode(const std::vector<std::uint8_t> &base,
            const std::vector<std::uint8_t> &delta,
            std::string *error = nullptr);

} // namespace smarts::util

#endif // SMARTS_UTIL_DELTA_CODEC_HH
