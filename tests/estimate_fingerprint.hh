/**
 * @file
 * Test-suite alias for the bit-exact SmartsEstimate fingerprint.
 * The ONE definition lives on the estimate itself
 * (core/sampler.hh, SmartsEstimate::fingerprint) so the tests, the
 * golden benches and smarts_runner --serial-check all tighten
 * together when the estimate grows a field; this header only keeps
 * the suites' free-function spelling, plus the truncating design the
 * suites use to pin the truncated-unit accounting.
 */

#ifndef SMARTS_TESTS_ESTIMATE_FINGERPRINT_HH
#define SMARTS_TESTS_ESTIMATE_FINGERPRINT_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/sampler.hh"

namespace smarts::test {

/** Raw bit pattern of a double (bit-exact comparisons in checks). */
inline std::uint64_t
bitsOf(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

inline std::vector<std::uint64_t>
fingerprint(const core::SmartsEstimate &est)
{
    return est.fingerprint();
}

/**
 * A U/W/k design whose LAST measured unit is truncated by the end of
 * a @p length-position stream: U is nudged off any divisor of the
 * length, and the offset aligns the grid on the stream's final,
 * partial unit — so instructionsDropped is nonzero.
 */
inline core::SamplingConfig
truncatingDesign(std::uint64_t length, std::uint64_t interval)
{
    core::SamplingConfig sc;
    sc.unitSize = 1000;
    sc.detailedWarming = 2000;
    sc.interval = interval;
    sc.warming = core::WarmingMode::Functional;
    while (length % sc.unitSize == 0)
        ++sc.unitSize;
    sc.offset = ((length - 1) / sc.unitSize) % interval;
    return sc;
}

} // namespace smarts::test

#endif // SMARTS_TESTS_ESTIMATE_FINGERPRINT_HH
