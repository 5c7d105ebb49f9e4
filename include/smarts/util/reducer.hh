/**
 * @file
 * Reducer: exact 32-bit division and remainder by a divisor fixed at
 * construction, without a hardware divide. Every cache set, TLB page
 * and BTB/RAS slot index on the simulator's per-instruction path is
 * a division by a geometry constant; a `div` costs 20-90 cycles
 * while the reductions here cost one AND/shift (power-of-two
 * divisors) or one or two multiplies (anything else).
 *
 * Non-power-of-two divisors use Lemire's direct remainder ("Faster
 * Remainder by Direct Computation", Lemire, Kaser and Kurz, SPE
 * 2019): with M = ceil(2^64 / d), a / d is the high 64 bits of M * a
 * and a % d is the high 64 bits of (M * a mod 2^64) * d. Both are
 * exact for every 32-bit a and every 32-bit d >= 2 (64 >= 32 +
 * log2 d), so one code path serves every geometry a config can name.
 */

#ifndef SMARTS_UTIL_REDUCER_HH
#define SMARTS_UTIL_REDUCER_HH

#include <cstdint>

#include "util/logging.hh"

namespace smarts::util {

class Reducer
{
  public:
    /** Division by 1. */
    Reducer() = default;

    explicit Reducer(std::uint32_t d) : divisor_(d)
    {
        if (!d)
            SMARTS_FATAL("reducer: division by zero");
        pow2_ = (d & (d - 1)) == 0;
        if (pow2_) {
            mask_ = d - 1;
            while ((1u << shift_) < d)
                ++shift_;
        } else {
            magic_ = ~std::uint64_t(0) / d + 1;
        }
    }

    /** a / d, exact. */
    std::uint32_t
    div(std::uint32_t a) const
    {
        if (pow2_)
            return a >> shift_;
        return static_cast<std::uint32_t>(
            (static_cast<unsigned __int128>(magic_) * a) >> 64);
    }

    /** a % d, exact. */
    std::uint32_t
    mod(std::uint32_t a) const
    {
        if (pow2_)
            return a & mask_;
        const std::uint64_t low = magic_ * a;
        return static_cast<std::uint32_t>(
            (static_cast<unsigned __int128>(low) * divisor_) >> 64);
    }

    std::uint32_t
    divisor() const
    {
        return divisor_;
    }

  private:
    std::uint64_t magic_ = 0; ///< ceil(2^64 / d), non-power-of-two d.
    std::uint32_t divisor_ = 1;
    std::uint32_t mask_ = 0;  ///< d - 1, power-of-two d.
    std::uint32_t shift_ = 0; ///< log2(d), power-of-two d.
    bool pow2_ = true;
};

} // namespace smarts::util

#endif // SMARTS_UTIL_REDUCER_HH
