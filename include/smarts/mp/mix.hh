/**
 * @file
 * Workload mixes and per-program QoS estimates for multi-programmed
 * co-run sampling (the ROADMAP's SMT/co-run scenario tier). A
 * WorkloadMix names 2+ benchmarks co-running over one shared memory
 * hierarchy (mem/shared_hierarchy.hh); MixEstimate carries, per
 * program, a co-run SmartsEstimate AND a would-be-solo
 * SmartsEstimate measured from the SAME sampling units via the
 * shadow-L2 second timing pass — the paper's matched-pair trick
 * (core/sampler.hh MatchedEstimate) applied to workload mixes
 * instead of machine configs. The per-unit (co - solo) CPI deltas
 * give a paired confidence interval on the slowdown that is far
 * tighter than combining independent solo and co-run runs.
 */

#ifndef SMARTS_MP_MIX_HH
#define SMARTS_MP_MIX_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "core/sampler.hh"
#include "mem/shared_hierarchy.hh"
#include "stats/confidence.hh"
#include "stats/online_stats.hh"
#include "uarch/config.hh"
#include "workloads/benchmark.hh"

namespace smarts::mp {

/** 2+ programs co-running over one shared hierarchy. */
struct WorkloadMix
{
    std::string name; ///< "<a>+<b>": derived from the programs.
    std::vector<workloads::BenchmarkSpec> programs;
    mem::PartitionPolicy policy = mem::PartitionPolicy::Shared;

    static WorkloadMix
    of(std::vector<workloads::BenchmarkSpec> programs,
       mem::PartitionPolicy policy = mem::PartitionPolicy::Shared)
    {
        WorkloadMix mix;
        for (const workloads::BenchmarkSpec &spec : programs) {
            if (!mix.name.empty())
                mix.name += '+';
            mix.name += spec.name;
        }
        mix.programs = std::move(programs);
        mix.policy = policy;
        return mix;
    }
};

/**
 * One program's matched co-run/solo estimate: both worlds observed
 * on the identical sampling units of the identical instruction
 * stream, plus the per-unit CPI-difference statistics and the
 * shared/shadow L2 miss counters behind the solo-miss-rate claim.
 */
struct MixProgramEstimate
{
    core::SmartsEstimate coRun; ///< the co-run (shared-L2) world.
    core::SmartsEstimate solo;  ///< the shadow (solo-L2) world.

    /** Per-unit (co-run CPI - solo CPI): the matched pairs. */
    stats::OnlineStats cpiDelta;

    // Shared vs shadow L2 traffic over the measured units: the
    // per-program solo-miss-rate estimate the shadow tags exist for.
    std::uint64_t sharedAccesses = 0;
    std::uint64_t sharedMisses = 0;
    std::uint64_t shadowAccesses = 0;
    std::uint64_t shadowMisses = 0;

    /** QoS slowdown: co-run CPI over would-be-solo CPI (>= 1). */
    double
    slowdown() const
    {
        return solo.cpi() != 0.0 ? coRun.cpi() / solo.cpi() : 0.0;
    }

    /** Estimated L2 miss rate the program would see running alone. */
    double
    soloMissRate() const
    {
        return shadowAccesses ? static_cast<double>(shadowMisses) /
                                    static_cast<double>(shadowAccesses)
                              : 0.0;
    }

    /** L2 miss rate the program actually sees inside the co-run. */
    double
    coMissRate() const
    {
        return sharedAccesses ? static_cast<double>(sharedMisses) /
                                    static_cast<double>(sharedAccesses)
                              : 0.0;
    }

    /** Absolute CI half-width on the mean CPI delta at @p level. */
    double
    deltaCiAbs(double level) const
    {
        return stats::zScore(level) * cpiDelta.meanError();
    }

    /**
     * Matched-pair CI half-width on the slowdown, relative to the
     * solo CPI — the number to compare against an unmatched
     * two-run CI in the same units.
     */
    double
    deltaCiRelative(double level) const
    {
        return solo.cpi() != 0.0 ? deltaCiAbs(level) / solo.cpi()
                                 : 0.0;
    }

    /**
     * What INDEPENDENT solo and co-run runs would put on the same
     * delta, relative to the solo CPI: the root-sum-square of the
     * two per-world absolute half-widths (mirrors
     * core::MatchedEstimate::independentDeltaCiRelative).
     */
    double
    independentDeltaCiRelative(double level) const
    {
        if (solo.cpi() == 0.0)
            return 0.0;
        const double a =
            solo.cpiConfidenceInterval(level) * solo.cpi();
        const double b =
            coRun.cpiConfidenceInterval(level) * coRun.cpi();
        return std::sqrt(a * a + b * b) / solo.cpi();
    }

    /**
     * Matched-pair CI half-width on the slowdown ITSELF, relative
     * to the slowdown — the delta method on the ratio of per-unit
     * CPI means. The slowdown is a ratio, so absolute CPI deltas
     * are the wrong pairs for phased programs (phase magnitude
     * never cancels); the ratio CI pairs through the per-unit
     * co/solo covariance instead, which is recovered exactly from
     * the three accumulated variances:
     * var(co - solo) = var(co) + var(solo) - 2 cov.
     */
    double
    slowdownCiRelative(double level) const
    {
        const double n = static_cast<double>(cpiDelta.count());
        const double mc = coRun.cpiStats.mean();
        const double ms = solo.cpiStats.mean();
        if (n < 2.0 || mc == 0.0 || ms == 0.0)
            return 0.0;
        const double vc = coRun.cpiStats.variance();
        const double vs = solo.cpiStats.variance();
        const double cov =
            0.5 * (vc + vs - cpiDelta.variance());
        const double rel2 = vc / (mc * mc) + vs / (ms * ms) -
                            2.0 * cov / (mc * ms);
        return stats::zScore(level) *
               std::sqrt(std::max(0.0, rel2) / n);
    }

    /**
     * The same delta-method slowdown CI with the covariance term
     * dropped: what independent solo and co-run runs over the same
     * number of units would put on the ratio. slowdownCiRelative /
     * independentSlowdownCiRelative is therefore a pure measure of
     * the matched-pair payoff — same estimator, same units, the
     * pairing is the only difference.
     */
    double
    independentSlowdownCiRelative(double level) const
    {
        const double n = static_cast<double>(cpiDelta.count());
        const double mc = coRun.cpiStats.mean();
        const double ms = solo.cpiStats.mean();
        if (n < 2.0 || mc == 0.0 || ms == 0.0)
            return 0.0;
        const double rel2 =
            coRun.cpiStats.variance() / (mc * mc) +
            solo.cpiStats.variance() / (ms * ms);
        return stats::zScore(level) * std::sqrt(rel2 / n);
    }

    /**
     * Bit-exact fingerprint: both worlds' SmartsEstimate
     * fingerprints, the delta statistics, and the L2 counters —
     * the ONE definition behind the mix determinism contracts
     * (tests/test_mix.cc, the bench mix section's bitwise verdict).
     */
    std::vector<std::uint64_t>
    fingerprint() const
    {
        auto bits = [](double v) {
            std::uint64_t b;
            std::memcpy(&b, &v, sizeof b);
            return b;
        };
        std::vector<std::uint64_t> fp = coRun.fingerprint();
        const std::vector<std::uint64_t> soloFp = solo.fingerprint();
        fp.insert(fp.end(), soloFp.begin(), soloFp.end());
        fp.push_back(cpiDelta.count());
        fp.push_back(bits(cpiDelta.mean()));
        fp.push_back(bits(cpiDelta.variance()));
        fp.push_back(sharedAccesses);
        fp.push_back(sharedMisses);
        fp.push_back(shadowAccesses);
        fp.push_back(shadowMisses);
        return fp;
    }
};

/** The sampled estimate of a whole mix: one entry per program. */
struct MixEstimate
{
    std::vector<MixProgramEstimate> perProgram;

    /** Concatenated per-program fingerprints (bit-identity tests). */
    std::vector<std::uint64_t>
    fingerprint() const
    {
        std::vector<std::uint64_t> fp;
        fp.push_back(perProgram.size());
        for (const MixProgramEstimate &p : perProgram) {
            const std::vector<std::uint64_t> one = p.fingerprint();
            fp.insert(fp.end(), one.begin(), one.end());
        }
        return fp;
    }
};

/**
 * Warm-geometry hash of a CO-RUN: the machine's solo geometry hash
 * (uarch::warmGeometryHash — the private lanes and the shadow L2s
 * warm exactly that state) folded with everything else that shapes
 * shared warm state: the program count, the partitioning policy,
 * and every program's full identity (the shared L2's contents
 * depend on every co-runner's stream, not just this key's
 * benchmark field).
 */
inline std::uint64_t
mixGeometryHash(const uarch::MachineConfig &machine,
                const WorkloadMix &mix)
{
    std::uint64_t h = uarch::warmGeometryHash(machine);
    auto mixIn = [&h](std::uint64_t v) {
        std::uint8_t bytes[8];
        util::storeLE(bytes, v);
        h = util::fnv1a(bytes, sizeof bytes, h);
    };
    mixIn(mix.programs.size());
    mixIn(static_cast<std::uint64_t>(mix.policy));
    for (const workloads::BenchmarkSpec &spec : mix.programs) {
        h = util::fnv1a(
            reinterpret_cast<const std::uint8_t *>(spec.name.data()),
            spec.name.size(), h);
        mixIn(static_cast<std::uint64_t>(spec.kernel));
        mixIn(spec.variant);
        mixIn(spec.seed);
        mixIn(static_cast<std::uint64_t>(spec.scale));
    }
    return h;
}

/**
 * Store key of a mix's checkpoint library: a synthetic benchmark
 * spec named after the mix (its own store subdirectory) with the
 * co-run geometry hash — which folds every program's identity and
 * the policy, so a mis-keyed load refuses exactly as solo libraries
 * do. The sampling config is in ROUNDS (one instruction per program
 * per round).
 */
inline core::LibraryKey
mixKey(const WorkloadMix &mix, const uarch::MachineConfig &machine,
       const core::SamplingConfig &sampling)
{
    core::LibraryKey key;
    key.benchmark.name = "mix-" + mix.name;
    key.benchmark.kernel = mix.programs.empty()
                               ? workloads::Kernel::Alu
                               : mix.programs.front().kernel;
    key.benchmark.variant =
        static_cast<std::uint32_t>(mix.programs.size());
    key.benchmark.seed =
        mix.programs.empty() ? 0 : mix.programs.front().seed;
    key.benchmark.scale = mix.programs.empty()
                              ? workloads::Scale::Mini
                              : mix.programs.front().scale;
    key.geometryHash = mixGeometryHash(machine, mix);
    key.sampling = sampling;
    return key;
}

} // namespace smarts::mp

#endif // SMARTS_MP_MIX_HH
