/**
 * @file
 * The synthetic benchmark suite standing in for SPEC2000: named,
 * deterministic SISA instruction streams with distinct
 * microarchitectural personalities (branch-heavy, memory-bound,
 * phase-alternating, ...). Suites come in three scales so benches
 * can trade fidelity for runtime.
 */

#ifndef SMARTS_WORKLOADS_BENCHMARK_HH
#define SMARTS_WORKLOADS_BENCHMARK_HH

#include <cstdint>
#include <string>
#include <vector>

namespace smarts::util {
class BinaryReader;
class BinaryWriter;
} // namespace smarts::util

namespace smarts::workloads {

/** Stream-length scale: ~2M / ~12M / ~120M dynamic instructions. */
enum class Scale
{
    Mini,
    Small,
    Large,
};

/** The generator kernel behind a benchmark. */
enum class Kernel
{
    Sort,    ///< repeated refill + insertion sort: data-dep branches.
    Bsearch, ///< random-key binary search: mispredict-dominated.
    Fsm,     ///< table-driven state machine: dependent loads.
    Phase,   ///< alternating memory/ALU/branch phases: high V at large U.
    Stream,  ///< c[i] = a[i] + b[i] over L2-busting arrays.
    Chase,   ///< pointer chase over a permutation ring.
    Alu,     ///< register-only LCG mix: near the issue-width bound.
    Mix,     ///< random loads + stores + hard branches.
};

struct BenchmarkSpec
{
    std::string name;
    Kernel kernel = Kernel::Alu;
    std::uint32_t variant = 1;
    std::uint64_t seed = 1;
    Scale scale = Scale::Mini;

    /**
     * Field order is normative (docs/checkpoint-format.md § Key):
     * every library key and the mix identity block embed it.
     */
    void write(util::BinaryWriter &out) const;
    static BenchmarkSpec read(util::BinaryReader &in);
};

/** Approximate dynamic-instruction budget for a scale. */
std::uint64_t instructionBudget(Scale scale);

/** The 6-benchmark quick suite (one per major personality). */
std::vector<BenchmarkSpec> quickSuite(Scale scale);

/** The 12-benchmark standard suite (quick + second variants). */
std::vector<BenchmarkSpec> standardSuite(Scale scale);

/** Look up a benchmark by name at a scale; fatal if unknown. */
BenchmarkSpec findBenchmark(const std::string &name, Scale scale);

} // namespace smarts::workloads

#endif // SMARTS_WORKLOADS_BENCHMARK_HH
