/**
 * @file
 * What the single-program workloads (study, sweep) share: one
 * reseeded benchmark suite on the 8-way machine, its set-up, its
 * serial mode and its rate-model probes.
 */

#ifndef PERFBENCH_SOLO_HH
#define PERFBENCH_SOLO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/sampler.hh"
#include "harness.hh"
#include "uarch/config.hh"

namespace perfbench {

class SoloSuite
{
  public:
    /**
     * @p specs sampled with U=1000, W=2000 and functional warming, k
     * chosen for about @p unitsPerBenchmark measured units each.
     */
    SoloSuite(std::string workload,
              std::vector<smarts::workloads::BenchmarkSpec> specs,
              std::uint64_t unitsPerBenchmark, Tracer &tracer,
              Report &report);

    std::size_t
    size() const
    {
        return specs_.size();
    }

    const smarts::workloads::BenchmarkSpec &
    spec(std::size_t i) const
    {
        return specs_[i];
    }

    std::uint64_t
    length(std::size_t i) const
    {
        return lengths_[i];
    }

    const smarts::core::SamplingConfig &
    design(std::size_t i) const
    {
        return designs_[i];
    }

    /** The first serial estimate of benchmark @p i. */
    const smarts::core::SmartsEstimate &
    serialEstimate(std::size_t i) const
    {
        return serial_[i];
    }

    /** The 8-way baseline machine. */
    const smarts::uarch::MachineConfig &
    machine() const
    {
        return machine_;
    }

    smarts::core::SessionFactory
    factory(std::size_t i, const smarts::uarch::MachineConfig &machine) const;

    /**
     * Set-up: build each program (span workloads.build) and run the
     * stream-length probe over it (span core.ff_none).
     */
    void setup();

    /**
     * The serial mode: SystematicSampler::run per benchmark. The
     * first call keeps and prints the estimates; later calls must
     * reproduce them.
     */
    void serial();

    /**
     * S_FW and S_D probes over the same streams (spans
     * core.ff_functional, core.detailed); call under the layers root.
     */
    void rateProbes();

    /** workloads.build_s and the core.* per-layer metrics. */
    void reportCore(const Tracer &tracer, Report &report) const;

  private:
    const std::string workload_;
    const std::vector<smarts::workloads::BenchmarkSpec> specs_;
    const std::uint64_t unitsPerBenchmark_;
    Tracer &tracer_;
    Report &report_;
    const smarts::uarch::MachineConfig machine_ =
        smarts::uarch::MachineConfig::eightWay();
    std::vector<std::uint64_t> lengths_;
    std::vector<smarts::core::SamplingConfig> designs_;
    std::vector<smarts::core::SmartsEstimate> serial_;
    std::uint64_t sfwInsts_ = 0, sdInsts_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SOLO_HH
