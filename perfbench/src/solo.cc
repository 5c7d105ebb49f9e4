#include "solo.hh"

#include <memory>

#include "core/session.hh"

namespace perfbench {

using namespace smarts;

namespace {

/** Instructions per benchmark of the S_D probe (detailedRun). */
constexpr std::uint64_t kDetailedProbe = 1'000'000;

} // namespace

SoloSuite::SoloSuite(std::string workload,
                     std::vector<workloads::BenchmarkSpec> specs,
                     std::uint64_t unitsPerBenchmark, Tracer &tracer,
                     Report &report)
    : workload_(std::move(workload)), specs_(std::move(specs)),
      unitsPerBenchmark_(unitsPerBenchmark), tracer_(tracer),
      report_(report)
{
}

core::SessionFactory
SoloSuite::factory(std::size_t i,
                   const uarch::MachineConfig &machine) const
{
    return [this, i, machine] {
        return std::make_unique<core::SimSession>(specs_[i], machine);
    };
}

void
SoloSuite::setup()
{
    lengths_.assign(size(), 0);
    designs_.assign(size(), core::SamplingConfig{});
    for (std::size_t i = 0; i < size(); ++i) {
        std::unique_ptr<core::SimSession> session;
        {
            Tracer::Scope s(tracer_, "workloads.build");
            session = factory(i, machine_)();
        }
        {
            Tracer::Scope s(tracer_, "core.ff_none");
            lengths_[i] = session->fastForward(~0ull >> 1,
                                               core::WarmingMode::None);
        }
        core::SamplingConfig &sc = designs_[i];
        sc.unitSize = 1000;
        sc.detailedWarming = 2000;
        sc.warming = core::WarmingMode::Functional;
        sc.interval = core::SamplingConfig::chooseInterval(
            lengths_[i], sc.unitSize, unitsPerBenchmark_);
    }
}

void
SoloSuite::serial()
{
    const bool first = serial_.empty();
    for (std::size_t i = 0; i < size(); ++i) {
        std::unique_ptr<core::SimSession> session;
        {
            Tracer::Scope s(tracer_, "workloads.build");
            session = factory(i, machine_)();
        }
        core::SmartsEstimate est;
        {
            Tracer::Scope s(tracer_, "sampler.run");
            est = core::SystematicSampler(designs_[i]).run(*session);
        }
        if (first) {
            serial_.push_back(est);
            printEstimate(workload_, specs_[i].name + " serial",
                          est.cpi(),
                          est.cpiConfidenceInterval(kConfidence));
        } else {
            report_.check(sameEstimate(est, serial_[i]),
                          workload_ + " " + specs_[i].name +
                              ": serial run is not deterministic");
        }
    }
}

void
SoloSuite::rateProbes()
{
    for (std::size_t i = 0; i < size(); ++i) {
        {
            const auto session = factory(i, machine_)();
            Tracer::Scope s(tracer_, "core.ff_functional");
            sfwInsts_ += session->fastForward(
                ~0ull >> 1, core::WarmingMode::Functional);
        }
        const auto session = factory(i, machine_)();
        Tracer::Scope s(tracer_, "core.detailed");
        sdInsts_ += session->detailedRun(kDetailedProbe).instructions;
    }
}

void
SoloSuite::reportCore(const Tracer &tracer, Report &report) const
{
    std::uint64_t stream = 0, detailed = 0, sfInsts = 0;
    for (std::size_t i = 0; i < size(); ++i) {
        const core::SmartsEstimate &e = serial_[i];
        stream += e.streamLength;
        detailed += e.instructionsMeasured + e.instructionsWarmed +
                    e.instructionsDropped;
        sfInsts += lengths_[i];
    }
    report.add("workloads.build_s",
               tracer.selfPerRoot("setup", "workloads.build"), "s");
    report.add("core.sf_ns",
               nsPerInst(tracer.selfPerRoot("setup", "core.ff_none"),
                         sfInsts),
               "ns");
    report.add("core.sfw_ns",
               nsPerInst(tracer.selfPerRoot("layers",
                                            "core.ff_functional"),
                         sfwInsts_),
               "ns");
    report.add("core.sd_ns",
               nsPerInst(tracer.selfPerRoot("layers", "core.detailed"),
                         sdInsts_),
               "ns");
    report.add("core.insts_stream", static_cast<double>(stream),
               "count");
    report.add("core.insts_detailed", static_cast<double>(detailed),
               "count");
}

} // namespace perfbench
