/**
 * @file
 * Exec-layer tests: work-stealing pool correctness (all jobs run,
 * reusable across batches, many more jobs than workers), the
 * single-config engine path agreeing bit-for-bit with the classic
 * SimSession sampler, and the tentpole's safety net — the same
 * ExperimentRunner batch at 1, 2, and 5 threads must produce
 * byte-identical SmartsEstimates.
 */

#include <atomic>
#include <cstring>
#include <vector>

#include "core/multi_session.hh"
#include "core/sampler.hh"
#include "core/session.hh"
#include "exec/experiment.hh"
#include "exec/thread_pool.hh"
#include "uarch/config.hh"
#include "workloads/benchmark.hh"

#include "check.hh"
#include "estimate_fingerprint.hh"

using namespace smarts;

namespace {

void
testPoolRunsEveryJob()
{
    exec::ThreadPool pool(4);
    CHECK_EQ(pool.threadCount(), 4u);

    std::atomic<int> sum{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&sum, i] { sum += i; });
    pool.wait();
    CHECK_EQ(sum.load(), 4950);

    // The pool is reusable after wait().
    std::vector<int> out(257, 0);
    exec::parallelForIndexed(pool, out.size(), [&out](std::size_t i) {
        out[i] = static_cast<int>(i) * 3;
    });
    for (std::size_t i = 0; i < out.size(); ++i)
        if (out[i] != static_cast<int>(i) * 3) {
            CHECK(out[i] == static_cast<int>(i) * 3);
            break;
        }
    CHECK_EQ(out[256], 768);

    // wait() with nothing pending returns immediately.
    pool.wait();
}

void
testPoolUnevenJobsSteal()
{
    // One long job pins a worker; the short jobs must still drain
    // via stealing rather than queueing behind it.
    exec::ThreadPool pool(2);
    std::atomic<int> done{0};
    pool.submit([&done] {
        volatile double x = 1.0;
        for (int i = 0; i < 2'000'000; ++i)
            x = x * 1.0000001 + 0.1;
        ++done;
    });
    for (int i = 0; i < 50; ++i)
        pool.submit([&done] { ++done; });
    pool.wait();
    CHECK_EQ(done.load(), 51);
}

/** Bit-exact fingerprint of an estimate set. */
void
fingerprint(const core::MatchedEstimate &est,
            std::vector<std::uint64_t> &out)
{
    auto addDouble = [&out](double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        out.push_back(bits);
    };
    for (const core::SmartsEstimate &e : est.perConfig) {
        out.push_back(e.units());
        addDouble(e.cpi());
        addDouble(e.epi());
        addDouble(e.cpiStats.variance());
        addDouble(e.epiStats.variance());
        out.push_back(e.instructionsMeasured);
        out.push_back(e.instructionsWarmed);
        out.push_back(e.streamLength);
    }
    for (const stats::OnlineStats &d : est.cpiDelta) {
        out.push_back(d.count());
        addDouble(d.mean());
        addDouble(d.variance());
    }
}

std::vector<exec::ExperimentSpec>
determinismBatch()
{
    const auto c8 = uarch::MachineConfig::eightWay();
    const auto c16 = uarch::MachineConfig::sixteenWay();
    std::vector<exec::ExperimentSpec> specs;
    for (const char *name : {"sort-1", "bsearch-1", "mix-1"}) {
        exec::ExperimentSpec spec;
        spec.benchmark =
            workloads::findBenchmark(name, workloads::Scale::Mini);
        spec.configs = {c8, c16};
        spec.sampling.unitSize = 1000;
        spec.sampling.detailedWarming = 2000;
        spec.sampling.interval = 40;
        spec.sampling.warming = core::WarmingMode::Functional;
        spec.randomizeOffset = true;
        specs.push_back(spec);

        // A single-config cell in the same batch.
        exec::ExperimentSpec single = spec;
        single.configs = {c8};
        single.randomizeOffset = false;
        specs.push_back(single);
    }
    return specs;
}

void
testEstimatesIdenticalAcrossThreadCounts()
{
    const auto specs = determinismBatch();

    std::vector<std::uint64_t> prints[3];
    const unsigned threadCounts[3] = {1, 2, 5};
    for (int t = 0; t < 3; ++t) {
        exec::ExperimentRunner runner(threadCounts[t]);
        const auto results = runner.run(specs);
        CHECK_EQ(results.size(), specs.size());
        for (const exec::ExperimentResult &r : results)
            fingerprint(r.estimate, prints[t]);
    }
    CHECK(!prints[0].empty());
    CHECK(prints[0] == prints[1]);
    CHECK(prints[0] == prints[2]);
}

void
testJobSeedIsSchedulingIndependent()
{
    const auto specs = determinismBatch();
    // Seeds depend only on (spec, index): recomputing them matches
    // what the runner recorded, at any thread count.
    exec::ExperimentRunner runner(3);
    const auto results = runner.run(specs);
    for (std::size_t i = 0; i < specs.size(); ++i)
        CHECK_EQ(results[i].rngSeed,
                 exec::ExperimentRunner::jobSeed(specs[i], i));
    // Distinct jobs get distinct seeds.
    CHECK(results[0].rngSeed != results[1].rngSeed);
}

void
testSingleConfigEngineMatchesClassicSampler()
{
    const auto c8 = uarch::MachineConfig::eightWay();
    const auto spec =
        workloads::findBenchmark("fsm-1", workloads::Scale::Mini);
    core::SamplingConfig sc;
    sc.unitSize = 1000;
    sc.detailedWarming = 2000;
    sc.interval = 25;
    sc.warming = core::WarmingMode::Functional;

    core::SimSession probe(spec, c8);
    const core::SamplingConfig truncating = test::truncatingDesign(
        probe.fastForward(~0ull >> 1, core::WarmingMode::None), 25);

    for (const core::SamplingConfig &design : {sc, truncating}) {
        core::SimSession classic(spec, c8);
        const core::SmartsEstimate a =
            core::SystematicSampler(design).run(classic);

        core::MultiSession multi(spec, {c8});
        const core::MatchedEstimate b =
            core::SystematicSampler(design).runMatched(multi);

        // The truncating design must really drop its final unit, or
        // the dropped-instruction accounting goes unpinned.
        if (design == truncating)
            CHECK(a.instructionsDropped > 0);
        CHECK(a.units() > 0);
        // Bit-exact on every field, not just close.
        CHECK(test::fingerprint(a) == test::fingerprint(b.perConfig[0]));
    }
}

void
testMatchedPairsShareUnits()
{
    const auto c8 = uarch::MachineConfig::eightWay();
    const auto c16 = uarch::MachineConfig::sixteenWay();
    const auto spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    core::SamplingConfig sc;
    sc.unitSize = 1000;
    sc.detailedWarming = 2000;
    sc.interval = 20;
    sc.warming = core::WarmingMode::Functional;

    core::MultiSession multi(spec, {c8, c16});
    const core::MatchedEstimate est =
        core::SystematicSampler(sc).runMatched(multi);

    // Both configs measured the same number of units over the same
    // stream, and the per-config estimates match dedicated
    // single-config runs bit-for-bit (the matched engine does not
    // perturb either machine's simulation).
    CHECK_EQ(est.perConfig[0].units(), est.perConfig[1].units());
    CHECK(est.perConfig[0].units() > 0);
    CHECK_EQ(est.cpiDelta[1].count(), est.perConfig[0].units());

    core::SimSession solo16(spec, c16);
    const core::SmartsEstimate ref16 =
        core::SystematicSampler(sc).run(solo16);
    CHECK_EQ(est.perConfig[1].cpi(), ref16.cpi());

    // The delta stats really are (cpi_16 - cpi_8) per unit.
    CHECK_NEAR(est.cpiDelta[1].mean(),
               est.perConfig[1].cpi() - est.perConfig[0].cpi(),
               1e-12);
    // Matched pairs beat two independent runs on the comparison CI.
    CHECK(est.deltaCiRelative(1, 0.997) <
          est.independentDeltaCiRelative(1, 0.997));
}

} // namespace

int
main()
{
    testPoolRunsEveryJob();
    testPoolUnevenJobsSteal();
    testEstimatesIdenticalAcrossThreadCounts();
    testJobSeedIsSchedulingIndependent();
    testSingleConfigEngineMatchesClassicSampler();
    testMatchedPairsShareUnits();
    TEST_MAIN_SUMMARY();
}
