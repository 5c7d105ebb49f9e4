/**
 * @file
 * smarts_runner: the distributed runner CLI
 * (docs/distributed-runners.md). One binary, two roles:
 *
 * RUNNER (default): point it at a queue directory and a checkpoint
 * store, it waits for the leader's manifest, claims every available
 * (config × unit-range) job, measures each range's units from the
 * store's live-points, publishes checksummed result files, and
 * exits.
 *
 *   smarts_runner --dir=queue --store=store [--id=host-3]
 *                 [--wait=30] [--stale=600]
 *
 * LEADER (--leader): ship the study's live-point libraries into the
 * store, publish the manifest, work alongside the runners (unless
 * --no-work), split the remaining ranges when a runner joins, and
 * fold the completed ranges into per-config estimates —
 * bit-identical to the serial SystematicSampler::run() at any runner
 * count and through any split history, which --serial-check
 * verifies on the spot.
 *
 *   smarts_runner --leader --dir=queue --store=store \
 *       --benchmark=sort-1 --scale=mini --machine=8 [--jobs=16] \
 *       [--unit=1000] [--warm=2000] [--interval=0 (auto)] \
 *       [--offset=0] [--timeout=600] [--no-work] [--serial-check]
 *
 * --jobs seeds the initial range count; the live partition under
 * <queue>/ranges/ re-grains from there as runners join.
 *
 * The queue directory is plain files — share it over NFS, rsync, or
 * any mounted filesystem; runners on other hosts only need the same
 * (or a copied) store directory.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint_store.hh"
#include "core/sampler.hh"
#include "core/session.hh"
#include "distrib/leader.hh"
#include "distrib/protocol.hh"
#include "distrib/runner.hh"
#include "uarch/config.hh"
#include "util/logging.hh"
#include "workloads/benchmark.hh"

#include <unistd.h>

using namespace smarts;

namespace {

struct Options
{
    bool leader = false;
    std::string dir;
    std::string store;
    std::string id;
    double wait = 30.0;
    double stale = -1.0;
    double pollMs = 100.0; ///< seeds the idle-poll backoff.

    // Leader-mode study parameters.
    std::string benchmark;
    workloads::Scale scale = workloads::Scale::Mini;
    bool runEight = true;
    bool runSixteen = false;
    std::uint64_t unit = 1000;
    std::uint64_t warm = 2000;
    std::uint64_t interval = 0; ///< 0 = auto (chooseInterval).
    std::uint64_t offset = 0;
    std::size_t jobs = 16; ///< initial unit-range count.
    double timeout = 600.0;
    bool work = true;
    bool serialCheck = false;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  %s --dir=<queue> --store=<store> [--id=<name>] "
        "[--wait=<s>] [--stale=<s>] [--poll-ms=<ms>]\n"
        "  %s --leader --dir=<queue> --store=<store> "
        "--benchmark=<name> [--scale=mini|small|large]\n"
        "      [--machine=8|16|both] [--unit=<U>] [--warm=<W>] "
        "[--interval=<k>|0=auto] [--offset=<j>]\n"
        "      [--jobs=<N>] [--timeout=<s>] [--poll-ms=<ms>] "
        "[--no-work] [--serial-check]\n"
        "see docs/distributed-runners.md\n",
        argv0, argv0);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *prefix) -> const char * {
            return arg.rfind(prefix, 0) == 0
                       ? arg.c_str() + std::strlen(prefix)
                       : nullptr;
        };
        if (arg == "--leader") {
            opt.leader = true;
        } else if (arg == "--no-work") {
            opt.work = false;
        } else if (arg == "--serial-check") {
            opt.serialCheck = true;
        } else if (const char *v = value("--dir=")) {
            opt.dir = v;
        } else if (const char *v2 = value("--store=")) {
            opt.store = v2;
        } else if (const char *v3 = value("--id=")) {
            opt.id = v3;
        } else if (const char *v4 = value("--wait=")) {
            opt.wait = std::atof(v4);
        } else if (const char *v5 = value("--stale=")) {
            opt.stale = std::atof(v5);
        } else if (const char *v6 = value("--benchmark=")) {
            opt.benchmark = v6;
        } else if (const char *v7 = value("--scale=")) {
            if (!std::strcmp(v7, "mini"))
                opt.scale = workloads::Scale::Mini;
            else if (!std::strcmp(v7, "small"))
                opt.scale = workloads::Scale::Small;
            else if (!std::strcmp(v7, "large"))
                opt.scale = workloads::Scale::Large;
            else
                SMARTS_FATAL("unknown scale '", v7, "'");
        } else if (const char *v8 = value("--machine=")) {
            opt.runEight =
                !std::strcmp(v8, "8") || !std::strcmp(v8, "both");
            opt.runSixteen =
                !std::strcmp(v8, "16") || !std::strcmp(v8, "both");
        } else if (const char *v9 = value("--unit=")) {
            opt.unit = std::strtoull(v9, nullptr, 10);
        } else if (const char *v10 = value("--warm=")) {
            opt.warm = std::strtoull(v10, nullptr, 10);
        } else if (const char *v11 = value("--interval=")) {
            opt.interval = std::strtoull(v11, nullptr, 10);
        } else if (const char *v12 = value("--offset=")) {
            opt.offset = std::strtoull(v12, nullptr, 10);
        } else if (const char *v13 = value("--jobs=")) {
            opt.jobs = std::strtoull(v13, nullptr, 10);
        } else if (const char *v14 = value("--timeout=")) {
            opt.timeout = std::atof(v14);
        } else if (const char *v15 = value("--poll-ms=")) {
            opt.pollMs = std::atof(v15);
            if (opt.pollMs <= 0.0)
                SMARTS_FATAL("--poll-ms must be positive");
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n",
                         arg.c_str());
            usage(argv[0]);
        }
    }
    if (opt.dir.empty() || opt.store.empty())
        usage(argv[0]);
    if (opt.leader && opt.benchmark.empty())
        usage(argv[0]);
    if (opt.id.empty())
        opt.id = log::format(opt.leader ? "leader-" : "runner-",
                             ::getpid());
    return opt;
}

int
runnerMain(const Options &opt)
{
    distrib::RunnerOptions ropt;
    ropt.id = opt.id;
    ropt.staleClaimSeconds = opt.stale;
    distrib::Runner runner(opt.dir, opt.store, ropt);

    std::string error;
    const auto manifest =
        runner.awaitManifest(opt.wait, &error, opt.pollMs);
    if (!manifest) {
        std::fprintf(stderr, "smarts_runner %s: %s\n",
                     opt.id.c_str(), error.c_str());
        return 1;
    }
    std::printf("smarts_runner %s: study %016llx — %s at U=%llu "
                "W=%llu k=%llu j=%llu, %zu config(s) x %zu "
                "unit-range(s)\n",
                opt.id.c_str(),
                static_cast<unsigned long long>(manifest->studyId),
                manifest->benchmark.name.c_str(),
                static_cast<unsigned long long>(
                    manifest->sampling.unitSize),
                static_cast<unsigned long long>(
                    manifest->sampling.detailedWarming),
                static_cast<unsigned long long>(
                    manifest->sampling.interval),
                static_cast<unsigned long long>(
                    manifest->sampling.offset),
                manifest->configs.size(), manifest->ranges.size());

    const std::size_t executed = runner.drain(*manifest);
    std::printf("smarts_runner %s: executed %zu job(s)\n",
                opt.id.c_str(), executed);
    return 0;
}

int
leaderMain(const Options &opt)
{
    const workloads::BenchmarkSpec spec =
        workloads::findBenchmark(opt.benchmark, opt.scale);
    std::vector<uarch::MachineConfig> configs;
    if (opt.runEight)
        configs.push_back(uarch::MachineConfig::eightWay());
    if (opt.runSixteen)
        configs.push_back(uarch::MachineConfig::sixteenWay());
    if (configs.empty())
        SMARTS_FATAL("--machine selected no configs");

    // The true stream length picks the sampling interval (one
    // functional pass).
    std::uint64_t length;
    {
        core::SimSession probe(spec, configs.front());
        length =
            probe.fastForward(~0ull >> 1, core::WarmingMode::None);
    }

    core::SamplingConfig sc;
    sc.unitSize = opt.unit;
    sc.detailedWarming = opt.warm;
    sc.warming = core::WarmingMode::Functional;
    sc.offset = opt.offset;
    sc.interval =
        opt.interval
            ? opt.interval
            : core::SamplingConfig::chooseInterval(
                  length, sc.unitSize, length / sc.unitSize / 4);

    // Ship the store BEFORE publishing the manifest: runners that
    // pounce on the manifest find every live-point library in place.
    core::CheckpointStore store(opt.store);
    const distrib::LivePointPlan plan =
        distrib::ensureStudyLivePoints(store, spec, configs, sc);
    const distrib::JobManifest manifest = distrib::planStudy(
        spec, configs, sc, plan.streamLength, plan.totalUnits,
        opt.jobs);

    std::printf("leader: study %016llx — %s (%.1f M insts) at "
                "U=%llu W=%llu k=%llu j=%llu; %zu config(s) x %zu "
                "unit-range(s) = %zu jobs over %llu units\n",
                static_cast<unsigned long long>(manifest.studyId),
                spec.name.c_str(),
                static_cast<double>(length) / 1e6,
                static_cast<unsigned long long>(sc.unitSize),
                static_cast<unsigned long long>(sc.detailedWarming),
                static_cast<unsigned long long>(sc.interval),
                static_cast<unsigned long long>(sc.offset),
                manifest.configs.size(), manifest.ranges.size(),
                manifest.jobCount(),
                static_cast<unsigned long long>(plan.totalUnits));
    std::printf("leader: store %s ready (%zu librar%s captured)\n",
                store.root().c_str(), plan.captured,
                plan.captured == 1 ? "y" : "ies");

    std::string error;
    if (!distrib::publishStudy(opt.dir, manifest, &error))
        SMARTS_FATAL("cannot publish manifest: ", error);
    std::printf("leader: manifest published at %s\n",
                distrib::manifestPath(opt.dir).c_str());

    distrib::RunnerOptions ropt;
    ropt.id = opt.id;
    ropt.staleClaimSeconds = opt.stale;
    distrib::Runner helper(opt.dir, opt.store, ropt);
    const auto estimates = distrib::collectStudy(
        opt.dir, manifest, opt.timeout,
        opt.work ? &helper : nullptr, &error, opt.pollMs);
    if (!estimates)
        SMARTS_FATAL("study failed: ", error);

    std::printf("\n");
    bool identical = true;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const core::SmartsEstimate &est = (*estimates)[c];
        std::printf("%-8s units %llu  CPI %.4f +/- %.2f%%  EPI "
                    "%.3f nJ  detailed %.2f%%\n",
                    configs[c].name.c_str(),
                    static_cast<unsigned long long>(est.units()),
                    est.cpi(),
                    est.cpiConfidenceInterval(0.997) * 100.0,
                    est.epi(), est.detailedFraction() * 100.0);
        if (opt.serialCheck) {
            core::SimSession serialSession(spec, configs[c]);
            const core::SmartsEstimate serial =
                core::SystematicSampler(sc).run(serialSession);
            const bool same =
                est.fingerprint() == serial.fingerprint();
            identical &= same;
            std::printf("%-8s bitwise identical to serial run(): "
                        "%s\n",
                        "", same ? "yes" : "NO");
        }
    }
    if (opt.serialCheck && !identical) {
        std::fprintf(stderr, "leader: merged estimate DIVERGED "
                             "from the serial run\n");
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    return opt.leader ? leaderMain(opt) : runnerMain(opt);
}
