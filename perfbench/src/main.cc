/**
 * @file
 * smarts_perf: the repository benchmark.
 *
 *   smarts_perf --workload study|sweep|corun [--seed N] [--seconds S]
 *               [--trace 0|1]
 *
 * Runs one workload, checks every estimate it produces, and prints
 * one JSON result line last: the end-to-end metrics, or with
 * --trace 1 the per-layer metrics from a span-traced run (spans are
 * also written as a Chrome trace under the build directory).
 * perfbench/NOTES.md describes the workloads and metrics.
 */

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "harness.hh"

namespace {

using namespace perfbench;

/**
 * Every per-layer metric, as BENCHMARK.json lists them. A workload
 * whose path does not reach a layer reports that layer's metrics as
 * 0, so every trace run prints the full set.
 */
const struct
{
    const char *name;
    const char *unit;
} kPerLayer[] = {
    {"workloads.build_s", "s"},
    {"core.sf_ns", "ns"},
    {"core.sfw_ns", "ns"},
    {"core.sd_ns", "ns"},
    {"core.insts_stream", "count"},
    {"core.insts_detailed", "count"},
    {"checkpoint.capture_s", "s"},
    {"checkpoint.mb", "MiB"},
    {"store.save_s", "s"},
    {"store.load_s", "s"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.saves", "count"},
    {"store.stat_calls", "count"},
    {"sampler.shard_measure_s", "s"},
    {"exec.speedup_2t", "x"},
    {"livepoint.capture_s", "s"},
    {"livepoint.save_s", "s"},
    {"livepoint.read_s", "s"},
    {"livepoint.decode_s", "s"},
    {"livepoint.measure_s", "s"},
    {"livepoint.units_available", "count"},
    {"livepoint.units_measured", "count"},
    {"livepoint.useful_ratio", "ratio"},
    {"livepoint.mem_mb", "MiB"},
    {"livepoint.file_mb", "MiB"},
    {"mp.stream_s", "s"},
    {"mp.capture_s", "s"},
    {"mp.measure_s", "s"},
    {"mp.library_mb", "MiB"},
    {"mp.shared_l2_accesses", "count"},
    {"mp.shared_l2_misses", "count"},
    {"mp.shadow_l2_accesses", "count"},
    {"mp.shadow_l2_misses", "count"},
    {"accuracy.cpi_err_pct", "%"},
    {"accuracy.ci_miss", "count"},
    {"accuracy.estimates", "count"},
    {"trace.serial_s.untraced", "s"},
    {"trace.serial_s.traced", "s"},
    {"trace.serial_s.spans", "s"},
    {"trace.cold_s.untraced", "s"},
    {"trace.cold_s.traced", "s"},
    {"trace.cold_s.spans", "s"},
    {"trace.warm_s.untraced", "s"},
    {"trace.warm_s.traced", "s"},
    {"trace.warm_s.spans", "s"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "smarts_perf: " << why
              << "\nusage: smarts_perf --workload study|sweep|corun "
                 "[--seed N] [--seconds S] [--trace 0|1]\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                opt.workload = value;
            else if (flag == "--seed")
                opt.seed = std::stoull(value);
            else if (flag == "--seconds")
                opt.seconds = std::stod(value);
            else if (flag == "--trace" && (value == "0" || value == "1"))
                opt.trace = value == "1";
            else
                usage("bad argument " + flag + " " + value);
        } catch (const std::exception &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (opt.workload != "study" && opt.workload != "sweep" &&
        opt.workload != "corun")
        usage("unknown workload '" + opt.workload + "'");
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    namespace fs = std::filesystem;
    Options opt = parse(argc, argv);

    // Everything the run writes stays under the build directory.
    const char *target = std::getenv("CARGO_TARGET_DIR");
    const fs::path buildDir = target && *target ? target : ".bench_build";
    opt.workDir = (buildDir / "perfbench-work" /
                   (opt.workload + "-" + std::to_string(getpid())))
                      .string();
    fs::remove_all(opt.workDir);
    fs::create_directories(opt.workDir);

    std::cout << "perfbench: workload=" << opt.workload
              << " seed=" << opt.seed << " seconds=" << opt.seconds
              << " trace=" << opt.trace << " workers=" << kWorkers
              << std::endl;

    Tracer tracer(opt.workload);
    Report report;
    if (opt.workload == "study")
        runStudy(opt, tracer, report);
    else if (opt.workload == "sweep")
        runSweep(opt, tracer, report);
    else
        runCorun(opt, tracer, report);
    fs::remove_all(opt.workDir);

    if (opt.trace) {
        for (const auto &metric : kPerLayer)
            report.addIfMissing(metric.name, 0.0, metric.unit);
        const fs::path traceFile =
            buildDir / "perfbench-traces" /
            (opt.workload + "-seed" + std::to_string(opt.seed) +
             ".json");
        fs::create_directories(traceFile.parent_path());
        if (tracer.write(traceFile.string()))
            std::cout << "perfbench: spans written to "
                      << traceFile.string() << std::endl;
        else
            report.check(false, "could not write " + traceFile.string());
    }
    report.print();
    return 0;
}
