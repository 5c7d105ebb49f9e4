/**
 * @file
 * Table 6 reproduction: wall-clock runtimes of detailed, functional
 * and SMARTS simulation per benchmark, plus the implied speedups —
 * and the experiment engine's headline: a 2-config design study run
 * as matched-pair multi-config jobs on the parallel ExperimentRunner
 * versus the serial single-config path. Sections (--section=):
 * "sharded" measures checkpoint-sharded single-benchmark streams
 * (cold capture-bound vs warm library-reuse), "persist" measures
 * the persistent checkpoint store (capture once per --store
 * directory, zero capture cost on every rerun), "distrib" runs the
 * multi-PROCESS regime: a leader plus smarts_runner subprocesses
 * sharing a file-based work queue of unit-range jobs and a store
 * shipped with the study's live-points, merged estimates
 * golden-pinned bit-identical to serial, "distrib_scale"
 * measures the elastic unit-range scheduler at 1/2/4 in-process
 * runners plus a death/join chaos pass (BENCH_distrib.json artifact
 * via --json=), and "livepoint"
 * compares the per-unit live-point regime (capture once, measure
 * units in shuffled order, stop at the confidence target) against
 * the warm sharded path on a 2-config study, emitting the
 * BENCH_livepoints.json perf artifact via --json=. The "store"
 * section drives the cache-service path — leapfrog capture on a
 * miss, warm hits, lookup-latency percentiles, a size-budgeted LRU
 * GC drill — emitting BENCH_store.json via --json=.
 *
 * Paper shape to match: SMARTS runs at roughly half the speed of
 * functional-only simulation (functional-warming bound) and achieves
 * large speedups over full detailed simulation. Absolute speedups
 * scale with benchmark length (the detailed fraction shrinks as N
 * grows), so alongside the measured numbers the bench extrapolates
 * to the paper's benchmark lengths using the measured mode rates —
 * at SPEC scale (tens of billions of instructions) the measured
 * rates imply the paper's ~35x regime.
 *
 * The design-study section measures the two costs the engine
 * removes: the per-config functional-warming pass (one matched
 * stream feeds both timing models) and the statistical overkill of
 * independent per-config sampling (matched pairs put a tighter CI
 * on the comparison with far fewer units). The engine's wall-clock
 * speedup is the product of the per-thread sharing factor and the
 * thread count; its estimates are bit-identical at any thread count
 * (asserted here and in tests/test_exec.cc).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <filesystem>

#include "bench_common.hh"
#include "core/checkpoint.hh"
#include "core/checkpoint_store.hh"
#include "core/livepoint.hh"
#include "core/perf_model.hh"
#include "core/sampler.hh"
#include "distrib/leader.hh"
#include "exec/experiment.hh"
#include "exec/thread_pool.hh"
#include "mp/mix_sampler.hh"
#include "util/logging.hh"

using namespace smarts;
using namespace smarts::bench;

namespace {

/** Bit-exact fingerprint of a batch's estimates. */
std::vector<std::uint64_t>
fingerprint(const std::vector<exec::ExperimentResult> &results)
{
    std::vector<std::uint64_t> bits;
    auto addDouble = [&bits](double v) {
        std::uint64_t b;
        std::memcpy(&b, &v, sizeof b);
        bits.push_back(b);
    };
    for (const auto &r : results)
        for (const auto &e : r.estimate.perConfig) {
            bits.push_back(e.units());
            addDouble(e.cpi());
            addDouble(e.epi());
            addDouble(e.cpiStats.variance());
        }
    return bits;
}

/**
 * Sharded functional warming: the cost Table 6 shows dominating
 * SMARTS is serial PER BENCHMARK — PR 2's engine only parallelizes
 * across (benchmark x config) jobs, so one long stream bottlenecks
 * a whole grid. This section shards a single benchmark's stream via
 * the checkpoint library and measures what that buys, in both
 * flavors:
 *
 *  - COLD: runSharded captures checkpoints and executes shards in
 *    one pipelined call. The capture pass must itself warm the
 *    stream, so cold wall clock is bounded below by it — the
 *    paper's functional-warming bound (Section 6) made concrete.
 *  - WARM: the library is built once and shards resume from it with
 *    no capture in the timed path. This is the checkpoint-reuse
 *    regime (tuned second passes, config sweeps, repeated design
 *    studies over the same benchmark), where the shard work simply
 *    divides by the thread count.
 */
void
shardedSection(const BenchOptions &opt)
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto suite = opt.suite();
    exec::ThreadPool pool; // one worker per hardware thread.

    std::printf("=== Sharded single-benchmark stream: checkpointed "
                "functional warming ===\n\n");

    // Deterministic columns only (golden-pinned): the sharded
    // estimate is bit-identical to the serial one by contract, so
    // every value here is reproducible on any host.
    TextTable det({"benchmark", "shards", "units", "cpi",
                   "ckpt KB", "bitwise = serial?"});
    TextTable times({"benchmark", "serial (s)", "capture (s)",
                     "cold (s)", "warm (s)", "warm x"});

    double sumSerial = 0.0, sumCapture = 0.0;
    double sumCold = 0.0, sumWarm = 0.0;
    std::size_t identicalCount = 0;

    for (const auto &spec : suite) {
        std::uint64_t length;
        {
            core::SimSession probe(spec, config);
            length =
                probe.fastForward(~0ull >> 1, core::WarmingMode::None);
        }

        // Dense grid: a tuned second pass after a high-CV initial
        // pass routinely lands at small k, which is exactly when
        // one benchmark pins a whole experiment grid.
        core::SamplingConfig sc;
        sc.unitSize = 1000;
        sc.detailedWarming = recommendedW(config);
        sc.warming = core::WarmingMode::Functional;
        sc.interval = core::SamplingConfig::chooseInterval(
            length, sc.unitSize, length / sc.unitSize / 4);

        auto factory = [&spec, &config] {
            return std::make_unique<core::SimSession>(spec, config);
        };

        // Serial baseline.
        core::SmartsEstimate serial;
        double serialS;
        {
            core::SimSession s(spec, config);
            const Stopwatch t;
            serial = core::SystematicSampler(sc).run(s);
            serialS = t.seconds();
        }

        // Build the library once (the cold path's serial spine).
        const std::size_t shards =
            std::max<std::size_t>(8, 2 * pool.threadCount());
        const auto plan =
            core::CheckpointLibrary::planShards(sc, length, shards);
        core::CheckpointLibrary library;
        double captureS;
        {
            core::SimSession s(spec, config);
            const Stopwatch t;
            library = core::CheckpointLibrary::build(s, sc, plan);
            captureS = t.seconds();
        }

        // Cold: capture + shards, pipelined inside runSharded.
        core::SmartsEstimate cold;
        double coldS;
        {
            const Stopwatch t;
            cold = core::SystematicSampler(sc).runSharded(
                factory, length, shards, pool);
            coldS = t.seconds();
        }

        // Warm: shards resume from the prebuilt library.
        core::SmartsEstimate warm;
        double warmS;
        {
            const Stopwatch t;
            warm = core::SystematicSampler(sc).runSharded(
                factory, library, pool);
            warmS = t.seconds();
        }

        // Determinism at a FIXED shard count for the golden table
        // (the timing runs above scale shards with the host).
        const core::SmartsEstimate fixedShards =
            core::SystematicSampler(sc).runSharded(factory, length, 5,
                                                   pool);
        const bool identical =
            fixedShards.fingerprint() ==
                serial.fingerprint() &&
            cold.fingerprint() == serial.fingerprint() &&
            warm.fingerprint() == serial.fingerprint();
        identicalCount += identical ? 1 : 0;

        sumSerial += serialS;
        sumCapture += captureS;
        sumCold += coldS;
        sumWarm += warmS;

        det.row()
            .add(spec.name)
            .add(std::uint64_t(5))
            .add(fixedShards.units())
            .add(fixedShards.cpi(), 4)
            // Slot 0 is an empty placeholder (shard 0 resumes at
            // stream start), so average over the real checkpoints.
            .add(std::uint64_t(library.byteSize() /
                               (plan.size() > 1 ? plan.size() - 1
                                                : 1) /
                               1024))
            .add(identical ? "yes" : "NO");
        times.row()
            .add(spec.name)
            .add(serialS, 2)
            .add(captureS, 2)
            .add(coldS, 2)
            .add(warmS, 2)
            .add(serialS / warmS, 2);
        std::printf(".");
        std::fflush(stdout);
    }
    std::printf("\n\n");

    if (opt.section == "sharded")
        emit(det, opt); // golden-pinned deterministic columns.
    else
        std::printf("%s\n", det.toString().c_str());
    std::printf("%s\n", times.toString().c_str());

    // Warm shards divide the serial work by the pool; cold adds the
    // capture spine, pipelined against shard execution.
    const double perThreadWarm =
        sumSerial / sumWarm /
        static_cast<double>(pool.threadCount());
    auto projectedWarm = [&](double threads) {
        return perThreadWarm * threads;
    };
    auto projectedCold = [&](double threads) {
        return sumSerial /
               std::max(sumCapture,
                        (sumCapture + sumSerial) / threads);
    };
    std::printf(
        "serial %.2fs | capture-once %.2fs | cold sharded %.2fs | "
        "warm (library reuse) %.2fs, on %u thread(s)\n"
        "estimates bit-identical to the serial run for %zu/%zu "
        "benchmarks (cold, warm, and fixed-5-shard runs)\n"
        "warm path: %.2fx per thread -> projected %.2fx at 2 "
        "threads, %.2fx at 4 (shard work divides by the pool; "
        "capture amortized across reruns/configs)\n"
        "cold path: projected %.2fx at 2 threads, capture-bound "
        "ceiling %.2fx — the functional-warming bound the paper's "
        "Table 6 predicts; breaking it needs warming pipelining or "
        "reuse (ROADMAP)\n"
        "target >=1.5x at 2 threads (warm path): %s\n",
        sumSerial, sumCapture, sumCold, sumWarm, pool.threadCount(),
        identicalCount, suite.size(), perThreadWarm,
        projectedWarm(2.0), projectedWarm(4.0), projectedCold(2.0),
        sumSerial / sumCapture,
        pool.threadCount() >= 2
            ? (sumSerial / sumWarm >= 1.5 ? "MET (measured)"
                                          : "NOT MET (measured)")
            : (projectedWarm(2.0) >= 1.5
                   ? "MET by projection (1-thread host)"
                   : "NOT MET even by projection"));
    std::fflush(stdout);
}

/**
 * Persistent checkpoint libraries: the sharded section above showed
 * the warm (library-reuse) regime beating the cold capture-bound
 * one, but PR 3's libraries died with the process — every design
 * study and every run of the two-pass procedure re-paid the capture
 * (functional warming) bill. This section runs the store-backed
 * path: the first invocation captures each benchmark's library once
 * and persists it (keyed by benchmark, sampling design and the
 * machine's warm-state geometry hash); every later invocation with
 * the same --store finds the libraries on disk and pays NO capture
 * cost — run this section twice to watch the "capture (s)" column
 * drop to zero. The estimate columns are golden-pinned: store-hit
 * runs are bit-identical to the serial run by contract, so they
 * cannot drift between the cold and warm invocations.
 *
 * The tail of the section demonstrates the two reuse axes beyond
 * rerunning: ONE MultiSession streaming pass capturing the
 * per-config libraries of a 2-config design study, and a
 * latency-only config variant hitting the baseline's library
 * because warm state never depends on timing parameters.
 */
void
persistSection(const BenchOptions &opt)
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto suite = opt.suite();
    exec::ThreadPool pool; // one worker per hardware thread.
    const std::string root = opt.storePath.empty()
                                 ? "table6_ckpt_store"
                                 : opt.storePath;
    core::CheckpointStore store(root);

    std::printf("=== Persistent checkpoint store: capture once, "
                "reuse every run ===\n\nstore root: %s\n\n",
                root.c_str());

    // Deterministic, golden-pinned columns: the store-backed
    // estimate is bit-identical to the serial run by contract, and
    // the serialized library size is a pure function of the model
    // state (the format is endian-explicit), so every value here is
    // reproducible on any host — including across the cold and warm
    // invocations the CI pair runs.
    TextTable det({"benchmark", "units", "cpi", "file KB",
                   "bitwise = serial?"});
    TextTable times({"benchmark", "serial (s)", "capture (s)",
                     "store run (s)", "x vs serial"});

    // Host-independent stored plan (the golden "file KB" column
    // depends on the checkpoint count).
    const std::size_t shards = 8;

    double sumSerial = 0.0, sumCapture = 0.0, sumStore = 0.0;
    std::size_t misses = 0;
    for (const auto &spec : suite) {
        std::uint64_t length;
        {
            core::SimSession probe(spec, config);
            length =
                probe.fastForward(~0ull >> 1, core::WarmingMode::None);
        }

        core::SamplingConfig sc;
        sc.unitSize = 1000;
        sc.detailedWarming = recommendedW(config);
        sc.warming = core::WarmingMode::Functional;
        sc.interval = core::SamplingConfig::chooseInterval(
            length, sc.unitSize, length / sc.unitSize / 4);

        auto factory = [&spec, &config] {
            return std::make_unique<core::SimSession>(spec, config);
        };

        // Serial baseline.
        core::SmartsEstimate serial;
        double serialS;
        {
            core::SimSession s(spec, config);
            const Stopwatch t;
            serial = core::SystematicSampler(sc).run(s);
            serialS = t.seconds();
        }

        // Populate the store on a miss — this is the one-time cost
        // the warm invocation never pays again. A miss is "nothing
        // LOADS" (tryLoad), not "no file": a stale or corrupt file
        // must land in the capture column, not masquerade as warm.
        const core::LibraryKey key =
            core::LibraryKey::of(spec, config, sc);
        double captureS = 0.0;
        if (!store.tryLoad(key).has_value()) {
            ++misses;
            const auto plan = core::CheckpointLibrary::planShards(
                sc, length, shards);
            core::SimSession s(spec, config);
            const Stopwatch t;
            const auto library =
                core::CheckpointLibrary::build(s, sc, plan);
            std::string error;
            if (!store.save(key, library, &error))
                SMARTS_FATAL("cannot persist library: ", error);
            captureS = t.seconds();
        }

        // The timed run always hits the store now: shards resume
        // from persisted warm state, no capture in the timed path.
        core::SmartsEstimate est;
        double storeS;
        {
            const Stopwatch t;
            est = core::SystematicSampler(sc).runSharded(
                factory, spec, config, length, shards, pool, store);
            storeS = t.seconds();
        }

        sumSerial += serialS;
        sumCapture += captureS;
        sumStore += storeS;

        std::error_code ec;
        const auto fileBytes = std::filesystem::file_size(
            store.pathFor(key), ec);
        det.row()
            .add(spec.name)
            .add(est.units())
            .add(est.cpi(), 4)
            .add(std::uint64_t(ec ? 0 : fileBytes / 1024))
            .add(est.fingerprint() ==
                         serial.fingerprint()
                     ? "yes"
                     : "NO");
        times.row()
            .add(spec.name)
            .add(serialS, 2)
            .add(captureS, 2)
            .add(storeS, 2)
            .add(serialS / storeS, 2);
        std::printf(".");
        std::fflush(stdout);
    }
    std::printf("\n\n");

    if (opt.section == "persist")
        emit(det, opt); // golden-pinned deterministic columns.
    else
        std::printf("%s\n", det.toString().c_str());
    std::printf("%s\n", times.toString().c_str());

    std::printf(
        "%s: capture cost this run %.2fs (%zu/%zu libraries "
        "captured)\n"
        "store-backed runs %.2fs vs serial %.2fs on %u thread(s) — "
        "rerun this section with the same --store and the capture "
        "column is all zeros: the second run of a design study pays "
        "no functional-warming bill at all\n\n",
        misses ? "COLD store" : "WARM store (every library loaded)",
        sumCapture, misses, suite.size(), sumStore, sumSerial,
        pool.threadCount());

    // Multi-config capture: ONE MultiSession streaming pass produces
    // the per-config libraries of a design study — the capture cost
    // of N configs collapses toward that of one.
    {
        const auto &spec = suite.front();
        const auto cfg16 = uarch::MachineConfig::sixteenWay();
        std::uint64_t length;
        {
            core::SimSession probe(spec, config);
            length =
                probe.fastForward(~0ull >> 1, core::WarmingMode::None);
        }
        core::SamplingConfig sc;
        sc.unitSize = 1000;
        sc.detailedWarming =
            std::max(recommendedW(config), recommendedW(cfg16));
        sc.warming = core::WarmingMode::Functional;
        sc.interval = core::SamplingConfig::chooseInterval(
            length, sc.unitSize, length / sc.unitSize / 4);

        Stopwatch t;
        const std::size_t captured = store.ensure(
            spec, {config, cfg16}, sc, length, shards);
        const double multiS = t.seconds();
        std::printf(
            "multi-config capture (%s, 8-way + 16-way): %zu "
            "libraries captured in one %.2fs streaming pass%s\n",
            spec.name.c_str(), captured, multiS,
            captured ? "" : " (already stored: 0-cost hit)");

        // Geometry-keyed reuse: a latency-only variant of the 8-way
        // machine hashes to the same warm-state geometry, so it
        // reuses the 8-way library without any capture.
        auto latVariant = config;
        latVariant.name = "8-way-slow-mem";
        latVariant.mem.memLatency = 200;
        const std::size_t extra = store.ensure(
            spec, {latVariant}, sc, length, shards);
        std::printf(
            "latency-only variant (mem 80 -> 200 cycles) reused the "
            "8-way library: %s (warm state never depends on timing "
            "parameters)\n",
            extra == 0 ? "yes" : "NO — geometry hash bug");
    }
    std::fflush(stdout);
}

/**
 * Distributed runners: the sections above scale one benchmark
 * across THREADS; this one scales it across PROCESSES — the
 * multi-host regime (ROADMAP "Distributed runners"), with hosts
 * stood in for by subprocesses. A leader ships the study's
 * live-point libraries in the checkpoint store, plans the study as
 * unit-range jobs, and publishes a job manifest into a shared queue
 * directory; N smarts_runner subprocesses claim range jobs
 * atomically, measure their units from the store's live-points, and
 * publish checksummed result files; the leader folds the completed
 * ranges in unit order. The merged estimate is bit-identical to
 * serial run() — the column this section golden-pins — because
 * every process runs the same SystematicSampler::measureUnits the
 * in-process live-point paths use (protocol:
 * docs/distributed-runners.md).
 */
void
distribSection(const BenchOptions &opt)
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto suite = opt.suite();
    const std::string root = opt.storePath.empty()
                                 ? "table6_distrib_store"
                                 : opt.storePath;
    const std::string queue = root + "_queue";
    const std::string runnerBin = runnerBinary(opt);
    if (!std::filesystem::exists(runnerBin)) {
        // Fatal only when the section was asked for by name; the
        // sectionless grand tour stays self-contained for a bench
        // binary copied out of its build tree.
        if (opt.section == "distrib")
            SMARTS_FATAL("smarts_runner not found at ", runnerBin,
                         " (build the tools/ target, or pass "
                         "--runner-bin=)");
        std::printf("=== Distributed runners: SKIPPED (smarts_runner "
                    "not found at %s; build tools/ or pass "
                    "--runner-bin=) ===\n",
                    runnerBin.c_str());
        return;
    }
    core::CheckpointStore store(root);
    constexpr int kRunners = 2;
    constexpr std::size_t kJobs = 12;

    // Start from an empty queue every invocation: this section
    // measures distributed EXECUTION, and a queue left by a prior
    // bench run (same deterministic study id, results possibly from
    // an older build of the model) would be merged instead of
    // re-executed — the store is the reuse point, the queue is not.
    std::filesystem::remove_all(queue);

    std::printf("=== Distributed runners: leader + %d smarts_runner "
                "subprocesses over a shipped store ===\n\n"
                "store: %s\nqueue: %s\nrunner: %s\n\n",
                kRunners, root.c_str(), queue.c_str(),
                runnerBin.c_str());

    // Deterministic, golden-pinned columns: the merged estimate is
    // bit-identical to the serial run by contract, at any runner
    // count, on any host.
    TextTable det({"benchmark", "runners", "units", "cpi",
                   "bitwise = serial?"});
    TextTable times({"benchmark", "serial (s)", "ship store (s)",
                     "distrib (s)"});

    double sumSerial = 0.0, sumShip = 0.0, sumDistrib = 0.0;
    std::size_t identicalCount = 0;
    for (const auto &spec : suite) {
        std::uint64_t length;
        {
            core::SimSession probe(spec, config);
            length =
                probe.fastForward(~0ull >> 1, core::WarmingMode::None);
        }

        core::SamplingConfig sc;
        sc.unitSize = 1000;
        sc.detailedWarming = recommendedW(config);
        sc.warming = core::WarmingMode::Functional;
        sc.interval = core::SamplingConfig::chooseInterval(
            length, sc.unitSize, length / sc.unitSize / 4);

        // Serial baseline.
        core::SmartsEstimate serial;
        double serialS;
        {
            core::SimSession s(spec, config);
            const Stopwatch t;
            serial = core::SystematicSampler(sc).run(s);
            serialS = t.seconds();
        }

        // Leader: ship the store (one-time live-point capture),
        // plan, publish.
        double shipS;
        distrib::LivePointPlan plan;
        {
            const Stopwatch t;
            plan = distrib::ensureStudyLivePoints(store, spec,
                                                  {config}, sc);
            shipS = t.seconds();
        }
        const distrib::JobManifest manifest = distrib::planStudy(
            spec, {config}, sc, plan.streamLength, plan.totalUnits,
            kJobs);
        std::string error;
        if (!distrib::publishStudy(queue, manifest, &error))
            SMARTS_FATAL("cannot publish study: ", error);

        // Runner subprocesses do ALL the range work; the leader
        // only polls and merges.
        double distribS;
        core::SmartsEstimate merged;
        {
            const Stopwatch t;
            FILE *runners[kRunners] = {};
            for (int r = 0; r < kRunners; ++r) {
                const std::string cmd = log::format(
                    "'", runnerBin, "' --dir='", queue,
                    "' --store='", root, "' --id=bench-r", r,
                    " --wait=30 >/dev/null 2>&1");
                runners[r] = ::popen(cmd.c_str(), "r");
                if (!runners[r])
                    SMARTS_FATAL("cannot launch ", cmd);
            }
            const auto estimates = distrib::collectStudy(
                queue, manifest, /*timeoutSeconds=*/300.0,
                /*helper=*/nullptr, &error);
            for (int r = 0; r < kRunners; ++r)
                ::pclose(runners[r]);
            if (!estimates)
                SMARTS_FATAL("distributed study failed: ", error);
            merged = estimates->front();
            distribS = t.seconds();
        }

        const bool identical =
            merged.fingerprint() == serial.fingerprint();
        identicalCount += identical ? 1 : 0;
        sumSerial += serialS;
        sumShip += shipS;
        sumDistrib += distribS;

        det.row()
            .add(spec.name)
            .add(std::uint64_t(kRunners))
            .add(merged.units())
            .add(merged.cpi(), 4)
            .add(identical ? "yes" : "NO");
        times.row()
            .add(spec.name)
            .add(serialS, 2)
            .add(shipS, 2)
            .add(distribS, 2);
        std::printf(".");
        std::fflush(stdout);
    }
    std::printf("\n\n");

    if (opt.section == "distrib")
        emit(det, opt); // golden-pinned deterministic columns.
    else
        std::printf("%s\n", det.toString().c_str());
    std::printf("%s\n", times.toString().c_str());

    std::printf(
        "serial %.2fs | ship store (capture, once per store) %.2fs "
        "| distributed across %d runner processes %.2fs\n"
        "merged estimates bit-identical to the serial run for "
        "%zu/%zu benchmarks — the number that makes fleet-scale "
        "fan-out safe: adding hosts can change wall-clock, never "
        "results\n"
        "(process spawn + file polling overhead dominates at mini "
        "scale; the regime pays off when range work is minutes, "
        "i.e. exactly the studies that outgrow one machine)\n",
        sumSerial, sumShip, kRunners, sumDistrib, identicalCount,
        suite.size());
    std::fflush(stdout);
}

/**
 * Elastic distributed scaling: the distrib section above pins the
 * PROTOCOL (subprocess runners, bit-identical merge); this one
 * measures the ELASTIC layer on in-process Runner threads, where
 * spawn cost cannot blur the curve. Per benchmark it runs the same
 * unit-range study (live-point-backed jobs, weighted per-runner
 * claim order) at 1, 2 and 4 runners, then a chaos pass where one
 * runner DIES mid-drain (cooperative cancel; its claim ages stale)
 * and a second JOINS late with a tight steal window while the
 * leader's collect loop splits the remaining ranges for it. Every
 * merged estimate — any runner count, any death/join history — is
 * bit-identical to serial run(), which is what the golden CSV pins;
 * the wall-clock curve and the duplicate-execution tally land in
 * the BENCH_distrib.json artifact (--json=).
 */
void
distribScaleSection(const BenchOptions &opt)
{
    const auto config = uarch::MachineConfig::eightWay();
    const auto suite = opt.suite();
    const std::string root = opt.storePath.empty()
                                 ? "table6_scale_store"
                                 : opt.storePath;
    const std::string queue = root + "_queue";
    core::CheckpointStore store(root);
    constexpr std::size_t kJobs = 8;
    const std::size_t counts[] = {1, 2, 4};

    std::printf("=== Elastic distributed scaling: unit-range jobs, "
                "1/2/4 runners + death/join chaos ===\n\n"
                "store: %s\nqueue: %s\n\n",
                root.c_str(), queue.c_str());

    // Deterministic, golden-pinned columns: merged estimates are
    // bit-identical to serial run() at every runner count and
    // through the chaos pass, by contract.
    TextTable det({"benchmark", "jobs", "units", "cpi", "1r=serial?",
                   "2r=serial?", "4r=serial?", "elastic=serial?"});
    TextTable times({"benchmark", "serial (s)", "1r (s)", "2r (s)",
                     "4r (s)", "elastic (s)", "4r x"});

    struct Row
    {
        std::string name;
        std::uint64_t totalUnits = 0;
        double serialS = 0.0;
        double runS[3] = {0.0, 0.0, 0.0};
        bool runIdentical[3] = {false, false, false};
        double elasticS = 0.0;
        bool elasticIdentical = false;
        std::size_t duplicates = 0;
        std::size_t finalRanges = 0;
    };
    std::vector<Row> rows;

    for (const auto &spec : suite) {
        std::uint64_t length;
        {
            core::SimSession probe(spec, config);
            length =
                probe.fastForward(~0ull >> 1, core::WarmingMode::None);
        }

        core::SamplingConfig sc;
        sc.unitSize = 1000;
        sc.detailedWarming = recommendedW(config);
        sc.warming = core::WarmingMode::Functional;
        sc.interval = core::SamplingConfig::chooseInterval(
            length, sc.unitSize, length / sc.unitSize / 4);

        Row row;
        row.name = spec.name;

        // Serial baseline.
        core::SmartsEstimate serial;
        {
            core::SimSession s(spec, config);
            const Stopwatch t;
            serial = core::SystematicSampler(sc).run(s);
            row.serialS = t.seconds();
        }

        // Unit-range study: live-point libraries once per store
        // lifetime, then the manifest's jobs are unit ranges.
        const distrib::LivePointPlan plan =
            distrib::ensureStudyLivePoints(store, spec, {config}, sc);
        row.totalUnits = plan.totalUnits;
        const distrib::JobManifest manifest = distrib::planStudy(
            spec, {config}, sc, plan.streamLength, plan.totalUnits,
            kJobs);

        auto publishFresh = [&] {
            std::filesystem::remove_all(queue);
            std::string error;
            if (!distrib::publishStudy(queue, manifest, &error))
                SMARTS_FATAL("cannot publish study: ", error);
        };

        // The scaling curve: N in-process runners drain the study.
        for (std::size_t i = 0; i < 3; ++i) {
            publishFresh();
            const Stopwatch t;
            std::vector<std::thread> crew;
            for (std::size_t r = 0; r < counts[i]; ++r)
                crew.emplace_back([&, r] {
                    distrib::RunnerOptions options;
                    options.id = "scale-" + std::to_string(r);
                    options.staleClaimSeconds = -1.0;
                    distrib::Runner runner(queue, root, options);
                    runner.drain(manifest);
                });
            for (std::thread &t2 : crew)
                t2.join();
            std::string error;
            const auto merged =
                distrib::mergeStudy(queue, manifest, &error);
            if (!merged)
                SMARTS_FATAL("scale run (", counts[i],
                             " runners) failed: ", error);
            row.runS[i] = t.seconds();
            row.runIdentical[i] = merged->front().fingerprint() ==
                                  serial.fingerprint();
        }

        // The chaos pass: runner A dies as its second job starts
        // (claim abandoned mid-execution), runner B joins late with
        // a tight steal window, and the leader's collect loop
        // splits remaining ranges when it sees the new claimant.
        {
            publishFresh();
            const Stopwatch t;
            std::mutex tallyMutex;
            std::map<std::string, int> tally;
            std::atomic<int> started{0};

            distrib::RunnerOptions aOpt;
            aOpt.id = "chaos-victim";
            aOpt.heartbeatSeconds = 0.0;
            aOpt.cancelled = [&] { return started.load() >= 2; };
            aOpt.onExecute = [&](const std::string &job) {
                ++started;
                std::lock_guard<std::mutex> lock(tallyMutex);
                ++tally[job];
            };
            std::thread victim([&] {
                distrib::Runner a(queue, root, aOpt);
                a.drain(manifest);
            });

            distrib::RunnerOptions bOpt;
            bOpt.id = "chaos-joiner";
            bOpt.staleClaimSeconds = 0.3;
            bOpt.onExecute = [&](const std::string &job) {
                std::lock_guard<std::mutex> lock(tallyMutex);
                ++tally[job];
            };
            std::thread joiner([&] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(400));
                distrib::Runner b(queue, root, bOpt);
                const auto deadline =
                    std::chrono::steady_clock::now() +
                    std::chrono::seconds(120);
                while (!distrib::studyComplete(queue, manifest) &&
                       std::chrono::steady_clock::now() < deadline) {
                    b.drain(manifest);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                }
            });

            std::string error;
            const auto collected = distrib::collectStudy(
                queue, manifest, /*timeoutSeconds=*/120.0,
                /*helper=*/nullptr, &error);
            victim.join();
            joiner.join();
            if (!collected)
                SMARTS_FATAL("elastic run failed: ", error);
            row.elasticS = t.seconds();
            row.elasticIdentical =
                collected->front().fingerprint() ==
                serial.fingerprint();
            for (const auto &[job, n] : tally)
                row.duplicates += n > 1 ? std::size_t(n - 1) : 0;
            row.finalRanges = distrib::listRanges(queue).size();
        }

        det.row()
            .add(row.name)
            .add(std::uint64_t(kJobs))
            .add(row.totalUnits)
            .add(serial.cpi(), 4)
            .add(row.runIdentical[0] ? "yes" : "NO")
            .add(row.runIdentical[1] ? "yes" : "NO")
            .add(row.runIdentical[2] ? "yes" : "NO")
            .add(row.elasticIdentical ? "yes" : "NO");
        times.row()
            .add(row.name)
            .add(row.serialS, 2)
            .add(row.runS[0], 2)
            .add(row.runS[1], 2)
            .add(row.runS[2], 2)
            .add(row.elasticS, 2)
            .add(row.serialS / row.runS[2], 2);
        rows.push_back(row);
        std::printf(".");
        std::fflush(stdout);
    }
    std::printf("\n\n");

    if (opt.section == "distrib_scale")
        emit(det, opt); // golden-pinned deterministic columns.
    else
        std::printf("%s\n", det.toString().c_str());
    std::printf("%s\n", times.toString().c_str());

    std::size_t identicalAll = 0, duplicatesTotal = 0;
    for (const Row &row : rows) {
        identicalAll += (row.runIdentical[0] && row.runIdentical[1] &&
                         row.runIdentical[2] && row.elasticIdentical)
                            ? 1
                            : 0;
        duplicatesTotal += row.duplicates;
    }
    std::printf(
        "merged estimates bit-identical to serial run() through "
        "every runner count AND the death/join chaos pass for "
        "%zu/%zu benchmarks\n"
        "duplicate executions across all chaos passes: %zu (each "
        "abandoned job re-runs at most once per claimant — bounded, "
        "and benign because results are byte-identical)\n"
        "(in-process runners share one filesystem, so the curve "
        "shows protocol overhead, not host scaling; the elastic "
        "column includes the ~0.4s join delay and the 0.3s steal "
        "window by construction)\n",
        identicalAll, rows.size(), duplicatesTotal);
    std::fflush(stdout);

    if (opt.section != "distrib_scale" || opt.jsonPath.empty())
        return;
    std::FILE *json = std::fopen(opt.jsonPath.c_str(), "w");
    if (!json)
        SMARTS_FATAL("cannot write ", opt.jsonPath);
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"table6_distrib_scale\",\n"
                 "  \"scale\": \"%s\",\n"
                 "  \"suite\": \"%s\",\n"
                 "  \"initial_jobs\": %zu,\n"
                 "  \"benchmarks\": [\n",
                 opt.scaleName(),
                 opt.quickSuite ? "quick" : "standard", kJobs);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        std::fprintf(
            json,
            "    {\"name\": \"%s\", \"total_units\": %llu, "
            "\"serial_s\": %.4f,\n"
            "     \"runs\": [",
            row.name.c_str(),
            static_cast<unsigned long long>(row.totalUnits),
            row.serialS);
        for (std::size_t j = 0; j < 3; ++j)
            std::fprintf(
                json,
                "{\"runners\": %zu, \"wall_s\": %.4f, "
                "\"speedup_x\": %.2f, \"identical\": %s}%s",
                counts[j], row.runS[j],
                row.serialS / row.runS[j],
                row.runIdentical[j] ? "true" : "false",
                j < 2 ? ", " : "],\n");
        std::fprintf(
            json,
            "     \"elastic\": {\"wall_s\": %.4f, "
            "\"duplicate_executions\": %zu, \"final_ranges\": %zu, "
            "\"identical\": %s}}%s\n",
            row.elasticS, row.duplicates, row.finalRanges,
            row.elasticIdentical ? "true" : "false",
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n"
                 "  \"identical_everywhere\": %s\n"
                 "}\n",
                 identicalAll == rows.size() ? "true" : "false");
    std::fclose(json);
    std::printf("json: %s\n", opt.jsonPath.c_str());
    std::fflush(stdout);
}

/**
 * Live-points: the third execution mode (core/livepoint.hh). The
 * sharded sections resume CONTIGUOUS slices, so a warm run still
 * walks the whole unit grid — its cost scales with the stream
 * length. A live-point library stores one delta-encoded checkpoint
 * per MEASURED UNIT, so a warm study's cost scales with the units
 * it actually measures, and the anytime estimator
 * (SystematicSampler::runAnytime) measures units in seeded-shuffle
 * order and stops at the paper's Eq. 1-3 target — on low-CV
 * benchmarks that is a few percent of the grid.
 *
 * The section runs the same (benchmark x 2-config) study down both
 * warm paths. Capture (one MultiSession pass per store lifetime)
 * and the one-time live-point load are reported separately; the
 * timed columns are pure study execution from resident warm state,
 * because that is what a sweep session repeats — per rerun, per
 * tightened target, per extra config — while libraries load once.
 * The golden-pinned columns are fully deterministic: early-stop
 * unit counts depend only on the seeded shuffle and batch-boundary
 * stop rule (thread-count invariant), and the completion-mode
 * (epsilon = 0) estimate is bit-identical to serial run() by
 * contract. The JSON artifact (--json=, BENCH_livepoints.json in
 * CI) records the same numbers machine-readably, headlined by the
 * sweep study where the anytime regime pays off hardest.
 */
void
livepointSection(const BenchOptions &opt)
{
    const auto cfg8 = uarch::MachineConfig::eightWay();
    const auto cfg16 = uarch::MachineConfig::sixteenWay();
    const std::vector<uarch::MachineConfig> configs{cfg8, cfg16};
    const auto suite = opt.suite();
    exec::ThreadPool pool; // one worker per hardware thread.
    const std::string root = opt.storePath.empty()
                                 ? "table6_livepoint_store"
                                 : opt.storePath;
    core::CheckpointStore store(root);
    constexpr int kReps = 5; // min-of-reps for the timed columns.
    constexpr std::size_t kShards = 8;
    const stats::ConfidenceSpec target{}; // paper: 99.7% / +/-3%.

    std::printf("=== Live-points: per-unit checkpoints + anytime "
                "early stopping ===\n\nstore root: %s\n\n",
                root.c_str());

    // Deterministic, golden-pinned columns (see the header comment).
    TextTable det({"benchmark", "config", "units", "measured",
                   "stopped?", "cpi", "bitwise = serial?"});
    TextTable times({"benchmark", "capture (s)", "lp load (s)",
                     "warm shard (s)", "anytime (s)", "x vs shard"});

    struct Row
    {
        std::string name;
        double captureS = 0.0, loadS = 0.0;
        double shardS = 0.0, anyS = 0.0;
        std::uint64_t avail = 0, measured = 0;
        bool stopped = false;
    };
    std::vector<Row> rows;
    std::size_t misses = 0, earlyWins = 0, identicalCount = 0;

    for (const auto &spec : suite) {
        std::uint64_t length;
        {
            core::SimSession probe(spec, cfg8);
            length =
                probe.fastForward(~0ull >> 1, core::WarmingMode::None);
        }

        core::SamplingConfig sc;
        sc.unitSize = 1000;
        // Live-point replay pays detailed warming per measured unit
        // for every config, so one deep-warming design (the 16-way
        // W) serves the whole sweep.
        sc.detailedWarming =
            std::max(recommendedW(cfg8), recommendedW(cfg16));
        sc.warming = core::WarmingMode::Functional;
        // Dense but bounded grid: ~1000 measured units at any scale
        // keeps capture memory flat while leaving the stop rule
        // plenty of headroom below fixed-n.
        sc.interval = core::SamplingConfig::chooseInterval(
            length, sc.unitSize, 1000);

        Row row;
        row.name = spec.name;

        // Capture once per store lifetime: both configs' live-point
        // libraries from ONE MultiSession streaming pass. A warm
        // store makes this column zero — the reuse the section is
        // about.
        {
            const Stopwatch t;
            const std::size_t captured =
                store.ensureLivePoints(spec, configs, sc);
            row.captureS = captured ? t.seconds() : 0.0;
            misses += captured;
        }
        // Warm shard libraries for the baseline, same one-pass
        // multi-config ensure (untimed: the sharded sections already
        // measure their capture).
        store.ensure(spec, configs, sc, length, kShards);

        // Load both paths' warm state out of the store ONCE. The
        // live-point load delta-decodes the whole grid and is the
        // sweep's amortized fixed cost — reported, not buried in
        // the per-study columns.
        std::vector<core::LivePointLibrary> lpLibs;
        std::vector<core::CheckpointLibrary> shardLibs;
        {
            const Stopwatch t;
            for (const auto &cfg : configs) {
                const auto key = core::LibraryKey::of(spec, cfg, sc);
                std::string error;
                auto lib = store.tryLoadLivePoints(key, &error);
                if (!lib)
                    SMARTS_FATAL("live-point store miss after "
                                 "ensure: ",
                                 error);
                lpLibs.push_back(std::move(*lib));
            }
            row.loadS = t.seconds();
        }
        for (const auto &cfg : configs) {
            auto lib =
                store.tryLoad(core::LibraryKey::of(spec, cfg, sc));
            if (!lib)
                SMARTS_FATAL("shard store miss after ensure");
            shardLibs.push_back(std::move(*lib));
        }

        auto factoryFor = [&spec](const uarch::MachineConfig &cfg) {
            return [&spec, &cfg] {
                return std::make_unique<core::SimSession>(spec, cfg);
            };
        };

        // Warm sharded study: every unit of every config, from the
        // resident shard libraries.
        row.shardS = 1e9;
        for (int rep = 0; rep < kReps; ++rep) {
            double s = 0.0;
            for (std::size_t c = 0; c < configs.size(); ++c) {
                const Stopwatch t;
                (void)core::SystematicSampler(sc).runSharded(
                    factoryFor(configs[c]), shardLibs[c], pool);
                s += t.seconds();
            }
            row.shardS = std::min(row.shardS, s);
        }

        // Warm anytime study: seeded-shuffle measurement with the
        // paper's stop rule, from the resident live-point libraries.
        // The measured sets are deterministic, so reps only tighten
        // the timing.
        std::vector<core::AnytimeResult> anytime(configs.size());
        row.anyS = 1e9;
        for (int rep = 0; rep < kReps; ++rep) {
            double s = 0.0;
            for (std::size_t c = 0; c < configs.size(); ++c) {
                core::AnytimeOptions aopt;
                aopt.target = target;
                const Stopwatch t;
                anytime[c] = core::SystematicSampler(sc).runAnytime(
                    factoryFor(configs[c]), lpLibs[c], pool, aopt);
                s += t.seconds();
            }
            row.anyS = std::min(row.anyS, s);
        }

        // Completion mode (epsilon = 0) pins the golden cpi column:
        // bit-identical to serial run() by contract.
        for (std::size_t c = 0; c < configs.size(); ++c) {
            core::AnytimeOptions aopt;
            aopt.target.epsilon = 0.0;
            const core::AnytimeResult full =
                core::SystematicSampler(sc).runAnytime(
                    factoryFor(configs[c]), lpLibs[c], pool, aopt);
            core::SimSession serialSession(spec, configs[c]);
            const core::SmartsEstimate serial =
                core::SystematicSampler(sc).run(serialSession);
            const bool identical = full.estimate.fingerprint() ==
                                   serial.fingerprint();
            identicalCount += identical ? 1 : 0;

            row.avail += anytime[c].unitsAvailable;
            row.measured += anytime[c].unitsMeasured;
            row.stopped |= anytime[c].earlyStopped;
            det.row()
                .add(spec.name)
                .add(configs[c].name)
                .add(anytime[c].unitsAvailable)
                .add(anytime[c].unitsMeasured)
                .add(anytime[c].earlyStopped ? "yes" : "no")
                .add(full.estimate.cpi(), 4)
                .add(identical ? "yes" : "NO");
        }
        earlyWins += row.measured < row.avail ? 1 : 0;

        times.row()
            .add(spec.name)
            .add(row.captureS, 2)
            .add(row.loadS, 2)
            .add(row.shardS, 3)
            .add(row.anyS, 3)
            .add(row.shardS / row.anyS, 1);
        rows.push_back(row);
        std::printf(".");
        std::fflush(stdout);
    }
    std::printf("\n\n");

    if (opt.section == "livepoint")
        emit(det, opt); // golden-pinned deterministic columns.
    else
        std::printf("%s\n", det.toString().c_str());
    std::printf("%s\n", times.toString().c_str());

    // The sweep headline: the study where the stop rule bites
    // hardest. That is the regime the live-point format exists for —
    // a warm config sweep whose cost is the measured units, not the
    // grid.
    const Row *sweep = &rows.front();
    for (const Row &row : rows)
        if (row.shardS / row.anyS > sweep->shardS / sweep->anyS)
            sweep = &row;
    const double sweepX = sweep->shardS / sweep->anyS;

    std::printf(
        "%s: %zu live-point librar%s captured this run (warm rerun "
        "captures none)\n"
        "completion-mode estimates bit-identical to serial run() "
        "for %zu/%zu (benchmark x config) studies\n"
        "early stop at %.1f%%/+/-%.0f%% measured fewer units than "
        "fixed-n on %zu/%zu benchmarks\n"
        "config sweep (%s, 2 configs): warm sharded %.3fs vs warm "
        "anytime %.3fs from resident libraries -> %.1fx "
        "(target >= 5x: %s); live-point load %.2fs amortizes "
        "across the sweep's reruns and targets\n",
        misses ? "COLD store" : "WARM store", misses,
        misses == 1 ? "y" : "ies", identicalCount,
        suite.size() * configs.size(), target.level * 100.0,
        target.epsilon * 100.0, earlyWins, suite.size(),
        sweep->name.c_str(), sweep->shardS, sweep->anyS, sweepX,
        sweepX >= 5.0 ? "MET" : "NOT MET", sweep->loadS);
    std::fflush(stdout);

    if (opt.jsonPath.empty())
        return;
    std::FILE *json = std::fopen(opt.jsonPath.c_str(), "w");
    if (!json)
        SMARTS_FATAL("cannot write ", opt.jsonPath);
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"table6_livepoint\",\n"
                 "  \"scale\": \"%s\",\n"
                 "  \"suite\": \"%s\",\n"
                 "  \"threads\": %u,\n"
                 "  \"confidence_level\": %.3f,\n"
                 "  \"epsilon\": %.2f,\n"
                 "  \"benchmarks\": [\n",
                 opt.scaleName(), opt.quickSuite ? "quick" : "standard",
                 pool.threadCount(), target.level, target.epsilon);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        std::fprintf(
            json,
            "    {\"name\": \"%s\", \"units_total\": %llu, "
            "\"units_measured\": %llu, \"early_stopped\": %s,\n"
            "     \"capture_s\": %.4f, \"livepoint_load_s\": %.4f, "
            "\"per_unit_measure_ms\": %.4f,\n"
            "     \"warm_sharded_s\": %.4f, \"warm_anytime_s\": "
            "%.4f, \"speedup_x\": %.2f}%s\n",
            row.name.c_str(),
            static_cast<unsigned long long>(row.avail),
            static_cast<unsigned long long>(row.measured),
            row.stopped ? "true" : "false", row.captureS, row.loadS,
            row.measured ? row.anyS * 1000.0 /
                               static_cast<double>(row.measured)
                         : 0.0,
            row.shardS, row.anyS, row.shardS / row.anyS,
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(
        json,
        "  ],\n"
        "  \"early_stop_wins\": %zu,\n"
        "  \"suite_size\": %zu,\n"
        "  \"sweep\": {\"benchmark\": \"%s\", \"configs\": 2, "
        "\"units_total\": %llu, \"units_measured\": %llu,\n"
        "            \"warm_sharded_s\": %.4f, \"warm_anytime_s\": "
        "%.4f, \"speedup_x\": %.2f,\n"
        "            \"target_x\": 5.0, \"meets_target\": %s}\n"
        "}\n",
        earlyWins, suite.size(), sweep->name.c_str(),
        static_cast<unsigned long long>(sweep->avail),
        static_cast<unsigned long long>(sweep->measured),
        sweep->shardS, sweep->anyS, sweepX,
        sweepX >= 5.0 ? "true" : "false");
    std::fclose(json);
    std::printf("json: %s\n", opt.jsonPath.c_str());
    std::fflush(stdout);
}

/**
 * CheckpointStore as a cache service: the store section drives the
 * production cache path end to end — miss -> LEAPFROG capture
 * (measurement overlapped with capture at per-unit grain) ->
 * publish -> warm hits — and reports the cache-service metrics:
 * hit rate, lookup-latency percentiles, and a size-budgeted LRU GC
 * drill over the same entries. The golden-pinned columns are
 * identical cold and warm by contract: whatever path a lookup took
 * (leapfrog capture this run, or a store hit), the completion-mode
 * estimate it folds to is bit-identical to serial run(). The JSON
 * artifact (--json=, BENCH_store.json in CI) carries the service
 * metrics machine-readably.
 */
void
storeSection(const BenchOptions &opt)
{
    const auto cfg = uarch::MachineConfig::eightWay();
    const auto suite = opt.suite();
    exec::ThreadPool pool; // one worker per hardware thread.
    const std::string root = opt.storePath.empty()
                                 ? "table6_store_store"
                                 : opt.storePath;
    core::CheckpointStore store(root);
    constexpr int kLookupReps = 5;

    std::printf("=== Store service: leapfrog capture overlap, warm "
                "hits, budgeted LRU GC ===\n\nstore root: %s\n\n",
                root.c_str());

    // Deterministic, golden-pinned columns (see the header comment).
    TextTable det({"benchmark", "units", "cpi",
                   "bitwise = serial?"});
    TextTable times({"benchmark", "path", "leapfrog (s)",
                     "2-pass (s)", "overlap x"});

    struct Row
    {
        std::string name;
        bool hit = false;
        double leapS = 0.0, twoPassS = 0.0;
        std::uint64_t units = 0;
    };
    std::vector<Row> rows;
    std::vector<core::LibraryKey> keys;
    std::vector<double> lookupMs;

    for (const auto &spec : suite) {
        std::uint64_t length;
        {
            core::SimSession probe(spec, cfg);
            length =
                probe.fastForward(~0ull >> 1, core::WarmingMode::None);
        }
        core::SamplingConfig sc;
        sc.unitSize = 1000;
        sc.detailedWarming = recommendedW(cfg);
        sc.warming = core::WarmingMode::Functional;
        sc.interval = core::SamplingConfig::chooseInterval(
            length, sc.unitSize, 250);
        const auto key = core::LibraryKey::of(spec, cfg, sc);
        auto factory = [&spec, &cfg] {
            return std::make_unique<core::SimSession>(spec, cfg);
        };
        core::AnytimeOptions aopt;
        aopt.target.epsilon = 0.0; // completion: pin vs serial.

        Row row;
        row.name = spec.name;
        std::string error;
        core::AnytimeResult result;
        auto warm = store.tryLoadLivePoints(key, &error);
        row.hit = warm.has_value();
        if (warm) {
            result = core::SystematicSampler(sc).runAnytime(
                factory, *warm, pool, aopt);
        } else {
            // Cold miss, leapfrog path: measurement of captured
            // units overlaps capture of the rest, then the library
            // is published for every later run (and leader).
            core::SimSession capture(spec, cfg);
            core::EncodedLivePoints collected;
            {
                const Stopwatch t;
                result =
                    core::SystematicSampler(sc).runAnytimeLeapfrog(
                        capture, factory, pool, aopt, &collected);
                row.leapS = t.seconds();
            }
            if (!store.saveLivePoints(collected, key, &error))
                SMARTS_WARN("store publish failed: ", error);
            // Baseline: the pre-leapfrog cold path — one full
            // capture pass, THEN measurement.
            {
                const Stopwatch t;
                core::SimSession capture2(spec, cfg);
                const core::LivePointLibrary serialLib =
                    core::LivePointLibrary::build(capture2, sc);
                (void)core::SystematicSampler(sc).runAnytime(
                    factory, serialLib, pool, aopt);
                row.twoPassS = t.seconds();
            }
        }

        // The golden columns: completion-mode estimate vs serial.
        core::SimSession serialSession(spec, cfg);
        const core::SmartsEstimate serial =
            core::SystematicSampler(sc).run(serialSession);
        const bool identical =
            result.estimate.fingerprint() == serial.fingerprint();
        row.units = result.unitsAvailable;
        det.row()
            .add(spec.name)
            .add(result.unitsAvailable)
            .add(result.estimate.cpi(), 4)
            .add(identical ? "yes" : "NO");

        // Cache-service lookups: warm hits timed one by one for the
        // latency percentiles (full load + delta-decode + checksum).
        for (int rep = 0; rep < kLookupReps; ++rep) {
            const Stopwatch t;
            const auto lib = store.tryLoadLivePoints(key, &error);
            if (!lib)
                SMARTS_FATAL("store miss after publish: ", error);
            lookupMs.push_back(t.seconds() * 1000.0);
        }

        times.row()
            .add(spec.name)
            .add(row.hit ? "warm hit" : "leapfrog")
            .add(row.leapS, 3)
            .add(row.twoPassS, 3)
            .add(row.hit ? 0.0 : row.twoPassS / row.leapS, 2);
        keys.push_back(key);
        rows.push_back(row);
        std::printf(".");
        std::fflush(stdout);
    }
    std::printf("\n\n");

    if (opt.section == "store")
        emit(det, opt); // golden-pinned deterministic columns.
    else
        std::printf("%s\n", det.toString().c_str());
    std::printf("%s\n", times.toString().c_str());

    // GC drill: republish every library into a budget that holds
    // the largest entry with headroom but not the full set;
    // LRU-by-atime eviction must keep the store within budget
    // whatever the save order.
    const std::string gcRoot = root + "_gc";
    std::filesystem::remove_all(gcRoot);
    core::StoreOptions gcOptions;
    {
        std::error_code ec;
        std::uint64_t total = 0, largest = 0;
        for (const core::LibraryKey &key : keys) {
            const std::uint64_t bytes = std::filesystem::file_size(
                store.livePointPathFor(key), ec);
            total += bytes;
            largest = std::max(largest, bytes);
        }
        gcOptions.budgetBytes =
            std::max(total / 2, largest * 3 / 2);
    }
    core::CheckpointStore gcStore(gcRoot, gcOptions);
    for (const core::LibraryKey &key : keys) {
        std::string error;
        const auto lib = store.tryLoadLivePoints(key, &error);
        if (!lib)
            SMARTS_FATAL("store miss during GC drill: ", error);
        if (!gcStore.saveLivePoints(*lib, key, &error))
            SMARTS_WARN("GC-drill publish failed: ", error);
    }
    const core::StoreCounters gc = gcStore.counters();
    const bool withinBudget =
        gcStore.totalBytes() <= gcOptions.budgetBytes;

    const core::StoreCounters c = store.counters();
    const std::uint64_t looked = c.hits + c.misses;
    const double hitRate =
        looked ? static_cast<double>(c.hits) /
                     static_cast<double>(looked)
               : 0.0;
    auto pct = [&lookupMs](double q) {
        std::vector<double> sorted = lookupMs;
        std::sort(sorted.begin(), sorted.end());
        if (sorted.empty())
            return 0.0;
        const double rank =
            q * static_cast<double>(sorted.size());
        std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
        idx = idx ? idx - 1 : 0;
        return sorted[std::min(idx, sorted.size() - 1)];
    };

    std::printf(
        "%s: %llu lookups, %llu hits, %llu misses -> hit rate "
        "%.3f\n"
        "lookup latency p50 %.3fms p90 %.3fms p99 %.3fms max "
        "%.3fms (%zu timed loads)\n"
        "GC drill: budget %llu bytes over %zu entries -> %llu "
        "evicted (%llu bytes), %llu bytes resident, within budget: "
        "%s\n",
        c.misses ? "COLD store" : "WARM store",
        static_cast<unsigned long long>(looked),
        static_cast<unsigned long long>(c.hits),
        static_cast<unsigned long long>(c.misses), hitRate,
        pct(0.50), pct(0.90), pct(0.99),
        lookupMs.empty()
            ? 0.0
            : *std::max_element(lookupMs.begin(), lookupMs.end()),
        lookupMs.size(),
        static_cast<unsigned long long>(gcOptions.budgetBytes),
        keys.size(), static_cast<unsigned long long>(gc.evictions),
        static_cast<unsigned long long>(gc.bytesEvicted),
        static_cast<unsigned long long>(gcStore.totalBytes()),
        withinBudget ? "yes" : "NO");
    std::fflush(stdout);

    if (opt.jsonPath.empty())
        return;
    std::FILE *json = std::fopen(opt.jsonPath.c_str(), "w");
    if (!json)
        SMARTS_FATAL("cannot write ", opt.jsonPath);
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"table6_store\",\n"
                 "  \"scale\": \"%s\",\n"
                 "  \"suite\": \"%s\",\n"
                 "  \"lookups\": %llu,\n"
                 "  \"hits\": %llu,\n"
                 "  \"misses\": %llu,\n"
                 "  \"hit_rate\": %.4f,\n"
                 "  \"lookup_ms\": {\"p50\": %.3f, \"p90\": %.3f, "
                 "\"p99\": %.3f, \"max\": %.3f},\n"
                 "  \"benchmarks\": [\n",
                 opt.scaleName(),
                 opt.quickSuite ? "quick" : "standard",
                 static_cast<unsigned long long>(looked),
                 static_cast<unsigned long long>(c.hits),
                 static_cast<unsigned long long>(c.misses), hitRate,
                 pct(0.50), pct(0.90), pct(0.99),
                 lookupMs.empty()
                     ? 0.0
                     : *std::max_element(lookupMs.begin(),
                                         lookupMs.end()));
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        std::fprintf(
            json,
            "    {\"name\": \"%s\", \"path\": \"%s\", \"units\": "
            "%llu, \"leapfrog_s\": %.4f, \"two_pass_s\": %.4f, "
            "\"overlap_x\": %.2f}%s\n",
            row.name.c_str(), row.hit ? "warm_hit" : "leapfrog",
            static_cast<unsigned long long>(row.units), row.leapS,
            row.twoPassS,
            row.hit ? 0.0 : row.twoPassS / row.leapS,
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(
        json,
        "  ],\n"
        "  \"gc\": {\"budget_bytes\": %llu, \"entries_saved\": %zu, "
        "\"evictions\": %llu, \"bytes_evicted\": %llu,\n"
        "         \"gc_runs\": %llu, \"total_bytes\": %llu, "
        "\"within_budget\": %s}\n"
        "}\n",
        static_cast<unsigned long long>(gcOptions.budgetBytes),
        keys.size(), static_cast<unsigned long long>(gc.evictions),
        static_cast<unsigned long long>(gc.bytesEvicted),
        static_cast<unsigned long long>(gc.gcRuns),
        static_cast<unsigned long long>(gcStore.totalBytes()),
        withinBudget ? "true" : "false");
    std::fclose(json);
    std::printf("json: %s\n", opt.jsonPath.c_str());
    std::fflush(stdout);
}

void
designStudySection(const BenchOptions &opt)
{
    const auto cfg8 = uarch::MachineConfig::eightWay();
    const auto cfg16 = uarch::MachineConfig::sixteenWay();
    const auto suite = opt.suite();

    std::printf("=== Design study: parallel matched-pair engine vs "
                "serial single-config path ===\n\n");

    // Serial path: the pre-engine workflow — one SimSession per
    // (benchmark, config), each paying its own functional-warming
    // pass, sampled densely (k=10) because independent runs need
    // n units per config for a confident comparison.
    struct SerialRow
    {
        double speedup = 0.0;
        double deltaCi = 0.0; ///< independent-runs CI on the delta.
        std::uint64_t units = 0;
    };
    std::vector<SerialRow> serialRows(suite.size());
    double serialSeconds = 0.0;
    {
        const Stopwatch t;
        for (std::size_t i = 0; i < suite.size(); ++i) {
            core::SamplingConfig sc;
            sc.unitSize = 1000;
            sc.interval = 10;
            sc.warming = core::WarmingMode::Functional;

            sc.detailedWarming = recommendedW(cfg8);
            core::SimSession s8(suite[i], cfg8);
            const auto e8 = core::SystematicSampler(sc).run(s8);

            sc.detailedWarming = recommendedW(cfg16);
            core::SimSession s16(suite[i], cfg16);
            const auto e16 = core::SystematicSampler(sc).run(s16);

            serialRows[i].speedup = e8.cpi() / e16.cpi();
            // Independent-runs CI on the CPI delta, relative to the
            // 8-way baseline: root-sum-square of the two ABSOLUTE
            // half-widths over cpi_8.
            const double a = e8.cpiConfidenceInterval(0.997) * e8.cpi();
            const double b =
                e16.cpiConfidenceInterval(0.997) * e16.cpi();
            serialRows[i].deltaCi = std::sqrt(a * a + b * b) / e8.cpi();
            serialRows[i].units = e8.units() + e16.units();
            std::printf(".");
            std::fflush(stdout);
        }
        serialSeconds = t.seconds();
    }

    // Engine path: matched multi-config jobs — ONE warming stream
    // feeds both timing models, and the matched-pair variance
    // reduction lets k grow 3x while keeping the comparison CI at
    // or below the serial path's.
    std::vector<exec::ExperimentSpec> specs(suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
        specs[i].benchmark = suite[i];
        specs[i].configs = {cfg8, cfg16};
        specs[i].sampling.unitSize = 1000;
        specs[i].sampling.detailedWarming =
            std::max(recommendedW(cfg8), recommendedW(cfg16));
        specs[i].sampling.interval = 30;
        specs[i].sampling.warming = core::WarmingMode::Functional;
    }

    exec::ExperimentRunner runner; // one worker per hardware thread.
    double engineSeconds = 0.0;
    std::vector<exec::ExperimentResult> results;
    {
        const Stopwatch t;
        results = runner.run(specs);
        engineSeconds = t.seconds();
    }
    std::printf("\n\n");

    TextTable table({"benchmark", "serial speedup", "+/- delta",
                     "engine speedup", "+/- delta (matched)",
                     "units serial", "units matched",
                     "CI tighter?"});
    int tighter = 0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const core::MatchedEstimate &est = results[i].estimate;
        const double matchedCi = est.deltaCiRelative(1, 0.997);
        const bool ok = matchedCi <= serialRows[i].deltaCi;
        tighter += ok ? 1 : 0;
        table.row()
            .add(suite[i].name)
            .add(serialRows[i].speedup, 3)
            .addPercent(serialRows[i].deltaCi, 2)
            .add(est.speedup(1), 3)
            .addPercent(matchedCi, 2)
            .add(serialRows[i].units)
            .add(est.perConfig[0].units() * 2)
            .add(ok ? "yes" : "NO");
    }
    std::printf("%s\n", table.toString().c_str());

    // Determinism spot check: the same batch on 1 thread must give
    // byte-identical estimates.
    exec::ExperimentRunner oneThread(1);
    const bool identical =
        fingerprint(oneThread.run(specs)) == fingerprint(results);

    const double speedup = serialSeconds / engineSeconds;
    const double usableThreads = static_cast<double>(
        std::min<std::size_t>(runner.threadCount(), suite.size()));
    std::printf(
        "serial path %.2fs; engine %.2fs on %u thread(s) -> "
        "%.2fx wall-clock speedup\n"
        "matched delta CI at-or-below the serial path's for %d/%zu "
        "benchmarks with ~3x fewer sampled units (exceptions: "
        "phase-alternating kernels decorrelate across configs, and "
        "lopsided speedups leave the independent CI tiny anyway)\n"
        "estimates bit-identical across thread counts: %s\n"
        "target >=2x: %s (per-thread matched-sharing factor %.2fx "
        "multiplies by the thread count; >=2 hardware threads puts "
        "the target comfortably in reach)\n",
        serialSeconds, engineSeconds, runner.threadCount(), speedup,
        tighter, suite.size(), identical ? "yes" : "NO",
        speedup >= 2.0 ? "MET"
                       : (runner.threadCount() < 2
                              ? "not met on this 1-thread host"
                              : "NOT MET"),
        speedup / usableThreads);
    std::fflush(stdout);
}

/**
 * Multi-programmed co-run mixes (mp::MixSampler): two programs
 * advance in lockstep over one shared L2 while per-program shadow
 * tags replay each program's would-be-solo L2 stream, so ONE
 * sampled co-run yields both the co-run estimate and a matched
 * solo estimate per program — the paper's matched-pair trick
 * applied to QoS. The golden-pinned columns are all deterministic:
 * per-program CPIs, slowdown, solo/co-run L2 miss rates, the
 * matched-pair CI on the slowdown vs what independent solo and
 * co-run runs would give on the same units (the "ci x" column —
 * the table's headline is that matching buys >= 2x tighter CIs),
 * and the bitwise serial-vs-threads verdict. The JSON artifact
 * (--json=, BENCH_mix.json in CI) carries the same numbers
 * machine-readably plus the wall-clock timings.
 */
void
mixSection(const BenchOptions &opt)
{
    const auto machine = uarch::MachineConfig::eightWay();

    std::printf("=== Co-run mixes: shadow-tag QoS estimation, "
                "matched-pair slowdown CIs ===\n\n");

    // Three regimes from the quick suite. QoS mixes (moderate
    // contention): the would-be-solo CPI variance is a correlated,
    // non-trivial share of the co-run variance, so the per-unit
    // pairing cancels it and the matched CI is >= 2x tighter — the
    // regime QoS/SLA estimation lives in, and the rows that carry
    // the >= 2x acceptance target. A no-contention control (the
    // shadow tags PROVE slowdown 1.0 exactly: matched CI 0 where
    // independent runs still pay full sampling noise). And the
    // saturated pair (chase and mix both overflow the shared
    // 256 KiB L2, under both policies): contention noise swamps the
    // solo variance, so pairing converges to the independent CI —
    // never worse, but no longer 2x.
    struct MixSpec
    {
        const char *a;
        const char *b;
        mem::PartitionPolicy policy;
        bool qos; ///< carries the >= 2x matched-pair target.
    };
    const MixSpec mixes[] = {
        {"chase-1", "bsearch-1", mem::PartitionPolicy::Shared, true},
        {"mix-1", "bsearch-1", mem::PartitionPolicy::Shared, true},
        {"bsearch-1", "stream-1", mem::PartitionPolicy::Shared,
         true},
        {"fsm-1", "sort-1", mem::PartitionPolicy::Shared, false},
        {"chase-1", "mix-1", mem::PartitionPolicy::Shared, false},
        {"chase-1", "mix-1", mem::PartitionPolicy::WayPartitioned,
         false},
    };

    TextTable det({"mix", "policy", "program", "units", "co cpi",
                   "solo cpi", "slowdown", "solo L2 mr", "co L2 mr",
                   "matched ci%", "indep ci%", "ci x", "qos target?",
                   "bitwise = serial?"});

    struct Row
    {
        std::string mix;
        std::string policy;
        std::string program;
        double slowdown, soloMr, coMr;
        double matched, indep, ratio;
        bool qos;
        bool identical;
    };
    std::vector<Row> rows;
    double sumSerialS = 0.0, sumThreadedS = 0.0;
    double minRatio = 0.0;
    bool haveRatio = false;
    std::size_t identicalCount = 0;

    for (const MixSpec &ms : mixes) {
        const mp::WorkloadMix mix = mp::WorkloadMix::of(
            {workloads::findBenchmark(ms.a, opt.scale),
             workloads::findBenchmark(ms.b, opt.scale)},
            ms.policy);

        core::SamplingConfig sc;
        sc.unitSize = 500;
        sc.detailedWarming = 1000;
        sc.interval = 50;
        sc.warming = core::WarmingMode::Functional;

        mp::MixEstimate serial;
        double serialS;
        {
            const Stopwatch t;
            serial = mp::runMix(mix, machine, sc);
            serialS = t.seconds();
        }
        mp::MixEstimate threaded;
        double threadedS;
        {
            const Stopwatch t;
            threaded = mp::runMix(mix, machine, sc, /*threads=*/5);
            threadedS = t.seconds();
        }
        const bool identical =
            serial.fingerprint() == threaded.fingerprint();
        identicalCount += identical ? 1 : 0;
        sumSerialS += serialS;
        sumThreadedS += threadedS;

        for (std::size_t p = 0; p < serial.perProgram.size(); ++p) {
            const mp::MixProgramEstimate &pe = serial.perProgram[p];
            const double matched = pe.slowdownCiRelative(0.95);
            const double indep =
                pe.independentSlowdownCiRelative(0.95);
            const double ratio = matched > 0.0 ? indep / matched
                                               : 0.0;
            // A matched CI of exactly 0 (uncontended lane: the
            // shadow tags prove the solo world bit-identical)
            // beats any finite independent CI; it is excluded
            // from the min rather than folded in as 0.
            if (ms.qos && ratio > 0.0) {
                minRatio = haveRatio ? std::min(minRatio, ratio)
                                     : ratio;
                haveRatio = true;
            }
            det.row()
                .add(mix.name)
                .add(mem::partitionPolicyName(ms.policy))
                .add(mix.programs[p].name)
                .add(pe.coRun.units())
                .add(pe.coRun.cpi(), 4)
                .add(pe.solo.cpi(), 4)
                .add(pe.slowdown(), 4)
                .add(pe.soloMissRate(), 4)
                .add(pe.coMissRate(), 4)
                .add(matched * 100.0, 3)
                .add(indep * 100.0, 3)
                .add(ratio, 1)
                .add(ms.qos ? "yes" : "no")
                .add(identical ? "yes" : "NO");
            rows.push_back({mix.name,
                            mem::partitionPolicyName(ms.policy),
                            mix.programs[p].name, pe.slowdown(),
                            pe.soloMissRate(), pe.coMissRate(),
                            matched, indep, ratio, ms.qos,
                            identical});
        }
        std::printf(".");
        std::fflush(stdout);
    }
    std::printf("\n\n");

    if (opt.section == "mix")
        emit(det, opt); // golden-pinned deterministic columns.
    else
        std::printf("%s\n", det.toString().c_str());

    std::printf(
        "serial %.2fs | 5-thread sharded %.2fs\n"
        "estimates bit-identical serial vs 5 threads for %zu/%zu "
        "mixes\n"
        "matched-pair slowdown CIs vs independent solo+co-run "
        "runs on the same units,\n"
        "over the QoS-regime rows: worst ratio %.1fx, target >=2x "
        "tighter: %s\n"
        "(saturated rows converge toward the independent CI as "
        "contention noise swamps\n"
        "the solo variance; uncontended lanes are exact — matched "
        "CI 0)\n",
        sumSerialS, sumThreadedS, identicalCount,
        sizeof(mixes) / sizeof(mixes[0]), haveRatio ? minRatio : 0.0,
        haveRatio && minRatio >= 2.0 ? "MET" : "NOT MET");
    std::fflush(stdout);

    if (opt.jsonPath.empty())
        return;
    std::FILE *json = std::fopen(opt.jsonPath.c_str(), "w");
    if (!json)
        SMARTS_FATAL("cannot write ", opt.jsonPath);
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"table6_mix\",\n"
                 "  \"scale\": \"%s\",\n"
                 "  \"serial_s\": %.4f,\n"
                 "  \"threaded_s\": %.4f,\n"
                 "  \"programs\": [\n",
                 opt.scaleName(), sumSerialS, sumThreadedS);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(
            json,
            "    {\"mix\": \"%s\", \"policy\": \"%s\", "
            "\"program\": \"%s\",\n"
            "     \"slowdown\": %.6f, \"solo_miss_rate\": %.6f, "
            "\"co_miss_rate\": %.6f,\n"
            "     \"matched_ci_rel\": %.6f, "
            "\"independent_ci_rel\": %.6f, \"ci_ratio\": %.2f, "
            "\"qos_target\": %s, \"bitwise_serial\": %s}%s\n",
            r.mix.c_str(), r.policy.c_str(), r.program.c_str(),
            r.slowdown, r.soloMr, r.coMr, r.matched, r.indep,
            r.ratio, r.qos ? "true" : "false",
            r.identical ? "true" : "false",
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n"
                 "  \"min_ci_ratio\": %.2f,\n"
                 "  \"target_ci_ratio\": 2.0,\n"
                 "  \"meets_target\": %s\n"
                 "}\n",
                 haveRatio ? minRatio : 0.0,
                 haveRatio && minRatio >= 2.0 ? "true" : "false");
    std::fclose(json);
    std::printf("json: %s\n", opt.jsonPath.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt = parseOptions(argc, argv, /*default_quick=*/true,
                                    "table6_runtimes.csv");
    // Runtime comparisons need non-trivial lengths.
    bool scale_flag = false;
    for (int i = 1; i < argc; ++i)
        scale_flag |= std::string(argv[i]).rfind("--scale=", 0) == 0;
    if (!scale_flag)
        opt.scale = workloads::Scale::Small;

    if (opt.section == "sharded") {
        banner("Table 6 (sharded section): checkpointed functional "
               "warming",
               opt);
        shardedSection(opt);
        return 0;
    }
    if (opt.section == "persist") {
        banner("Table 6 (persist section): persistent checkpoint "
               "store",
               opt);
        persistSection(opt);
        return 0;
    }
    if (opt.section == "distrib") {
        banner("Table 6 (distrib section): distributed shard "
               "runners",
               opt);
        distribSection(opt);
        return 0;
    }
    if (opt.section == "distrib_scale") {
        banner("Table 6 (distrib_scale section): elastic unit-range "
               "scheduling at 1/2/4 runners",
               opt);
        distribScaleSection(opt);
        return 0;
    }
    if (opt.section == "livepoint") {
        banner("Table 6 (livepoint section): per-unit checkpoints "
               "+ anytime early stopping",
               opt);
        livepointSection(opt);
        return 0;
    }
    if (opt.section == "store") {
        banner("Table 6 (store section): cache-service store — "
               "leapfrog capture, hit rate, budgeted GC",
               opt);
        storeSection(opt);
        return 0;
    }
    if (opt.section == "mix") {
        banner("Table 6 (mix section): multi-programmed co-runs — "
               "shadow-tag QoS, matched-pair slowdown CIs",
               opt);
        mixSection(opt);
        return 0;
    }
    if (!opt.section.empty())
        SMARTS_FATAL("unknown --section '", opt.section,
                     "' (supported: sharded, persist, distrib, "
                     "distrib_scale, livepoint, store, mix)");

    banner("Table 6: runtimes — detailed vs functional vs SMARTS "
           "(8-way)",
           opt);

    const auto config = uarch::MachineConfig::eightWay();

    TextTable table({"benchmark", "insts (M)", "detailed (s)",
                     "functional (s)", "SMARTS (s)", "SMARTS/func",
                     "speedup vs detailed", "extrapolated @10B"});

    double sum_det = 0, sum_smarts = 0, sum_func = 0;
    stats::OnlineStats paper_scale_speedup, fw_ratio, d_ratio;

    for (const auto &spec : opt.suite()) {
        // Functional-only runtime.
        std::uint64_t length;
        double func_s;
        {
            core::SimSession s(spec, config);
            const Stopwatch t;
            length = s.fastForward(~0ull >> 1, core::WarmingMode::None);
            func_s = t.seconds();
        }

        // Functional-warming runtime (S_FW, as the Figure 4 bench
        // measures it).
        double fwarm_s;
        {
            core::SimSession s(spec, config);
            const Stopwatch t;
            s.fastForward(~0ull >> 1, core::WarmingMode::Functional);
            fwarm_s = t.seconds();
        }

        // Full detailed runtime.
        double det_s;
        {
            core::SimSession s(spec, config);
            const Stopwatch t;
            while (!s.finished()) {
                const auto seg = s.detailedRun(1'000'000);
                if (!seg.instructions && !seg.cycles)
                    break;
            }
            det_s = t.seconds();
        }

        // SMARTS runtime (initial-sample configuration).
        double smarts_s;
        core::SmartsEstimate est;
        {
            core::SamplingConfig sc;
            sc.unitSize = 1000;
            sc.detailedWarming = recommendedW(config);
            sc.warming = core::WarmingMode::Functional;
            sc.interval = core::SamplingConfig::chooseInterval(
                length, sc.unitSize,
                std::max<std::uint64_t>(length / 1000 / 8, 60));
            core::SimSession s(spec, config);
            const Stopwatch t;
            est = core::SystematicSampler(sc).run(s);
            smarts_s = t.seconds();
        }

        sum_det += det_s;
        sum_func += func_s;
        sum_smarts += smarts_s;

        // Extrapolate to a paper-scale 10B-instruction benchmark with
        // n = 10,000 at the measured per-mode rates of this benchmark.
        const double s_f = static_cast<double>(length) / func_s;
        const double s_d = static_cast<double>(length) / det_s;
        const double s_fw = static_cast<double>(length) / fwarm_s;
        const core::RateParams host{1.0, s_d / s_f, s_fw / s_f};
        fw_ratio.add(s_fw / s_f);
        d_ratio.add(s_d / s_f);
        const double rate = core::smartsRateFunctionalWarming(
            10'000'000'000ull, 10'000, 1000, recommendedW(config),
            host);
        const double paper_speedup =
            core::speedupOverDetailed(rate, host);
        paper_scale_speedup.add(paper_speedup);

        char extrapolated[32];
        std::snprintf(extrapolated, sizeof(extrapolated), "%.0fx",
                      paper_speedup);
        table.row()
            .add(spec.name)
            .add(static_cast<double>(length) / 1e6, 1)
            .add(det_s, 2)
            .add(func_s, 2)
            .add(smarts_s, 2)
            .add(smarts_s / func_s, 1)
            .add(det_s / smarts_s, 1)
            .add(std::string(extrapolated));
        std::printf(".");
        std::fflush(stdout);
    }
    std::printf("\n\n");
    emit(table, opt);

    std::printf("totals: detailed %.1fs, functional %.1fs, SMARTS "
                "%.1fs; aggregate measured speedup %.1fx at this "
                "scale.\nmean extrapolated speedup at paper scale "
                "(10B insts, n=10,000): %.0fx (paper: 35x on 8-way).\n"
                "The asymptotic speedup is ~S_FW/S_D: the paper's "
                "0.55*60 = 33; measured here (mean over the suite) "
                "S_FW = %.2f and S_D = 1/%.0f of S_F, so %.2f*%.0f = "
                "%.0f — the rate decoupling the paper predicts "
                "(Section 3.4), which the S_FW column of the Figure 4 "
                "bench shows as well.\n\n",
                sum_det, sum_func, sum_smarts, sum_det / sum_smarts,
                paper_scale_speedup.mean(), fw_ratio.mean(),
                1.0 / d_ratio.mean(), fw_ratio.mean(),
                1.0 / d_ratio.mean(), fw_ratio.mean() / d_ratio.mean());

    designStudySection(opt);
    std::printf("\n");
    shardedSection(opt);
    std::printf("\n");
    persistSection(opt);
    std::printf("\n");
    distribSection(opt);
    std::printf("\n");
    distribScaleSection(opt);
    std::printf("\n");
    livepointSection(opt);
    return 0;
}
