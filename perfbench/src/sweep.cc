/**
 * @file
 * Workload `sweep`: the quick suite at Small scale through the
 * live-point path. A dense design (U=1000, W=2000, ~500 units per
 * benchmark) runs SmartsProcedure::estimateAnytime at 99.7% +/- 3%:
 * config 0 from an empty store (the leapfrog capture path), then a
 * memory-latency sweep of timing-only configs that share config 0's
 * warm geometry, so every lookup hits the stored live-points.
 */

#include <fstream>
#include <iterator>
#include <optional>

#include "core/checkpoint_store.hh"
#include "core/livepoint.hh"
#include "core/procedure.hh"
#include "core/reference.hh"
#include "core/sampler.hh"
#include "exec/thread_pool.hh"
#include "harness.hh"
#include "solo.hh"

namespace perfbench {

namespace {

using namespace smarts;

/** Live-points per benchmark: the anytime design's nInit. */
constexpr std::uint64_t kUnits = 500;

/**
 * Memory latency of each further config; config 0 is the 8-way
 * baseline (latency 80).
 */
constexpr std::uint32_t kSweepLatencies[] = {200};

/** What must match between two anytime runs of one estimate. */
bool
sameAnytime(const core::AnytimeResult &a, const core::AnytimeResult &b)
{
    return sameEstimate(a.estimate, b.estimate) &&
           a.unitsMeasured == b.unitsMeasured &&
           a.unitsAvailable == b.unitsAvailable &&
           a.earlyStopped == b.earlyStopped;
}

class Sweep
{
  public:
    Sweep(const Options &opt, Tracer &tracer, Report &report)
        : opt_(opt), tracer_(tracer), report_(report),
          suite_("sweep",
                 reseed(workloads::quickSuite(workloads::Scale::Small),
                        opt.seed),
                 kUnits, tracer, report)
    {
        configs_.push_back(suite_.machine());
        for (const std::uint32_t latency : kSweepLatencies) {
            uarch::MachineConfig c = suite_.machine();
            c.mem.memLatency = latency;
            c.name += "-mem" + std::to_string(latency);
            configs_.push_back(c);
        }
        procedure_.unitSize = 1000;
        procedure_.detailedWarming = 2000;
        procedure_.warming = core::WarmingMode::Functional;
        procedure_.nInit = kUnits;
        options_.target = procedure_.target;
        options_.seed = deriveSeed(opt.seed, "anytime");
    }

    void run();

  private:
    void verify();
    void verifyWarmBaseline();
    void cold(int rep);
    void warm(bool traced);
    void layers();
    void accuracy();
    void reportLayers();

    core::SessionFactory
    factory(std::size_t b, std::size_t c) const
    {
        return suite_.factory(b, configs_[c]);
    }

    /** The live-point library's key: config 0's warm geometry. */
    core::LibraryKey
    key(std::size_t b) const
    {
        return core::LibraryKey::of(suite_.spec(b), configs_[0],
                                    suite_.design(b));
    }

    core::AnytimeResult
    estimate(std::size_t b, std::size_t c, core::CheckpointStore &store)
    {
        return core::SmartsProcedure(procedure_)
            .estimateAnytime(factory(b, c), suite_.spec(b), configs_[c],
                             suite_.length(b), pool_, store,
                             options_.seed);
    }

    void
    checkExpected(std::size_t b, std::size_t c,
                  const core::AnytimeResult &result, const char *what)
    {
        report_.check(sameAnytime(result, expected_[b][c]),
                      "sweep " + suite_.spec(b).name + " " +
                          configs_[c].name + ": " + what +
                          " result != cold leapfrog");
    }

    void printAnytime(std::size_t b, std::size_t c,
                      const core::AnytimeResult &result) const;

    const Options &opt_;
    Tracer &tracer_;
    Report &report_;
    SoloSuite suite_;
    std::vector<uarch::MachineConfig> configs_;
    core::ProcedureConfig procedure_;
    core::AnytimeOptions options_;

    /** expected_[b][c]: the cold (leapfrog) result all runs match. */
    std::vector<std::vector<core::AnytimeResult>> expected_;

    std::string storeDir_;
    double storeMb_ = -1.0;
    core::StoreCounters coldCounters_, warmCounters_;
    std::uint64_t unitsAvailable_ = 0, unitsMeasured_ = 0;
    double memMb_ = 0.0, fileMb_ = 0.0;
    exec::ThreadPool pool_{kWorkers};
};

void
Sweep::printAnytime(std::size_t b, std::size_t c,
                    const core::AnytimeResult &result) const
{
    printEstimate("sweep",
                  suite_.spec(b).name + " " + configs_[c].name +
                      " anytime units=" +
                      std::to_string(result.unitsMeasured) + "/" +
                      std::to_string(result.unitsAvailable),
                  result.estimate.cpi(),
                  result.estimate.cpiConfidenceInterval(kConfidence));
}

void
Sweep::verify()
{
    // Untimed: the leapfrog result of every further config, captured
    // cold without a store; the timed warm-hit runs must match it.
    // Config 0's cold result comes from the first timed cold run.
    expected_.assign(suite_.size(), {core::AnytimeResult{}});
    for (std::size_t b = 0; b < suite_.size(); ++b)
        for (std::size_t c = 1; c < configs_.size(); ++c) {
            const auto session = factory(b, c)();
            const core::AnytimeResult result =
                core::SystematicSampler(suite_.design(b))
                    .runAnytimeLeapfrog(*session, factory(b, c), pool_,
                                        options_);
            printAnytime(b, c, result);
            expected_[b].push_back(result);
        }
}

void
Sweep::verifyWarmBaseline()
{
    // Untimed: config 0 from the store the last cold run filled must
    // reproduce that cold (leapfrog) result.
    core::CheckpointStore store(storeDir_);
    for (std::size_t b = 0; b < suite_.size(); ++b)
        checkExpected(b, 0, estimate(b, 0, store), "warm-hit");
    report_.check(store.counters().misses == 0,
                  "sweep: config 0 warm lookups missed");
}

void
Sweep::cold(int rep)
{
    core::CheckpointStore store(storeDir_);
    for (std::size_t b = 0; b < suite_.size(); ++b) {
        core::AnytimeResult result;
        {
            Tracer::Scope s(tracer_, "procedure.anytime_cold");
            result = estimate(b, 0, store);
        }
        if (rep > 0) {
            checkExpected(b, 0, result, "cold");
            continue;
        }
        expected_[b][0] = result;
        printAnytime(b, 0, result);
        // An anytime run that measured every unit is the serial run.
        if (!result.earlyStopped)
            report_.check(
                sameEstimate(result.estimate, suite_.serialEstimate(b)),
                "sweep " + suite_.spec(b).name +
                    ": completed anytime estimate != serial");
    }
    coldCounters_ = store.counters();
}

void
Sweep::warm(bool traced)
{
    core::CheckpointStore store(storeDir_);
    unitsAvailable_ = unitsMeasured_ = 0;
    for (std::size_t b = 0; b < suite_.size(); ++b) {
        for (std::size_t c = 1; c < configs_.size(); ++c) {
            core::AnytimeResult result;
            if (!traced) {
                result = estimate(b, c, store);
            } else {
                // estimateAnytime's hit path, one public call at a time.
                std::optional<core::LivePointLibrary> library;
                {
                    Tracer::Scope s(tracer_, "store.load_livepoints");
                    library = store.tryLoadLivePoints(key(b));
                }
                if (!report_.check(library.has_value(),
                                   "sweep " + suite_.spec(b).name +
                                       ": warm store lookup missed"))
                    continue;
                Tracer::Scope s(tracer_, "livepoint.measure");
                result = core::SystematicSampler(suite_.design(b))
                             .runAnytime(factory(b, c), *library, pool_,
                                         options_);
            }
            checkExpected(b, c, result, "warm-hit");
            unitsAvailable_ += result.unitsAvailable;
            unitsMeasured_ += result.unitsMeasured;
        }
    }
    warmCounters_ = store.counters();
    report_.check(warmCounters_.hits ==
                          suite_.size() * (configs_.size() - 1) &&
                      warmCounters_.misses == 0 &&
                      warmCounters_.saves == 0,
                  "sweep: warm run was not all store hits");
}

void
Sweep::layers()
{
    tracer_.setRecording(true);
    Tracer::Scope root(tracer_, "layers");
    suite_.rateProbes();
    // The live-point path's layers, one public call at a time.
    core::CheckpointStore store(freshDir(opt_, "sweep-layers"));
    exec::ThreadPool onePool(1);
    for (std::size_t b = 0; b < suite_.size(); ++b) {
        core::LivePointLibrary library;
        {
            const auto session = factory(b, 0)();
            Tracer::Scope s(tracer_, "livepoint.capture");
            library =
                core::LivePointLibrary::build(*session, suite_.design(b));
        }
        memMb_ +=
            static_cast<double>(library.byteSize()) / (1024.0 * 1024.0);
        {
            Tracer::Scope s(tracer_, "livepoint.save");
            report_.check(store.saveLivePoints(library, key(b)),
                          "sweep " + suite_.spec(b).name +
                              ": live-point save failed");
        }
        {
            // The I/O floor of a load: the file's bytes, nothing else.
            Tracer::Scope s(tracer_, "livepoint.read");
            std::ifstream in(store.livePointPathFor(key(b)),
                             std::ios::binary);
            const std::string bytes{std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>()};
            fileMb_ +=
                static_cast<double>(bytes.size()) / (1024.0 * 1024.0);
        }
        std::optional<core::LivePointLibrary> loaded;
        {
            Tracer::Scope s(tracer_, "livepoint.load");
            loaded = store.tryLoadLivePoints(key(b));
        }
        if (!report_.check(loaded.has_value(),
                           "sweep " + suite_.spec(b).name +
                               ": live-point reload missed"))
            continue;
        const core::SystematicSampler sampler(suite_.design(b));
        {
            Tracer::Scope s(tracer_, "livepoint.measure_1t");
            checkExpected(b, 0,
                          sampler.runAnytime(factory(b, 0), *loaded,
                                             onePool, options_),
                          "1-worker");
        }
        Tracer::Scope s(tracer_, "livepoint.measure_2t");
        checkExpected(b, 0,
                      sampler.runAnytime(factory(b, 0), *loaded, pool_,
                                         options_),
                      "2-worker");
    }
    root.stop();
    tracer_.setRecording(false);
}

void
Sweep::accuracy()
{
    // Full-detail references, untimed, one job per (benchmark, config).
    const std::size_t n = configs_.size();
    std::vector<double> reference(suite_.size() * n);
    for (std::size_t b = 0; b < suite_.size(); ++b)
        for (std::size_t c = 0; c < n; ++c)
            pool_.submit([this, b, c, n, &reference] {
                core::ReferenceRunner runner(workloads::Scale::Small,
                                             configs_[c]);
                reference[b * n + c] = runner.get(suite_.spec(b)).cpi;
            });
    pool_.wait();

    Accuracy acc;
    for (std::size_t b = 0; b < suite_.size(); ++b)
        for (std::size_t c = 0; c < n; ++c) {
            const core::SmartsEstimate &e = expected_[b][c].estimate;
            acc.add(e.cpi(), e.cpiConfidenceInterval(kConfidence),
                    reference[b * n + c]);
        }
    acc.report("sweep", report_);
}

void
Sweep::reportLayers()
{
    auto layer = [this](const char *name) {
        return tracer_.selfPerRoot("layers", name);
    };
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    Report &r = report_;
    suite_.reportCore(tracer_, r);
    r.add("store.save_s", layer("livepoint.save"), "s");
    r.add("store.load_s",
          tracer_.selfPerRoot("warm_s", "store.load_livepoints"), "s");
    reportStoreCounters(coldCounters_, warmCounters_, r);
    r.add("exec.speedup_2t",
          ratio(layer("livepoint.measure_1t"),
                layer("livepoint.measure_2t")),
          "x");
    r.add("livepoint.capture_s", layer("livepoint.capture"), "s");
    r.add("livepoint.save_s", layer("livepoint.save"), "s");
    r.add("livepoint.read_s", layer("livepoint.read"), "s");
    r.add("livepoint.decode_s",
          layer("livepoint.load") - layer("livepoint.read"), "s");
    r.add("livepoint.measure_s",
          tracer_.selfPerRoot("warm_s", "livepoint.measure"), "s");
    r.add("livepoint.units_available", count(unitsAvailable_), "count");
    r.add("livepoint.units_measured", count(unitsMeasured_), "count");
    r.add("livepoint.useful_ratio",
          ratio(count(unitsMeasured_), count(unitsAvailable_)), "ratio");
    r.add("livepoint.mem_mb", memMb_, "MiB");
    r.add("livepoint.file_mb", fileMb_, "MiB");
}

void
Sweep::run()
{
    std::vector<Mode> modes;
    modes.push_back({"serial_s", [this](int, bool) { suite_.serial(); }});
    modes.push_back(
        {"cold_s", [this](int rep, bool) { cold(rep); },
         [this] {
             // Before the first cold run, which fills in config 0.
             if (expected_.empty())
                 verify();
             storeDir_ = freshDir(opt_, "sweep-store");
         },
         [this] { recordStoreSize(storeDir_, storeMb_, report_); }});
    modes.push_back(
        {"warm_s", [this](int, bool traced) { warm(traced); }});
    const ModeTimes times =
        measureModes(opt_, tracer_, [this] { suite_.setup(); }, modes);
    verifyWarmBaseline();

    if (!opt_.trace) {
        reportEndToEnd(times, storeMb_, report_);
        return;
    }
    layers();
    reportLayers();
    accuracy();
    reportTraceOverhead(times, tracer_, report_);
}

} // namespace

void
runSweep(const Options &opt, Tracer &tracer, Report &report)
{
    Sweep(opt, tracer, report).run();
}

} // namespace perfbench
