/**
 * @file
 * Workload `study`: the 12-benchmark standard suite at Small scale on
 * the 8-way machine, fixed-n design (U=1000, W=2000, ~1000 units per
 * benchmark), estimated three ways on identical inputs — serial
 * run(), store-backed runSharded() from an empty store, and the same
 * call again once the store holds every shard library.
 */

#include <optional>

#include "core/checkpoint.hh"
#include "core/checkpoint_store.hh"
#include "core/reference.hh"
#include "core/sampler.hh"
#include "exec/thread_pool.hh"
#include "harness.hh"
#include "solo.hh"

namespace perfbench {

namespace {

using namespace smarts;

/** Shards per sharded run: two per pool worker. */
constexpr std::size_t kShards = 2 * kWorkers;

class Study
{
  public:
    Study(const Options &opt, Tracer &tracer, Report &report)
        : opt_(opt), tracer_(tracer), report_(report),
          suite_("study",
                 reseed(workloads::standardSuite(workloads::Scale::Small),
                        opt.seed),
                 1000, tracer, report)
    {
    }

    void run();

  private:
    void cold();
    void warm(bool traced);
    void layers();
    void accuracy();
    void reportLayers();

    core::SessionFactory
    factory(std::size_t i) const
    {
        return suite_.factory(i, suite_.machine());
    }

    core::SmartsEstimate
    sharded(std::size_t i, core::CheckpointStore &store)
    {
        return core::SystematicSampler(suite_.design(i))
            .runSharded(factory(i), suite_.spec(i), suite_.machine(),
                        suite_.length(i), kShards, pool_, store);
    }

    void
    checkSerial(std::size_t i, const core::SmartsEstimate &est,
                const char *what)
    {
        report_.check(sameEstimate(est, suite_.serialEstimate(i)),
                      "study " + suite_.spec(i).name + ": " + what +
                          " estimate != serial");
    }

    const Options &opt_;
    Tracer &tracer_;
    Report &report_;
    SoloSuite suite_;
    std::string storeDir_;
    double storeMb_ = -1.0;
    core::StoreCounters coldCounters_, warmCounters_;
    double libraryMb_ = 0.0;
    exec::ThreadPool pool_{kWorkers};
};

void
Study::cold()
{
    core::CheckpointStore store(storeDir_);
    for (std::size_t i = 0; i < suite_.size(); ++i) {
        core::SmartsEstimate est;
        {
            Tracer::Scope s(tracer_, "sampler.run_sharded_store");
            est = sharded(i, store);
        }
        checkSerial(i, est, "cold sharded");
    }
    coldCounters_ = store.counters();
}

void
Study::warm(bool traced)
{
    // A new store object over the filled directory: what a later
    // process sees.
    core::CheckpointStore store(storeDir_);
    for (std::size_t i = 0; i < suite_.size(); ++i) {
        if (!traced) {
            checkSerial(i, sharded(i, store), "warm sharded");
            continue;
        }
        // The store-backed call's hit path, one public call at a time.
        std::optional<core::CheckpointLibrary> library;
        {
            Tracer::Scope s(tracer_, "store.load");
            library = store.tryLoad(core::LibraryKey::of(
                suite_.spec(i), suite_.machine(), suite_.design(i)));
        }
        if (!report_.check(library.has_value(),
                           "study " + suite_.spec(i).name +
                               ": warm store lookup missed"))
            continue;
        core::SmartsEstimate est;
        {
            Tracer::Scope s(tracer_, "sampler.shard_measure");
            est = core::SystematicSampler(suite_.design(i))
                      .runSharded(factory(i), *library, pool_);
        }
        checkSerial(i, est, "warm sharded");
    }
    warmCounters_ = store.counters();
    report_.check(warmCounters_.hits == suite_.size() &&
                      warmCounters_.misses == 0 &&
                      warmCounters_.saves == 0,
                  "study: warm run was not all store hits");
}

void
Study::layers()
{
    tracer_.setRecording(true);
    Tracer::Scope root(tracer_, "layers");
    suite_.rateProbes();
    // The cold path's layers, one public call at a time.
    core::CheckpointStore store(freshDir(opt_, "study-layers"));
    exec::ThreadPool onePool(1);
    for (std::size_t i = 0; i < suite_.size(); ++i) {
        const core::SystematicSampler sampler(suite_.design(i));
        core::CheckpointLibrary library;
        {
            const auto session = factory(i)();
            Tracer::Scope s(tracer_, "checkpoint.capture");
            library = core::CheckpointLibrary::build(
                *session, suite_.design(i),
                core::CheckpointLibrary::planShards(
                    suite_.design(i), suite_.length(i), kShards));
        }
        libraryMb_ +=
            static_cast<double>(library.byteSize()) / (1024.0 * 1024.0);
        {
            Tracer::Scope s(tracer_, "store.save");
            report_.check(store.save(core::LibraryKey::of(
                                         suite_.spec(i), suite_.machine(),
                                         suite_.design(i)),
                                     library),
                          "study " + suite_.spec(i).name +
                              ": store save failed");
        }
        {
            Tracer::Scope s(tracer_, "sampler.shard_measure_1t");
            checkSerial(i, sampler.runSharded(factory(i), library, onePool),
                        "1-worker sharded");
        }
        Tracer::Scope s(tracer_, "sampler.shard_measure_2t");
        checkSerial(i, sampler.runSharded(factory(i), library, pool_),
                    "2-worker sharded");
    }
    root.stop();
    tracer_.setRecording(false);
}

void
Study::accuracy()
{
    // Full-detail references, untimed, one job per benchmark.
    std::vector<double> reference(suite_.size());
    for (std::size_t i = 0; i < suite_.size(); ++i)
        pool_.submit([this, i, &reference] {
            core::ReferenceRunner runner(workloads::Scale::Small,
                                         suite_.machine());
            reference[i] = runner.get(suite_.spec(i)).cpi;
        });
    pool_.wait();

    Accuracy acc;
    for (std::size_t i = 0; i < suite_.size(); ++i) {
        const core::SmartsEstimate &e = suite_.serialEstimate(i);
        acc.add(e.cpi(), e.cpiConfidenceInterval(kConfidence),
                reference[i]);
    }
    acc.report("study", report_);
}

void
Study::reportLayers()
{
    auto layer = [this](const char *name) {
        return tracer_.selfPerRoot("layers", name);
    };
    Report &r = report_;
    suite_.reportCore(tracer_, r);
    r.add("checkpoint.capture_s", layer("checkpoint.capture"), "s");
    r.add("checkpoint.mb", libraryMb_, "MiB");
    r.add("store.save_s", layer("store.save"), "s");
    r.add("store.load_s", tracer_.selfPerRoot("warm_s", "store.load"),
          "s");
    reportStoreCounters(coldCounters_, warmCounters_, r);
    r.add("sampler.shard_measure_s",
          tracer_.selfPerRoot("warm_s", "sampler.shard_measure"), "s");
    r.add("exec.speedup_2t",
          ratio(layer("sampler.shard_measure_1t"),
                layer("sampler.shard_measure_2t")),
          "x");
}

void
Study::run()
{
    std::vector<Mode> modes;
    modes.push_back({"serial_s", [this](int, bool) { suite_.serial(); }});
    modes.push_back(
        {"cold_s", [this](int, bool) { cold(); },
         [this] { storeDir_ = freshDir(opt_, "study-store"); },
         [this] { recordStoreSize(storeDir_, storeMb_, report_); }});
    modes.push_back(
        {"warm_s", [this](int, bool traced) { warm(traced); }});
    const ModeTimes times =
        measureModes(opt_, tracer_, [this] { suite_.setup(); }, modes);

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
runStudy(const Options &opt, Tracer &tracer, Report &report)
{
    Study(opt, tracer, report).run();
}

} // namespace perfbench
