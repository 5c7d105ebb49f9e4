/**
 * @file
 * Workload `corun`: three QoS mixes (chase-1+bsearch-1,
 * mix-1+bsearch-1, bsearch-1+stream-1) at Small scale co-running
 * over the 8-way machine's shared, owner-tagged L2 with shadow tags,
 * sampled at U=500, W=1000, k=50 — serially (mp::runMix, one
 * thread), store-backed from an empty store (mp::estimateMix) and
 * again once the store holds every mix library.
 */

#include <optional>

#include "core/checkpoint_store.hh"
#include "exec/thread_pool.hh"
#include "harness.hh"
#include "mp/mix.hh"
#include "mp/mix_library.hh"
#include "mp/mix_sampler.hh"
#include "mp/mix_session.hh"

namespace perfbench {

namespace {

using namespace smarts;

/** Rounds per mix of the S_D probe (MixSession::detailedRun). */
constexpr std::uint64_t kDetailedProbe = 500'000;

class Corun
{
  public:
    Corun(const Options &opt, Tracer &tracer, Report &report)
        : opt_(opt), tracer_(tracer), report_(report)
    {
        const char *pairs[][2] = {{"chase-1", "bsearch-1"},
                                  {"mix-1", "bsearch-1"},
                                  {"bsearch-1", "stream-1"}};
        for (const auto &pair : pairs)
            mixes_.push_back(mp::WorkloadMix::of(
                {findReseeded(pair[0], opt.seed),
                 findReseeded(pair[1], opt.seed)},
                mem::PartitionPolicy::Shared));
        sampling_.unitSize = 500;
        sampling_.detailedWarming = 1000;
        sampling_.interval = 50;
        sampling_.warming = core::WarmingMode::Functional;
    }

    void run();

  private:
    void setup();
    void serial();
    void cold();
    void warm(bool traced);
    void layers();
    void accuracy();
    void reportLayers();

    mp::MixSampler
    sampler(std::size_t m) const
    {
        return mp::MixSampler(mixes_[m], machine_, sampling_);
    }

    core::LibraryKey
    key(std::size_t m) const
    {
        return mp::mixKey(mixes_[m], machine_, sampling_);
    }

    const Options &opt_;
    Tracer &tracer_;
    Report &report_;
    const uarch::MachineConfig machine_ =
        uarch::MachineConfig::eightWay();
    std::vector<mp::WorkloadMix> mixes_;
    core::SamplingConfig sampling_;
    std::vector<std::uint64_t> rounds_;

    /** The first serial estimates: every other mode must equal them. */
    std::vector<mp::MixEstimate> serial_;

    std::string storeDir_;
    double storeMb_ = -1.0;
    core::StoreCounters coldCounters_, warmCounters_;
    double libraryMb_ = 0.0;
    std::uint64_t sfInsts_ = 0, sfwInsts_ = 0, sdInsts_ = 0;
    exec::ThreadPool pool_{kWorkers};
};

void
Corun::setup()
{
    rounds_.assign(mixes_.size(), 0);
    sfInsts_ = 0;
    for (std::size_t m = 0; m < mixes_.size(); ++m) {
        {
            Tracer::Scope s(tracer_, "workloads.build");
            const mp::MixSession session(mixes_[m], machine_);
        }
        Tracer::Scope s(tracer_, "mp.stream");
        rounds_[m] = sampler(m).measureStreamLength();
        sfInsts_ += rounds_[m] * mixes_[m].programs.size();
    }
}

void
Corun::serial()
{
    const bool first = serial_.empty();
    for (std::size_t m = 0; m < mixes_.size(); ++m) {
        mp::MixEstimate est;
        {
            Tracer::Scope s(tracer_, "mp.run_mix");
            est = mp::runMix(mixes_[m], machine_, sampling_, 1);
        }
        if (!first) {
            report_.check(est.fingerprint() == serial_[m].fingerprint(),
                          "corun " + mixes_[m].name +
                              ": serial runMix is not deterministic");
            continue;
        }
        for (std::size_t p = 0; p < est.perProgram.size(); ++p) {
            const core::SmartsEstimate &co = est.perProgram[p].coRun;
            printEstimate("corun",
                          mixes_[m].name + " " +
                              mixes_[m].programs[p].name + " co-run",
                          co.cpi(), co.cpiConfidenceInterval(kConfidence));
        }
        serial_.push_back(std::move(est));
    }
}

void
Corun::cold()
{
    core::CheckpointStore store(storeDir_);
    for (std::size_t m = 0; m < mixes_.size(); ++m) {
        mp::MixEstimate est;
        {
            Tracer::Scope s(tracer_, "mp.estimate_mix");
            est = mp::estimateMix(mixes_[m], machine_, sampling_,
                                  kWorkers, store);
        }
        report_.check(est.fingerprint() == serial_[m].fingerprint(),
                      "corun " + mixes_[m].name +
                          ": cold estimateMix != serial runMix");
    }
    coldCounters_ = store.counters();
}

void
Corun::warm(bool traced)
{
    core::CheckpointStore store(storeDir_);
    for (std::size_t m = 0; m < mixes_.size(); ++m) {
        mp::MixEstimate est;
        if (!traced) {
            est = mp::estimateMix(mixes_[m], machine_, sampling_,
                                  kWorkers, store);
        } else {
            // estimateMix's hit path, one public call at a time.
            const mp::MixSampler mixSampler = sampler(m);
            {
                Tracer::Scope s(tracer_, "mp.stream");
                mixSampler.measureStreamLength();
            }
            std::optional<mp::MixLibrary> library;
            {
                Tracer::Scope s(tracer_, "store.load");
                store.loadEntry(key(m), [this, m, &library](
                                            const std::string &path,
                                            std::string *error) {
                    library = mp::MixLibrary::load(path, mixes_[m],
                                                   key(m), error);
                    return library.has_value();
                });
            }
            if (!report_.check(library.has_value(),
                               "corun " + mixes_[m].name +
                                   ": warm store lookup missed"))
                continue;
            Tracer::Scope s(tracer_, "mp.measure");
            est = mixSampler.runSharded(*library, pool_);
        }
        report_.check(est.fingerprint() == serial_[m].fingerprint(),
                      "corun " + mixes_[m].name +
                          ": warm estimateMix != serial runMix");
    }
    warmCounters_ = store.counters();
    report_.check(warmCounters_.hits == mixes_.size() &&
                      warmCounters_.misses == 0 &&
                      warmCounters_.saves == 0,
                  "corun: warm run was not all store hits");
}

void
Corun::layers()
{
    tracer_.setRecording(true);
    Tracer::Scope root(tracer_, "layers");
    core::CheckpointStore store(freshDir(opt_, "corun-layers"));
    exec::ThreadPool onePool(1);
    for (std::size_t m = 0; m < mixes_.size(); ++m) {
        const std::uint64_t programs = mixes_[m].programs.size();
        {
            mp::MixSession session(mixes_[m], machine_);
            Tracer::Scope s(tracer_, "core.ff_functional");
            sfwInsts_ += programs * session.fastForward(
                                        ~0ull >> 1,
                                        core::WarmingMode::Functional);
        }
        {
            mp::MixSession session(mixes_[m], machine_);
            Tracer::Scope s(tracer_, "core.detailed");
            sdInsts_ +=
                programs * session.detailedRun(kDetailedProbe).rounds;
        }

        // The cold path's layers, one public call at a time.
        mp::MixLibrary library;
        {
            mp::MixSession session(mixes_[m], machine_);
            Tracer::Scope s(tracer_, "mp.capture");
            library = mp::MixLibrary::build(
                session, sampling_,
                core::CheckpointLibrary::planShards(sampling_, rounds_[m],
                                                    kWorkers));
        }
        libraryMb_ +=
            static_cast<double>(library.byteSize()) / (1024.0 * 1024.0);
        {
            Tracer::Scope s(tracer_, "store.save");
            report_.check(
                store.publishEntry(
                    key(m),
                    [this, m, &library](const std::string &path,
                                        std::string *error) {
                        return library.save(mixes_[m], key(m), path,
                                            error,
                                            /*createDirs=*/false);
                    }),
                "corun " + mixes_[m].name + ": store save failed");
        }
        const mp::MixSampler mixSampler = sampler(m);
        mp::MixEstimate one, two;
        {
            Tracer::Scope s(tracer_, "mp.measure_1t");
            one = mixSampler.runSharded(library, onePool);
        }
        {
            Tracer::Scope s(tracer_, "mp.measure_2t");
            two = mixSampler.runSharded(library, pool_);
        }
        report_.check(one.fingerprint() == serial_[m].fingerprint() &&
                          two.fingerprint() == serial_[m].fingerprint(),
                      "corun " + mixes_[m].name +
                          ": 1-/2-worker estimate != serial");
    }
    root.stop();
    tracer_.setRecording(false);
}

void
Corun::accuracy()
{
    // Full-detail co-run references, untimed, one job per mix: per
    // program, co-run cycles over the whole mix stream.
    std::vector<std::vector<double>> reference(mixes_.size());
    for (std::size_t m = 0; m < mixes_.size(); ++m)
        pool_.submit([this, m, &reference] {
            mp::MixSession session(mixes_[m], machine_);
            const std::size_t n = mixes_[m].programs.size();
            std::vector<double> cycles(n, 0.0), insts(n, 0.0);
            while (!session.finished()) {
                const mp::MixSegment seg = session.detailedRun(1u << 20);
                if (!seg.rounds)
                    break;
                for (std::size_t p = 0; p < n; ++p) {
                    cycles[p] += static_cast<double>(seg.per[p].coCycles);
                    insts[p] +=
                        static_cast<double>(seg.per[p].instructions);
                }
            }
            for (std::size_t p = 0; p < n; ++p)
                reference[m].push_back(insts[p] > 0.0
                                           ? cycles[p] / insts[p]
                                           : 0.0);
        });
    pool_.wait();

    Accuracy acc;
    for (std::size_t m = 0; m < mixes_.size(); ++m)
        for (std::size_t p = 0; p < mixes_[m].programs.size(); ++p) {
            const core::SmartsEstimate &co = serial_[m].perProgram[p].coRun;
            acc.add(co.cpi(), co.cpiConfidenceInterval(kConfidence),
                    reference[m][p]);
        }
    acc.report("corun", report_);
}

void
Corun::reportLayers()
{
    std::uint64_t stream = 0, detailed = 0;
    std::uint64_t sharedAccesses = 0, sharedMisses = 0;
    std::uint64_t shadowAccesses = 0, shadowMisses = 0;
    for (const mp::MixEstimate &est : serial_)
        for (const mp::MixProgramEstimate &p : est.perProgram) {
            stream += p.coRun.streamLength;
            detailed += p.coRun.instructionsMeasured +
                        p.coRun.instructionsWarmed +
                        p.coRun.instructionsDropped;
            sharedAccesses += p.sharedAccesses;
            sharedMisses += p.sharedMisses;
            shadowAccesses += p.shadowAccesses;
            shadowMisses += p.shadowMisses;
        }
    auto layer = [this](const char *name) {
        return tracer_.selfPerRoot("layers", name);
    };
    auto count = [](std::uint64_t n) { return static_cast<double>(n); };
    const double streamS = tracer_.selfPerRoot("setup", "mp.stream");
    Report &r = report_;
    r.add("workloads.build_s",
          tracer_.selfPerRoot("setup", "workloads.build"), "s");
    r.add("core.sf_ns", nsPerInst(streamS, sfInsts_), "ns");
    r.add("core.sfw_ns", nsPerInst(layer("core.ff_functional"), sfwInsts_),
          "ns");
    r.add("core.sd_ns", nsPerInst(layer("core.detailed"), sdInsts_), "ns");
    r.add("core.insts_stream", count(stream), "count");
    r.add("core.insts_detailed", count(detailed), "count");
    r.add("store.save_s", layer("store.save"), "s");
    r.add("store.load_s", tracer_.selfPerRoot("warm_s", "store.load"),
          "s");
    reportStoreCounters(coldCounters_, warmCounters_, r);
    r.add("exec.speedup_2t",
          ratio(layer("mp.measure_1t"), layer("mp.measure_2t")), "x");
    r.add("mp.stream_s", streamS, "s");
    r.add("mp.capture_s", layer("mp.capture"), "s");
    r.add("mp.measure_s", tracer_.selfPerRoot("warm_s", "mp.measure"),
          "s");
    r.add("mp.library_mb", libraryMb_, "MiB");
    r.add("mp.shared_l2_accesses", count(sharedAccesses), "count");
    r.add("mp.shared_l2_misses", count(sharedMisses), "count");
    r.add("mp.shadow_l2_accesses", count(shadowAccesses), "count");
    r.add("mp.shadow_l2_misses", count(shadowMisses), "count");
}

void
Corun::run()
{
    std::vector<Mode> modes;
    modes.push_back({"serial_s", [this](int, bool) { serial(); }});
    modes.push_back(
        {"cold_s", [this](int, bool) { cold(); },
         [this] { storeDir_ = freshDir(opt_, "corun-store"); },
         [this] { recordStoreSize(storeDir_, storeMb_, report_); }});
    modes.push_back(
        {"warm_s", [this](int, bool traced) { warm(traced); }});
    const ModeTimes times =
        measureModes(opt_, tracer_, [this] { setup(); }, modes);

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
runCorun(const Options &opt, Tracer &tracer, Report &report)
{
    Corun(opt, tracer, report).run();
}

} // namespace perfbench
