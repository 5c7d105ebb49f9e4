/**
 * @file
 * The benchmark harness shared by the three workloads: command-line
 * options, seeded input generation, the span tracer, the repetition
 * loop, and the result line the benchmark ends with.
 *
 * Timings are host wall time (std::chrono::steady_clock). Spans are
 * recorded only from this directory, around calls into the smarts
 * library's public API; the library itself is not instrumented.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/checkpoint_store.hh"
#include "core/sampler.hh"
#include "workloads/benchmark.hh"

namespace perfbench {

class Report;

/**
 * Seed used when --seed is not given. Seed 7919 is held out of tuning
 * (perfbench/NOTES.md): a claim made on other seeds must hold there.
 */
constexpr std::uint64_t kDefaultSeed = 1;

/** Workers of every thread pool the benchmark creates. */
constexpr unsigned kWorkers = 2;

/**
 * Times the set-up is repeated, spread over the run; setup_s is the
 * median.
 */
constexpr int kSetupReps = 7;

/** 99.7%: the paper's confidence level, used for ci_miss. */
constexpr double kConfidence = 0.997;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;

    /** Scratch root inside the checkout (stores, trace file). */
    std::string workDir;
};

/** Steady-clock seconds since an arbitrary epoch. */
double now();

double median(std::vector<double> values);

/** Peak resident set of this process so far, MiB. */
double peakRssMb();

/** Bytes of every regular file under @p dir, MiB. */
double treeMb(const std::string &dir);

/**
 * Size the store the cold run filled (@p dir) into @p mb on the first
 * call; later calls check that it is unchanged (it is deterministic).
 */
void recordStoreSize(const std::string &dir, double &mb, Report &report);

/** A fresh, empty directory @p name under opt.workDir. */
std::string freshDir(const Options &opt, const std::string &name);

/** Deterministic 64-bit value from (@p seed, @p salt). */
std::uint64_t deriveSeed(std::uint64_t seed, const std::string &salt);

/**
 * @p specs with every BenchmarkSpec::seed regenerated from the
 * workload seed and the benchmark name: the program only ever sees
 * these generated specs.
 */
std::vector<smarts::workloads::BenchmarkSpec>
reseed(std::vector<smarts::workloads::BenchmarkSpec> specs,
       std::uint64_t seed);

/** Standard-suite spec @p name, reseeded. */
smarts::workloads::BenchmarkSpec findReseeded(const std::string &name,
                                              std::uint64_t seed);

/**
 * In-memory span recorder. Spans nest by scope on the calling
 * thread; every public-API call the benchmark makes from the main
 * thread can be wrapped. Recording is switched on only for traced
 * executions; untraced ones pay one clock read per scope.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
    };

    explicit Tracer(std::string workload) : workload_(std::move(workload))
    {
    }

    void
    setRecording(bool on)
    {
        recording_ = on;
    }

    /** Time one call; a span is recorded when recording is on. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name);
        ~Scope() { stop(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Close the span (once) and return its duration, seconds. */
        double stop();

      private:
        Tracer &tracer_;
        int id_ = -1;
        double start_ = 0.0;
        double seconds_ = -1.0;
    };

    /**
     * Median over instances of @p root of the summed SELF time
     * (duration minus direct children) of the spans named @p name
     * inside it, seconds.
     */
    double selfPerRoot(const std::string &root,
                       const std::string &name) const;

    /**
     * Median over instances of @p root of the summed duration of its
     * direct children: the part of the root its layer spans cover.
     */
    double childSeconds(const std::string &root) const;

    /** Chrome trace-event JSON (opens in Perfetto). */
    bool write(const std::string &path) const;

  private:
    std::vector<int> rootsNamed(const std::string &root) const;
    bool inside(int span, int root) const;

    std::string workload_;
    bool recording_ = false;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Metrics plus the correctness tally of one run. */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);

    /** add() unless a metric of that name is already present. */
    void addIfMissing(const std::string &name, double value,
                      const std::string &unit);

    /** Count one checked operation; log and count it failed if !ok. */
    bool check(bool ok, const std::string &what);

    /** Print the result line: the last line of standard output. */
    void print() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** One timed end-to-end mode of a workload. */
struct Mode
{
    std::string metric; ///< end-to-end metric name, e.g. "cold_s".

    /**
     * One execution; @p rep counts this mode's executions from 0.
     * @p traced: spans are being recorded, so the mode may split a
     * library call into the public calls it is made of, to time each
     * one.
     */
    std::function<void(int rep, bool traced)> run;

    /** Untimed steps before and after each execution (may be empty). */
    std::function<void()> prepare = {};
    std::function<void()> finish = {};
};

/**
 * Medians of every mode, untraced and (trace runs) traced, and of the
 * set-up.
 */
struct ModeTimes
{
    double setup = 0.0;
    std::map<std::string, double> untraced;
    std::map<std::string, double> traced;
};

/**
 * Run @p setup, then the modes until opt.seconds of timed work are
 * done: once each in order (twice in a trace run), then always the
 * mode with the least measured time so far, so each mode gets an
 * equal share and short modes more repetitions. Untimed steps do not
 * count against opt.seconds. The set-up runs kSetupReps times in all,
 * spread evenly over the timed work, so that one slow phase of the
 * host cannot hold all of them. In a trace run, every second
 * execution of a mode is traced, as a root span named after its
 * metric, and one more set-up is traced under root span "setup".
 */
ModeTimes measureModes(const Options &opt, Tracer &tracer,
                       const std::function<void()> &setup,
                       const std::vector<Mode> &modes);

/** The end-to-end metrics of an untraced run. */
void reportEndToEnd(const ModeTimes &times, double storeMb,
                    Report &report);

/**
 * The store.* per-layer counts: hits from the warm run's store, the
 * rest from the cold run's, stat calls summed over both.
 */
void reportStoreCounters(const smarts::core::StoreCounters &cold,
                         const smarts::core::StoreCounters &warm,
                         Report &report);

/** Nanoseconds per instruction; 0 without instructions. */
double nsPerInst(double seconds, std::uint64_t insts);

/** @p a / @p b; 0 when @p b is 0. */
double ratio(double a, double b);

/** The tracing-overhead and span-coverage metrics of a trace run. */
void reportTraceOverhead(const ModeTimes &times, const Tracer &tracer,
                         Report &report);

/** Equal estimates, field for field (SmartsEstimate::fingerprint). */
inline bool
sameEstimate(const smarts::core::SmartsEstimate &a,
             const smarts::core::SmartsEstimate &b)
{
    return a.fingerprint() == b.fingerprint();
}

/**
 * Accuracy of a set of estimates against full-detail references:
 * mean |CPI - reference| / reference, and how many 99.7% intervals
 * miss the reference (the paper's Fig. 6 claim).
 */
struct Accuracy
{
    double errSum = 0.0;
    std::size_t count = 0;
    std::size_t misses = 0;

    /** Add one estimate: CPI, its relative CI half-width, reference. */
    void add(double cpi, double ciRelative, double referenceCpi);

    /**
     * Add accuracy.cpi_err_pct, accuracy.ci_miss and
     * accuracy.estimates, and print them for @p workload.
     */
    void report(const std::string &workload, Report &out) const;
};

/**
 * The workloads (study.cc, sweep.cc, corun.cc): each runs its set-up
 * and timed modes, checks every estimate and adds its metrics —
 * end-to-end ones, or per-layer ones when opt.trace is set.
 */
void runStudy(const Options &opt, Tracer &tracer, Report &report);
void runSweep(const Options &opt, Tracer &tracer, Report &report);
void runCorun(const Options &opt, Tracer &tracer, Report &report);

/** Print one estimate's CPI (stdout), so runs can be compared. */
void printEstimate(const std::string &workload, const std::string &what,
                   double cpi, double ciRelative);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
