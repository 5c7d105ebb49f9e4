#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

namespace perfbench {

namespace fs = std::filesystem;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB.
}

double
treeMb(const std::string &dir)
{
    std::uintmax_t bytes = 0;
    for (const fs::directory_entry &entry :
         fs::recursive_directory_iterator(dir))
        if (entry.is_regular_file())
            bytes += entry.file_size();
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

void
recordStoreSize(const std::string &dir, double &mb, Report &report)
{
    const double size = treeMb(dir);
    if (mb < 0.0)
        mb = size;
    else
        report.check(size == mb, "store size differs between runs");
}

std::string
freshDir(const Options &opt, const std::string &name)
{
    const fs::path dir = fs::path(opt.workDir) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

std::uint64_t
deriveSeed(std::uint64_t seed, const std::string &salt)
{
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV-1a over the salt.
    for (const char c : salt) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    // splitmix64 finalizer over the mixed pair.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull ^ h;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<smarts::workloads::BenchmarkSpec>
reseed(std::vector<smarts::workloads::BenchmarkSpec> specs,
       std::uint64_t seed)
{
    for (smarts::workloads::BenchmarkSpec &spec : specs)
        spec.seed = deriveSeed(seed, spec.name);
    return specs;
}

smarts::workloads::BenchmarkSpec
findReseeded(const std::string &name, std::uint64_t seed)
{
    return reseed({smarts::workloads::findBenchmark(
                      name, smarts::workloads::Scale::Small)},
                  seed)
        .front();
}

// --- Tracer ---------------------------------------------------------

Tracer::Scope::Scope(Tracer &tracer, const char *name)
    : tracer_(tracer), start_(now())
{
    if (!tracer_.recording_)
        return;
    id_ = static_cast<int>(tracer_.spans_.size());
    Span span;
    span.name = name;
    span.start = start_;
    span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
    tracer_.spans_.push_back(std::move(span));
    tracer_.open_.push_back(id_);
}

double
Tracer::Scope::stop()
{
    if (seconds_ >= 0.0)
        return seconds_;
    const double end = now();
    seconds_ = end - start_;
    if (id_ >= 0) {
        tracer_.spans_[static_cast<std::size_t>(id_)].end = end;
        tracer_.open_.pop_back();
    }
    return seconds_;
}

std::vector<int>
Tracer::rootsNamed(const std::string &root) const
{
    std::vector<int> roots;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent < 0 && spans_[i].name == root)
            roots.push_back(static_cast<int>(i));
    return roots;
}

bool
Tracer::inside(int span, int root) const
{
    for (int s = span; s >= 0;
         s = spans_[static_cast<std::size_t>(s)].parent)
        if (s == root)
            return true;
    return false;
}

namespace {

double
duration(const Tracer::Span &span)
{
    return span.end - span.start;
}

} // namespace

double
Tracer::selfPerRoot(const std::string &root,
                    const std::string &name) const
{
    std::vector<double> childTime(spans_.size(), 0.0);
    for (const Span &span : spans_)
        if (span.parent >= 0)
            childTime[static_cast<std::size_t>(span.parent)] +=
                duration(span);

    std::vector<double> perRoot;
    for (const int r : rootsNamed(root)) {
        double self = 0.0;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].name == name &&
                inside(static_cast<int>(i), r))
                self += duration(spans_[i]) - childTime[i];
        perRoot.push_back(self);
    }
    return median(perRoot);
}

double
Tracer::childSeconds(const std::string &root) const
{
    std::vector<double> covered;
    for (const int r : rootsNamed(root)) {
        double sum = 0.0;
        for (const Span &span : spans_)
            if (span.parent == r)
                sum += duration(span);
        covered.push_back(sum);
    }
    return median(covered);
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    char buf[512];
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\": \"%s\", \"cat\": \"perfbench\", "
                      "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                      "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                      "{\"id\": %zu, \"parent\": %d, "
                      "\"workload\": \"%s\"}}",
                      i ? ",\n" : "", s.name.c_str(),
                      (s.start - t0) * 1e6, duration(s) * 1e6, i,
                      s.parent, workload_.c_str());
        out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

// --- Report ---------------------------------------------------------

void
Report::add(const std::string &name, double value,
            const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

void
Report::addIfMissing(const std::string &name, double value,
                     const std::string &unit)
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            return;
    add(name, value, unit);
}

bool
Report::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::cerr << "perfbench: FAILED: " << what << '\n';
    }
    return ok;
}

void
Report::print() const
{
    std::string line = "{\"correct\": ";
    line += failed_ == 0 && attempted_ > 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted_);
    line += ", \"failed\": " + std::to_string(failed_);
    line += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        // JSON has no NaN/Inf; a metric that is not finite is a bug
        // in the benchmark, reported as 0 and visible on stderr.
        double value = m.value;
        if (!std::isfinite(value)) {
            std::cerr << "perfbench: metric " << m.name
                      << " is not finite\n";
            value = 0.0;
        }
        std::snprintf(buf, sizeof buf, "%.10g", value);
        line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                buf + ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}}";
    std::cout << line << std::endl;
}

// --- Repetition loops -----------------------------------------------

ModeTimes
measureModes(const Options &opt, Tracer &tracer,
             const std::function<void()> &setup,
             const std::vector<Mode> &modes)
{
    std::vector<double> setupSeconds;
    auto setupOnce = [&] {
        Tracer::Scope scope(tracer, "setup");
        setup();
        setupSeconds.push_back(scope.stop());
        std::cerr << "perfbench: setup_s #" << setupSeconds.size() - 1
                  << " = " << setupSeconds.back() << " s" << std::endl;
    };

    const std::size_t n = modes.size();
    std::vector<std::vector<double>> untraced(n), traced(n);
    std::vector<double> spent(n, 0.0);
    std::vector<int> runs(n, 0);
    auto runOnce = [&](std::size_t m) {
        const Mode &mode = modes[m];
        const bool isTraced = opt.trace && runs[m] % 2 == 1;
        if (mode.prepare)
            mode.prepare();
        tracer.setRecording(isTraced);
        double seconds;
        {
            Tracer::Scope root(tracer, mode.metric.c_str());
            mode.run(runs[m], isTraced);
            seconds = root.stop();
        }
        tracer.setRecording(false);
        if (mode.finish)
            mode.finish();
        (isTraced ? traced : untraced)[m].push_back(seconds);
        spent[m] += seconds;
        std::cerr << "perfbench: " << mode.metric << " #" << runs[m]
                  << (isTraced ? " traced" : "") << " = " << seconds
                  << " s" << std::endl;
        ++runs[m];
    };

    // The budget is timed work only, so untimed steps do not starve
    // the modes. One pass in the given order (a mode may rely on the
    // ones before it; a trace run makes two, so each mode has an
    // untraced and a traced execution), then always the mode with the
    // least time so far: every mode gets an equal share of the
    // budget, so short modes get more repetitions.
    auto measured = [&] {
        double total = 0.0;
        for (const double seconds : setupSeconds)
            total += seconds;
        for (const double seconds : spent)
            total += seconds;
        return total;
    };
    auto setupDue = [&] {
        const double due = opt.seconds *
                           static_cast<double>(setupSeconds.size()) /
                           kSetupReps;
        return setupSeconds.size() < static_cast<std::size_t>(kSetupReps) &&
               measured() >= due;
    };
    setupOnce();
    for (int pass = 0; pass < (opt.trace ? 2 : 1); ++pass)
        for (std::size_t m = 0; m < n; ++m) {
            if (setupDue())
                setupOnce();
            runOnce(m);
        }
    for (;;) {
        if (setupDue())
            setupOnce();
        const std::size_t m = static_cast<std::size_t>(
            std::min_element(spent.begin(), spent.end()) - spent.begin());
        if (measured() + spent[m] / runs[m] > opt.seconds)
            break;
        runOnce(m);
    }
    // A short run may end before every set-up repetition fell due.
    while (setupSeconds.size() < static_cast<std::size_t>(kSetupReps))
        setupOnce();
    if (opt.trace) {
        tracer.setRecording(true);
        {
            Tracer::Scope root(tracer, "setup");
            setup();
        }
        tracer.setRecording(false);
    }

    ModeTimes times;
    times.setup = median(setupSeconds);
    for (std::size_t m = 0; m < n; ++m) {
        times.untraced[modes[m].metric] = median(untraced[m]);
        if (!traced[m].empty())
            times.traced[modes[m].metric] = median(traced[m]);
    }
    return times;
}

void
reportEndToEnd(const ModeTimes &times, double storeMb, Report &report)
{
    report.add("setup_s", times.setup, "s");
    for (const auto &[metric, seconds] : times.untraced)
        report.add(metric, seconds, "s");
    report.add("store_mb", storeMb, "MiB");
    report.add("peak_rss_mb", peakRssMb(), "MiB");
}

void
reportStoreCounters(const smarts::core::StoreCounters &cold,
                    const smarts::core::StoreCounters &warm,
                    Report &report)
{
    auto count = [](std::uint64_t n) { return static_cast<double>(n); };
    report.add("store.hits", count(warm.hits), "count");
    report.add("store.misses", count(cold.misses), "count");
    report.add("store.saves", count(cold.saves), "count");
    report.add("store.stat_calls", count(cold.statCalls + warm.statCalls),
               "count");
}

double
nsPerInst(double seconds, std::uint64_t insts)
{
    return insts ? 1e9 * seconds / static_cast<double>(insts) : 0.0;
}

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

void
reportTraceOverhead(const ModeTimes &times, const Tracer &tracer,
                    Report &report)
{
    double untracedSum = 0.0, tracedSum = 0.0;
    for (const auto &[metric, untraced] : times.untraced) {
        const auto found = times.traced.find(metric);
        const double traced =
            found != times.traced.end() ? found->second : 0.0;
        untracedSum += untraced;
        tracedSum += traced;
        report.add("trace." + metric + ".untraced", untraced, "s");
        report.add("trace." + metric + ".traced", traced, "s");
        report.add("trace." + metric + ".spans",
                   tracer.childSeconds(metric), "s");
    }
    report.add("trace.overhead_pct",
               untracedSum > 0.0
                   ? 100.0 * (tracedSum - untracedSum) / untracedSum
                   : 0.0,
               "%");
}

// --- Accuracy -------------------------------------------------------

void
Accuracy::add(double cpi, double ciRelative, double referenceCpi)
{
    const double err = std::fabs(cpi - referenceCpi);
    errSum += err / referenceCpi;
    ++count;
    if (err > ciRelative * cpi)
        ++misses;
}

void
Accuracy::report(const std::string &workload, Report &out) const
{
    const double errPct =
        count ? 100.0 * errSum / static_cast<double>(count) : 0.0;
    out.add("accuracy.cpi_err_pct", errPct, "%");
    out.add("accuracy.ci_miss", static_cast<double>(misses), "count");
    out.add("accuracy.estimates", static_cast<double>(count), "count");
    std::printf("%s: cpi_err=%.4f%% ci_miss=%zu of %zu estimates\n",
                workload.c_str(), errPct, misses, count);
}

void
printEstimate(const std::string &workload, const std::string &what,
              double cpi, double ciRelative)
{
    std::printf("estimate %s %s cpi=%.9f ci99.7=%.4f%%\n",
                workload.c_str(), what.c_str(), cpi,
                100.0 * ciRelative);
}

} // namespace perfbench
