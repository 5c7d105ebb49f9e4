#include "workloads/benchmark.hh"

#include <sstream>

#include "util/binary_io.hh"
#include "util/logging.hh"

namespace smarts::workloads {

void
BenchmarkSpec::write(util::BinaryWriter &out) const
{
    out.str(name);
    out.u32(static_cast<std::uint32_t>(kernel));
    out.u32(variant);
    out.u64(seed);
    out.u32(static_cast<std::uint32_t>(scale));
}

BenchmarkSpec
BenchmarkSpec::read(util::BinaryReader &in)
{
    BenchmarkSpec spec;
    spec.name = in.str();
    spec.kernel = static_cast<Kernel>(in.u32());
    spec.variant = in.u32();
    spec.seed = in.u64();
    spec.scale = static_cast<Scale>(in.u32());
    return spec;
}

std::uint64_t
instructionBudget(Scale scale)
{
    switch (scale) {
      case Scale::Mini: return 2'000'000;
      case Scale::Small: return 12'000'000;
      case Scale::Large: return 120'000'000;
    }
    return 2'000'000;
}

namespace {

BenchmarkSpec
make(const char *name, Kernel kernel, std::uint32_t variant,
     std::uint64_t seed, Scale scale)
{
    BenchmarkSpec spec;
    spec.name = name;
    spec.kernel = kernel;
    spec.variant = variant;
    spec.seed = seed;
    spec.scale = scale;
    return spec;
}

} // namespace

std::vector<BenchmarkSpec>
quickSuite(Scale scale)
{
    return {
        make("sort-1", Kernel::Sort, 1, 0x5157u, scale),
        make("bsearch-1", Kernel::Bsearch, 1, 0xb517u, scale),
        make("fsm-1", Kernel::Fsm, 1, 0xf51au, scale),
        make("phase-1", Kernel::Phase, 1, 0x9a5eu, scale),
        make("stream-1", Kernel::Stream, 1, 0x57e3u, scale),
        make("chase-1", Kernel::Chase, 1, 0xc4a5u, scale),
    };
}

std::vector<BenchmarkSpec>
standardSuite(Scale scale)
{
    std::vector<BenchmarkSpec> suite = quickSuite(scale);
    suite.push_back(make("alu-1", Kernel::Alu, 1, 0xa1d1u, scale));
    suite.push_back(make("mix-1", Kernel::Mix, 1, 0x3175u, scale));
    suite.push_back(make("sort-2", Kernel::Sort, 2, 0x5252u, scale));
    suite.push_back(
        make("bsearch-2", Kernel::Bsearch, 2, 0xb252u, scale));
    suite.push_back(make("fsm-2", Kernel::Fsm, 2, 0xf252u, scale));
    suite.push_back(make("phase-2", Kernel::Phase, 2, 0x9252u, scale));
    return suite;
}

BenchmarkSpec
findBenchmark(const std::string &name, Scale scale)
{
    const auto suite = standardSuite(scale);
    for (const auto &spec : suite)
        if (spec.name == name)
            return spec;
    std::ostringstream known;
    for (const auto &spec : suite)
        known << ' ' << spec.name;
    SMARTS_FATAL("unknown benchmark '", name, "' (known:", known.str(),
                 ")");
}

} // namespace smarts::workloads
