/**
 * @file
 * Property tests for the stepping kernel (core::detail::stepLoop, the
 * one loop under every SimSession and MultiSession entry point) and
 * for the divide-free index reducer (util::Reducer) the caches, TLBs
 * and branch unit index with.
 *
 *  1. Reducer: div and mod equal the hardware `/` and `%` on edge
 *     operands (0, 1, d-1, d, 2^32-1) for edge divisors (1, 2^31,
 *     2^32-1, non-powers of two) and on 100k seeded random pairs.
 *  2. Chunking: for every quick-suite benchmark at Mini scale and
 *     three machines (8-way, 16-way, and a non-power-of-two geometry:
 *     192-set L1D, 384-entry BTB, 12-entry RAS, 6 KiB pages), a
 *     random schedule that switches between all four WarmingModes,
 *     warmAsDetailed and detailedRun is run three ways: one call per
 *     step of the schedule (the reference), and split into random
 *     chunks (0, 1, a few, or many instructions per call) on a
 *     SimSession and on a one-config MultiSession. After every step
 *     the serialized ArchState + TimingState must be byte-equal
 *     across all three. detailedRun steps are not split: a segment
 *     boundary charges per-cycle energy (TimingModel::endSegment), so
 *     a split run is a different measurement, not a different loop.
 *  3. Pinned digests: the reference runs' states, folded per machine,
 *     equal digests recorded from the per-instruction `%`-indexed
 *     simulator the kernel replaced — so odd geometries (which no
 *     golden CSV exercises) stay bit-identical, not merely
 *     self-consistent.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "check.hh"
#include "core/multi_session.hh"
#include "core/session.hh"
#include "estimate_fingerprint.hh"
#include "uarch/config.hh"
#include "util/binary_io.hh"
#include "util/reducer.hh"
#include "util/rng.hh"
#include "workloads/benchmark.hh"

namespace {

using namespace smarts;
using smarts::test::bitsOf;

void
checkReducer(std::uint32_t d, std::uint32_t a)
{
    const util::Reducer r(d);
    const bool ok = r.div(a) == a / d && r.mod(a) == a % d;
    if (!ok)
        std::fprintf(stderr,
                     "  %" PRIu32 " / %" PRIu32 ": reducer gives div %"
                     PRIu32 " mod %" PRIu32 "\n",
                     a, d, r.div(a), r.mod(a));
    CHECK(ok);
}

void
testReducerMatchesHardwareDivide()
{
    const std::vector<std::uint32_t> divisors = {
        1,          2,          3,          5,          6,
        7,          12,         192,        384,        641,
        6144,       4096,       1u << 31,   (1u << 31) - 1,
        (1u << 31) + 1, 0xfffffffeu, 0xffffffffu, 0x80000001u,
        1000000007u};
    for (const std::uint32_t d : divisors)
        for (const std::uint32_t a :
             {0u, 1u, d - 1, d, d + 1, 2 * d - 1, 2 * d, 1u << 31,
              0x7fffffffu, 0xfffffffeu, 0xffffffffu})
            checkReducer(d, a);

    // Random pairs, divisors spread over every magnitude.
    Xoshiro256StarStar rng(0x5eed);
    for (int i = 0; i < 100000; ++i) {
        const std::uint32_t d =
            static_cast<std::uint32_t>(rng.next()) >> rng.below(32);
        const std::uint32_t a = static_cast<std::uint32_t>(rng.next());
        checkReducer(d ? d : 1, a);
    }

    const util::Reducer unit;
    CHECK_EQ(unit.divisor(), 1u);
    CHECK_EQ(unit.div(0xffffffffu), 0xffffffffu);
    CHECK_EQ(unit.mod(0xffffffffu), 0u);
}

/** The non-power-of-two machine: every reducer takes Lemire's path. */
uarch::MachineConfig
oddGeometry()
{
    uarch::MachineConfig c = uarch::MachineConfig::eightWay();
    c.name = "odd";
    c.mem.l1d = {192 * 4 * 64, 4, 64, 2};
    c.mem.itlb.pageBytes = 6 * 1024;
    c.mem.dtlb.pageBytes = 6 * 1024;
    c.bpred.btbEntries = 384;
    c.bpred.rasEntries = 12;
    return c;
}

enum class Kind
{
    FastForward,
    WarmAsDetailed,
    Detailed,
};

struct Step
{
    Kind kind = Kind::FastForward;
    core::WarmingMode mode = core::WarmingMode::None;
    std::uint64_t insts = 0;
};

/** A random next step of the schedule. */
Step
randomStep(Xoshiro256StarStar &rng)
{
    static const core::WarmingMode kModes[] = {
        core::WarmingMode::None, core::WarmingMode::CachesOnly,
        core::WarmingMode::BpredOnly, core::WarmingMode::Functional};
    Step step;
    const std::uint64_t pick = rng.below(6);
    if (pick < 4) {
        step.kind = Kind::FastForward;
        step.mode = kModes[pick];
        step.insts = rng.below(120000);
    } else if (pick == 4) {
        step.kind = Kind::WarmAsDetailed;
        step.insts = rng.below(40000);
    } else {
        step.kind = Kind::Detailed;
        step.insts = rng.below(20000);
    }
    return step;
}

/** Split @p total into random call lengths; 0-length calls included. */
template <typename Call>
std::uint64_t
chunked(Xoshiro256StarStar &rng, std::uint64_t total, Call &&call)
{
    std::uint64_t done = 0;
    while (done < total) {
        const std::uint64_t left = total - done;
        std::uint64_t n = 0;
        switch (rng.below(4)) {
          case 0: n = 1; break;
          case 1: n = rng.below(64); break;
          case 2: n = 0; break;
          default: n = 1 + rng.below(left); break;
        }
        n = std::min(n, left);
        const std::uint64_t got = call(n);
        done += got;
        if (got < n)
            break;
    }
    return done;
}

std::vector<std::uint8_t>
stateBytes(const core::ArchState &arch, const core::TimingState &timing)
{
    util::BinaryWriter out;
    arch.write(out);
    timing.write(out);
    return out.buffer();
}

std::vector<std::uint8_t>
stateBytes(const core::SimSession &s)
{
    core::ArchState arch;
    core::TimingState timing;
    s.saveState(arch, timing);
    return stateBytes(arch, timing);
}

std::vector<std::uint8_t>
stateBytes(const core::MultiSession &s)
{
    core::ArchState arch;
    std::vector<core::TimingState> timings;
    s.saveState(arch, timings);
    return stateBytes(arch, timings.at(0));
}

void
fold(std::uint64_t &digest, std::uint64_t v)
{
    std::uint8_t bytes[8];
    util::storeLE(bytes, v);
    digest = util::fnv1a(bytes, sizeof bytes, digest);
}

/**
 * Run one benchmark's random schedule three ways (see the file
 * comment), checking byte-equality after every step; folds the
 * reference's per-step results and states into @p digest.
 */
void
checkChunkedSchedule(const workloads::BenchmarkSpec &spec,
                     const uarch::MachineConfig &config,
                     std::uint64_t seed, std::uint64_t &digest)
{
    core::SimSession ref(spec, config);
    core::SimSession sim(spec, config);
    core::MultiSession multi(spec, {config});
    Xoshiro256StarStar schedule(seed);
    Xoshiro256StarStar chunks(seed ^ 0xc0ffee);

    int steps = 0;
    int pastEnd = 0;
    bool same = true;
    // Run until the stream ends, then two steps more, so calls that
    // reach and pass the end are compared too.
    while (pastEnd < 2 && same) {
        if (ref.finished())
            ++pastEnd;
        const Step step = randomStep(schedule);
        std::uint64_t want = 0;
        std::uint64_t gotSim = 0;
        std::uint64_t gotMulti = 0;
        switch (step.kind) {
          case Kind::FastForward:
            want = ref.fastForward(step.insts, step.mode);
            gotSim = chunked(chunks, step.insts, [&](std::uint64_t n) {
                return sim.fastForward(n, step.mode);
            });
            gotMulti =
                chunked(chunks, step.insts, [&](std::uint64_t n) {
                    return multi.fastForward(n, step.mode);
                });
            break;
          case Kind::WarmAsDetailed:
            want = ref.warmAsDetailed(step.insts);
            gotSim = chunked(chunks, step.insts, [&](std::uint64_t n) {
                return sim.warmAsDetailed(n);
            });
            gotMulti =
                chunked(chunks, step.insts, [&](std::uint64_t n) {
                    return multi.warmAsDetailed(n);
                });
            break;
          case Kind::Detailed: {
            const core::Segment a = ref.detailedRun(step.insts);
            const core::Segment b = sim.detailedRun(step.insts);
            const core::MultiSegment m = multi.detailedRun(step.insts);
            want = a.instructions;
            gotSim = b.instructions;
            gotMulti = m.instructions;
            same = same && a.cycles == b.cycles &&
                   bitsOf(a.energyNj) == bitsOf(b.energyNj) &&
                   m.per.at(0).instructions == a.instructions &&
                   m.per.at(0).cycles == a.cycles &&
                   bitsOf(m.per.at(0).energyNj) == bitsOf(a.energyNj);
            fold(digest, a.cycles);
            fold(digest, bitsOf(a.energyNj));
            break;
          }
        }
        fold(digest, want);
        const std::vector<std::uint8_t> bytes = stateBytes(ref);
        fold(digest, util::xxh64(bytes.data(), bytes.size()));
        same = same && gotSim == want && gotMulti == want &&
               bytes == stateBytes(sim) && bytes == stateBytes(multi);
        if (!same)
            std::fprintf(stderr,
                         "  %s on %s: step %d (kind %d, mode %d, %"
                         PRIu64 " insts) diverged: %" PRIu64
                         " / %" PRIu64 " / %" PRIu64 " executed\n",
                         spec.name.c_str(), config.name.c_str(), steps,
                         static_cast<int>(step.kind),
                         static_cast<int>(step.mode), step.insts, want,
                         gotSim, gotMulti);
        ++steps;
    }
    CHECK(same);
    CHECK(ref.finished() && sim.finished() && multi.finished());
    CHECK(steps > 8);
}

/**
 * Digests of the reference schedules, per machine, as recorded from
 * the per-instruction simulator with `%`/`/` indexing that preceded
 * the stepping kernel. A deliberate timing-model change moves them;
 * the failure message prints the new value.
 */
void
testChunkedSchedulesMatchReference()
{
    struct Machine
    {
        uarch::MachineConfig config;
        std::uint64_t pinned;
    };
    const std::vector<Machine> machines = {
        {uarch::MachineConfig::eightWay(), 0xed5d161ad6bb0986ull},
        {uarch::MachineConfig::sixteenWay(), 0x9008aaf8b44009ecull},
        {oddGeometry(), 0x51db1104d1e34ad9ull},
    };
    const std::vector<workloads::BenchmarkSpec> suite =
        workloads::quickSuite(workloads::Scale::Mini);
    for (const Machine &m : machines) {
        std::uint64_t digest = 0xcbf29ce484222325ull;
        for (std::size_t b = 0; b < suite.size(); ++b)
            checkChunkedSchedule(suite[b], m.config, 1000 + b, digest);
        if (digest != m.pinned)
            std::fprintf(stderr, "  %s: schedule digest 0x%016" PRIx64
                                 "\n",
                         m.config.name.c_str(), digest);
        CHECK_EQ(digest, m.pinned);
    }
}

} // namespace

int
main()
{
    testReducerMatchesHardwareDivide();
    testChunkedSchedulesMatchReference();
    TEST_MAIN_SUMMARY();
}
