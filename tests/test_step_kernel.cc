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
 *  4. The same for MixSession: two-program quick-suite mixes under
 *     both PartitionPolicy values on the same three machines, plus
 *     a four-program mix that overflows the 16-way shared L2, one
 *     call per step against random chunks, counted in rounds. Every
 *     MixSegment field and the serialized MixState after every step
 *     fold into a per-(machine, policy) digest, so the co-run world
 *     of a multi-program mix is pinned bit for bit, not only through
 *     table6_mix.csv's aggregates.
 *  5. SimSession::profileBbvs, which buckets basic blocks through a
 *     per-code-slot table instead of a divide per block, equals the
 *     `mix64(pc) % dims` formula bit for bit on the quick suite.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "check.hh"
#include "core/multi_session.hh"
#include "core/session.hh"
#include "estimate_fingerprint.hh"
#include "mp/mix_session.hh"
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

std::vector<std::uint8_t>
stateBytes(const mp::MixSession &s)
{
    mp::MixState state;
    s.saveState(state);
    util::BinaryWriter out;
    state.write(out);
    return out.buffer();
}

void
foldMixSegment(std::uint64_t &digest, const mp::MixSegment &seg)
{
    fold(digest, seg.rounds);
    for (const mp::MixLaneSegment &ls : seg.per) {
        fold(digest, ls.instructions);
        fold(digest, ls.coCycles);
        fold(digest, bitsOf(ls.coEnergyNj));
        fold(digest, ls.soloCycles);
        fold(digest, bitsOf(ls.soloEnergyNj));
        fold(digest, ls.sharedAccesses);
        fold(digest, ls.sharedMisses);
        fold(digest, ls.shadowAccesses);
        fold(digest, ls.shadowMisses);
    }
}

/** Every field of two segments, doubles compared by their bits. */
bool
sameMixSegment(const mp::MixSegment &a, const mp::MixSegment &b)
{
    std::uint64_t da = 0, db = 0;
    foldMixSegment(da, a);
    foldMixSegment(db, b);
    return da == db && a.per.size() == b.per.size();
}

/**
 * checkChunkedSchedule for a MixSession: a reference session takes
 * one call per step, a second takes the step in random chunks
 * (detailedRun unsplit, as there); both must agree after every step,
 * and the reference's segments and states fold into @p digest.
 */
void
checkChunkedMixSchedule(const mp::WorkloadMix &mix,
                        const uarch::MachineConfig &config,
                        std::uint64_t seed, std::uint64_t &digest,
                        std::uint64_t &contended)
{
    mp::MixSession ref(mix, config);
    mp::MixSession sim(mix, config);
    Xoshiro256StarStar schedule(seed);
    Xoshiro256StarStar chunks(seed ^ 0xc0ffee);

    int steps = 0;
    int pastEnd = 0;
    bool same = true;
    while (pastEnd < 2 && same) {
        if (ref.finished())
            ++pastEnd;
        const Step step = randomStep(schedule);
        std::uint64_t want = 0;
        std::uint64_t got = 0;
        switch (step.kind) {
          case Kind::FastForward:
            want = ref.fastForward(step.insts, step.mode);
            got = chunked(chunks, step.insts, [&](std::uint64_t n) {
                return sim.fastForward(n, step.mode);
            });
            break;
          case Kind::WarmAsDetailed:
            want = ref.warmAsDetailed(step.insts);
            got = chunked(chunks, step.insts, [&](std::uint64_t n) {
                return sim.warmAsDetailed(n);
            });
            break;
          case Kind::Detailed: {
            const mp::MixSegment a = ref.detailedRun(step.insts);
            const mp::MixSegment b = sim.detailedRun(step.insts);
            want = a.rounds;
            got = b.rounds;
            same = same && sameMixSegment(a, b);
            foldMixSegment(digest, a);
            for (const mp::MixLaneSegment &ls : a.per)
                if (ls.coCycles != ls.soloCycles)
                    ++contended;
            break;
          }
        }
        fold(digest, want);
        const std::vector<std::uint8_t> bytes = stateBytes(ref);
        fold(digest, util::xxh64(bytes.data(), bytes.size()));
        same = same && got == want && bytes == stateBytes(sim);
        if (!same)
            std::fprintf(stderr,
                         "  %s on %s: step %d (kind %d, mode %d, %"
                         PRIu64 " rounds) diverged: %" PRIu64
                         " / %" PRIu64 " executed\n",
                         mix.name.c_str(), config.name.c_str(), steps,
                         static_cast<int>(step.kind),
                         static_cast<int>(step.mode), step.insts, want,
                         got);
        ++steps;
    }
    CHECK(same);
    CHECK(ref.finished() && sim.finished());
    CHECK(steps > 8);
}

/** Each program of @p suite paired with the next, under @p policy. */
std::vector<mp::WorkloadMix>
adjacentPairs(const std::vector<workloads::BenchmarkSpec> &suite,
              mem::PartitionPolicy policy)
{
    std::vector<mp::WorkloadMix> mixes;
    for (std::size_t b = 0; b < suite.size(); ++b)
        mixes.push_back(mp::WorkloadMix::of(
            {suite[b], suite[(b + 1) % suite.size()]}, policy));
    return mixes;
}

/**
 * A mix whose footprint overflows the 16-way machine's 1 MiB shared
 * L2. No pair can: the largest footprint a program touches is
 * stream-1's 384 KiB, at every scale. These four touch 1168 KiB, and
 * way-partitioning leaves each of them 2 of the 8 ways (256 KiB).
 */
std::vector<mp::WorkloadMix>
largeMix(mem::PartitionPolicy policy)
{
    std::vector<workloads::BenchmarkSpec> programs;
    for (const char *name : {"stream-1", "phase-1", "chase-1", "mix-1"})
        programs.push_back(
            workloads::findBenchmark(name, workloads::Scale::Mini));
    return {mp::WorkloadMix::of(std::move(programs), policy)};
}

/**
 * Digests of the mix reference schedules, per machine, policy and
 * mix set. The quick-suite pins pair each Mini program with the next
 * and were recorded from the MixSession whose lanes kept their own
 * copy of the timing arithmetic, before the lanes became
 * core::TimingModel instances. The 16-way L2 holds both Mini
 * footprints of every such pair, so the 16-way machine also runs
 * largeMix(). A guard requires, for each (machine, policy), lane
 * segments whose co-run cycles differ from their solo cycles, so
 * every pinned co-run world is really contended.
 */
void
testChunkedMixSchedulesMatchReference()
{
    struct Pin
    {
        uarch::MachineConfig config;
        mem::PartitionPolicy policy;
        bool large; ///< largeMix() instead of the quick-suite pairs.
        std::uint64_t pinned;
    };
    const std::vector<Pin> pins = {
        {uarch::MachineConfig::eightWay(),
         mem::PartitionPolicy::Shared, false, 0x337bd8dfa5d9b9dbull},
        {uarch::MachineConfig::eightWay(),
         mem::PartitionPolicy::WayPartitioned, false,
         0xe9988964ac5ed26cull},
        {uarch::MachineConfig::sixteenWay(),
         mem::PartitionPolicy::Shared, false, 0xb81530a855cafa21ull},
        {uarch::MachineConfig::sixteenWay(),
         mem::PartitionPolicy::WayPartitioned, false,
         0xe9f841ad3e065ee4ull},
        {uarch::MachineConfig::sixteenWay(),
         mem::PartitionPolicy::Shared, true, 0x7e8035a19d955a70ull},
        {uarch::MachineConfig::sixteenWay(),
         mem::PartitionPolicy::WayPartitioned, true,
         0x400c9cd2029dce68ull},
        {oddGeometry(), mem::PartitionPolicy::Shared, false,
         0xe6b7d13bc1cf25dbull},
        {oddGeometry(), mem::PartitionPolicy::WayPartitioned, false,
         0x696757c5c74c45e7ull},
    };
    const std::vector<workloads::BenchmarkSpec> suite =
        workloads::quickSuite(workloads::Scale::Mini);
    /// Contended lane segments per (machine name, policy).
    std::map<std::pair<std::string, int>, std::uint64_t> contended;
    for (const Pin &pin : pins) {
        const std::vector<mp::WorkloadMix> mixes =
            pin.large ? largeMix(pin.policy)
                      : adjacentPairs(suite, pin.policy);
        std::uint64_t digest = 0xcbf29ce484222325ull;
        std::uint64_t &count = contended[{
            pin.config.name, static_cast<int>(pin.policy)}];
        const std::uint64_t seed = pin.large ? 3000 : 2000;
        for (std::size_t m = 0; m < mixes.size(); ++m)
            checkChunkedMixSchedule(mixes[m], pin.config, seed + m,
                                    digest, count);
        if (digest != pin.pinned)
            std::fprintf(stderr,
                         "  %s/%s%s: mix schedule digest 0x%016" PRIx64
                         "\n",
                         pin.config.name.c_str(),
                         mem::partitionPolicyName(pin.policy),
                         pin.large ? " (large mix)" : "", digest);
        CHECK_EQ(digest, pin.pinned);
    }
    for (const auto &[key, count] : contended) {
        if (!count)
            std::fprintf(stderr, "  %s/%s: no contended segment\n",
                         key.first.c_str(),
                         mem::partitionPolicyName(
                             static_cast<mem::PartitionPolicy>(
                                 key.second)));
        CHECK(count > 0);
    }
}

/**
 * SimSession::profileBbvs as it was written before its bucket table:
 * mix64(blockPc) % dims per basic block, on a bare ArchCore.
 */
std::vector<std::vector<double>>
referenceBbvs(const workloads::BenchmarkSpec &spec,
              std::uint64_t intervalSize, std::size_t dims)
{
    core::ArchCore arch(spec);
    auto bucket = [dims](std::uint32_t blockPc) {
        return static_cast<std::size_t>(mix64(blockPc) % dims);
    };
    std::vector<std::vector<double>> intervals;
    std::vector<double> current(dims, 0.0);
    std::uint64_t inInterval = 0;
    std::uint32_t blockStart = arch.pc();
    double blockLen = 0;
    core::StepInfo info;
    while (arch.step(info)) {
        ++blockLen;
        ++inInterval;
        if (info.di.isBranch()) {
            current[bucket(blockStart)] += blockLen;
            blockStart = info.nextPc;
            blockLen = 0;
        }
        if (inInterval == intervalSize) {
            current[bucket(blockStart)] += blockLen;
            blockLen = 0;
            blockStart = arch.pc();
            for (double &x : current)
                x /= static_cast<double>(intervalSize);
            intervals.push_back(current);
            std::fill(current.begin(), current.end(), 0.0);
            inInterval = 0;
        }
    }
    return intervals;
}

/**
 * profileBbvs buckets block starts through a per-code-slot table, not
 * a divide per block; every projected vector must still equal the
 * `%` formula's bit for bit, on the whole quick suite, at the
 * SimPoint default (32 buckets) and at bucket counts that are not
 * powers of two.
 */
void
testProfileBbvsMatchesModuloFormula()
{
    const std::vector<workloads::BenchmarkSpec> suite =
        workloads::quickSuite(workloads::Scale::Mini);
    const auto config = uarch::MachineConfig::eightWay();
    for (const workloads::BenchmarkSpec &spec : suite)
        for (const auto &[interval, dims] :
             {std::pair<std::uint64_t, std::size_t>{100'000, 32},
              {9'973, 7},
              {50'000, 1},
              {250'000, 1000}}) {
            core::SimSession session(spec, config);
            const std::vector<std::vector<double>> got =
                session.profileBbvs(interval, dims);
            const std::vector<std::vector<double>> want =
                referenceBbvs(spec, interval, dims);
            bool same = got.size() == want.size() && !got.empty();
            for (std::size_t i = 0; same && i < got.size(); ++i)
                for (std::size_t d = 0; same && d < dims; ++d)
                    same = bitsOf(got[i][d]) == bitsOf(want[i][d]);
            if (!same)
                std::fprintf(stderr,
                             "  %s: profileBbvs(%" PRIu64
                             ", %zu) differs from the %% formula\n",
                             spec.name.c_str(), interval, dims);
            CHECK(same);
        }
}

} // namespace

int
main()
{
    testReducerMatchesHardwareDivide();
    testChunkedSchedulesMatchReference();
    testChunkedMixSchedulesMatchReference();
    testProfileBbvsMatchesModuloFormula();
    TEST_MAIN_SUMMARY();
}
