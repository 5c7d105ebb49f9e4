/**
 * @file
 * Unit tests for the microarchitectural state functional warming
 * maintains: cache LRU behaviour, hierarchy warm-vs-timing
 * equivalence, TLB, branch predictor training, and SISA encoding
 * round-trips.
 */

#include <cstdio>
#include <filesystem>
#include <string>

#include "bpred/branch_unit.hh"
#include "distrib/store_service.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "sisa/encoding.hh"
#include "uarch/config.hh"
#include "util/rng.hh"
#include "workloads/benchmark.hh"

#include "check.hh"

using namespace smarts;

namespace {

void
testEncodingRoundTrip()
{
    const auto di =
        sisa::decode(sisa::encode(sisa::Opcode::BNE, 1, 2, 0, -16));
    CHECK(di.op == sisa::Opcode::BNE);
    CHECK(di.a == 1);
    CHECK(di.b == 2);
    CHECK(di.imm == -16);
    CHECK(di.isCondBranch());
    CHECK(!di.isMem());
    CHECK(di.branchTarget(0x1000) == 0x1000 - 16);

    const auto rt =
        sisa::decode(sisa::encode(sisa::Opcode::ADD, 5, 6, 7, 0));
    CHECK(rt.op == sisa::Opcode::ADD);
    CHECK(rt.a == 5);
    CHECK(rt.b == 6);
    CHECK(rt.c == 7);

    const auto ld =
        sisa::decode(sisa::encode(sisa::Opcode::LD, 3, 4, 0, 32000));
    CHECK(ld.isLoad());
    CHECK(ld.imm == 32000);
}

void
testCacheLru()
{
    // 2 sets x 2 ways of 32B lines.
    mem::Cache cache("t", {128, 2, 32, 1});
    CHECK(!cache.access(0x000, false).hit); // set 0 way A.
    CHECK(!cache.access(0x040, false).hit); // set 0 way B.
    CHECK(cache.access(0x000, false).hit);
    CHECK(cache.access(0x040, false).hit);
    // Third line in set 0 evicts the LRU (0x000 was touched less
    // recently than... order: 0x000 then 0x040 re-touched; 0x000
    // touched 3rd, 0x040 touched 4th -> LRU is 0x000? No: both
    // re-accessed; 0x000 at t3, 0x040 at t4, so 0x000 is LRU.
    CHECK(!cache.access(0x080, false).hit); // evicts 0x000.
    CHECK(!cache.access(0x000, false).hit); // gone.
    CHECK(cache.probe(0x080));
    CHECK(cache.misses() >= 4);

    cache.reset();
    CHECK(!cache.probe(0x080));
    CHECK(cache.accesses() == 0);
}

void
testHierarchyWarmEqualsTimingState()
{
    // A warm access and a timing access must leave identical cache
    // state: that is the functional-warming contract.
    const auto config = uarch::MachineConfig::eightWay().mem;
    mem::MemHierarchy warm(config), timed(config);
    Xoshiro256StarStar rng(7);
    std::vector<std::uint32_t> addrs;
    for (int i = 0; i < 20000; ++i)
        addrs.push_back(
            static_cast<std::uint32_t>(rng.below(1 << 22)));
    for (const std::uint32_t a : addrs) {
        warm.warmLoad(a);
        timed.load(a);
    }
    // Same misses observed by probing a fresh sweep.
    int disagree = 0;
    for (std::uint32_t a = 0; a < (1u << 22); a += 4096)
        disagree += warm.l1d().probe(a) != timed.l1d().probe(a);
    CHECK(disagree == 0);
    CHECK(warm.l1d().misses() == timed.l1d().misses());
    CHECK(warm.l2().misses() == timed.l2().misses());
}

void
testHierarchyLatencies()
{
    const auto config = uarch::MachineConfig::eightWay().mem;
    mem::MemHierarchy hier(config);
    const std::uint32_t addr = 0x123400;
    const mem::MemResult cold = hier.load(addr);
    CHECK(cold.level == mem::ServedBy::Memory);
    CHECK(cold.latency >= config.memLatency);
    const mem::MemResult hot = hier.load(addr);
    CHECK(hot.level == mem::ServedBy::L1);
    CHECK(hot.latency <= config.l1d.latency +
                             config.dtlb.missLatency);
    // A second touch of the same page cannot miss the TLB.
    const mem::MemResult samePage = hier.load(addr + 64);
    CHECK(!samePage.tlbMiss);
}

void
testBranchPredictorLearns()
{
    bpred::BranchUnit unit(uarch::MachineConfig::eightWay().bpred);
    const auto di =
        sisa::decode(sisa::encode(sisa::Opcode::BNE, 1, 2, 0, -64));
    const std::uint32_t pc = 0x2000;
    // Train always-taken past the point where the 12-bit gshare
    // history saturates (so predict reads a trained entry).
    for (int i = 0; i < 20; ++i)
        unit.update(pc, di, true, pc - 64);
    const bpred::Prediction p = unit.predict(pc, di);
    CHECK(p.taken);
    CHECK(p.target == pc - 64);
    // Re-train not-taken; prediction flips.
    for (int i = 0; i < 20; ++i)
        unit.update(pc, di, false, pc + 4);
    CHECK(!unit.predict(pc, di).taken);
    CHECK(unit.lookups() == 2);
}

void
testMachineConfigs()
{
    const auto eight = uarch::MachineConfig::eightWay();
    const auto sixteen = uarch::MachineConfig::sixteenWay();
    CHECK(eight.name == "8-way");
    CHECK(sixteen.name == "16-way");
    CHECK(sixteen.width == 2 * eight.width);
    CHECK(sixteen.mem.l2.sizeBytes > eight.mem.l2.sizeBytes);
    CHECK(sixteen.bpred.historyBits > eight.bpred.historyBits);
    CHECK(eight.modelWrongPath);
}

void
testLineSizeMustBePowerOfTwo()
{
    // A 48B L1D line in a geometry that divides evenly: the caches
    // address lines by a shift, so they would round it up to 64B and
    // simulate a different cache. The config check must refuse it by
    // field, and so must a reader of configs from files.
    uarch::MachineConfig config = uarch::MachineConfig::eightWay();
    CHECK_EQ(uarch::configError(config), std::string());
    config.mem.l1d = {48 * 4 * 256, 4, 48, 2};
    const std::string why = uarch::configError(config);
    CHECK(why.find("l1d.lineBytes 48 is not a power of two") !=
          std::string::npos);
    if (why.empty())
        std::fprintf(stderr, "  configError accepted a 48B line\n");

    const std::filesystem::path dir = "test_uarch_store";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    distrib::StoreRequest request;
    request.reqId = "line48";
    request.benchmark =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    request.machine = config;
    const std::string path = (dir / "line48.req").string();
    CHECK(request.save(path));
    std::string error;
    CHECK(!distrib::StoreRequest::load(path, &error).has_value());
    CHECK(error.find("l1d.lineBytes 48") != std::string::npos);
    std::filesystem::remove_all(dir);
}

} // namespace

int
main()
{
    testEncodingRoundTrip();
    testCacheLru();
    testHierarchyWarmEqualsTimingState();
    testHierarchyLatencies();
    testBranchPredictorLearns();
    testMachineConfigs();
    testLineSizeMustBePowerOfTwo();
    TEST_MAIN_SUMMARY();
}
