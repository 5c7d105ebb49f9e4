/**
 * @file
 * Restore-time geometry checks of the warm-state structures: a
 * checkpointed mem::Cache, mem::OwnedCache or mem::Tlb state whose
 * vectors are short, or whose stored way/entry indices exceed the
 * live geometry, must be refused with the "geometry mismatch" FATAL
 * before access() indexes out of bounds. A checksum only proves the
 * writer was careful, not honest, so these states can arrive in
 * well-formed files.
 *
 * Usage: test_restore_geometry <corruption>. Each ctest registration
 * runs one corruption and passes only when the FATAL's diagnostic
 * appears (PASS_REGULAR_EXPRESSION); a restore that accepts the
 * state prints "accepted" instead and fails.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "mem/cache.hh"
#include "mem/hierarchy.hh"

using namespace smarts;

namespace {

void
corruptCache(const std::string &what)
{
    mem::CacheConfig config;
    config.sizeBytes = 4096;
    config.assoc = 4;
    mem::Cache cache("l1d", config);
    cache.access(0x1000, false);
    mem::CacheState state;
    cache.saveState(state);
    if (what == "valid")
        state.valid.pop_back();
    else if (what == "lastuse")
        state.lastUse.pop_back();
    else if (what == "mruway")
        state.mruWay.front() = config.assoc;
    cache.restoreState(state);
}

void
corruptShared(const std::string &what)
{
    mem::CacheConfig config;
    config.sizeBytes = 4096;
    config.assoc = 4;
    mem::OwnedCache cache("l2", config, 2,
                          mem::PartitionPolicy::Shared);
    cache.access(0x1000, false, 1);
    mem::SharedCacheState state;
    cache.saveState(state);
    if (what == "owners")
        state.owners.pop_back();
    else if (what == "valid")
        state.valid.pop_back();
    else if (what == "mruway")
        state.mruWay.back() = config.assoc + 3;
    else if (what == "loads")
        state.loads.pop_back();
    cache.restoreState(state);
}

void
corruptTlb(const std::string &what)
{
    mem::TlbConfig config;
    config.entries = 8;
    mem::Tlb tlb(config);
    tlb.access(0x4000);
    mem::TlbState state;
    tlb.saveState(state);
    if (what == "valid")
        state.valid.pop_back();
    else if (what == "next")
        state.next.front() = config.entries;
    else if (what == "head")
        state.head = config.entries;
    else if (what == "vals")
        state.vals.pop_back();
    tlb.restoreState(state);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2 || !std::strchr(argv[1], '-')) {
        std::fprintf(stderr,
                     "usage: test_restore_geometry "
                     "<cache|shared|tlb>-<field>\n");
        return 2;
    }
    const std::string arg = argv[1];
    const std::string structure = arg.substr(0, arg.find('-'));
    const std::string field = arg.substr(arg.find('-') + 1);
    if (structure == "cache")
        corruptCache(field);
    else if (structure == "shared")
        corruptShared(field);
    else if (structure == "tlb")
        corruptTlb(field);
    // Reaching here means the corrupt state was restored.
    std::printf("%s: corrupt state accepted\n", arg.c_str());
    return 1;
}
