/**
 * @file
 * Two-level memory hierarchy with split L1s, a unified L2 and split
 * fully-associative TLBs. Timing accesses (fetch/load/store) return
 * the latency and the level that served the request; warm accesses
 * (warmFetch/warmLoad/warmStore) update the identical state with no
 * timing — that distinction is the heart of functional warming.
 */

#ifndef SMARTS_MEM_HIERARCHY_HH
#define SMARTS_MEM_HIERARCHY_HH

#include <cstddef>
#include <cstdint>

#include "mem/cache.hh"
#include "util/reducer.hh"

namespace smarts::mem {

struct TlbConfig
{
    std::uint32_t entries = 64;
    std::uint32_t pageBytes = 4096;
    std::uint32_t missLatency = 30;
};

struct HierarchyConfig
{
    CacheConfig l1i;
    CacheConfig l1d;
    CacheConfig l2;
    TlbConfig itlb;
    TlbConfig dtlb;
    std::uint32_t memLatency = 80;
};

/** Which level served a timing access. */
enum class ServedBy : std::uint8_t
{
    L1 = 1,
    L2 = 2,
    Memory = 3,
};

struct MemResult
{
    std::uint32_t latency = 0;
    ServedBy level = ServedBy::L1;
    bool tlbMiss = false;
};

/**
 * Serialized TLB contents for checkpointing: the entry array, the
 * intrusive LRU list, and the open-addressing page index are all
 * captured verbatim so a restored TLB replays the identical
 * hit/miss/eviction sequence.
 */
struct TlbState
{
    std::vector<std::uint32_t> pages;
    std::vector<std::uint8_t> valid;
    std::vector<std::uint32_t> next;
    std::vector<std::uint32_t> prev;
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
    std::vector<std::uint32_t> keys;
    std::vector<std::uint32_t> vals;
    std::uint64_t misses = 0;

    std::size_t
    byteSize() const
    {
        return (pages.size() + next.size() + prev.size() +
                keys.size() + vals.size()) *
                   sizeof(std::uint32_t) +
               valid.size() + 2 * sizeof(std::uint32_t) +
               sizeof(std::uint64_t);
    }

    /** Field order is normative: docs/checkpoint-format.md. */
    void
    write(util::BinaryWriter &out) const
    {
        out.vecU32(pages);
        out.vecU8(valid);
        out.vecU32(next);
        out.vecU32(prev);
        out.u32(head);
        out.u32(tail);
        out.vecU32(keys);
        out.vecU32(vals);
        out.u64(misses);
    }

    void
    read(util::BinaryReader &in)
    {
        in.vecU32(pages);
        in.vecU8(valid);
        in.vecU32(next);
        in.vecU32(prev);
        head = in.u32();
        tail = in.u32();
        in.vecU32(keys);
        in.vecU32(vals);
        misses = in.u64();
    }
};

/**
 * Tiny fully-associative true-LRU TLB. LRU order lives in an
 * intrusive doubly-linked list and lookups go through a small
 * open-addressing page index, so hits and misses are O(1) instead
 * of a scan of every entry — the TLB is touched by every warm and
 * detailed memory access, so this is squarely on the functional-
 * warming hot path. Hit/miss/eviction sequences are identical to
 * the scan-based implementation (true LRU either way).
 */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config) : config_(config)
    {
        if (!config.entries)
            SMARTS_FATAL("TLB needs at least one entry");
        if (!config.pageBytes)
            SMARTS_FATAL("TLB page size must be nonzero");
        pageOf_ = util::Reducer(config.pageBytes);
        pages_.assign(config.entries, 0);
        valid_.assign(config.entries, 0);
        next_.assign(config.entries, 0);
        prev_.assign(config.entries, 0);
        slots_ = 4;
        while (slots_ < 4 * std::size_t(config.entries))
            slots_ <<= 1;
        keys_.assign(slots_, 0); ///< page + 1; 0 marks empty.
        vals_.assign(slots_, 0);
        initList();
    }

    /** Returns true on a miss (and fills). */
    [[gnu::always_inline]] bool
    access(std::uint32_t addr)
    {
        const std::uint32_t page = pageOf_.div(addr);
        // MRU fast path: consecutive same-page references.
        if (valid_[head_] && pages_[head_] == page)
            return false;
        const std::size_t slot = find(page);
        if (slot != kNone) {
            moveToFront(static_cast<std::uint32_t>(slot));
            return false;
        }
        ++misses_;
        const std::uint32_t victim = tail_; ///< LRU (or unfilled).
        if (valid_[victim])
            erase(pages_[victim]);
        pages_[victim] = page;
        valid_[victim] = 1;
        insert(page, victim);
        moveToFront(victim);
        return true;
    }

    void
    reset()
    {
        std::fill(valid_.begin(), valid_.end(), 0);
        std::fill(keys_.begin(), keys_.end(), 0);
        initList();
        misses_ = 0;
    }

    void
    saveState(TlbState &state) const
    {
        state.pages = pages_;
        state.valid = valid_;
        state.next = next_;
        state.prev = prev_;
        state.head = head_;
        state.tail = tail_;
        state.keys = keys_;
        state.vals = vals_;
        state.misses = misses_;
    }

    void
    restoreState(const TlbState &state)
    {
        // Every vector, and every stored entry index (list links, the
        // head/tail markers, hash-slot values), must fit the live
        // geometry before access() follows them.
        const std::uint32_t entries = config_.entries;
        if (state.pages.size() != entries ||
            state.valid.size() != entries ||
            state.next.size() != entries ||
            state.prev.size() != entries ||
            state.keys.size() != keys_.size() ||
            state.vals.size() != vals_.size() ||
            state.head >= entries || state.tail >= entries ||
            !indicesBelow(state.next, entries) ||
            !indicesBelow(state.prev, entries) ||
            !indicesBelow(state.vals, entries))
            SMARTS_FATAL("TLB checkpoint geometry mismatch");
        pages_ = state.pages;
        valid_ = state.valid;
        next_ = state.next;
        prev_ = state.prev;
        head_ = state.head;
        tail_ = state.tail;
        keys_ = state.keys;
        vals_ = state.vals;
        misses_ = state.misses;
    }

    std::uint64_t misses() const { return misses_; }
    const TlbConfig &config() const { return config_; }

  private:
    static constexpr std::size_t kNone = ~std::size_t(0);

    void
    initList()
    {
        const std::uint32_t n = config_.entries;
        for (std::uint32_t i = 0; i < n; ++i) {
            next_[i] = (i + 1) % n;
            prev_[i] = (i + n - 1) % n;
        }
        head_ = 0;
        tail_ = n - 1;
    }

    /** Move entry @p e to the MRU end of the list. */
    void
    moveToFront(std::uint32_t e)
    {
        if (e == head_)
            return;
        if (e == tail_) {
            // The list is circular: rotating the head/tail markers
            // suffices when touching the tail.
            head_ = e;
            tail_ = prev_[e];
            return;
        }
        next_[prev_[e]] = next_[e];
        prev_[next_[e]] = prev_[e];
        prev_[e] = tail_;
        next_[e] = head_;
        next_[tail_] = e;
        prev_[head_] = e;
        head_ = e;
    }

    std::size_t
    hashSlot(std::uint32_t page) const
    {
        // Fibonacci hashing spreads consecutive pages well.
        return (page * 2654435761u) & (slots_ - 1);
    }

    std::size_t
    find(std::uint32_t page) const
    {
        std::size_t s = hashSlot(page);
        while (keys_[s]) {
            if (keys_[s] == page + 1)
                return vals_[s];
            s = (s + 1) & (slots_ - 1);
        }
        return kNone;
    }

    void
    insert(std::uint32_t page, std::uint32_t entry)
    {
        std::size_t s = hashSlot(page);
        while (keys_[s])
            s = (s + 1) & (slots_ - 1);
        keys_[s] = page + 1;
        vals_[s] = entry;
    }

    void
    erase(std::uint32_t page)
    {
        std::size_t s = hashSlot(page);
        while (keys_[s] != page + 1)
            s = (s + 1) & (slots_ - 1);
        // Backward-shift deletion keeps probe chains intact.
        std::size_t hole = s;
        for (;;) {
            s = (s + 1) & (slots_ - 1);
            if (!keys_[s])
                break;
            const std::size_t home = hashSlot(keys_[s] - 1);
            // Can this key legally move into the hole?
            const bool movable =
                ((s - home) & (slots_ - 1)) >=
                ((s - hole) & (slots_ - 1));
            if (movable) {
                keys_[hole] = keys_[s];
                vals_[hole] = vals_[s];
                hole = s;
            }
        }
        keys_[hole] = 0;
    }

    TlbConfig config_;
    util::Reducer pageOf_; ///< addr -> page, no hardware divide.
    std::vector<std::uint32_t> pages_;
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint32_t> next_; ///< intrusive LRU list.
    std::vector<std::uint32_t> prev_;
    std::uint32_t head_ = 0; ///< MRU entry.
    std::uint32_t tail_ = 0; ///< LRU entry (eviction victim).
    std::size_t slots_ = 0;  ///< power-of-two hash capacity.
    std::vector<std::uint32_t> keys_;
    std::vector<std::uint32_t> vals_;
    std::uint64_t misses_ = 0;
};

/** Serialized hierarchy: every cache and TLB, in member order. */
struct HierarchyState
{
    CacheState l1i;
    CacheState l1d;
    CacheState l2;
    TlbState itlb;
    TlbState dtlb;

    std::size_t
    byteSize() const
    {
        return l1i.byteSize() + l1d.byteSize() + l2.byteSize() +
               itlb.byteSize() + dtlb.byteSize();
    }

    void
    write(util::BinaryWriter &out) const
    {
        l1i.write(out);
        l1d.write(out);
        l2.write(out);
        itlb.write(out);
        dtlb.write(out);
    }

    void
    read(util::BinaryReader &in)
    {
        l1i.read(in);
        l1d.read(in);
        l2.read(in);
        itlb.read(in);
        dtlb.read(in);
    }
};

/**
 * Every access path below (and Cache::access, Tlb::access) is always
 * inlined: together they are the body of the stepping loops
 * (core::detail::stepLoop), and the compiler's growth limits would
 * otherwise leave a call per memory access in them.
 */
class MemHierarchy
{
  public:
    /**
     * As a timing model's port (core::BasicTimingModel), a timing
     * access resolves in one world: its own MemResult.
     */
    static constexpr std::size_t kWorlds = 1;

    static const MemResult &
    world(const MemResult &result, std::size_t)
    {
        return result;
    }

    explicit MemHierarchy(const HierarchyConfig &config)
        : config_(config),
          l1i_("l1i", config.l1i),
          l1d_("l1d", config.l1d),
          l2_("l2", config.l2),
          itlb_(config.itlb),
          dtlb_(config.dtlb)
    {
    }

    [[gnu::always_inline]] MemResult
    fetch(std::uint32_t addr)
    {
        return timingAccess(l1i_, itlb_, addr, false);
    }

    [[gnu::always_inline]] MemResult
    load(std::uint32_t addr)
    {
        return timingAccess(l1d_, dtlb_, addr, false);
    }

    [[gnu::always_inline]] MemResult
    store(std::uint32_t addr)
    {
        return timingAccess(l1d_, dtlb_, addr, true);
    }

    [[gnu::always_inline]] void
    warmFetch(std::uint32_t addr)
    {
        warmAccess(l1i_, itlb_, addr, false);
    }

    [[gnu::always_inline]] void
    warmLoad(std::uint32_t addr)
    {
        warmAccess(l1d_, dtlb_, addr, false);
    }

    [[gnu::always_inline]] void
    warmStore(std::uint32_t addr)
    {
        warmAccess(l1d_, dtlb_, addr, true);
    }

    void
    reset()
    {
        l1i_.reset();
        l1d_.reset();
        l2_.reset();
        itlb_.reset();
        dtlb_.reset();
    }

    void
    saveState(HierarchyState &state) const
    {
        l1i_.saveState(state.l1i);
        l1d_.saveState(state.l1d);
        l2_.saveState(state.l2);
        itlb_.saveState(state.itlb);
        dtlb_.saveState(state.dtlb);
    }

    void
    restoreState(const HierarchyState &state)
    {
        l1i_.restoreState(state.l1i);
        l1d_.restoreState(state.l1d);
        l2_.restoreState(state.l2);
        itlb_.restoreState(state.itlb);
        dtlb_.restoreState(state.dtlb);
    }

    const HierarchyConfig &config() const { return config_; }
    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const Tlb &itlb() const { return itlb_; }
    const Tlb &dtlb() const { return dtlb_; }

  private:
    [[gnu::always_inline]] MemResult
    timingAccess(Cache &l1, Tlb &tlb, std::uint32_t addr, bool write)
    {
        MemResult result;
        result.tlbMiss = tlb.access(addr);
        result.latency =
            result.tlbMiss ? tlb.config().missLatency : 0;
        result.latency += l1.config().latency;
        if (l1.access(addr, write).hit) {
            result.level = ServedBy::L1;
        } else if (l2_.access(addr, write).hit) {
            result.level = ServedBy::L2;
            result.latency += config_.l2.latency;
        } else {
            result.level = ServedBy::Memory;
            result.latency += config_.l2.latency + config_.memLatency;
        }
        return result;
    }

    [[gnu::always_inline]] void
    warmAccess(Cache &l1, Tlb &tlb, std::uint32_t addr, bool write)
    {
        tlb.access(addr);
        if (!l1.access(addr, write).hit)
            l2_.access(addr, write);
    }

    HierarchyConfig config_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Tlb itlb_;
    Tlb dtlb_;
};

} // namespace smarts::mem

#endif // SMARTS_MEM_HIERARCHY_HH
