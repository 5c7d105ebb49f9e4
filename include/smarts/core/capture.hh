/**
 * @file
 * SplitCapture: how every solo capture steps its session. Stepping
 * the SimSession itself through the capture walk (core/schedule.hh)
 * pays the interpreter and the warming work in series on one thread;
 * SplitCapture runs the session's work on two threads:
 *
 *  - the calling thread interprets (ArchCore) and applies the timing
 *    model's warming transitions, BasicTimingModel::warm<> and
 *    warmDetailed, with the memory hierarchy replaced by a queue:
 *    predictor training, fetch-line tracking and activity counts
 *    happen here, and each cache/TLB warming access the transitions
 *    make (warmFetch, warmLoad, warmStore) is written, in order, into
 *    a small fixed ring of page-sized blocks;
 *  - a warming thread drains the ring in order into the session's
 *    own mem::MemHierarchy.
 *
 * The warming transitions never read a memory result back, so
 * replaying their memory accesses later, in the same order, leaves
 * the hierarchy exactly as the fused pass does: every captured state
 * is byte for byte the fused pass's, and only the wall clock moves.
 * The cache and TLB work, most of functional warming's cost, leaves
 * the interpreter's thread (the functional/timing split of FAST,
 * Chiou et al., MICRO 2007); what crosses between the threads is one
 * 8-byte entry per memory access, not a record per instruction.
 *
 * A snapshot is taken in two halves. The calling thread snaps the
 * ArchState and the timing state outside the memory hierarchy at the
 * boundary (saveCore) and queues a marker (atWarmer); the warming
 * thread runs the marker's work once it has replayed every access
 * queued before it, when the hierarchy stands exactly at that
 * boundary, and the work snaps the hierarchy and hands the finished
 * checkpoint on. Marker work therefore runs on the warming thread,
 * in queue order.
 *
 * A side that finds the ring full (interpreter) or empty (warmer)
 * spins briefly, then blocks on a condition variable, so a capture
 * still progresses when both threads share one CPU.
 *
 * CheckpointLibrary::capture/build, LivePointLibrary::build, the
 * cold sharded runner and SystematicSampler::runAnytimeLeapfrog all
 * capture through it. MultiSession and mp::MixSession
 * captures stay on their own fused loops.
 */

#ifndef SMARTS_CORE_CAPTURE_HH
#define SMARTS_CORE_CAPTURE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "core/arch.hh"
#include "core/session.hh"
#include "core/timing.hh"
#include "mem/hierarchy.hh"

namespace smarts::core {

class SplitCapture
{
  public:
    /**
     * Marker work: runs on the warming thread with the memory
     * hierarchy standing at the point the marker was queued.
     */
    using AtWarmer = std::function<void(const mem::MemHierarchy &)>;

    /**
     * Drive @p session's work on two threads until finish(). The
     * session must not be used directly until then.
     */
    explicit SplitCapture(SimSession &session);

    /** finish()es a capture still running. */
    ~SplitCapture();

    SplitCapture(const SplitCapture &) = delete;
    SplitCapture &operator=(const SplitCapture &) = delete;

    /**
     * SimSession::fastForward's stepping surface: interpret up to
     * @p maxInsts instructions, warming per @p mode, the memory
     * hierarchy on the warming thread. Returns the instructions
     * executed.
     */
    SMARTS_HOT_CODE std::uint64_t fastForward(std::uint64_t maxInsts,
                                              WarmingMode mode);

    /** SimSession::warmAsDetailed's stepping surface, split. */
    SMARTS_HOT_CODE std::uint64_t warmAsDetailed(std::uint64_t maxInsts);

    bool
    finished() const
    {
        return arch_.finished();
    }

    /** Instructions interpreted so far. */
    std::uint64_t
    instCount() const
    {
        return arch_.instCount();
    }

    /**
     * The calling thread's half of a snapshot at the current
     * position: @p arch whole, @p timing all but its memory
     * hierarchy, for marker work to snap. That snapshot's storage is
     * reserved here, so the warming thread allocates nothing: memory
     * it allocated would stay in its own allocator arena, where the
     * calling thread and the pool that later free the checkpoint
     * could not reuse it. Like ArchCore::saveState, @p arch keeps
     * every page of its image that is unchanged.
     */
    void
    saveCore(ArchState &arch, TimingState &timing) const
    {
        arch_.saveState(arch);
        model_.saveState(static_cast<TimingModel::State &>(timing));
        timing.mem.reserveLike(memoryShape_);
    }

    /**
     * Queue @p work for the warming thread: it runs once every
     * memory access made so far has been replayed.
     */
    void atWarmer(AtWarmer work);

    /**
     * Replay everything queued and join the warming thread: the
     * session is whole again, in the state the fused pass would have
     * left. Idempotent.
     */
    void finish();

    /**
     * The memory the calling thread's warming transitions write
     * into: each access is queued for the warming thread.
     */
    void
    warmFetch(std::uint32_t addr)
    {
        push(addr, kFetch);
    }

    void
    warmLoad(std::uint32_t addr)
    {
        push(addr, kLoad);
    }

    void
    warmStore(std::uint32_t addr)
    {
        push(addr, kStore);
    }

  private:
    struct Block;
    struct Page;

    /** One queued memory access. */
    struct Access
    {
        std::uint32_t addr;
        std::uint32_t kind;
    };

    static constexpr std::uint32_t kFetch = 0;
    static constexpr std::uint32_t kLoad = 1;
    static constexpr std::uint32_t kStore = 2;

    [[gnu::always_inline]] void
    push(std::uint32_t addr, std::uint32_t kind)
    {
        if (cursor_ == end_)
            nextBlock();
        *cursor_++ = {addr, kind};
    }

    /** Publish the filled block, if any, and open the next. */
    void nextBlock();

    /** Claim the next free block as the open one. */
    void claimBlock();

    /** Hand the open block, with its accesses, to the warming thread. */
    void publish();

    /** The warming thread: replay blocks until the last one. */
    SMARTS_HOT_CODE void warmLoop();

    /**
     * Wait until @p counter reaches @p want, spinning first, then
     * sleeping with @p asleep raised; returns the value seen.
     */
    std::uint64_t await(const std::atomic<std::uint64_t> &counter,
                        std::uint64_t want, std::atomic<bool> &asleep);

    /** Store @p value to @p counter and wake the other side if asleep. */
    void advance(std::atomic<std::uint64_t> &counter, std::uint64_t value,
                 const std::atomic<bool> &otherAsleep);

    ArchCore &arch_;
    TimingModel &model_;
    mem::HierarchyState memoryShape_; ///< sizes a hierarchy snapshot.
    std::unique_ptr<Page[]> pages_; ///< the blocks' accesses.
    std::unique_ptr<Block[]> ring_;

    // Interpreter side.
    Block *open_ = nullptr;       ///< block being filled, if any.
    Access *cursor_ = nullptr;    ///< next free entry of open_.
    Access *end_ = nullptr;       ///< end of open_'s page.
    std::uint64_t nextBlock_ = 0; ///< blocks claimed so far.
    std::uint64_t freedSeen_ = 0; ///< last warmedBlocks_ read.

    alignas(64) std::atomic<std::uint64_t> publishedBlocks_{0};
    alignas(64) std::atomic<std::uint64_t> warmedBlocks_{0};
    alignas(64) std::atomic<bool> warmerAsleep_{false};
    std::atomic<bool> interpreterAsleep_{false};
    std::mutex sleepMutex_;
    std::condition_variable wake_;

    std::thread warmer_;
};

} // namespace smarts::core

#endif // SMARTS_CORE_CAPTURE_HH
