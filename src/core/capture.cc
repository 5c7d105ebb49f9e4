#include "core/capture.hh"

#include <utility>

namespace smarts::core {

namespace {

/** Queued accesses per ring block: one 4 KiB page. */
constexpr std::uint32_t kBlockAccesses = 512;

/** Blocks in the ring (a power of two): 128 KiB of accesses. */
constexpr std::uint64_t kRingBlocks = 32;

/** Pause-spins, then yields, before a side goes to sleep. */
constexpr int kPauseSpins = 256;
constexpr int kYieldSpins = 64;

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
}

} // namespace

/**
 * One block's accesses, on a page of their own: hardware prefetch
 * stays within a page, so the warming thread reading one block never
 * pulls in lines of the block the interpreter is still writing,
 * which would make the two threads trade those lines back and forth.
 */
struct alignas(4096) SplitCapture::Page
{
    Access accesses[kBlockAccesses];
};

struct SplitCapture::Block
{
    Access *accesses = nullptr; ///< the block's page.
    std::uint32_t count = 0;    ///< accesses queued.
    bool last = false;          ///< the warming thread stops after it.
    AtWarmer work;              ///< runs after the block's accesses.
};

SplitCapture::SplitCapture(SimSession &session)
    : arch_(session.arch_), model_(session.model_),
      pages_(std::make_unique<Page[]>(kRingBlocks)),
      ring_(std::make_unique<Block[]>(kRingBlocks))
{
    static_assert(sizeof(Page) == 4096 &&
                      (sizeof(Page) + sizeof(Block)) * kRingBlocks <=
                          256 * 1024,
                  "the capture ring stays within 256 KiB");
    for (std::uint64_t b = 0; b < kRingBlocks; ++b)
        ring_[b].accesses = pages_[b].accesses;
    model_.port().saveState(memoryShape_);
    warmer_ = std::thread([this] { warmLoop(); });
}

SplitCapture::~SplitCapture()
{
    finish();
}

std::uint64_t
SplitCapture::await(const std::atomic<std::uint64_t> &counter,
                    std::uint64_t want, std::atomic<bool> &asleep)
{
    for (int spin = 0; spin < kPauseSpins + kYieldSpins; ++spin) {
        const std::uint64_t seen =
            counter.load(std::memory_order_acquire);
        if (seen >= want)
            return seen;
        if (spin < kPauseSpins)
            cpuRelax();
        else
            std::this_thread::yield();
    }
    // Raise the flag, then re-check: advance() stores the counter,
    // then reads the flag (both sequentially consistent), so either
    // this read sees the new count or advance() sees the flag and
    // notifies under the mutex, which it can only take once this
    // thread waits.
    std::unique_lock<std::mutex> lock(sleepMutex_);
    asleep.store(true);
    std::uint64_t seen;
    while ((seen = counter.load()) < want)
        wake_.wait(lock);
    asleep.store(false, std::memory_order_relaxed);
    return seen;
}

void
SplitCapture::advance(std::atomic<std::uint64_t> &counter,
                      std::uint64_t value,
                      const std::atomic<bool> &otherAsleep)
{
    counter.store(value);
    if (otherAsleep.load()) {
        std::lock_guard<std::mutex> lock(sleepMutex_);
        wake_.notify_all();
    }
}

void
SplitCapture::claimBlock()
{
    // A full ring: wait for the warmer to free the oldest block.
    if (nextBlock_ - freedSeen_ == kRingBlocks)
        freedSeen_ = await(warmedBlocks_, nextBlock_ - kRingBlocks + 1,
                           interpreterAsleep_);
    Block &block = ring_[nextBlock_ & (kRingBlocks - 1)];
    ++nextBlock_;
    block.count = 0;
    block.last = false;
    open_ = &block;
    cursor_ = block.accesses;
    end_ = block.accesses + kBlockAccesses;
}

void
SplitCapture::publish()
{
    open_->count = static_cast<std::uint32_t>(cursor_ - open_->accesses);
    open_ = nullptr;
    cursor_ = end_ = nullptr;
    advance(publishedBlocks_, nextBlock_, warmerAsleep_);
}

void
SplitCapture::nextBlock()
{
    if (open_)
        publish();
    claimBlock();
}

std::uint64_t
SplitCapture::fastForward(std::uint64_t maxInsts, WarmingMode mode)
{
    TimingModel &model = model_;
    return withWarmingMode(
        mode, [&](auto caches, auto bpred) SMARTS_INLINE_LAMBDA {
            return detail::stepLoop(
                arch_, maxInsts,
                [&](const StepInfo &info) SMARTS_INLINE_LAMBDA {
                    model.warm<decltype(caches)::value,
                               decltype(bpred)::value>(info, *this);
                });
        });
}

std::uint64_t
SplitCapture::warmAsDetailed(std::uint64_t maxInsts)
{
    TimingModel &model = model_;
    return detail::stepLoop(
        arch_, maxInsts, [&](const StepInfo &info) SMARTS_INLINE_LAMBDA {
            model.warmDetailed(info, *this);
        });
}

void
SplitCapture::atWarmer(AtWarmer work)
{
    if (!open_)
        claimBlock();
    open_->work = std::move(work);
    publish();
}

void
SplitCapture::finish()
{
    if (!warmer_.joinable())
        return;
    if (!open_)
        claimBlock();
    open_->last = true;
    publish();
    warmer_.join();
}

void
SplitCapture::warmLoop()
{
    mem::MemHierarchy &memory = model_.port();
    std::uint64_t taken = 0;
    std::uint64_t publishedSeen = 0;
    for (;;) {
        if (taken == publishedSeen)
            publishedSeen =
                await(publishedBlocks_, taken + 1, warmerAsleep_);
        Block &block = ring_[taken & (kRingBlocks - 1)];
        const Access *const accesses = block.accesses;
        for (std::uint32_t i = 0, n = block.count; i < n; ++i) {
            const Access access = accesses[i];
            if (access.kind == kFetch)
                memory.warmFetch(access.addr);
            else if (access.kind == kLoad)
                memory.warmLoad(access.addr);
            else
                memory.warmStore(access.addr);
        }
        if (block.work) {
            block.work(memory);
            block.work = nullptr;
        }
        const bool last = block.last;
        advance(warmedBlocks_, ++taken, interpreterAsleep_);
        if (last)
            return;
    }
}

} // namespace smarts::core
