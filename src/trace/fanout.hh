/**
 * @file
 * Bounded block fan-out: one reference stream, generated once, read
 * by several simulators in lockstep.
 *
 * A BlockFanout pulls its source in fixed blocks into a small ring.
 * Every reader sees every block, in order, and a slot is refilled
 * only after every reader has moved past the block it holds, so
 * memory stays at a few blocks however long the stream is.  There
 * is no generator thread: a reader asking for a block nobody has
 * made yet makes it, and a reader handed a block also makes the
 * one after it when it can, so generating block k + 1 overlaps the
 * other readers' work on block k.
 *
 * Each block also carries the stream's first-touch (cold-miss)
 * flags for every line size the readers asked for.  Whether a
 * reference is the first touch of its line depends only on the
 * stream and the line size, so one set per line size replaces one
 * set per simulator.  The first reader to ask for a block's flags
 * at a line size computes them.
 *
 * The one-reader case, streamTo(), is how runCacheSim, runStackSim
 * and TimingEngine::run consume their sources.
 */

#ifndef UATM_TRACE_FANOUT_HH
#define UATM_TRACE_FANOUT_HH

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "trace/ref.hh"
#include "trace/source.hh"

namespace uatm {

/** Streams longer than this track no first touches: the sets of
 *  every line ever touched would outgrow the caches they serve. */
inline constexpr std::uint64_t kFirstTouchMaxRefs = 1u << 22;

class BlockFanout;

/** One block of a shared stream, as a reader sees it. */
struct StreamBlock
{
    const MemoryReference *refs = nullptr;
    std::size_t count = 0;

    /** Stream position of refs[0]. */
    std::uint64_t first = 0;

    /**
     * One flag per reference, 1 where it is the first touch of its
     * @p line_bytes line in the whole stream; nullptr when the
     * stream tracks no first touches at that line size.  Computed
     * by the first reader to ask, so line sizes spread over the
     * readers' threads.
     */
    const std::uint8_t *firstTouch(std::uint32_t line_bytes) const;

  private:
    friend class BlockFanout;
    BlockFanout *fanout_ = nullptr;
    std::size_t slot_ = 0;
};

class BlockFanout
{
  public:
    /** References per block of a one-reader stream. */
    static constexpr std::size_t kBlockRefs = 2048;

    /** References per block when several readers share the
     *  stream: a reader that catches up with the maker sleeps until
     *  the next block exists, so bigger blocks mean fewer hand-offs
     *  (a 1M-reference stream wakes a lane ~120 times, not ~490). */
    static constexpr std::size_t kSharedBlockRefs = 8192;

    /** Ring slots when several readers share the stream. */
    static constexpr std::size_t kRingBlocks = 4;

    /**
     * @param source borrowed; reset here, then read only from
     *        inside next(), one block at a time.
     * @param refs references to stream at most (the source may run
     *        dry first).
     * @param readers fixed number of readers, ids 0..readers-1.
     * @param first_touch_lines line sizes to flag first touches
     *        for (ignored past kFirstTouchMaxRefs).
     * @param split stream position no block straddles, so a reader
     *        can close a warm-up window between two blocks.
     */
    BlockFanout(TraceSource &source, std::uint64_t refs,
                unsigned readers,
                std::vector<std::uint32_t> first_touch_lines,
                std::uint64_t split = 0);

    BlockFanout(const BlockFanout &) = delete;
    BlockFanout &operator=(const BlockFanout &) = delete;

    /**
     * Reader @p reader's next block, releasing the one it held;
     * nullptr once the stream is over (the reader has then left).
     * Blocks until the block exists, making it if it is this
     * reader's turn.  An exception from the source reaches every
     * reader that asks afterwards.
     */
    const StreamBlock *next(unsigned reader);

    /** Reader @p reader reads no further and stops holding the
     *  ring back.  Idempotent. */
    void leave(unsigned reader);

    /** StreamBlock::firstTouch of the block in slot @p slot. */
    const std::uint8_t *firstTouch(std::size_t slot,
                                   std::uint32_t line_bytes);

  private:
    static constexpr std::uint64_t kGone = ~std::uint64_t{0};

    struct Slot
    {
        std::vector<MemoryReference> refs;
        /** [line index * blockRefs_ + reference]. */
        std::vector<std::uint8_t> flags;
        /** Per line index: flags computed for this block (guarded
         *  by that line's FirstTouchSet::mutex; reset by the maker,
         *  which no reader can race, see canMake). */
        std::vector<std::uint8_t> flagged;
        StreamBlock block;
    };

    /** One tracked line size: every line of it touched so far.
     *  Readers of a line size ask for its flags block by block, so
     *  the set sees the blocks in stream order. */
    struct FirstTouchSet
    {
        std::uint32_t lineBytes = 0;
        std::uint32_t shift = 0;
        std::mutex mutex;
        std::unordered_set<Addr> touched;
    };

    /** Whether the next block may be made now (mutex held). */
    bool canMake() const;

    /** Make block made_ into its slot; drops and retakes @p lock
     *  around the source read. */
    void make(std::unique_lock<std::mutex> &lock);

    TraceSource &source_;
    std::uint64_t refs_;
    std::uint64_t split_;
    std::size_t blockRefs_;
    std::vector<FirstTouchSet> lines_;
    std::vector<Slot> ring_;

    std::mutex mutex_;
    std::condition_variable changed_;
    /** Blocks made so far; block k lives in ring_[k % size]. */
    std::uint64_t made_ = 0;
    /** References pulled from the source so far. */
    std::uint64_t pulled_ = 0;
    bool making_ = false;
    bool ended_ = false;
    std::exception_ptr error_;
    /** Per reader: the block it holds, or reads next when it holds
     *  none; kGone once it has left. */
    std::vector<std::uint64_t> low_;
    std::vector<bool> holding_;
};

/**
 * The one-reader case: stream @p refs references of @p source
 * (reset first) to @p feed(const StreamBlock &) on this thread,
 * flagging first touches at @p line_bytes.
 */
template <typename Feed>
void
streamTo(TraceSource &source, std::uint64_t refs,
         std::uint32_t line_bytes, std::uint64_t split, Feed &&feed)
{
    BlockFanout fanout(source, refs, 1, {line_bytes}, split);
    while (const StreamBlock *block = fanout.next(0))
        feed(*block);
}

} // namespace uatm

#endif // UATM_TRACE_FANOUT_HH
