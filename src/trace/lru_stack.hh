/**
 * @file
 * Bounded move-to-front recency stack.
 *
 * The one LRU-stack primitive behind every stack-distance model in
 * trace/: WorkingSetGenerator and ReuseDistanceWorkload sample a
 * rank and promote that entry; ReuseProfile::measure() looks a key
 * up and reads off its rank (Mattson et al.'s stack distance).
 *
 * Storage is a flat array with the most recent key at rank 0, so
 * promote(rank) is one std::rotate over [0, rank] — a memmove of
 * rank keys.  That is O(rank), not O(log n): the stack-distance
 * workloads here sample ranks with a mean of tens, where moving a
 * few cache lines of keys beats any tree or key->slot index (see
 * DESIGN.md §11, "Why no tree").  A deep-stack workload would
 * change this class alone.
 */

#ifndef UATM_TRACE_LRU_STACK_HH
#define UATM_TRACE_LRU_STACK_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace uatm {

class LruStack
{
  public:
    using Key = std::uint64_t;

    /** Rank returned by touch() for a key not on the stack. */
    static constexpr std::size_t npos = ~std::size_t{0};

    /** An empty stack holding at most @p capacity keys. */
    explicit LruStack(std::size_t capacity) : capacity_(capacity)
    {
        UATM_ASSERT(capacity_ >= 1, "LRU stack needs capacity >= 1");
        keys_.reserve(capacity_);
    }

    std::size_t size() const { return keys_.size(); }
    bool full() const { return keys_.size() == capacity_; }

    /** The key at @p rank (0 = most recent); rank < size(). */
    Key at(std::size_t rank) const { return keys_[rank]; }

    /** Move the key at @p rank to the front; rank < size(). */
    void
    promote(std::size_t rank)
    {
        const auto first = keys_.begin();
        const auto pos = first + static_cast<std::ptrdiff_t>(rank);
        std::rotate(first, pos, pos + 1);
    }

    /**
     * Push @p key, which must not be on the stack, to the front;
     * a full stack evicts its bottom (least recent) key.
     */
    void
    push(Key key)
    {
        if (!full())
            keys_.push_back(key);
        else
            keys_.back() = key;
        std::rotate(keys_.begin(), keys_.end() - 1, keys_.end());
    }

    /**
     * Append @p key, which must not be on the stack, below every
     * key (at rank size()); the stack must not be full.  Seeds a
     * stack in most-recent-first order.
     */
    void
    pushBottom(Key key)
    {
        UATM_ASSERT(!full(), "pushBottom on a full LRU stack");
        keys_.push_back(key);
    }

    /**
     * Reference @p key: promote it and return its previous rank,
     * or push() it and return npos when it is not on the stack.
     */
    std::size_t
    touch(Key key)
    {
        const auto it = std::find(keys_.begin(), keys_.end(), key);
        if (it == keys_.end()) {
            push(key);
            return npos;
        }
        const auto rank = static_cast<std::size_t>(it - keys_.begin());
        promote(rank);
        return rank;
    }

    /** Drop every key. */
    void clear() { keys_.clear(); }

  private:
    std::size_t capacity_;
    std::vector<Key> keys_; ///< most recent key at index 0
};

} // namespace uatm

#endif // UATM_TRACE_LRU_STACK_HH
