/**
 * @file
 * Implementation of the bounded block fan-out.
 */

#include "trace/fanout.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace uatm {

const std::uint8_t *
StreamBlock::firstTouch(std::uint32_t line_bytes) const
{
    return fanout_ ? fanout_->firstTouch(slot_, line_bytes) : nullptr;
}

BlockFanout::BlockFanout(TraceSource &source, std::uint64_t refs,
                         unsigned readers,
                         std::vector<std::uint32_t> first_touch_lines,
                         std::uint64_t split)
    : source_(source), refs_(refs), split_(split),
      low_(readers, 0), holding_(readers, false)
{
    UATM_ASSERT(readers > 0, "a fan-out needs a reader");
    source_.reset();
    std::vector<std::uint32_t> lines;
    if (refs_ <= kFirstTouchMaxRefs) {
        for (std::uint32_t line : first_touch_lines) {
            if (line != 0 && std::find(lines.begin(), lines.end(),
                                       line) == lines.end())
                lines.push_back(line);
        }
    }
    lines_ = std::vector<FirstTouchSet>(lines.size());
    for (std::size_t l = 0; l < lines.size(); ++l) {
        lines_[l].lineBytes = lines[l];
        lines_[l].shift =
            static_cast<std::uint32_t>(std::countr_zero(lines[l]));
    }
    // Sized to the stream: a short run allocates one short block.
    blockRefs_ = static_cast<std::size_t>(std::min<std::uint64_t>(
        readers == 1 ? kBlockRefs : kSharedBlockRefs, refs_));
    ended_ = blockRefs_ == 0;
    const std::uint64_t blocks =
        blockRefs_ ? (refs_ + blockRefs_ - 1) / blockRefs_ : 0;
    // One reader needs one slot to read and one to fill ahead.
    const std::size_t slots = static_cast<std::size_t>(
        std::min<std::uint64_t>(readers == 1 ? 2 : kRingBlocks,
                                blocks + (split_ > 0 &&
                                          split_ < refs_)));
    ring_ = std::vector<Slot>(slots);
    for (std::size_t i = 0; i < slots; ++i) {
        Slot &slot = ring_[i];
        slot.refs.resize(blockRefs_);
        slot.flags.resize(lines_.size() * blockRefs_);
        slot.flagged.assign(lines_.size(), 0);
        slot.block.refs = slot.refs.data();
        slot.block.fanout_ = this;
        slot.block.slot_ = i;
    }
}

const std::uint8_t *
BlockFanout::firstTouch(std::size_t slot, std::uint32_t line_bytes)
{
    for (std::size_t l = 0; l < lines_.size(); ++l) {
        FirstTouchSet &set = lines_[l];
        if (set.lineBytes != line_bytes)
            continue;
        Slot &held = ring_[slot];
        std::uint8_t *flags = held.flags.data() + l * blockRefs_;
        std::lock_guard<std::mutex> lock(set.mutex);
        if (!held.flagged[l]) {
            for (std::size_t i = 0; i < held.block.count; ++i)
                flags[i] =
                    set.touched.insert(held.refs[i].addr >> set.shift)
                        .second;
            held.flagged[l] = 1;
        }
        return flags;
    }
    return nullptr;
}

bool
BlockFanout::canMake() const
{
    if (making_ || ended_ || error_)
        return false;
    const std::uint64_t oldest =
        *std::min_element(low_.begin(), low_.end());
    return oldest == kGone || made_ < oldest + ring_.size();
}

void
BlockFanout::make(std::unique_lock<std::mutex> &lock)
{
    making_ = true;
    Slot &slot = ring_[made_ % ring_.size()];
    std::uint64_t want = std::min<std::uint64_t>(
        blockRefs_, refs_ - pulled_);
    if (pulled_ < split_)
        want = std::min(want, split_ - pulled_);
    const std::uint64_t first = pulled_;
    lock.unlock();
    // Only the maker touches the source and this slot, which no
    // reader holds (canMake).
    std::size_t got = 0;
    std::exception_ptr error;
    try {
        got = source_.fillBatch(slot.refs.data(),
                                static_cast<std::size_t>(want));
        std::fill(slot.flagged.begin(), slot.flagged.end(), 0);
    } catch (...) {
        error = std::current_exception();
    }
    lock.lock();
    making_ = false;
    if (error) {
        error_ = error;
    } else {
        pulled_ += got;
        ended_ = got < want || pulled_ == refs_;
        if (got > 0) {
            slot.block.count = got;
            slot.block.first = first;
            ++made_;
        }
    }
    changed_.notify_all();
}

const StreamBlock *
BlockFanout::next(unsigned reader)
{
    std::unique_lock<std::mutex> lock(mutex_);
    UATM_ASSERT(low_[reader] != kGone, "reader ", reader,
                " has left the fan-out");
    if (holding_[reader]) {
        holding_[reader] = false;
        // Only the last reader of the oldest block frees its slot.
        const bool frees = std::count(low_.begin(), low_.end(),
                                      low_[reader]) == 1 &&
                           low_[reader] == *std::min_element(
                                               low_.begin(), low_.end());
        ++low_[reader];
        if (frees)
            changed_.notify_all();
    }
    const std::uint64_t want = low_[reader];
    while (true) {
        if (error_) {
            low_[reader] = kGone;
            std::rethrow_exception(error_);
        }
        if (want < made_) {
            // Make the block after this one first, so the other
            // readers' work on this block hides its generation.
            if (made_ == want + 1 && canMake())
                make(lock);
            if (error_)
                continue;
            holding_[reader] = true;
            return &ring_[want % ring_.size()].block;
        }
        if (ended_ && !making_) {
            low_[reader] = kGone;
            changed_.notify_all();
            return nullptr;
        }
        if (canMake())
            make(lock);
        else
            changed_.wait(lock);
    }
}

void
BlockFanout::leave(unsigned reader)
{
    std::lock_guard<std::mutex> lock(mutex_);
    low_[reader] = kGone;
    holding_[reader] = false;
    changed_.notify_all();
}

} // namespace uatm
