#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace btwc {

/**
 * Vector-backed FIFO: consumed entries advance a head index and the
 * dead prefix is compacted once it dominates the buffer, so pops are
 * amortized O(1) without deque's segmented storage.
 *
 * Why not std::deque: its move constructor is not noexcept in
 * libstdc++, which would silently turn vector<Owner>::reserve into a
 * copy for any move-only Owner holding one (and `BtwcSystem` is
 * move-only). This is the one queue idiom shared by the off-chip
 * service machinery: `OffchipQueue`'s counting FIFOs and
 * `SharedOffchipService`'s request table and in-flight FIFO.
 */
template <typename T>
class HeadFifo
{
  public:
    bool empty() const { return head_ == items_.size(); }

    size_t size() const { return items_.size() - head_; }

    T &front() { return items_[head_]; }
    const T &front() const { return items_[head_]; }

    /** Peek live entry i (0 = oldest) without consuming it — the
     * read-only walk the audit() methods use to verify FIFO order. */
    const T &at(size_t i) const { return items_[head_ + i]; }

    /** Mutable peek (0 = oldest) — for in-place edits that preserve
     * FIFO order, e.g. `OffchipQueue` postponing every due in-service
     * group by one cycle during a link outage. */
    T &at(size_t i) { return items_[head_ + i]; }

    void push_back(T value) { items_.push_back(std::move(value)); }

    /** Remove live entry i (0 = oldest), keeping the others in order —
     * a scheduler pick, give-up or shed out of an arrival-ordered
     * table. O(size) except at the head. */
    void erase(size_t i)
    {
        if (i == 0) {
            pop_front();
            return;
        }
        items_.erase(items_.begin() + static_cast<long>(head_ + i));
    }

    /** Remove and return the oldest entry (FIFO order). */
    T pop_front()
    {
        T out = std::move(items_[head_]);
        ++head_;
        if (head_ > 64 && head_ * 2 > items_.size()) {
            items_.erase(items_.begin(),
                         items_.begin() + static_cast<long>(head_));
            head_ = 0;
        }
        return out;
    }

  private:
    std::vector<T> items_;
    size_t head_ = 0;
};

} // namespace btwc
