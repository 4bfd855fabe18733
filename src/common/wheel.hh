/**
 * @file
 * Calendar-queue timing wheel for short fixed-latency events. Each of
 * the `Slots` slots holds a FIFO list; the lists are threaded through
 * one node pool with a LIFO free list, so a drained slot's nodes are
 * handed to the next push while still in cache, instead of every slot
 * owning a separately allocated buffer that is touched once a wrap.
 * An occupancy bitmap answers "next non-empty slot" in Slots/64 word
 * tests. Entries keep their push order within a slot.
 */

#ifndef WSL_COMMON_WHEEL_HH
#define WSL_COMMON_WHEEL_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace wsl {

template <typename T, unsigned Slots = smWheelSlots>
class TimingWheel
{
    static_assert(Slots % 64 == 0, "occupancy words must tile the slots");

    using Index = std::uint16_t;
    static constexpr Index nil = 0xffff;
    static constexpr unsigned words = Slots / 64;

  public:
    static constexpr unsigned slots = Slots;
    /** Most entries the wheel can hold at once (node indices are
     *  16-bit; an SM's wheels stay far below this). */
    static constexpr std::size_t maxEntries = nil;

    TimingWheel() { clear(); }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** Nodes allocated so far (live plus free-listed). */
    std::size_t poolSize() const { return nodes.size(); }

    /** Append `value` to the slot of cycle `at`. */
    void
    push(Cycle at, const T &value)
    {
        const unsigned slot = static_cast<unsigned>(at % Slots);
        Index n = freeHead;
        if (n != nil) {
            freeHead = nodes[n].next;
        } else {
            WSL_ASSERT(nodes.size() < maxEntries, "timing wheel full");
            n = static_cast<Index>(nodes.size());
            nodes.emplace_back();
        }
        nodes[n].value = value;
        nodes[n].next = nil;
        if (head[slot] == nil) {
            head[slot] = n;
            occupancy[slot / 64] |= std::uint64_t{1} << (slot % 64);
        } else {
            nodes[tail[slot]].next = n;
        }
        tail[slot] = n;
        ++count;
    }

    /**
     * Empty the slot of cycle `at`, calling `fn(const T &)` on each
     * entry in push order. The slot is detached first, so an entry
     * `fn` pushes onto the same slot fires a wrap later.
     */
    template <typename Fn>
    void
    drain(Cycle at, Fn &&fn)
    {
        const unsigned slot = static_cast<unsigned>(at % Slots);
        Index n = head[slot];
        if (n == nil)
            return;
        head[slot] = nil;
        tail[slot] = nil;
        occupancy[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
        while (n != nil) {
            const T value = nodes[n].value;
            const Index next = nodes[n].next;
            nodes[n].next = freeHead;
            freeHead = n;
            --count;
            fn(value);
            n = next;
        }
    }

    /** Call `fn(const T &)` on each entry of `slot`, in push order. */
    template <typename Fn>
    void
    forEachIn(unsigned slot, Fn &&fn) const
    {
        for (Index n = head[slot]; n != nil; n = nodes[n].next)
            fn(nodes[n].value);
    }

    /** Entries in `slot`, counted by walking its list. */
    std::size_t
    slotSize(unsigned slot) const
    {
        std::size_t len = 0;
        for (Index n = head[slot]; n != nil; n = nodes[n].next)
            ++len;
        return len;
    }

    /** The slot's occupancy bit. */
    bool
    occupied(unsigned slot) const
    {
        return (occupancy[slot / 64] >> (slot % 64)) & 1;
    }

    /**
     * Distance d in [0, Slots) from the slot of cycle `from` to the
     * first occupied slot at or after it, wrapping past the last slot;
     * Slots when the wheel is empty.
     */
    unsigned
    nextOccupied(Cycle from) const
    {
        const unsigned start = static_cast<unsigned>(from % Slots);
        const unsigned w0 = start / 64;
        const unsigned b0 = start % 64;
        // The start word's bits at or above the start slot first, then
        // the other words in wrap order, then the start word's low bits.
        std::uint64_t m = occupancy[w0] & (~std::uint64_t{0} << b0);
        if (m != 0)
            return static_cast<unsigned>(std::countr_zero(m)) - b0;
        for (unsigned k = 1; k < words; ++k) {
            const unsigned w = (w0 + k) % words;
            if (occupancy[w] != 0) {
                const unsigned slot =
                    w * 64 +
                    static_cast<unsigned>(std::countr_zero(occupancy[w]));
                return (slot + Slots - start) % Slots;
            }
        }
        m = occupancy[w0] & ((std::uint64_t{1} << b0) - 1);
        if (m != 0) {
            const unsigned slot =
                w0 * 64 + static_cast<unsigned>(std::countr_zero(m));
            return slot + Slots - start;
        }
        return Slots;
    }

    /** Drop every entry and the node pool. */
    void
    clear()
    {
        nodes.clear();
        head.fill(nil);
        tail.fill(nil);
        occupancy.fill(0);
        freeHead = nil;
        count = 0;
    }

  private:
    struct Node
    {
        T value{};
        Index next = nil;
    };

    std::vector<Node> nodes;
    std::array<Index, Slots> head;
    std::array<Index, Slots> tail;
    std::array<std::uint64_t, words> occupancy;
    Index freeHead = nil;
    std::size_t count = 0;
};

} // namespace wsl

#endif // WSL_COMMON_WHEEL_HH
