/**
 * @file
 * Unit tests for the calendar-queue timing wheel (common/wheel.hh) and
 * the inline popcount (common/bits.hh): per-slot FIFO order, slot
 * wrap-around, entry counts, the occupancy-bitmap next-slot search,
 * node reuse, and popcount agreement with std::popcount.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/bits.hh"
#include "common/rng.hh"
#include "common/wheel.hh"

using namespace wsl;

namespace {

using Wheel = TimingWheel<std::uint32_t>;

std::vector<std::uint32_t>
drainAll(Wheel &wheel, Cycle at)
{
    std::vector<std::uint32_t> got;
    wheel.drain(at, [&](std::uint32_t v) { got.push_back(v); });
    return got;
}

/** Reference answer for nextOccupied: probe slot by slot. */
unsigned
probeNext(const Wheel &wheel, Cycle from)
{
    for (unsigned d = 0; d < Wheel::slots; ++d) {
        if (wheel.occupied(static_cast<unsigned>((from + d) % Wheel::slots)))
            return d;
    }
    return Wheel::slots;
}

} // namespace

TEST(TimingWheel, KeepsPushOrderWithinASlot)
{
    Wheel wheel;
    for (std::uint32_t v = 0; v < 5; ++v)
        wheel.push(17, v);
    wheel.push(18, 99);
    std::vector<std::uint32_t> seen;
    wheel.forEachIn(17, [&](std::uint32_t v) { seen.push_back(v); });
    EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
    EXPECT_EQ(wheel.slotSize(17), 5u);
    EXPECT_EQ(drainAll(wheel, 17),
              (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
    EXPECT_EQ(drainAll(wheel, 18), (std::vector<std::uint32_t>{99}));
    EXPECT_TRUE(wheel.empty());
}

TEST(TimingWheel, CyclesWrapFromTheLastSlotToTheFirst)
{
    Wheel wheel;
    wheel.push(255, 1);
    wheel.push(256, 2);  // slot 0
    wheel.push(3 * 256 + 255, 3);  // slot 255 again, behind entry 1
    EXPECT_TRUE(wheel.occupied(255));
    EXPECT_TRUE(wheel.occupied(0));
    EXPECT_EQ(drainAll(wheel, 255), (std::vector<std::uint32_t>{1, 3}));
    EXPECT_EQ(drainAll(wheel, 512), (std::vector<std::uint32_t>{2}));
    EXPECT_FALSE(wheel.occupied(0));
    EXPECT_FALSE(wheel.occupied(255));
}

TEST(TimingWheel, SizeTracksPushesAndDrains)
{
    Wheel wheel;
    EXPECT_EQ(wheel.size(), 0u);
    for (unsigned i = 0; i < 40; ++i)
        wheel.push(i % 7, i);
    EXPECT_EQ(wheel.size(), 40u);
    EXPECT_EQ(drainAll(wheel, 3).size(), 6u);  // 3, 10, ..., 38
    EXPECT_EQ(wheel.size(), 34u);
    EXPECT_TRUE(drainAll(wheel, 3).empty());  // draining twice is a no-op
    EXPECT_EQ(wheel.size(), 34u);
    for (Cycle c = 0; c < 7; ++c)
        drainAll(wheel, c);
    EXPECT_EQ(wheel.size(), 0u);
    EXPECT_TRUE(wheel.empty());
}

TEST(TimingWheel, EntriesPushedDuringADrainWaitAWrap)
{
    Wheel wheel;
    wheel.push(5, 1);
    std::vector<std::uint32_t> got;
    wheel.drain(5, [&](std::uint32_t v) {
        got.push_back(v);
        if (v == 1)
            wheel.push(5 + 256, 2);
    });
    EXPECT_EQ(got, (std::vector<std::uint32_t>{1}));
    EXPECT_EQ(wheel.size(), 1u);
    EXPECT_EQ(drainAll(wheel, 5 + 256), (std::vector<std::uint32_t>{2}));
}

TEST(TimingWheel, NextOccupiedCrossesWordBoundariesAndWraps)
{
    Wheel wheel;
    EXPECT_EQ(wheel.nextOccupied(0), Wheel::slots);
    EXPECT_EQ(wheel.nextOccupied(200), Wheel::slots);

    wheel.push(64, 0);  // first slot of the second word
    EXPECT_EQ(wheel.nextOccupied(0), 64u);
    EXPECT_EQ(wheel.nextOccupied(63), 1u);
    EXPECT_EQ(wheel.nextOccupied(64), 0u);
    EXPECT_EQ(wheel.nextOccupied(65), 255u);  // wraps all the way round
    EXPECT_EQ(wheel.nextOccupied(64 + 256), 0u);

    wheel.push(3, 0);  // low bits of the first word
    EXPECT_EQ(wheel.nextOccupied(250), 9u);  // 250 -> 255 -> 0 -> 3
    EXPECT_EQ(wheel.nextOccupied(4), 60u);
    EXPECT_EQ(wheel.nextOccupied(65), 194u);  // wraps to slot 3

    wheel.push(191, 0);  // last slot of the third word
    EXPECT_EQ(wheel.nextOccupied(65), 126u);
    EXPECT_EQ(wheel.nextOccupied(128), 63u);

    // Randomized cross-check against a slot-by-slot probe.
    Rng rng(42);
    for (unsigned round = 0; round < 50; ++round) {
        Wheel w;
        const unsigned n = static_cast<unsigned>(rng.range(6));
        for (unsigned i = 0; i < n; ++i)
            w.push(rng.range(Wheel::slots), i);
        for (Cycle from = 0; from < 2 * Wheel::slots; ++from)
            ASSERT_EQ(w.nextOccupied(from), probeNext(w, from))
                << "round " << round << " from " << from;
    }
}

TEST(TimingWheel, DrainedNodesAreReused)
{
    Wheel wheel;
    for (std::uint32_t v = 0; v < 10; ++v)
        wheel.push(v, v);
    EXPECT_EQ(wheel.poolSize(), 10u);
    for (Cycle c = 0; c < 10; ++c)
        drainAll(wheel, c);
    for (std::uint32_t v = 0; v < 10; ++v)
        wheel.push(100 + v, v);
    EXPECT_EQ(wheel.poolSize(), 10u);
    EXPECT_EQ(wheel.size(), 10u);
    for (std::uint32_t v = 0; v < 10; ++v)
        EXPECT_EQ(drainAll(wheel, 100 + v),
                  (std::vector<std::uint32_t>{v}));
}

TEST(TimingWheel, ClearResetsEverything)
{
    Wheel wheel;
    for (std::uint32_t v = 0; v < 300; ++v)
        wheel.push(v, v);
    wheel.clear();
    EXPECT_TRUE(wheel.empty());
    EXPECT_EQ(wheel.poolSize(), 0u);
    EXPECT_EQ(wheel.nextOccupied(0), Wheel::slots);
    for (unsigned slot = 0; slot < Wheel::slots; ++slot) {
        EXPECT_FALSE(wheel.occupied(slot));
        EXPECT_EQ(wheel.slotSize(slot), 0u);
    }
    wheel.push(7, 70);
    EXPECT_EQ(drainAll(wheel, 7), (std::vector<std::uint32_t>{70}));
}

TEST(Popcount, MatchesStdPopcount)
{
    EXPECT_EQ(popcount64(0), 0u);
    EXPECT_EQ(popcount64(~std::uint64_t{0}), 64u);
    for (unsigned b = 0; b < 64; ++b)
        EXPECT_EQ(popcount64(std::uint64_t{1} << b), 1u) << "bit " << b;
    Rng rng(7);
    for (unsigned i = 0; i < 10000; ++i) {
        const std::uint64_t x = rng.next();
        ASSERT_EQ(popcount64(x), static_cast<unsigned>(std::popcount(x)))
            << std::hex << x;
        const std::uint64_t low = x & 0xffffffffu;
        ASSERT_EQ(popcount64(low),
                  static_cast<unsigned>(std::popcount(low)));
    }
    static_assert(popcount64(0xf0f0) == 8);
}
