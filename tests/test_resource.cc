/**
 * @file
 * Properties of the per-cycle bandwidth Resource: capacity limits,
 * no head-of-line blocking, multi-cycle occupancy, element runs, and
 * the window's slide rule and checkpoint record.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "simcore/resource.hh"
#include "simcore/rng.hh"
#include "simcore/serialize.hh"

namespace via
{
namespace
{

/** @p r's checkpoint record, written into @p out. */
void
image(const Resource &r, std::vector<std::uint8_t> &out)
{
    out.clear();
    Serializer ser(out);
    r.saveState(ser);
}

TEST(Resource, SingleUnitSerializesSameCycleRequests)
{
    Resource r(1);
    EXPECT_EQ(r.acquire(5), 5u);
    EXPECT_EQ(r.acquire(5), 6u);
    EXPECT_EQ(r.acquire(5), 7u);
}

TEST(Resource, CapacityPerCycle)
{
    Resource r(3);
    EXPECT_EQ(r.acquire(0), 0u);
    EXPECT_EQ(r.acquire(0), 0u);
    EXPECT_EQ(r.acquire(0), 0u);
    EXPECT_EQ(r.acquire(0), 1u); // fourth spills to the next cycle
}

TEST(Resource, WidestResourceFillsOneCycle)
{
    // A one-byte slot counts every unit of the widest resource.
    Resource r(Resource::maxUnits);
    for (std::uint32_t i = 0; i < Resource::maxUnits; ++i)
        ASSERT_EQ(r.acquire(7), 7u) << "booking " << i;
    EXPECT_EQ(r.acquire(7), 8u);
}

TEST(ResourceDeathTest, MoreUnitsThanASlotCountsDies)
{
    EXPECT_DEATH(Resource(256),
                 "at most 255 units per cycle, got 256");
}

TEST(Resource, NoHeadOfLineBlocking)
{
    // A far-future booking must not delay a present-time one.
    Resource r(1);
    EXPECT_EQ(r.acquire(1000), 1000u);
    EXPECT_EQ(r.acquire(3), 3u);
    EXPECT_EQ(r.acquire(1000), 1001u);
}

TEST(Resource, MultiCycleOccupancyIsContiguous)
{
    Resource r(1);
    EXPECT_EQ(r.acquire(0, 5), 0u); // occupies cycles 0..4
    EXPECT_EQ(r.acquire(0), 5u);
}

TEST(Resource, OccupancyFindsGapOfRightSize)
{
    Resource r(1);
    r.acquire(2);      // cycle 2 busy
    // A 3-cycle booking from 0 would overlap cycle 2: must start
    // after it.
    EXPECT_EQ(r.acquire(0, 3), 3u);
    // A 2-cycle booking fits in cycles 0-1.
    EXPECT_EQ(r.acquire(0, 2), 0u);
}

TEST(Resource, BusyAccounting)
{
    Resource r(2);
    r.acquire(0);
    r.acquire(0, 4);
    EXPECT_EQ(r.busy(), 5u);
}

TEST(Resource, ResetClearsBookings)
{
    Resource r(1);
    r.acquire(0);
    r.resetTiming();
    EXPECT_EQ(r.acquire(0), 0u);
}

TEST(Resource, ThroughputMatchesCapacityOverLongRuns)
{
    // Property: N requests at the same tick through a k-wide
    // resource span ceil(N/k) cycles.
    for (std::uint32_t k : {1u, 2u, 4u}) {
        Resource r(k);
        Tick last = 0;
        const std::uint32_t n = 1000;
        for (std::uint32_t i = 0; i < n; ++i)
            last = std::max(last, r.acquire(0));
        EXPECT_EQ(last, (n - 1) / k) << "units=" << k;
    }
}

TEST(Resource, SlidingWindowSurvivesLargeJumps)
{
    Resource r(2);
    EXPECT_EQ(r.acquire(10), 10u);
    // Jump far beyond the window; old bookings are dropped but the
    // new booking must be honoured exactly.
    Tick far = 1'000'000;
    EXPECT_EQ(r.acquire(far), far);
    EXPECT_EQ(r.acquire(far), far);
    EXPECT_EQ(r.acquire(far), far + 1);
}

TEST(Resource, InterleavedTimesRespectTotalCapacity)
{
    // Property: no cycle ever gets more than `units` bookings,
    // checked with a shadow model.
    Resource r(2);
    std::map<Tick, int> shadow;
    Tick times[] = {5, 3, 5, 5, 3, 9, 3, 3, 9, 5};
    for (Tick t : times) {
        Tick got = r.acquire(t);
        EXPECT_GE(got, t);
        ++shadow[got];
    }
    for (const auto &kv : shadow)
        EXPECT_LE(kv.second, 2) << "cycle " << kv.first;
}

TEST(Resource, RunBookingMatchesElementBookings)
{
    // One acquireRun books what the per-element loop books, call by
    // call, through window slides, jumps past the window and starts
    // behind the window base.
    std::vector<std::uint8_t> run_image, loop_image;
    for (std::uint32_t units = 1; units <= 4; ++units) {
        for (std::uint32_t per_cycle = 1; per_cycle <= 4;
             ++per_cycle) {
            Rng rng(16 * units + per_cycle);
            Resource run(units), loop(units);
            Tick front = 0;
            // Up to `behind` cycles before the front, never below 0.
            auto before = [&](Tick behind) {
                return front - std::min(front, behind);
            };
            for (int call = 0; call < 69; ++call) {
                // 60 calls inside the first window, slightly out of
                // order. Then three rounds of: a jump past the window
                // (which slides the base to about front - 32,767), a
                // call that starts just behind that base, and one
                // that starts far behind it. The saved window of a
                // slid resource is 32,768 cycles, so the rounds are
                // few.
                int round = call < 60 ? -1 : (call - 60) % 3;
                Tick when;
                if (round == 0) {
                    front += 65'536 + rng.below(100'000);
                    when = front;
                } else if (round == 1) {
                    when = before(32'768 + rng.below(8));
                } else if (round == 2) {
                    when = before(40'000 + rng.below(40'000));
                } else {
                    front += rng.below(4);
                    when = before(rng.below(8));
                }
                if (rng.below(4) == 0) {
                    Tick occupancy = 1 + rng.below(3);
                    ASSERT_EQ(run.acquire(when, occupancy),
                              loop.acquire(when, occupancy))
                        << "call " << call;
                } else {
                    auto n = std::uint32_t(1 + rng.below(16));
                    Tick last = 0;
                    for (std::uint32_t e = 0; e < n; ++e)
                        last = loop.acquire(when + e / per_cycle);
                    ASSERT_EQ(run.acquireRun(when, n, per_cycle), last)
                        << "call " << call << " n=" << n;
                }
                ASSERT_EQ(run.busy(), loop.busy());
                ASSERT_EQ(run.horizon(), loop.horizon());
                ASSERT_EQ(run.clamps(), loop.clamps());
                image(run, run_image);
                image(loop, loop_image);
                ASSERT_EQ(run_image, loop_image) << "call " << call;
            }
            // The sequence reached behind the window base.
            EXPECT_GT(run.clamps(), 0u)
                << "units=" << units << " perCycle=" << per_cycle;
        }
    }

    // A run whose scan reaches the window's last cycle slides the
    // window there, before the run ends, as the loop's acquire does.
    Resource run(1), loop(1);
    for (Tick t = 0; t + 1 < 65'536; ++t) {
        run.acquire(t);
        loop.acquire(t);
    }
    EXPECT_EQ(run.acquireRun(65'533, 1, 1), 65'535u);
    EXPECT_EQ(loop.acquire(65'533), 65'535u);
    image(run, run_image);
    image(loop, loop_image);
    EXPECT_EQ(run_image, loop_image);
}

TEST(Resource, FarFirstBookingKeepsTheSlideRule)
{
    // The first booking slides the window to t + 1 - 32,768, as a
    // window allocated up front would: a later booking behind that
    // base lands on it, one inside books its own cycle.
    Resource r(1);
    EXPECT_EQ(r.acquire(1'000'000), 1'000'000u);
    EXPECT_EQ(r.acquire(960'000), 967'233u);
    EXPECT_EQ(r.acquire(970'000), 970'000u);
    EXPECT_EQ(r.clamps(), 1u);
}

/** A checkpoint record: units (4 bytes), base, busy, horizon and
 *  live (8 bytes each), then 2-byte slots. */
std::vector<std::uint8_t>
record(std::initializer_list<std::uint64_t> fields)
{
    std::vector<std::uint8_t> out = {'R', 'S', 'R', 'C'};
    std::size_t field = 0;
    for (std::uint64_t v : fields) {
        const int width = field == 0 ? 4 : field <= 4 ? 8 : 2;
        for (int i = 0; i < width; ++i)
            out.push_back(std::uint8_t(v >> (8 * i)));
        ++field;
    }
    return out;
}

TEST(Resource, UnbookedSavesTheSameRecord)
{
    // A never-booked resource saves base 0, busy 0, horizon 0 and an
    // empty live slice, whether or not its window exists.
    std::vector<std::uint8_t> expect = record({3, 0, 0, 0, 0});
    std::vector<std::uint8_t> bytes;
    Resource fresh(3);
    image(fresh, bytes);
    EXPECT_EQ(bytes, expect);
    fresh.resetTiming();
    image(fresh, bytes);
    EXPECT_EQ(bytes, expect);

    // Loading a booked image into a never-booked resource books the
    // next cycles exactly as the original does.
    Resource booked(3);
    for (Tick t = 0; t < 40; ++t)
        booked.acquire(70'000 + t / 4);
    image(booked, bytes);
    Resource restored(3);
    Deserializer des(bytes);
    restored.loadState(des);
    for (Tick when : {70'005u, 70'000u, 69'000u, 80'000u})
        EXPECT_EQ(restored.acquire(when), booked.acquire(when)) << when;
    std::vector<std::uint8_t> restored_bytes;
    image(restored, restored_bytes);
    image(booked, bytes);
    EXPECT_EQ(restored_bytes, bytes);
}

TEST(Resource, LoadRejectsALiveSliceItsWindowDoesNotHold)
{
    // saveState stores the slice [base, horizon); a record whose live
    // count disagrees is refused before anything is applied, so a
    // never-booked resource keeps its window unallocated and saves
    // its empty record afterwards instead of reading past it.
    for (const auto &bad :
         {record({1, 0, 2, 5, 0}), record({1, 0, 2, 5, 4, 1, 1, 0, 0}),
          record({1, 0, 1, 0, 1, 1}),
          record({1, 100, 1, 90, 1, 1})}) {
        Resource r(1);
        Deserializer des(bad);
        EXPECT_THROW(r.loadState(des), SerializeError);
        std::vector<std::uint8_t> bytes;
        image(r, bytes);
        EXPECT_EQ(bytes, record({1, 0, 0, 0, 0}));
    }
    // The consistent record for those first two loads and saves back.
    auto good = record({1, 0, 2, 5, 5, 1, 1, 0, 0, 0});
    Resource r(1);
    Deserializer des(good);
    r.loadState(des);
    std::vector<std::uint8_t> bytes;
    image(r, bytes);
    EXPECT_EQ(bytes, good);
}

TEST(Resource, LoadRejectsASlotAboveItsUnits)
{
    // No cycle books more than the units, so a record whose slot does
    // is refused before anything is applied; 256 at 255 units would
    // wrap a one-byte slot to 0.
    for (const auto &[units, bad] :
         {std::pair{2u, record({2, 0, 4, 2, 2, 1, 3})},
          std::pair{255u, record({255, 0, 256, 1, 1, 256})}}) {
        Resource r(units);
        Deserializer des(bad);
        EXPECT_THROW(r.loadState(des), SerializeError) << units;
        std::vector<std::uint8_t> bytes;
        image(r, bytes);
        EXPECT_EQ(bytes, record({units, 0, 0, 0, 0})) << units;
    }
    // A full slot loads, saves back and stays full.
    auto full = record({255, 0, 255, 1, 1, 255});
    Resource r(255);
    Deserializer des(full);
    r.loadState(des);
    std::vector<std::uint8_t> bytes;
    image(r, bytes);
    EXPECT_EQ(bytes, full);
    EXPECT_EQ(r.acquire(0), 1u);
}

} // namespace
} // namespace via
