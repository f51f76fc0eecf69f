/**
 * @file
 * Tests for the §5.3 frame heap: the exact reference counts, size
 * classes, retained frames, the software-allocator trap, LIFO-free
 * operation, and exhaustion behaviour.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/logging.hh"
#include "common/random.hh"
#include "frames/frame_heap.hh"
#include "xfer/context.hh"

namespace fpc
{
namespace
{

struct HeapRig
{
    SystemLayout layout;
    Memory mem{SystemLayout().memWords};
    FrameHeap heap{mem, layout, SizeClasses::standard()};
};

TEST(SizeClasses, StandardShapeMatchesPaper)
{
    const SizeClasses classes = SizeClasses::standard();
    EXPECT_LT(classes.numClasses(), 20u); // "less than 20 steps"
    EXPECT_EQ(classes.classWords(0), 8u); // "minimum of about 16 bytes"
    for (unsigned i = 1; i < classes.numClasses(); ++i) {
        const double step = static_cast<double>(classes.classWords(i)) /
                            classes.classWords(i - 1);
        EXPECT_GT(step, 1.0);
        EXPECT_LT(step, 1.35) << "steps of about 20%";
    }
}

TEST(SizeClasses, FsiForIsMinimal)
{
    const SizeClasses classes = SizeClasses::standard();
    for (unsigned words = 1; words <= classes.maxWords(); ++words) {
        const unsigned fsi = classes.fsiFor(words);
        EXPECT_GE(classes.classWords(fsi), words);
        if (fsi > 0) {
            EXPECT_LT(classes.classWords(fsi - 1), words);
        }
    }
    EXPECT_FALSE(classes.fits(classes.maxWords() + 1));
    EXPECT_THROW(classes.fsiFor(classes.maxWords() + 1), PanicError);
}

TEST(SizeClasses, BlocksAreQuadAlignedWithHeader)
{
    const SizeClasses classes = SizeClasses::standard();
    for (unsigned fsi = 0; fsi < classes.numClasses(); ++fsi) {
        EXPECT_EQ(classes.blockWords(fsi) % 4, 0u);
        EXPECT_GE(classes.blockWords(fsi), classes.classWords(fsi) + 1);
    }
}

TEST(SizeClasses, BadShapesPanic)
{
    EXPECT_THROW(SizeClasses(0, 1.2, 10), PanicError);
    EXPECT_THROW(SizeClasses(8, 1.0, 10), PanicError);
    EXPECT_THROW(SizeClasses(8, 1.2, 0), PanicError);
    EXPECT_THROW(SizeClasses(8, 1.2, 33), PanicError);
}

TEST(FrameHeap, AllocIsExactlyThreeRefsSteadyState)
{
    HeapRig rig;
    // Prime the class-0 list (first alloc traps to the software
    // allocator).
    rig.heap.free(rig.heap.alloc(0));
    rig.heap.resetStats();

    const Addr lf = rig.heap.alloc(0);
    EXPECT_EQ(rig.heap.stats().refsAlloc, 3u);
    EXPECT_NE(lf, nilAddr);

    rig.heap.free(lf);
    EXPECT_EQ(rig.heap.stats().refsFree, 4u);
}

TEST(FrameHeap, EmptyListTrapsToSoftwareAllocator)
{
    HeapRig rig;
    EXPECT_EQ(rig.heap.stats().softwareTraps, 0u);
    rig.heap.alloc(3);
    EXPECT_EQ(rig.heap.stats().softwareTraps, 1u);
    // The trap replenished several frames: next allocs are fast.
    rig.heap.resetStats();
    rig.heap.alloc(3);
    EXPECT_EQ(rig.heap.stats().softwareTraps, 0u);
    EXPECT_EQ(rig.heap.stats().refsAlloc, 3u);
}

TEST(FrameHeap, FramesAreQuadAlignedAndDisjoint)
{
    HeapRig rig;
    std::set<Addr> seen;
    std::vector<Addr> live;
    for (int i = 0; i < 100; ++i) {
        const Addr lf = rig.heap.alloc(i % 4);
        EXPECT_EQ((lf - 1 - rig.layout.frameBase) % 4, 0u);
        EXPECT_TRUE(seen.insert(lf).second) << "frame reissued live";
        live.push_back(lf);
    }
    for (const Addr lf : live)
        rig.heap.free(lf);
}

TEST(FrameHeap, FreeReusesMostRecentlyFreed)
{
    HeapRig rig;
    const Addr a = rig.heap.alloc(2);
    rig.heap.free(a);
    const Addr b = rig.heap.alloc(2);
    EXPECT_EQ(a, b); // LIFO free list per class
    rig.heap.free(b);
}

TEST(FrameHeap, NoLifoDisciplineRequired)
{
    HeapRig rig;
    Rng rng(4);
    std::vector<Addr> live;
    for (int i = 0; i < 5000; ++i) {
        if (live.empty() || rng.chance(0.55)) {
            live.push_back(rig.heap.allocWords(
                4 + rng.uniform(0, 60)));
        } else {
            const std::size_t pick = rng.uniform(0, live.size() - 1);
            rig.heap.free(live[pick]);
            live[pick] = live.back();
            live.pop_back();
        }
    }
    EXPECT_EQ(rig.heap.stats().allocs,
              rig.heap.stats().frees + live.size());
}

TEST(FrameHeap, HeaderHoldsFsi)
{
    HeapRig rig;
    const Addr lf = rig.heap.alloc(5);
    EXPECT_EQ(rig.heap.frameFsi(lf), 5u);
    EXPECT_EQ(rig.heap.frameWords(lf),
              rig.heap.classes().classWords(5));
    EXPECT_EQ(rig.mem.peek(lf - 1) & frame::fsiMask, 5u);
    rig.heap.free(lf);
}

TEST(FrameHeap, ReleaseHonoursRetainedFlag)
{
    HeapRig rig;
    const Addr lf = rig.heap.alloc(1);
    rig.heap.setRetained(lf, true);
    EXPECT_TRUE(rig.heap.isRetained(lf));

    EXPECT_FALSE(rig.heap.release(lf));
    EXPECT_EQ(rig.heap.stats().retainedSkips, 1u);
    EXPECT_EQ(rig.heap.stats().frees, 0u);

    // Clearing the flag makes it freeable; a release is 4 refs.
    rig.heap.setRetained(lf, false);
    rig.heap.resetStats();
    EXPECT_TRUE(rig.heap.release(lf));
    EXPECT_EQ(rig.heap.stats().refsFree, 4u);
}

TEST(FrameHeap, FlaggedBitIndependentOfRetained)
{
    HeapRig rig;
    const Addr lf = rig.heap.alloc(1);
    rig.heap.setFlagged(lf, true);
    EXPECT_TRUE(rig.heap.isFlagged(lf));
    EXPECT_FALSE(rig.heap.isRetained(lf));
    rig.heap.setRetained(lf, true);
    rig.heap.setFlagged(lf, false);
    EXPECT_TRUE(rig.heap.isRetained(lf));
    EXPECT_FALSE(rig.heap.isFlagged(lf));
}

TEST(FrameHeap, FragmentationTracksRequestVsGrant)
{
    HeapRig rig;
    // Request exactly class sizes: zero fragmentation.
    for (int i = 0; i < 10; ++i) {
        const Addr lf =
            rig.heap.allocWords(rig.heap.classes().classWords(2));
        rig.heap.free(lf);
    }
    EXPECT_DOUBLE_EQ(rig.heap.stats().fragmentation(), 0.0);

    // Request one word above a class boundary: worst-case waste.
    rig.heap.resetStats();
    const unsigned req = rig.heap.classes().classWords(2) + 1;
    const Addr lf = rig.heap.allocWords(req);
    const double frag = rig.heap.stats().fragmentation();
    EXPECT_GT(frag, 0.0);
    EXPECT_LT(frag, 0.25); // bounded by the ~20% step
    rig.heap.free(lf);
}

TEST(FrameHeap, OversizeRequestIsFatal)
{
    setQuiet(true);
    HeapRig rig;
    EXPECT_THROW(
        rig.heap.allocWords(rig.heap.classes().maxWords() + 1),
        FatalError);
    setQuiet(false);
}

TEST(FrameHeap, RegionExhaustionIsFatal)
{
    setQuiet(true);
    HeapRig rig;
    // Retain everything so nothing recycles: the carve pointer must
    // eventually hit the region end.
    const unsigned fsi = rig.heap.classes().numClasses() - 1;
    EXPECT_THROW(
        {
            for (;;)
                rig.heap.alloc(fsi);
        },
        FatalError);
    setQuiet(false);
}

TEST(FrameHeap, FreeListsLiveInSimulatedMemory)
{
    HeapRig rig;
    const Addr lf = rig.heap.alloc(0);
    rig.heap.free(lf);
    // AV slot 0 now points at the freed frame, as a context word.
    const Word head = rig.mem.peek(rig.layout.avAddr + 0);
    EXPECT_EQ(unpackContext(head, rig.layout).framePtr, lf);
}

/** Parameterized sweep: every class allocates/frees cleanly. */
class EveryClass : public testing::TestWithParam<unsigned>
{};

TEST_P(EveryClass, AllocFreeRoundTrip)
{
    HeapRig rig;
    const unsigned fsi = GetParam();
    const Addr a = rig.heap.alloc(fsi);
    const Addr b = rig.heap.alloc(fsi);
    EXPECT_NE(a, b);
    EXPECT_EQ(rig.heap.frameFsi(a), fsi);
    rig.heap.free(a);
    rig.heap.free(b);
    EXPECT_EQ(rig.heap.alloc(fsi), b); // most recent first
    rig.heap.free(b);
}

INSTANTIATE_TEST_SUITE_P(AllClasses, EveryClass,
                         testing::Range(0u, 19u));

} // namespace
} // namespace fpc
