/**
 * @file
 * Unit tests for simulated storage and the cache timing model.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/logging.hh"
#include "memory/cache.hh"
#include "memory/memory.hh"

namespace fpc
{
namespace
{

TEST(Memory, ReadWriteAndAccounting)
{
    Memory mem(1024);
    mem.write(10, 0xBEEF, AccessKind::Data);
    EXPECT_EQ(mem.read(10, AccessKind::Data), 0xBEEF);
    EXPECT_EQ(mem.reads(AccessKind::Data), 1u);
    EXPECT_EQ(mem.writes(AccessKind::Data), 1u);
    EXPECT_EQ(mem.totalRefs(), 2u);

    mem.read(10, AccessKind::Table);
    EXPECT_EQ(mem.reads(AccessKind::Table), 1u);
    EXPECT_EQ(mem.totalRefs(), 3u);

    mem.resetStats();
    EXPECT_EQ(mem.totalRefs(), 0u);
    EXPECT_EQ(mem.reads(AccessKind::Data), 0u);
    // Contents survive a stats reset.
    EXPECT_EQ(mem.peek(10), 0xBEEF);
}

TEST(Memory, PeekPokeUnaccounted)
{
    Memory mem(64);
    mem.poke(5, 77);
    EXPECT_EQ(mem.peek(5), 77);
    EXPECT_EQ(mem.totalRefs(), 0u);
}

TEST(Memory, ByteOrderBigEndianWithinWord)
{
    Memory mem(64);
    mem.poke(3, 0xAB12);
    EXPECT_EQ(mem.peekByte(6), 0xAB); // high byte first
    EXPECT_EQ(mem.peekByte(7), 0x12);

    mem.pokeByte(6, 0xCD);
    EXPECT_EQ(mem.peek(3), 0xCD12);
    mem.pokeByte(7, 0x34);
    EXPECT_EQ(mem.peek(3), 0xCD34);
}

TEST(Memory, CodeByteFetchCountsSeparately)
{
    Memory mem(64);
    mem.poke(0, 0x1234);
    EXPECT_EQ(mem.readByte(0), 0x12);
    EXPECT_EQ(mem.readByte(1), 0x34);
    EXPECT_EQ(mem.codeByteFetches(), 2u);
    EXPECT_EQ(mem.totalRefs(), 0u); // code bytes are not data refs
}

TEST(Memory, OutOfRangeIsFatal)
{
    setQuiet(true);
    Memory mem(16);
    EXPECT_THROW(mem.read(16, AccessKind::Data), FatalError);
    EXPECT_THROW(mem.write(100, 0, AccessKind::Data), FatalError);
    EXPECT_THROW(Memory(0), PanicError);
    setQuiet(false);
}

TEST(Memory, ClearZeroesPokesNearTheTop)
{
    // Pokes above the data space (a loaded image's code) are the only
    // writes that reach there; clear() must zero them, wherever they
    // are, and leave the store equal to a fresh Memory.
    const std::size_t words = std::size_t{1} << 21;
    Memory mem(words);
    mem.poke(words - 1, 0x1111);
    mem.pokeByte(static_cast<CodeByteAddr>((words - 2) * 2), 0x22);
    mem.poke(0x10000, 0x3333);
    mem.write(0xFFFF, 0x4444, AccessKind::Data);
    const std::uint64_t epoch = mem.codeEpoch();
    mem.clear();
    EXPECT_GT(mem.codeEpoch(), epoch);
    Memory fresh(words);
    EXPECT_TRUE(std::equal(mem.raw(), mem.raw() + words, fresh.raw()));
    EXPECT_EQ(mem.peek(words - 1), 0);
    EXPECT_EQ(mem.peek(words - 2), 0);

    // And again once the high-water mark has been reset.
    mem.poke(words - 3, 0x5555);
    mem.clear();
    EXPECT_EQ(mem.peek(words - 3), 0);
}

TEST(Memory, StoreAtTheDataSpaceEndPanics)
{
    // A simulated store lands below min(size, 2^16); reads reach the
    // whole store.
    setQuiet(true);
    Memory mem(std::size_t{1} << 17);
    EXPECT_EQ(mem.storeEnd(), Memory::dataSpaceWords);
    mem.poke(0x10000, 0xABCD);
    EXPECT_THROW(mem.write(0x10000, 1, AccessKind::Data), FatalError);
    EXPECT_THROW(mem.writeUncounted(0x10000, 1), FatalError);
    EXPECT_EQ(mem.peek(0x10000), 0xABCD); // nothing was stored
    EXPECT_EQ(mem.read(0x10000, AccessKind::Data), 0xABCD);
    EXPECT_EQ(mem.readUncounted(0x1FFFF), 0);
    mem.write(0xFFFF, 2, AccessKind::Data);
    EXPECT_EQ(mem.peek(0xFFFF), 2);
    // A store below the data-space end still panics past size().
    Memory small(16);
    EXPECT_EQ(small.storeEnd(), 16u);
    EXPECT_THROW(small.write(16, 0, AccessKind::Data), FatalError);
    setQuiet(false);
}

TEST(Memory, CopiesAndMovesKeepContents)
{
    Memory a(std::size_t{1} << 17);
    a.poke(0x1F000, 7);
    a.write(3, 9, AccessKind::Data);
    Memory b(a);
    EXPECT_EQ(b.peek(0x1F000), 7);
    EXPECT_EQ(b.peek(3), 9);
    Memory c(64);
    c = b;
    EXPECT_EQ(c.size(), a.size());
    EXPECT_EQ(c.peek(0x1F000), 7);
    b.poke(0x1F000, 0);
    b.clear();
    c = std::move(b);
    EXPECT_EQ(c.peek(0x1F000), 0);
    EXPECT_EQ(c.peek(3), 0);
}

TEST(Cache, HitsAndMisses)
{
    LatencyModel lat;
    Cache cache({4, 1, 4}, lat); // 4 sets, direct-mapped, 4-word lines
    // First access: miss.
    EXPECT_EQ(cache.access(0, false), lat.cacheHitCycles + lat.memCycles);
    // Same line: hit.
    EXPECT_EQ(cache.access(3, false), lat.cacheHitCycles);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_DOUBLE_EQ(cache.hitRate(), 0.5);
}

TEST(Cache, ConflictEviction)
{
    LatencyModel lat;
    Cache cache({4, 1, 4}, lat);
    cache.access(0, false);  // set 0
    cache.access(64, false); // also set 0 (64/4 = 16, 16 % 4 = 0)
    cache.access(0, false);  // evicted: miss again
    EXPECT_EQ(cache.misses(), 3u);
}

TEST(Cache, AssociativityAvoidsConflict)
{
    LatencyModel lat;
    Cache cache({4, 2, 4}, lat);
    cache.access(0, false);
    cache.access(64, false);
    cache.access(0, false); // both fit in the 2-way set
    cache.access(64, false);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(Cache, LruVictimChoice)
{
    LatencyModel lat;
    Cache cache({1, 2, 1}, lat); // 2 lines total, 1-word lines
    cache.access(0, false);
    cache.access(1, false);
    cache.access(0, false); // touch 0 again: 1 is now LRU
    cache.access(2, false); // evicts 1
    EXPECT_EQ(cache.access(0, false), lat.cacheHitCycles); // still in
}

TEST(Cache, DirtyWritebackCharged)
{
    LatencyModel lat;
    Cache cache({1, 1, 1}, lat); // one line
    cache.access(0, true);       // miss, dirty
    const unsigned cycles = cache.access(1, false); // evicts dirty 0
    EXPECT_EQ(cycles, lat.cacheHitCycles + 2 * lat.memCycles);
    EXPECT_EQ(cache.writebacks(), 1u);
    // Clean eviction costs only the fill.
    const unsigned clean = cache.access(2, false);
    EXPECT_EQ(clean, lat.cacheHitCycles + lat.memCycles);
}

TEST(Cache, ResetClearsEverything)
{
    LatencyModel lat;
    Cache cache({4, 2, 4}, lat);
    cache.access(0, true);
    cache.reset();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_EQ(cache.access(0, false),
              lat.cacheHitCycles + lat.memCycles); // cold again
}

TEST(Cache, BadGeometryRejected)
{
    setQuiet(true);
    LatencyModel lat;
    EXPECT_THROW(Cache({3, 1, 4}, lat), FatalError);  // non-pow2 sets
    EXPECT_THROW(Cache({4, 1, 3}, lat), FatalError);  // non-pow2 line
    EXPECT_THROW(Cache({0, 1, 4}, lat), PanicError);
    setQuiet(false);
}

/** Property: a repeated scan of a working set that fits is all hits
 *  after the first pass, regardless of geometry. */
class CacheSweep
    : public testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(CacheSweep, FittingWorkingSetConverges)
{
    const auto [sets, ways] = GetParam();
    LatencyModel lat;
    Cache cache({sets, ways, 4}, lat);
    const unsigned working_words = sets * ways * 4;
    for (Addr a = 0; a < working_words; ++a)
        cache.access(a, false);
    const CountT misses_after_fill = cache.misses();
    for (int pass = 0; pass < 3; ++pass)
        for (Addr a = 0; a < working_words; ++a)
            cache.access(a, false);
    EXPECT_EQ(cache.misses(), misses_after_fill);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheSweep,
    testing::Combine(testing::Values(4u, 16u, 64u),
                     testing::Values(1u, 2u, 4u)));

} // namespace
} // namespace fpc
