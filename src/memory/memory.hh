/**
 * @file
 * Simulated main storage: a flat, word-addressed 16-bit memory with
 * per-kind access accounting.
 *
 * All architectural state that the paper keeps "in main storage"
 * (frames, free lists, the GFT, link vectors, entry vectors, global
 * frames, code) lives in this one array, so the reference counts the
 * benches report are literal counts of simulated storage accesses.
 */

#ifndef FPC_MEMORY_MEMORY_HH
#define FPC_MEMORY_MEMORY_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <string>

#include "common/types.hh"
#include "stats/stats.hh"

namespace fpc
{

/**
 * Why a storage reference was made. The split mirrors the paper's
 * discussion: transfer-table references (LV/GFT/EV, §5.1), frame-heap
 * references (AV and free lists, §5.3), frame-state references (saving
 * or restoring PC / return links / bank flushes), ordinary data, and
 * code fetches.
 */
enum class AccessKind : unsigned
{
    Code,       ///< instruction bytes
    Data,       ///< program loads/stores (locals, globals, pointers)
    Table,      ///< LV, GFT, EV, interface records
    Heap,       ///< AV free-list manipulation
    FrameState, ///< context save/restore (PC, links, bank flushes)
    NumKinds
};

/** Printable name of an AccessKind. */
const char *accessKindName(AccessKind kind);

/** A memory's reference counts; runs' counts add up with merge(). */
struct MemoryStats
{
    static constexpr std::size_t numKinds =
        static_cast<std::size_t>(AccessKind::NumKinds);

    // Field order is host performance: every accounted access bumps
    // totalRefs and one per-kind counter together, and GCC merges two
    // adjacent counters bumped together into one 16-byte load and
    // store, whose load then cannot be forwarded from the two 8-byte
    // stores before it (a stall on every I1-I3 frame-state write when
    // writes[FrameState] sat next to totalRefs). So every counter
    // that is bumped sits next to one that never is: the Code slots
    // of reads and writes (code traffic is counted in codeBytes) and
    // words.
    CountT totalRefs = 0;
    std::array<CountT, numKinds> reads{};
    std::array<CountT, numKinds> writes{};
    std::size_t words = 0; ///< store size, the same for every run
    CountT codeBytes = 0;

    void merge(const MemoryStats &other);
};

/** Releases a Memory's store: an anonymous mapping of `bytes`. */
struct UnmapStore
{
    std::size_t bytes = 0;
    void operator()(Word *p) const;
};

/**
 * Flat simulated main storage.
 *
 * Two bounds. Reads (and the unaccounted poke/peek) reach the whole
 * store, [0, size()). Simulated stores — write(), writeUncounted() and
 * the threaded loop's hoisted store compare — land below storeEnd(),
 * the data-space end min(size(), 2^16): a data pointer is a 16-bit
 * word, so a store at or past 2^16 (a WRITEF offset carried past
 * 0xFFFF) would reach the code region without moving the code epoch.
 * It is the usual storage panic instead. Only poke/pokeByte (loader,
 * relocator, test patching) write above storeEnd(); they record the
 * highest word they wrote, and clear() zeroes only the words below
 * the higher of that mark and storeEnd(): no other word can be
 * nonzero.
 */
class Memory
{
  public:
    /** Words a data pointer can address: one machine word's worth. */
    static constexpr std::size_t dataSpaceWords = std::size_t{1} << 16;

    /** Construct a zeroed memory of the given size in 16-bit words.
     *  The store is its own anonymous mapping: fresh zero pages, of
     *  which only those written ever become resident. */
    explicit Memory(std::size_t words);
    Memory(const Memory &other);
    Memory &operator=(const Memory &other);
    Memory(Memory &&) noexcept = default;
    Memory &operator=(Memory &&) noexcept = default;

    std::size_t size() const { return words_; }
    /** First word a simulated store cannot reach. */
    std::size_t storeEnd() const { return storeEnd_; }

    /** Accounted word read. Inline: every interpreted instruction
     *  makes one or more of these. */
    [[gnu::always_inline]] Word
    read(Addr addr, AccessKind kind)
    {
        checkAddr(addr);
        ++stats_.reads[static_cast<std::size_t>(kind)];
        ++stats_.totalRefs;
        return store_[addr];
    }

    /** Accounted word write, below storeEnd(). */
    [[gnu::always_inline]] void
    write(Addr addr, Word value, AccessKind kind)
    {
        checkStore(addr);
        ++stats_.writes[static_cast<std::size_t>(kind)];
        ++stats_.totalRefs;
        store_[addr] = value;
    }

    /** Accounted code byte read (big-endian byte order within words). */
    std::uint8_t readByte(CodeByteAddr byte_addr);

    /** Unaccounted accesses, for loaders and test inspection. */
    Word peek(Addr addr) const;
    void poke(Addr addr, Word value);
    std::uint8_t peekByte(CodeByteAddr byte_addr) const;
    void pokeByte(CodeByteAddr byte_addr, std::uint8_t value);

    /** @name Mutation epoch for host-side caches.
     *
     * Any unaccounted write (poke/pokeByte — the loader, relocator,
     * and test patching all go through these) advances the epoch, and
     * the machine's acceleration caches flush when they see it move.
     * Accounted writes are the simulated program's own stores and
     * cannot reach the code region: they panic at storeEnd(), and the
     * code region starts at word 2^16.
     * @{ */
    std::uint64_t codeEpoch() const { return codeEpoch_; }
    void invalidateCode() { ++codeEpoch_; }
    /** @} */

    /** @name Replay accounting for acceleration cache hits.
     *
     * A memoized resolution must charge exactly the storage references
     * the real walk would have made (the simulated numbers are
     * invariant under acceleration); these bump the counters without
     * touching the store.
     * @{ */
    [[gnu::always_inline]] void
    chargeReads(AccessKind kind, CountT n)
    {
        stats_.reads[static_cast<std::size_t>(kind)] += n;
        stats_.totalRefs += n;
    }
    [[gnu::always_inline]] void
    chargeWrites(AccessKind kind, CountT n)
    {
        stats_.writes[static_cast<std::size_t>(kind)] += n;
        stats_.totalRefs += n;
    }
    void chargeCodeBytes(CountT n) { stats_.codeBytes += n; }
    /** Charge a batch of accesses counted elsewhere, per kind, with one
     *  update of each counter (and of totalRefs) for the lot. */
    [[gnu::always_inline]] void
    chargeBatch(const std::array<CountT, MemoryStats::numKinds> &reads,
                const std::array<CountT, MemoryStats::numKinds> &writes)
    {
        CountT total = 0;
        for (std::size_t k = 0; k < MemoryStats::numKinds; ++k) {
            stats_.reads[k] += reads[k];
            stats_.writes[k] += writes[k];
            total += reads[k] + writes[k];
        }
        stats_.totalRefs += total;
    }

    /** Checked but uncounted accesses, for hosts that keep the access
     *  counts in registers and batch them in via chargeReads /
     *  chargeWrites (the threaded backend). Unlike poke these are
     *  simulated-program accesses: they do not move the code epoch
     *  (data addresses cannot reach the code region). */
    [[gnu::always_inline]] Word
    readUncounted(Addr addr)
    {
        checkAddr(addr);
        return store_[addr];
    }

    /** The raw store, for hosts that also hoist the bounds checks:
     *  the store never moves or resizes after construction, so a
     *  cached pointer + size() check for reads and + storeEnd() check
     *  for stores is exactly read()/write()'s checked access.
     *  Out-of-range addresses must go through
     *  readUncounted/writeUncounted for the accounted panic. */
    Word *raw() { return store_.get(); }
    [[gnu::always_inline]] void
    writeUncounted(Addr addr, Word value)
    {
        checkStore(addr);
        store_[addr] = value;
    }
    /** @} */

    /** Reference counts. */
    const MemoryStats &stats() const { return stats_; }
    CountT reads(AccessKind kind) const;
    CountT writes(AccessKind kind) const;
    CountT totalRefs() const { return stats_.totalRefs; }
    CountT codeByteFetches() const { return stats_.codeBytes; }

    /** Return the store to its just-constructed contents and advance
     *  the code epoch. Lets a long-lived worker reuse one allocation
     *  across jobs with simulated state indistinguishable from a
     *  fresh Memory, at the cost of the words that can be nonzero. */
    void clear();

    void resetStats();
    void dumpStats(std::ostream &os) const;

  private:
    [[gnu::always_inline]] void
    checkAddr(Addr addr) const
    {
        if (addr >= words_) [[unlikely]]
            addrPanic(addr, words_);
    }
    [[gnu::always_inline]] void
    checkStore(Addr addr) const
    {
        if (addr >= storeEnd_) [[unlikely]]
            addrPanic(addr, storeEnd_);
    }
    /** Words that can be nonzero: [0, dirtyEnd()). */
    std::size_t dirtyEnd() const { return std::max(storeEnd_, pokeEnd_); }
    /** Record an unaccounted write for clear(). */
    void
    notePoke(Addr addr)
    {
        ++codeEpoch_;
        if (addr >= pokeEnd_)
            pokeEnd_ = addr + 1;
    }

    [[noreturn]] static void addrPanic(Addr addr, std::size_t bound);

    std::unique_ptr<Word[], UnmapStore> store_;
    /** Store size; every accounted read checks it. */
    std::size_t words_;
    /** min(words_, dataSpaceWords); every accounted store checks it. */
    std::size_t storeEnd_;
    /** One past the highest word poke/pokeByte wrote since the last
     *  clear(). */
    std::size_t pokeEnd_ = 0;
    MemoryStats stats_;
    std::uint64_t codeEpoch_ = 0;
};

} // namespace fpc

#endif // FPC_MEMORY_MEMORY_HH
