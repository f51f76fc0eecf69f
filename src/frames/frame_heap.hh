/**
 * @file
 * The frame allocation heap (paper §5.3, Figure 2).
 *
 * The allocation vector AV and all free-list links live in simulated
 * main storage, so the reference counts the paper quotes are literal
 * here: three storage references to allocate a frame (fetch list head
 * from AV, fetch next pointer from the first node, store it into the
 * list head) and four to free one (the extra reference reads the
 * header word that holds the frame size index, "so that the size need
 * not be specified when it is freed").
 *
 * When a free list is empty there is "a trap to a software allocator
 * which creates more frames of the desired size" — modelled by
 * carving fresh blocks from a bump region, with its storage traffic
 * charged and the trap counted.
 *
 * The heap imposes no last-in first-out discipline, which is the
 * paper's point: the same allocator serves procedure frames, retained
 * frames, coroutines, multiple processes, and long argument records.
 */

#ifndef FPC_FRAMES_FRAME_HEAP_HH
#define FPC_FRAMES_FRAME_HEAP_HH

#include <ostream>

#include "common/types.hh"
#include "frames/size_classes.hh"
#include "memory/memory.hh"
#include "xfer/context.hh"
#include "xfer/layout.hh"

namespace fpc
{

/** Statistics the heap maintains. */
struct FrameHeapStats
{
    CountT allocs = 0;
    CountT frees = 0;
    CountT softwareTraps = 0;   ///< empty-free-list traps
    CountT retainedSkips = 0;   ///< release() calls that kept the frame
    CountT requestedWords = 0;  ///< payload words callers asked for
    CountT allocatedWords = 0;  ///< payload words classes provided
    CountT blockWords = 0;      ///< heap words consumed incl. headers
    CountT refsAlloc = 0;       ///< storage references spent allocating
    CountT refsFree = 0;        ///< storage references spent freeing

    /** Internal fragmentation: fraction of granted payload unused. */
    double fragmentation() const;

    /** Adds another run's counts. */
    void merge(const FrameHeapStats &other);

    /** Frames currently allocated and not yet freed. */
    CountT liveFrames() const { return allocs - frees; }
};

/** The fast frame allocator over simulated storage. */
class FrameHeap
{
  public:
    /**
     * @param memory   the simulated storage holding AV and the region
     * @param layout   supplies avAddr and the frame region bounds
     * @param classes  the compiler/allocator size agreement
     * @param frames_per_trap frames the software allocator carves per
     *        empty-list trap
     */
    FrameHeap(Memory &memory, const SystemLayout &layout,
              SizeClasses classes, unsigned frames_per_trap = 8);

    const SizeClasses &classes() const { return classes_; }

    /**
     * Allocate a frame of the given size class; returns the frame
     * pointer (one word past the header). Exactly three storage
     * references on the fast path. Inline: every call on I1-I3 takes
     * it; the empty-list trap stays out of line.
     */
    [[gnu::always_inline]] Addr alloc(unsigned fsi) { return alloc(fsi, mem_); }

    /** alloc, with the three references made and counted through
     *  `mem` (the Memory itself, or a caller's charge that counts them
     *  on its own and charges them later; the machine's call plans
     *  hold theirs). The empty-list trap charges the Memory. */
    template <class Mem>
    [[gnu::always_inline]] Addr
    alloc(unsigned fsi, Mem &mem)
    {
        if (fsi >= classes_.numClasses()) [[unlikely]]
            fsiPanic("alloc", fsi);

        const Addr av_slot = layout_.avAddr + fsi;
        // Ref 1: fetch the list head from AV.
        Word head = mem.read(av_slot, AccessKind::Heap);
        stats_.refsAlloc += 1;
        if (head == nilContext) [[unlikely]]
            head = refill(fsi);

        const Addr frame_ptr = unpackContext(head, layout_).framePtr;
        // Ref 2: fetch the next pointer from the first node.
        const Word next = mem.read(frame_ptr, AccessKind::Heap);
        // Ref 3: store it into the list head.
        mem.write(av_slot, next, AccessKind::Heap);
        stats_.refsAlloc += 2;

        ++stats_.allocs;
        stats_.allocatedWords += classes_.classWords(fsi);
        stats_.blockWords += classes_.blockWords(fsi);
        return frame_ptr;
    }

    /**
     * Allocate for a payload request, recording fragmentation stats.
     */
    Addr allocWords(unsigned payload_words);

    /**
     * Free the frame unconditionally. Exactly four storage references.
     */
    void free(Addr frame_ptr);

    /**
     * The RETURN-path release: frees the frame unless it is retained
     * (§4). Returns true if the frame was actually freed. Inline, like
     * alloc.
     */
    [[gnu::always_inline]] bool
    release(Addr frame_ptr)
    {
        return release(frame_ptr, mem_);
    }

    /** release, counting its references through `mem`, as alloc. */
    template <class Mem>
    [[gnu::always_inline]] bool
    release(Addr frame_ptr, Mem &mem)
    {
        // The retained check shares the header read with free(); to
        // keep the paper's four-reference count exact we read it once
        // here and hand the fsi path the same value.
        const Word header = mem.read(frame_ptr - 1, AccessKind::Heap);
        if (header & frame::retainedFlag) {
            ++stats_.retainedSkips;
            stats_.refsFree += 1;
            return false;
        }
        const unsigned fsi = header & frame::fsiMask;
        if (fsi >= classes_.numClasses()) [[unlikely]]
            corruptHeader("release", frame_ptr, fsi);

        const Addr av_slot = layout_.avAddr + fsi;
        const Word head = mem.read(av_slot, AccessKind::Heap);
        mem.write(frame_ptr, head, AccessKind::Heap);
        mem.write(av_slot, packFrameContext(frame_ptr, layout_),
                  AccessKind::Heap);
        stats_.refsFree += 3 + 1; // header read above + three list refs
        ++stats_.frees;
        return true;
    }

    /** @name Retained frames and §7.4 flags. @{ */
    void setRetained(Addr frame_ptr, bool retained);
    bool isRetained(Addr frame_ptr) const;
    void setFlagged(Addr frame_ptr, bool flagged);
    bool isFlagged(Addr frame_ptr) const;
    /** @} */

    /** Read a frame's size class from its header (unaccounted). */
    unsigned frameFsi(Addr frame_ptr) const;

    /** Payload words of an allocated frame. */
    unsigned frameWords(Addr frame_ptr) const;

    const FrameHeapStats &stats() const { return stats_; }
    void resetStats() { stats_ = FrameHeapStats(); }

    /** Free frames currently on the fsi free list (AV state). Walks
     *  the in-storage list with unaccounted peeks, so sampling it
     *  charges no simulated references. */
    unsigned freeListLength(unsigned fsi) const;

    /** Words of the region not yet carved by the software allocator. */
    Addr regionRemaining() const { return layout_.frameEnd - carve_; }

    void dumpStats(std::ostream &os) const;

  private:
    /** The software allocator: replenish the free list for fsi. */
    void replenish(unsigned fsi);
    /** alloc's empty-list trap: replenish, then re-read the AV head
     *  (one more reference). Returns the new head. */
    Word refill(unsigned fsi);
    [[noreturn]] void fsiPanic(const char *op, unsigned fsi) const;
    [[noreturn]] void corruptHeader(const char *op, Addr frame_ptr,
                                    unsigned fsi) const;

    Word readHeader(Addr frame_ptr) const;
    void writeHeaderFlags(Addr frame_ptr, Word flags_on, Word flags_off);

    Memory &mem_;
    const SystemLayout layout_;
    SizeClasses classes_;
    unsigned framesPerTrap_;
    Addr carve_; ///< bump pointer for the software allocator
    FrameHeapStats stats_;
};

} // namespace fpc

#endif // FPC_FRAMES_FRAME_HEAP_HH
