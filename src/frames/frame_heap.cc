#include "frames/frame_heap.hh"

#include "common/logging.hh"
#include "xfer/context.hh"

namespace fpc
{

double
FrameHeapStats::fragmentation() const
{
    if (allocatedWords == 0)
        return 0.0;
    return 1.0 - static_cast<double>(requestedWords) / allocatedWords;
}

void
FrameHeapStats::merge(const FrameHeapStats &other)
{
    allocs += other.allocs;
    frees += other.frees;
    softwareTraps += other.softwareTraps;
    retainedSkips += other.retainedSkips;
    requestedWords += other.requestedWords;
    allocatedWords += other.allocatedWords;
    blockWords += other.blockWords;
    refsAlloc += other.refsAlloc;
    refsFree += other.refsFree;
}

FrameHeap::FrameHeap(Memory &memory, const SystemLayout &layout,
                     SizeClasses classes, unsigned frames_per_trap)
    : mem_(memory), layout_(layout), classes_(std::move(classes)),
      framesPerTrap_(frames_per_trap)
{
    if (classes_.numClasses() > layout_.maxSizeClasses)
        panic("more size classes ({}) than AV slots ({})",
              classes_.numClasses(), layout_.maxSizeClasses);
    if (framesPerTrap_ == 0)
        panic("framesPerTrap must be positive");
    // Skip quad 0: the zero context word must stay NIL.
    carve_ = layout_.frameBase + 4;
    // Clear AV (unaccounted: boot-time initialization).
    for (unsigned i = 0; i < classes_.numClasses(); ++i)
        mem_.poke(layout_.avAddr + i, 0);
}

Word
FrameHeap::refill(unsigned fsi)
{
    // "If the free list is empty there is a trap to a software
    // allocator which creates more frames of the desired size."
    ++stats_.softwareTraps;
    replenish(fsi);
    const Word head = mem_.read(layout_.avAddr + fsi, AccessKind::Heap);
    stats_.refsAlloc += 1;
    return head;
}

void
FrameHeap::fsiPanic(const char *op, unsigned fsi) const
{
    panic("{}: fsi {} out of range", op, fsi);
}

void
FrameHeap::corruptHeader(const char *op, Addr frame_ptr,
                         unsigned fsi) const
{
    panic("{}: corrupt header at {} (fsi {})", op, frame_ptr - 1, fsi);
}

unsigned
FrameHeap::freeListLength(unsigned fsi) const
{
    if (fsi >= classes_.numClasses())
        panic("freeListLength: fsi {} out of range", fsi);
    unsigned n = 0;
    Word head = mem_.peek(layout_.avAddr + fsi);
    while (head != nilContext) {
        ++n;
        const Context ctx = unpackContext(head, layout_);
        head = mem_.peek(ctx.framePtr);
    }
    return n;
}

Addr
FrameHeap::allocWords(unsigned payload_words)
{
    if (!classes_.fits(payload_words)) {
        fatal("frame request of {} words exceeds the largest size "
              "class ({})",
              payload_words, classes_.maxWords());
    }
    const unsigned fsi = classes_.fsiFor(payload_words);
    stats_.requestedWords += payload_words;
    return alloc(fsi);
}

void
FrameHeap::free(Addr frame_ptr)
{
    // Ref 1: read the header to learn the size class; "each frame has
    // an extra word which holds its frame size index, so that the size
    // need not be specified when it is freed."
    const Word header = mem_.read(frame_ptr - 1, AccessKind::Heap);
    const unsigned fsi = header & frame::fsiMask;
    if (fsi >= classes_.numClasses())
        panic("free: corrupt header at {} (fsi {})", frame_ptr - 1, fsi);

    const Addr av_slot = layout_.avAddr + fsi;
    // Ref 2: fetch the current list head.
    const Word head = mem_.read(av_slot, AccessKind::Heap);
    // Ref 3: store it as this frame's next pointer.
    mem_.write(frame_ptr, head, AccessKind::Heap);
    // Ref 4: store this frame into the list head.
    mem_.write(av_slot, packFrameContext(frame_ptr, layout_),
               AccessKind::Heap);
    stats_.refsFree += 4;
    ++stats_.frees;
}


void
FrameHeap::setRetained(Addr frame_ptr, bool retained)
{
    writeHeaderFlags(frame_ptr, retained ? frame::retainedFlag : 0,
                     retained ? 0 : frame::retainedFlag);
}

bool
FrameHeap::isRetained(Addr frame_ptr) const
{
    return readHeader(frame_ptr) & frame::retainedFlag;
}

void
FrameHeap::setFlagged(Addr frame_ptr, bool flagged)
{
    writeHeaderFlags(frame_ptr, flagged ? frame::flaggedFlag : 0,
                     flagged ? 0 : frame::flaggedFlag);
}

bool
FrameHeap::isFlagged(Addr frame_ptr) const
{
    return readHeader(frame_ptr) & frame::flaggedFlag;
}

unsigned
FrameHeap::frameFsi(Addr frame_ptr) const
{
    return readHeader(frame_ptr) & frame::fsiMask;
}

unsigned
FrameHeap::frameWords(Addr frame_ptr) const
{
    return classes_.classWords(frameFsi(frame_ptr));
}

Word
FrameHeap::readHeader(Addr frame_ptr) const
{
    return mem_.peek(frame_ptr - 1);
}

void
FrameHeap::writeHeaderFlags(Addr frame_ptr, Word flags_on, Word flags_off)
{
    Word header = mem_.read(frame_ptr - 1, AccessKind::FrameState);
    header = static_cast<Word>((header | flags_on) & ~flags_off);
    mem_.write(frame_ptr - 1, header, AccessKind::FrameState);
}

void
FrameHeap::replenish(unsigned fsi)
{
    const unsigned block = classes_.blockWords(fsi);
    const Addr av_slot = layout_.avAddr + fsi;
    for (unsigned i = 0; i < framesPerTrap_; ++i) {
        if (carve_ + block > layout_.frameEnd)
            fatal("frame heap exhausted carving class {} ({} words "
                  "left)",
                  fsi, layout_.frameEnd - carve_);
        const Addr header_addr = carve_;
        const Addr frame_ptr = header_addr + 1;
        carve_ += block;
        // The software allocator's own storage traffic is charged as
        // heap traffic: write the header, then push onto the list.
        mem_.write(header_addr, static_cast<Word>(fsi),
                   AccessKind::Heap);
        const Word head = mem_.read(av_slot, AccessKind::Heap);
        mem_.write(frame_ptr, head, AccessKind::Heap);
        mem_.write(av_slot, packFrameContext(frame_ptr, layout_),
                   AccessKind::Heap);
    }
}

void
FrameHeap::dumpStats(std::ostream &os) const
{
    os << "---- frameHeap ----\n"
       << "  allocs=" << stats_.allocs << " frees=" << stats_.frees
       << " traps=" << stats_.softwareTraps << "\n"
       << "  refs/alloc="
       << (stats_.allocs
               ? static_cast<double>(stats_.refsAlloc) / stats_.allocs
               : 0)
       << " refs/free="
       << (stats_.frees
               ? static_cast<double>(stats_.refsFree) / stats_.frees
               : 0)
       << "\n"
       << "  fragmentation=" << stats_.fragmentation() << "\n";
}

} // namespace fpc
