#include "memory/memory.hh"

#include <algorithm>
#include <cstring>
#include <new>
#include <ostream>

#include <sys/mman.h>

#include "common/logging.hh"

namespace fpc
{

const char *
accessKindName(AccessKind kind)
{
    switch (kind) {
      case AccessKind::Code: return "code";
      case AccessKind::Data: return "data";
      case AccessKind::Table: return "table";
      case AccessKind::Heap: return "heap";
      case AccessKind::FrameState: return "frameState";
      default: return "?";
    }
}

void
MemoryStats::merge(const MemoryStats &other)
{
    words = std::max(words, other.words);
    for (std::size_t k = 0; k < numKinds; ++k) {
        reads[k] += other.reads[k];
        writes[k] += other.writes[k];
    }
    totalRefs += other.totalRefs;
    codeBytes += other.codeBytes;
}

Memory::Memory(std::size_t words)
    : words_(words), storeEnd_(std::min(words, dataSpaceWords))
{
    if (words == 0)
        panic("Memory: zero size");
    // Not calloc: once glibc has freed one store this size it serves
    // the next from its heap, and calloc then clears every page of it.
    // A mapping of its own starts as zero pages that cost nothing
    // until written, and its pages go back to the system with it.
    const std::size_t bytes = words * sizeof(Word);
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    store_ = {static_cast<Word *>(p), UnmapStore{bytes}};
    stats_.words = words;
}

void
UnmapStore::operator()(Word *p) const
{
    ::munmap(p, bytes);
}

Memory::Memory(const Memory &other) : Memory(other.words_)
{
    *this = other;
}

Memory &
Memory::operator=(const Memory &other)
{
    if (this == &other)
        return *this;
    if (words_ != other.words_)
        *this = Memory(other.words_);
    // Both stores are zero from dirtyEnd() up.
    const std::size_t n = std::max(dirtyEnd(), other.dirtyEnd());
    std::memcpy(store_.get(), other.store_.get(), n * sizeof(Word));
    storeEnd_ = other.storeEnd_;
    pokeEnd_ = other.pokeEnd_;
    stats_ = other.stats_;
    codeEpoch_ = other.codeEpoch_;
    return *this;
}

void
Memory::addrPanic(Addr addr, std::size_t bound)
{
    fatal("memory reference out of range: {} >= {}", addr, bound);
}

std::uint8_t
Memory::readByte(CodeByteAddr byte_addr)
{
    ++stats_.codeBytes;
    return peekByte(byte_addr);
}

Word
Memory::peek(Addr addr) const
{
    checkAddr(addr);
    return store_[addr];
}

void
Memory::clear()
{
    // Only two kinds of write exist: simulated stores, which cannot
    // reach storeEnd_ (checkStore and the threaded loop's store
    // compare), and pokes, which pokeEnd_ bounds. Every word at or
    // above max(storeEnd_, pokeEnd_) is therefore still the zero the
    // mapping started with, so zeroing below that bound leaves the
    // store word-for-word a fresh Memory: 128 KB plus the last image's
    // code span, not the whole store.
    std::memset(store_.get(), 0, dirtyEnd() * sizeof(Word));
    pokeEnd_ = 0;
    ++codeEpoch_;
}

void
Memory::poke(Addr addr, Word value)
{
    checkAddr(addr);
    notePoke(addr);
    store_[addr] = value;
}

std::uint8_t
Memory::peekByte(CodeByteAddr byte_addr) const
{
    const Addr word_addr = byte_addr / wordBytes;
    checkAddr(word_addr);
    const Word w = store_[word_addr];
    // Big-endian within the word: byte 0 is the high byte, matching the
    // Mesa convention of reading code left to right.
    if (byte_addr % wordBytes == 0)
        return static_cast<std::uint8_t>(w >> 8);
    return static_cast<std::uint8_t>(w & 0xFF);
}

void
Memory::pokeByte(CodeByteAddr byte_addr, std::uint8_t value)
{
    const Addr word_addr = byte_addr / wordBytes;
    checkAddr(word_addr);
    notePoke(word_addr);
    Word w = store_[word_addr];
    if (byte_addr % wordBytes == 0)
        w = static_cast<Word>((w & 0x00FF) | (value << 8));
    else
        w = static_cast<Word>((w & 0xFF00) | value);
    store_[word_addr] = w;
}

CountT
Memory::reads(AccessKind kind) const
{
    return stats_.reads[static_cast<std::size_t>(kind)];
}

CountT
Memory::writes(AccessKind kind) const
{
    return stats_.writes[static_cast<std::size_t>(kind)];
}

void
Memory::resetStats()
{
    stats_ = MemoryStats{};
    stats_.words = words_;
}

void
Memory::dumpStats(std::ostream &os) const
{
    os << "---- memory ----\n";
    for (unsigned k = 0; k < static_cast<unsigned>(AccessKind::NumKinds);
         ++k) {
        const auto kind = static_cast<AccessKind>(k);
        os << "  " << accessKindName(kind) << ": reads=" << reads(kind)
           << " writes=" << writes(kind) << "\n";
    }
    os << "  totalRefs=" << stats_.totalRefs
       << " codeBytes=" << stats_.codeBytes
       << "\n";
}

} // namespace fpc
