#include "memory/memory.hh"

#include <algorithm>
#include <ostream>

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

Memory::Memory(std::size_t words) : store_(words, 0), words_(words)
{
    if (words == 0)
        panic("Memory: zero size");
    stats_.words = words;
}

void
Memory::addrPanic(Addr addr) const
{
    fatal("memory reference out of range: {} >= {}", addr,
          store_.size());
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
    std::fill(store_.begin(), store_.end(), 0);
    ++codeEpoch_;
}

void
Memory::poke(Addr addr, Word value)
{
    checkAddr(addr);
    ++codeEpoch_;
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
    ++codeEpoch_;
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
