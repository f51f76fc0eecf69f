/**
 * @file
 * Frame size classes (paper §5.3).
 *
 * "A procedure specifies its frame size in its first byte by a frame
 *  size index into an array of free lists called the allocation vector
 *  AV. Frame sizes increase from a minimum of about 16 bytes in steps
 *  of about 20%; less than 20 steps are needed to cover any size up to
 *  several thousand bytes."
 *
 * The choice of sizes is private to the compiler and the software
 * allocator (§5.3), so it is a standalone value type shared by both
 * sides — the fast heap itself never interprets an fsi beyond using it
 * to index AV.
 */

#ifndef FPC_FRAMES_SIZE_CLASSES_HH
#define FPC_FRAMES_SIZE_CLASSES_HH

#include <vector>

#include "common/types.hh"

namespace fpc
{

/** The compiler/allocator agreement on fsi -> size in words. */
class SizeClasses
{
  public:
    /**
     * Build a geometric size-class table.
     * @param min_words  payload words of class 0
     * @param growth     per-step growth factor (paper: "about 20%")
     * @param max_classes number of classes (paper: "less than 20")
     */
    SizeClasses(unsigned min_words, double growth, unsigned max_classes);

    /** The paper's configuration: 8 words (16 bytes), ~20% steps,
     *  fewer than 20 classes reaching several thousand bytes. */
    static SizeClasses standard();

    [[gnu::always_inline]] unsigned
    numClasses() const
    {
        return static_cast<unsigned>(sizes_.size());
    }

    /** Payload words available in the given class. Inline: every
     *  frame allocation asks. */
    [[gnu::always_inline]] unsigned
    classWords(unsigned fsi) const
    {
        if (fsi >= sizes_.size()) [[unlikely]]
            fsiPanic(fsi);
        return sizes_[fsi];
    }

    /** Smallest class holding the given payload; panics if none. */
    unsigned fsiFor(unsigned payload_words) const;

    /** True if some class can hold the payload. */
    bool fits(unsigned payload_words) const;

    /** Largest payload any class holds. */
    unsigned maxWords() const { return sizes_.back(); }

    /**
     * Words a block of this class occupies in the heap, including the
     * header word and quad-alignment padding.
     */
    [[gnu::always_inline]] unsigned
    blockWords(unsigned fsi) const
    {
        const unsigned raw = classWords(fsi) + 1; // + header word
        return (raw + 3u) & ~3u;                  // quad alignment
    }

  private:
    [[noreturn]] void fsiPanic(unsigned fsi) const;

    std::vector<unsigned> sizes_;
};

} // namespace fpc

#endif // FPC_FRAMES_SIZE_CLASSES_HH
