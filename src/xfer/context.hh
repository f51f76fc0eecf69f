/**
 * @file
 * The control-transfer model's data types (paper §3–§5).
 *
 * A Context is the entity control transfers among. It is a one-word
 * variant record (paper §4):
 *
 *     Context: TYPE = RECORD [
 *       CASE tag: {frame, proc} OF
 *         frame => [ FramePointer ];
 *         proc  => [ code: ProcPointer, env: EnvPointer ]
 *       ENDCASE ]
 *
 * packed per §5.1 into 16 bits: a one-bit tag, and either a 15-bit
 * quad index into the frame region (frame case) or a ten-bit env field
 * (a GFT index) and a five-bit code field (an EV index) (proc case).
 *
 * A GFT entry packs a 14-bit quad-aligned global frame address with
 * the two spare "bias" bits that extend a module to 4 * 32 = 128 entry
 * points (§5.1).
 *
 * The frame layout implements §4's record: return link, environment
 * pointer, saved PC, then arguments/locals/temporaries; one extra
 * header word in front holds the frame size index so a frame can be
 * freed without stating its size (§5.3), plus the retained flag (§4)
 * and the §7.4 "pointers may exist" flag.
 */

#ifndef FPC_XFER_CONTEXT_HH
#define FPC_XFER_CONTEXT_HH

#include <string>

#include "common/types.hh"
#include "xfer/layout.hh"

namespace fpc
{

/** The NIL context: "returnContext := NIL" on a RETURN (§4). */
constexpr Word nilContext = 0;

/** Decoded form of a one-word Context. */
struct Context
{
    enum class Tag { Frame, Proc };

    Tag tag = Tag::Frame;
    /** Frame case: the local frame pointer (a full word address). */
    Addr framePtr = nilAddr;
    /** Proc case: the env field — a GFT index. */
    unsigned env = 0;
    /** Proc case: the code field — a 5-bit EV index (pre-bias). */
    unsigned code = 0;

    bool isNil() const { return tag == Tag::Frame && framePtr == nilAddr; }
};

/** Panic for a frame pointer packFrameContext cannot encode. */
[[noreturn]] void badFrameContext(Addr frame_ptr,
                                  const SystemLayout &layout);

/** Pack a frame context. The frame pointer must be in the frame region
 *  and (framePtr - 1) must be quad-aligned. Inline: every call and
 *  return packs one. */
[[gnu::always_inline]] inline Word
packFrameContext(Addr frame_ptr, const SystemLayout &layout)
{
    if (frame_ptr == nilAddr)
        return nilContext;
    const Addr block = frame_ptr - 1; // the header word
    if (block < layout.frameBase || frame_ptr >= layout.frameEnd ||
        (block - layout.frameBase) % 4 != 0 || block == layout.frameBase)
        [[unlikely]]
        badFrameContext(frame_ptr, layout);
    return static_cast<Word>((block - layout.frameBase) / 4); // tag 0
}

/** Pack a procedure-descriptor context. */
Word packProcDesc(unsigned gft_index, unsigned ev_low5);

/** Decode a context word. Inline, like packFrameContext. */
[[gnu::always_inline]] inline Context
unpackContext(Word ctx, const SystemLayout &layout)
{
    Context out;
    if (ctx & 0x8000u) { // the tag bit
        out.tag = Context::Tag::Proc;
        out.env = (ctx >> 5) & 0x3FFu;
        out.code = ctx & 0x1Fu;
    } else if (ctx != nilContext) {
        out.framePtr = layout.frameBase + static_cast<Addr>(ctx) * 4 + 1;
    }
    return out;
}

/** True when ctx is a non-NIL frame context (a suspended activation a
 *  scheduler may dispatch, as opposed to a procedure descriptor). */
bool isFrameContext(Word ctx, const SystemLayout &layout);

/** Render a context word for diagnostics. */
std::string contextToString(Word ctx, const SystemLayout &layout);

/** A GFT entry: 14-bit global-frame quad + 2-bit bias. */
struct GftEntry
{
    Addr gfAddr = nilAddr; ///< word address of the global frame
    unsigned bias = 0;     ///< entry-point bias, in multiples of 32
};

Word packGftEntry(const GftEntry &entry, const SystemLayout &layout);
GftEntry unpackGftEntry(Word raw, const SystemLayout &layout);

/**
 * Local frame field offsets, relative to the frame pointer (which
 * points one word past the header).
 */
namespace frame
{
/** Header word, one *before* the frame pointer. */
constexpr int headerOffset = -1;
/** The return link: a Context word (§4). */
constexpr unsigned returnLinkOffset = 0;
/** The environment pointer: the global frame's word address. */
constexpr unsigned globalFrameOffset = 1;
/** Saved PC, as a byte offset relative to the code base (§5.3). */
constexpr unsigned savedPcOffset = 2;
/** First argument/local slot. */
constexpr unsigned varsOffset = 3;
/** Words of bookkeeping at the head of every frame. */
constexpr unsigned overheadWords = 3;

/** Header word encoding. */
constexpr Word fsiMask = 0x1F;
constexpr Word retainedFlag = 0x20; ///< §4 retained frames
constexpr Word flaggedFlag = 0x40;  ///< §7.4 pointers-to-locals exist
} // namespace frame

/** The transfer disciplines built on XFER, for statistics (§3). */
enum class XferKind : unsigned
{
    ExtCall,       ///< EXTERNALCALL through the link vector
    LocalCall,     ///< LOCALCALL within the module
    DirectCall,    ///< DIRECTCALL / SHORTDIRECTCALL (§6)
    FatCall,       ///< §4 inline-descriptor call
    Return,        ///< RETURN
    Coroutine,     ///< raw XFER to an existing frame context
    ProcSwitch,    ///< process switch via the scheduler
    Trap,          ///< trap transfer
    NumKinds
};

const char *xferKindName(XferKind kind);

/** The four call disciplines: the transfers that push an activation
 *  (every other kind but Return breaks LIFO order). */
constexpr bool
callLike(XferKind kind)
{
    return kind == XferKind::ExtCall || kind == XferKind::LocalCall ||
           kind == XferKind::DirectCall || kind == XferKind::FatCall;
}

} // namespace fpc

#endif // FPC_XFER_CONTEXT_HH
