#include "xfer/context.hh"

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/strfmt.hh"

namespace fpc
{

namespace
{
constexpr unsigned tagBit = 15;
} // namespace

void
badFrameContext(Addr frame_ptr, const SystemLayout &layout)
{
    const Addr block = frame_ptr - 1;
    if (block < layout.frameBase || frame_ptr >= layout.frameEnd)
        panic("frame pointer {} outside the frame region", frame_ptr);
    if ((block - layout.frameBase) % 4 != 0)
        panic("frame block {} is not quad-aligned", block);
    panic("frame quad 0 is reserved for NIL");
}

Word
packProcDesc(unsigned gft_index, unsigned ev_low5)
{
    checkedField(gft_index, 10, "procDesc.env");
    checkedField(ev_low5, 5, "procDesc.code");
    return static_cast<Word>((1u << tagBit) | (gft_index << 5) | ev_low5);
}

bool
isFrameContext(Word ctx, const SystemLayout &layout)
{
    const Context c = unpackContext(ctx, layout);
    return c.tag == Context::Tag::Frame && !c.isNil();
}

std::string
contextToString(Word ctx, const SystemLayout &layout)
{
    const Context c = unpackContext(ctx, layout);
    if (c.tag == Context::Tag::Proc)
        return strfmt("proc[env={} code={}]", c.env, c.code);
    if (c.isNil())
        return "NIL";
    return strfmt("frame[{}]", c.framePtr);
}

Word
packGftEntry(const GftEntry &entry, const SystemLayout &layout)
{
    if (entry.gfAddr < layout.globalBase || entry.gfAddr >= layout.globalEnd)
        panic("global frame address {} outside the global region",
              entry.gfAddr);
    if (entry.gfAddr % 4 != 0)
        panic("global frame {} is not quad-aligned", entry.gfAddr);
    checkedField(entry.bias, 2, "gft.bias");
    // Quad index within the 64K-word global space (14 bits suffice
    // because the global region ends below 64K words).
    const Addr quad = entry.gfAddr / 4;
    checkedField(quad, 14, "gft.gfQuad");
    return static_cast<Word>((quad << 2) | entry.bias);
}

GftEntry
unpackGftEntry(Word raw, const SystemLayout &layout)
{
    (void)layout;
    GftEntry e;
    e.gfAddr = static_cast<Addr>(bits(raw, 2, 14)) * 4;
    e.bias = bits(raw, 0, 2);
    return e;
}

const char *
xferKindName(XferKind kind)
{
    switch (kind) {
      case XferKind::ExtCall: return "extCall";
      case XferKind::LocalCall: return "localCall";
      case XferKind::DirectCall: return "directCall";
      case XferKind::FatCall: return "fatCall";
      case XferKind::Return: return "return";
      case XferKind::Coroutine: return "coroutine";
      case XferKind::ProcSwitch: return "procSwitch";
      case XferKind::Trap: return "trap";
      default: return "?";
    }
}

} // namespace fpc
