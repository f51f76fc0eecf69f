/**
 * @file
 * The four realizations of XFER (paper §4–§7): descriptor resolution,
 * frame allocation and release, the IFU return stack, register-bank
 * renaming, and the orderly fallbacks that keep the general model
 * intact under every discipline.
 */

#include <algorithm>

#include "common/logging.hh"
#include "machine/machine.hh"
#include "machine/threaded.hh"

namespace fpc
{

namespace
{
constexpr Addr stackOwner = 0xFFFFFFFFu;

unsigned
kindIndex(XferKind kind)
{
    return static_cast<unsigned>(kind);
}
} // namespace

/**
 * Measures one transfer: storage references and cycles consumed, and
 * whether it ran at unconditional-jump cost (no storage references,
 * no IFU redirect) — the paper's headline metric.
 */
struct Machine::XferProbe
{
    Machine &m;
    XferKind kind;
    CountT refs0;
    Tick cycles0;
    Word srcCtx = nilContext;

    [[gnu::always_inline]] XferProbe(Machine &machine, XferKind k)
        : m(machine), kind(k), refs0(machine.mem_.totalRefs()),
          cycles0(machine.stats_.cycles)
    {
        m.xferRedirected_ = false;
        if (m.observer_ != nullptr) [[unlikely]]
            srcCtx = m.currentFrameContext();
    }

    [[gnu::always_inline]] ~XferProbe()
    {
        const CountT refs = m.mem_.totalRefs() - refs0;
        const Tick cycles = m.stats_.cycles - cycles0;
        const unsigned k = kindIndex(kind);
        ++m.stats_.xferCount[k];
        if (refs == 0 && !m.xferRedirected_)
            ++m.stats_.xferFast[k];
        // Deferred sums only ever run with no observer attached (the
        // threaded loop's entry condition).
        if (m.xferDeferred_) [[likely]]
            m.xferSums_[k].add(refs, cycles);
        else
            exact(refs, cycles);
    }

    /** The per-sample path (the eager loop, and any run with an
     *  observer): both distributions, then the observer hook. The
     *  threaded loop's deferred counters are constant across the
     *  member transfer code bracketed here, so refs and end - start
     *  are exact under either backend (machine.hh XferObserver). */
    void
    exact(CountT refs, Tick cycles)
    {
        auto &s = m.stats_;
        const unsigned k = kindIndex(kind);
        s.xferRefs[k].sample(static_cast<double>(refs));
        s.xferCycles[k].sample(static_cast<double>(cycles));
        if (m.observer_ != nullptr) {
            XferRecord rec;
            rec.kind = kind;
            rec.srcCtx = srcCtx;
            rec.dstCtx = dstContext();
            rec.frame = m.lf_;
            rec.pc = m.pcAbs_;
            rec.start = cycles0;
            rec.end = m.stats_.cycles;
            rec.refs = refs;
            rec.step = m.stats_.steps;
            m.observeXfer(rec);
        }
    }

    /** The destination context, or NIL when the transfer left lf_
     *  where no frame context can name it. A transfer whose storage
     *  panic unwinds through this destructor can have moved lf_ out of
     *  the frame region already; packing it would throw a second time,
     *  from a destructor, and end the process instead of the run. A
     *  transfer that completed that way runs on as it does unobserved:
     *  an observer must not change how a run ends. */
    Word
    dstContext() const
    {
        try {
            return m.currentFrameContext();
        } catch (const PanicError &) {
            return nilContext;
        }
    }
};

void
Machine::observeXfer(const XferRecord &record)
{
    // The one bracketing rule, the §6 return-stack discipline: a call
    // pushes the callee, a return pops it, and any other XFER flushes
    // the stack and re-roots it at the destination.
    if (callLike(record.kind)) {
        shadow_.push_back({lf_, pcAbs_, record.end});
        observer_->onXfer(record, *this);
        return;
    }
    observer_->onXfer(record, *this);
    if (record.kind == XferKind::Return) {
        if (!shadow_.empty())
            shadow_.pop_back();
        return;
    }
    shadow_.clear();
    if (lf_ != nilAddr)
        shadow_.push_back({lf_, pcAbs_, record.end});
}

void
Machine::foldXferSums()
{
    for (unsigned k = 0; k < xferSums_.size(); ++k) {
        XferSums &x = xferSums_[k];
        x.endRun();
        if (x.n == 0)
            continue;
        stats_.xferRefs[k].sampleSums(
            x.n, static_cast<double>(x.refs),
            static_cast<double>(x.refsSq),
            static_cast<double>(x.refsMin),
            static_cast<double>(x.refsMax));
        stats_.xferCycles[k].sampleSums(
            x.n, static_cast<double>(x.cycles),
            static_cast<double>(x.cyclesSq),
            static_cast<double>(x.cyclesMin),
            static_cast<double>(x.cyclesMax));
        x = XferSums();
    }
}

// ---------------------------------------------------------------------
// Register banks (I4)
// ---------------------------------------------------------------------

int
Machine::acquireBank(Addr new_owner, int pinned_a, int pinned_b)
{
    int bank = banks_.assignFree(new_owner);
    if (bank >= 0)
        return bank;
    const int victim = banks_.victim(pinned_a, pinned_b);
    if (victim < 0)
        panic("no evictable register bank");
    // "If an overflow occurs ... the contents of the oldest bank is
    // written out into the frame." (§7.1)
    ++stats_.bankOverflows;
    if (banks_.owner(victim) != stackOwner)
        flushBank(victim);
    banks_.free(victim);
    bank = banks_.assignFree(new_owner);
    if (bank < 0)
        panic("bank acquisition failed after eviction");
    return bank;
}

void
Machine::flushBank(int bank)
{
    const Addr owner = banks_.owner(bank);
    if (owner == stackOwner || owner == nilAddr)
        return;
    const std::uint32_t dirty = banks_.dirtyMask(bank);
    for (unsigned w = 0; w < banks_.bankWords(); ++w) {
        if (config_.flushDirtyOnly && !(dirty & (1u << w)))
            continue;
        writeMem(owner + w, banks_.read(bank, w),
                 AccessKind::FrameState);
        ++stats_.bankFlushWords;
    }
    banks_.markClean(bank);
}

int
Machine::loadBankFor(Addr frame_ptr)
{
    // A flagged frame (§7.4) lives in storage only.
    const Word header = readMem(frame_ptr - 1, AccessKind::FrameState);
    if (header & frame::flaggedFlag)
        return -1;
    const unsigned fsi = header & frame::fsiMask;
    const unsigned words = std::min<unsigned>(
        banks_.bankWords(), image_.classes().classWords(fsi));

    const int bank = acquireBank(frame_ptr, stackBank_, curLbank_);
    // Straight into the bank's storage: the load leaves it clean.
    Word *const data = banks_.dataPtr(bank);
    for (unsigned w = 0; w < words; ++w)
        data[w] = readMem(frame_ptr + w, AccessKind::FrameState);
    banks_.markClean(bank);
    banks_.setOwnerFsi(bank, fsi);
    stats_.bankLoadWords += words;
    return bank;
}

void
Machine::flushAllBanks()
{
    // Preserve the evaluation stack across the full flush.
    std::vector<Word> saved;
    saved.reserve(sp_);
    for (unsigned i = 0; i < sp_; ++i)
        saved.push_back(banks_.read(stackBank_,
                                    frame::varsOffset + i));

    for (unsigned b = 0; b < banks_.numBanks(); ++b) {
        if (banks_.isFree(b))
            continue;
        if (banks_.owner(b) != stackOwner)
            flushBank(b);
        banks_.free(b);
    }
    curLbank_ = -1;
    stackBank_ = banks_.assignFree(stackOwner);
    for (unsigned i = 0; i < saved.size(); ++i)
        banks_.write(stackBank_, frame::varsOffset + i, saved[i]);
}

void
Machine::dropCurrentBank()
{
    // §7.4 C1/C2 conservative policy: once a pointer to a local
    // exists, the frame is flagged and storage becomes the only copy.
    flushBank(curLbank_);
    banks_.free(curLbank_);
    curLbank_ = -1;
    if (!curFrameFlagged_) {
        ++stats_.flaggedFrames;
        curFrameFlagged_ = true;
        Word header = readMem(lf_ - 1, AccessKind::FrameState);
        header |= frame::flaggedFlag;
        writeMem(lf_ - 1, header, AccessKind::FrameState);
    }
}

bool
Machine::divertToBank(Addr addr, bool is_write, Word &value)
{
    // §7.4 C2: a storage reference into the frame region must check
    // the addresses shadowed by register banks and divert.
    if (!layout_.isFrameAddr(addr))
        return false;
    for (unsigned b = 0; b < banks_.numBanks(); ++b) {
        if (banks_.isFree(b) || banks_.owner(b) == stackOwner)
            continue;
        const Addr owner = banks_.owner(b);
        if (addr >= owner && addr < owner + banks_.bankWords()) {
            ++stats_.bankDiverts;
            stats_.cycles += config_.latency.regCycles;
            if (is_write)
                banks_.write(b, addr - owner, value);
            else
                value = banks_.read(b, addr - owner);
            return true;
        }
    }
    return false;
}

// ---------------------------------------------------------------------
// Frame allocation / release
// ---------------------------------------------------------------------

[[gnu::always_inline]] inline Machine::AllocResult
Machine::allocFrame(unsigned fsi)
{
    // §7.1: "a reasonable strategy is to make the smallest frame size
    // the 80 bytes just cited" — every small frame is standard-sized,
    // so it can recycle through the processor's stack of free frames.
    // (The paper notes the drawback: deep recursion can hold many
    // 80-byte frames with few words used.)
    if (banked() && fastFramesEnabled_ && fsi <= fastFsi_) {
        if (!fastFrames_.empty()) {
            // "allocation will be extremely fast; furthermore, it can
            // be done in parallel with the rest of an XFER operation."
            const Addr lf = fastFrames_.back();
            fastFrames_.pop_back();
            ++stats_.fastFrameAllocs;
            if (observer_ != nullptr)
                observer_->onFrameAlloc(fastFsi_, true, *this);
            return {lf, fastFsi_, true};
        }
        // Underflow: fall back to the AV heap, still standard-sized.
        ++stats_.slowFrameAllocs;
        const CountT refs0 = mem_.totalRefs();
        const Addr lf = heap_.alloc(fastFsi_);
        stats_.cycles +=
            config_.latency.memCycles * (mem_.totalRefs() - refs0);
        if (observer_ != nullptr)
            observer_->onFrameAlloc(fastFsi_, false, *this);
        return {lf, fastFsi_, false};
    }
    ++stats_.slowFrameAllocs;
    const CountT refs0 = mem_.totalRefs();
    const Addr lf = heap_.alloc(fsi);
    stats_.cycles +=
        config_.latency.memCycles * (mem_.totalRefs() - refs0);
    if (observer_ != nullptr)
        observer_->onFrameAlloc(fsi, false, *this);
    return {lf, fsi, false};
}

[[gnu::always_inline]] inline void
Machine::releaseFrame(Addr frame_ptr, int bank)
{
    // Fast path: the current frame's size class and retained flag are
    // register hints carried by the return stack, so a standard,
    // unretained frame goes back on the processor's free stack with
    // no storage references at all.
    if (banked() && fastFramesEnabled_ && curFrameFsiValid_ &&
        frame_ptr == lf_ && curFrameFsi_ == fastFsi_ &&
        !curFrameRetainedHint_ && !curFrameFlagged_ &&
        fastFrames_.size() < config_.fastFrameStackDepth) {
        fastFrames_.push_back(frame_ptr);
        ++stats_.fastFrameFrees;
        if (bank >= 0)
            banks_.free(bank); // contents die with the frame
        if (observer_ != nullptr)
            observer_->onFrameFree(fastFsi_, true, *this);
        return;
    }

    ++stats_.slowFrameFrees;
    const CountT refs0 = mem_.totalRefs();
    const bool freed = heap_.release(frame_ptr);
    stats_.cycles +=
        config_.latency.memCycles * (mem_.totalRefs() - refs0);
    if (bank >= 0) {
        if (!freed)
            flushBank(bank); // retained frame lives on in storage
        banks_.free(bank);
    }
    if (observer_ != nullptr) {
        // The slow path releases arbitrary frames; the size class is
        // only known when the register hint covers this frame.
        const unsigned fsi = curFrameFsiValid_ && frame_ptr == lf_
                                 ? curFrameFsi_
                                 : ~0u;
        observer_->onFrameFree(fsi, false, *this);
    }
}

[[gnu::always_inline]] inline CodeByteAddr
Machine::currentCodeBase()
{
    if (!codeBaseValid_) {
        // "the code base is recovered from the global frame" (§5.3).
        const Word seg = readMem(gf_, AccessKind::Table);
        codeBase_ = layout_.codeSegBase(seg);
        codeBaseValid_ = true;
    }
    return codeBase_;
}

[[gnu::always_inline]] inline void
Machine::saveCurrentPc()
{
    if (lf_ == nilAddr)
        return;
    const CodeByteAddr base = currentCodeBase();
    writeFrameWord(lf_, frame::savedPcOffset,
                   static_cast<Word>(pcAbs_ - base));
}

[[gnu::always_inline]] inline void
Machine::resumeFrame(Addr frame_ptr, XferKind kind)
{
    (void)kind;
    if (banked()) {
        int bank = banks_.bankOf(frame_ptr);
        if (bank < 0) {
            ++stats_.bankUnderflows;
            bank = loadBankFor(frame_ptr);
        }
        curLbank_ = bank;
        curFrameFlagged_ = bank < 0;
    }
    lf_ = frame_ptr;
    curFrameFsiValid_ = false;
    curFrameRetainedHint_ = false;
    curProcEntry_ = 0;

    gf_ = readFrameWord(frame_ptr, frame::globalFrameOffset);
    const Word seg = readMem(gf_, AccessKind::Table);
    codeBase_ = layout_.codeSegBase(seg);
    codeBaseValid_ = true;
    const Word rel = readFrameWord(frame_ptr, frame::savedPcOffset);
    pcAbs_ = codeBase_ + rel;
}

[[gnu::always_inline]] inline void
Machine::chargeLinkWalk(CountT table_reads, CountT code_bytes)
{
    stats_.cycles += config_.latency.memCycles * table_reads;
    mem_.chargeReads(AccessKind::Table, table_reads);
    mem_.chargeCodeBytes(code_bytes);
}

// ---------------------------------------------------------------------
// Descriptor resolution
// ---------------------------------------------------------------------

ProcTarget
Machine::resolveDescriptor(const Context &ctx)
{
    // Figure 1: descriptor -> GFT -> global frame -> entry vector.
    const Word gft_raw =
        readMem(layout_.gftAddr + ctx.env, AccessKind::Table);
    const GftEntry entry = unpackGftEntry(gft_raw, layout_);
    if (entry.gfAddr == nilAddr)
        fatal("XFER through an unbound GFT entry {}", ctx.env);

    ProcTarget target;
    target.gf = entry.gfAddr;
    const Word seg = readMem(target.gf, AccessKind::Table);
    target.codeBase = layout_.codeSegBase(seg);
    target.codeBaseValid = true;

    const unsigned ev_index = ctx.code + entry.bias * 32;
    const Word ev_offset = readMem(
        target.codeBase / wordBytes + ev_index, AccessKind::Table);

    // "This first byte gives the size of the procedure's frame."
    target.fsi = mem_.readByte(target.codeBase + ev_offset);
    target.entryPc = target.codeBase + ev_offset + 1;
    return target;
}

ProcTarget
Machine::resolveDirect(CodeByteAddr target_addr)
{
    // §6: "at p is stored the global frame address GF and the frame
    // size fsi, immediately followed by the first instruction." The
    // IFU reads these with the prefetch stream, so they are free.
    ProcTarget target;
    target.gf = (static_cast<Addr>(mem_.readByte(target_addr)) << 8) |
                mem_.readByte(target_addr + 1);
    target.fsi = (static_cast<unsigned>(
                      mem_.readByte(target_addr + 2))
                  << 8) |
                 mem_.readByte(target_addr + 3);
    target.codeBaseValid = false;
    target.entryPc = target_addr + 4;
    return target;
}

// ---------------------------------------------------------------------
// The transfers themselves
// ---------------------------------------------------------------------

void
Machine::callExternal(unsigned lv_index, CallSite *site)
{
    XferProbe probe(*this, XferKind::ExtCall);
    // "The context is retrieved from LV."
    const Word desc = readMem(gf_ - 1 - lv_index, AccessKind::Table);
    dispatchContext(desc, XferKind::ExtCall, false, site);
}

void
Machine::callLocal(unsigned ev_index, CallSite *site)
{
    XferProbe probe(*this, XferKind::LocalCall);
    // "This kind of call keeps the same environment and code base,
    // and has only one level of indirection."
    ProcTarget target;
    target.gf = gf_;
    // Stays a real (conditionally charged) read either way: whether
    // gf[0] must be fetched depends on live register state, not on
    // the cacheable (code base, EV index) -> (fsi, entry) mapping.
    target.codeBase = currentCodeBase();
    target.codeBaseValid = true;
    if (accel_ &&
        accel_->findLocal(target.codeBase, ev_index, target.fsi,
                          target.entryPc, site)) {
        chargeLinkWalk(1, 1); // the EV word read + the fsi byte
        finishCall(target, XferKind::LocalCall, false);
        return;
    }
    const Word ev_offset = readMem(
        target.codeBase / wordBytes + ev_index, AccessKind::Table);
    target.fsi = mem_.readByte(target.codeBase + ev_offset);
    target.entryPc = target.codeBase + ev_offset + 1;
    if (accel_)
        accel_->putLocal(target.codeBase, ev_index, target, site);
    finishCall(target, XferKind::LocalCall, false);
}

void
Machine::callDirect(CodeByteAddr target_addr, CallSite *site)
{
    XferProbe probe(*this, XferKind::DirectCall);
    if (accel_) {
        ProcTarget target;
        if (accel_->findDirect(target_addr, target, site)) {
            mem_.chargeCodeBytes(4); // the GF/fsi header bytes
            finishCall(target, XferKind::DirectCall, ifuEnabled());
            return;
        }
        const ProcTarget resolved = resolveDirect(target_addr);
        accel_->putDirect(target_addr, resolved, site);
        finishCall(resolved, XferKind::DirectCall, ifuEnabled());
        return;
    }
    const ProcTarget target = resolveDirect(target_addr);
    finishCall(target, XferKind::DirectCall, ifuEnabled());
}

void
Machine::callFat(CodeByteAddr target_addr, Addr gf, CallSite *site)
{
    XferProbe probe(*this, XferKind::FatCall);
    // §4: the descriptor was a literal in the instruction stream; only
    // the fsi byte comes from code, so that is all the cache holds.
    ProcTarget target;
    target.gf = gf;
    target.codeBaseValid = false;
    target.entryPc = target_addr + 1;
    if (accel_ && accel_->findFat(target_addr, target.fsi, site)) {
        mem_.chargeCodeBytes(1);
        finishCall(target, XferKind::FatCall, ifuEnabled());
        return;
    }
    target.fsi = mem_.readByte(target_addr);
    if (accel_)
        accel_->putFat(target_addr, target.fsi, site);
    finishCall(target, XferKind::FatCall, ifuEnabled());
}

void
Machine::callDescriptor(Word descriptor, XferKind kind)
{
    XferProbe probe(*this, kind);
    dispatchContext(descriptor, kind, false);
}

void
Machine::dispatchContext(Word ctx_word, XferKind kind, bool followable,
                         CallSite *site)
{
    const Context ctx = unpackContext(ctx_word, layout_);
    if (ctx.tag == Context::Tag::Proc) {
        // The memoizable Figure-1 walk. Keyed by the descriptor word
        // itself, so a program that rewrites an LV slot changes the
        // key, never the mapping; a hit replays the walk's exact
        // accounting (GFT word + gf[0] word + EV word, each a Table
        // read at memCycles, plus the fsi code byte).
        if (accel_) {
            ProcTarget target;
            if (accel_->findExt(ctx_word, target, site)) {
                chargeLinkWalk(3, 1);
            } else {
                target = resolveDescriptor(ctx);
                accel_->putExt(ctx_word, target, site);
            }
            finishCall(target, kind, followable);
            return;
        }
        finishCall(resolveDescriptor(ctx), kind, followable);
        return;
    }
    // F3: a frame context may be the destination of any XFER; the
    // discipline is chosen by the destination, not the caller.
    if (ctx.isNil()) {
        trap(6, "XFER to NIL context");
        return;
    }
    const Word ret_ctx = currentFrameContext();
    unusualXfer();
    saveCurrentPc();
    resumeFrame(ctx.framePtr, kind);
    returnCtx_ = ret_ctx;
    chargeRedirect();
}

void
Machine::finishCall(const ProcTarget &target, XferKind kind,
                    bool followable)
{
    const Word ret_ctx = currentFrameContext();

    const AllocResult alloc = allocFrame(target.fsi);
    const Addr new_lf = alloc.framePtr;

    // Guard: the argument record must fit the frame's variable space.
    const unsigned payload = image_.classes().classWords(alloc.fsi);
    if (sp_ > payload - frame::varsOffset) {
        trap(7, "argument record overflows the new frame");
        return;
    }

    const bool use_ret_stack =
        ifuEnabled() && callLike(kind) && lf_ != nilAddr;

    if (use_ret_stack) {
        // §6: the caller's PC and the callee's return link live in the
        // IFU return stack instead of storage. On overflow the oldest
        // entry is materialized into the frames to make room (the
        // whole-stack flush is reserved for unusual transfers).
        if (retStack_.full())
            spillOldestReturnEntry();
        retStack_.push({lf_, gf_, pcAbs_, codeBase_,
                        static_cast<std::int16_t>(curLbank_),
                        static_cast<std::uint8_t>(curFrameFsi_),
                        codeBaseValid_, curFrameFsiValid_,
                        curFrameRetainedHint_});
    } else if (lf_ != nilAddr) {
        saveCurrentPc();
    }

    // Register-bank renaming (§7.2, Figure 3): the stack bank becomes
    // the callee's frame bank, so the arguments are already in place.
    int new_bank = -1;
    if (banked()) {
        new_bank = stackBank_;
        banks_.rename(new_bank, new_lf);
        banks_.setOwnerFsi(new_bank, alloc.fsi);
        curLbank_ = new_bank;
        curFrameFlagged_ = false;
        stackBank_ = acquireBank(stackOwner, new_bank, -1);
        sp_ = 0;
    } else {
        // I1-I3: the argument record moves from the working registers
        // into the frame.
        for (unsigned i = 0; i < sp_; ++i)
            writeData(new_lf + frame::varsOffset + i, stack_[i]);
        sp_ = 0;
    }

    // The frame's bookkeeping words. With the return stack the return
    // link stays in registers until a flush materializes it.
    const Addr old_lf = lf_;
    lf_ = new_lf;
    if (new_bank >= 0) {
        // The callee's bank is the one just renamed to new_lf, so the
        // writeFrameWord() bank scan would find exactly new_bank;
        // route there directly with the same register-access cost.
        if (!use_ret_stack) {
            stats_.cycles += config_.latency.regCycles;
            banks_.writeOwned(new_bank, frame::returnLinkOffset,
                              ret_ctx);
        }
        stats_.cycles += config_.latency.regCycles;
        banks_.writeOwned(new_bank, frame::globalFrameOffset,
                          static_cast<Word>(target.gf));
    } else {
        if (!use_ret_stack)
            writeFrameWord(new_lf, frame::returnLinkOffset, ret_ctx);
        writeFrameWord(new_lf, frame::globalFrameOffset,
                       static_cast<Word>(target.gf));
    }
    (void)old_lf;

    curFrameFsi_ = alloc.fsi;
    curFrameFsiValid_ = true;
    curFrameRetainedHint_ = false;

    returnCtx_ = ret_ctx;
    gf_ = target.gf;
    codeBase_ = target.codeBase;
    codeBaseValid_ = target.codeBaseValid;
    pcAbs_ = target.entryPc;
    curProcEntry_ = target.entryPc;

    if (!followable)
        chargeRedirect();
}

void
Machine::doReturn()
{
    XferProbe probe(*this, XferKind::Return);

    if (lf_ == nilAddr) {
        trap(8, "RETURN with no current frame");
        return;
    }
    const Addr dying = lf_;

    if (ifuEnabled() && !retStack_.empty()) {
        // §6: "if the return stack is empty, proceed as in §5.
        // Otherwise start fetching instructions from the PC value on
        // the return stack, and restore the frame and global frame
        // registers from those values."
        const RetEntry entry = retStack_.pop();
        ++stats_.returnStackHits;

        releaseFrame(dying, banked() ? curLbank_ : -1);

        lf_ = entry.lf;
        gf_ = entry.gf;
        pcAbs_ = entry.pcAbs;
        codeBase_ = entry.codeBase;
        codeBaseValid_ = entry.codeBaseValid;
        curFrameFsi_ = entry.fsi;
        curFrameFsiValid_ = entry.fsiValid;
        curFrameRetainedHint_ = entry.retained;
        curFrameFlagged_ = false;

        if (banked()) {
            if (entry.lbank >= 0 && !banks_.isFree(entry.lbank) &&
                banks_.owner(entry.lbank) == entry.lf) {
                curLbank_ = entry.lbank;
            } else {
                ++stats_.bankUnderflows;
                curLbank_ = loadBankFor(entry.lf);
                curFrameFlagged_ = curLbank_ < 0;
            }
        }
        returnCtx_ = nilContext;
        // The caller's entry PC was not stacked; sampling profilers
        // fall back to pc()-based attribution until the next call.
        curProcEntry_ = 0;
        return; // followable: no redirect
    }

    ++stats_.returnStackMisses;

    // General path (§4/§5): pick up the return link, free the frame,
    // XFER to the link.
    const Word ret_link =
        readFrameWord(dying, frame::returnLinkOffset);
    const Context ctx = unpackContext(ret_link, layout_);
    if (ctx.tag == Context::Tag::Proc) {
        trap(9, "return link holds a procedure descriptor");
        return;
    }

    releaseFrame(dying, banked() ? curLbank_ : -1);
    lf_ = nilAddr;
    curLbank_ = -1;
    curFrameFsiValid_ = false;
    returnCtx_ = nilContext;

    if (ctx.isNil()) {
        // Returning out of the outermost context ends the run; the
        // results are on the stack.
        stopWith(StopReason::TopReturn, "top-level return");
        return;
    }

    resumeFrame(ctx.framePtr, XferKind::Return);
    chargeRedirect();
}

void
Machine::xferTo(Word ctx)
{
    XferProbe probe(*this, XferKind::Coroutine);
    unusualXfer();
    dispatchContext(ctx, XferKind::Coroutine, false);
}

void
Machine::xferKinded(Word ctx, XferKind kind)
{
    XferProbe probe(*this, kind);
    unusualXfer();
    dispatchContext(ctx, kind, false);
}

void
Machine::unusualXfer()
{
    if (ifuEnabled())
        flushReturnStack();
    if (sblocks_)
        sblocks_->flushReturns();
}

void
Machine::processSwitch()
{
    if (!scheduler_) {
        trap(10, "YIELD with no scheduler");
        return;
    }
    const Word next = scheduler_(*this);
    XferProbe probe(*this, XferKind::ProcSwitch);
    unusualXfer();
    if (banked())
        flushAllBanks(); // §7.1: process switch flushes all banks
    dispatchContext(next, XferKind::ProcSwitch, false);
}

void
Machine::resumeProcess(Word ctx)
{
    // A scheduler dispatch outside the interpreter loop: same XFER,
    // same fallback path as a YIELD-driven switch (§7.1: "a process
    // switch causes all the banks to be flushed").
    stop_ = StopReason::Running;
    result_ = RunResult();
    XferProbe probe(*this, XferKind::ProcSwitch);
    unusualXfer();
    if (banked())
        flushAllBanks();
    dispatchContext(ctx, XferKind::ProcSwitch, false);
}

void
Machine::trap(Word code, const std::string &message)
{
    // The trap hook fires here rather than on the XFER path: an
    // unhandled trap stops the run without ever constructing an
    // XferProbe, and observers should see it regardless.
    if (observer_ != nullptr)
        observer_->onTrap(code, *this);
    if (trapCtx_ == nilContext) {
        stopWith(StopReason::Error, message);
        return;
    }
    const Word handler = trapCtx_;
    if (sp_ < stackCapacity())
        push(code);
    xferKinded(handler, XferKind::Trap);
}

/**
 * Write one return-stack entry into the frames: the entry's frame
 * becomes the returnLink of its child, and the entry's PC goes into
 * the entry frame's PC component (§6: "the frame pointer LF goes into
 * the returnLink component of the next higher frame, and the PC goes
 * into the PC component of LF. The global frame pointer can be
 * discarded").
 */
void
Machine::materializeEntry(const RetEntry &entry, Addr child)
{
    if (child != nilAddr) {
        writeFrameWord(child, frame::returnLinkOffset,
                       packFrameContext(entry.lf, layout_));
    }
    CodeByteAddr base = entry.codeBase;
    if (!entry.codeBaseValid) {
        const Word seg = readMem(entry.gf, AccessKind::Table);
        base = layout_.codeSegBase(seg);
    }
    writeFrameWord(entry.lf, frame::savedPcOffset,
                   static_cast<Word>(entry.pcAbs - base));
}

void
Machine::flushReturnStack()
{
    if (retStack_.empty())
        return;
    ++stats_.returnStackFlushes;

    Addr child = lf_;
    while (!retStack_.empty()) {
        const RetEntry entry = retStack_.pop();
        ++stats_.returnStackFlushedEntries;
        materializeEntry(entry, child);
        child = entry.lf;
    }
}

void
Machine::spillOldestReturnEntry()
{
    if (retStack_.empty())
        return;
    ++stats_.returnStackSpills;
    const RetEntry oldest = retStack_.at(0);
    retStack_.dropOldest();
    // The child above the oldest entry: the next entry up, or the
    // current frame when the spilled entry was the only one.
    const Addr child = retStack_.empty() ? lf_ : retStack_.at(0).lf;
    materializeEntry(oldest, child);
}

// ---------------------------------------------------------------------
// Spawning suspended activations (the model's creation context)
// ---------------------------------------------------------------------

Word
Machine::spawn(const std::string &module_name,
               const std::string &proc_name, std::span<const Word> args)
{
    const PlacedModule &pm = image_.module(module_name);
    const int proc = pm.src->procIndex(proc_name);
    if (proc < 0)
        fatal("spawn: no procedure {} in {}", proc_name, module_name);
    const PlacedProc &pp = pm.procs[static_cast<unsigned>(proc)];
    const Addr gf = image_.gfAddr(module_name);

    const Addr lf = heap_.alloc(pp.fsi);
    mem_.poke(lf + frame::returnLinkOffset, nilContext);
    mem_.poke(lf + frame::globalFrameOffset, static_cast<Word>(gf));
    // Entry PC relative to the code base: the byte after the fsi byte.
    mem_.poke(lf + frame::savedPcOffset,
              static_cast<Word>(pp.evOffset + 1));
    for (unsigned i = 0; i < args.size(); ++i)
        mem_.poke(lf + frame::varsOffset + i, args[i]);
    return packFrameContext(lf, layout_);
}

} // namespace fpc
