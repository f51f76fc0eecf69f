/**
 * @file
 * The simulated processor: an interpreter for the FPC byte code with
 * pluggable realizations of the control-transfer model.
 *
 * One Machine executes one loaded image against one Memory. Which of
 * the paper's implementations it embodies is configuration:
 *
 *  - Impl::Simple (I1, §4): every transfer runs the general path;
 *    descriptors are inline literals (FCALL).
 *  - Impl::Mesa (I2, §5): EXTERNALCALL resolves through the four
 *    levels of indirection of Figure 1; frames come from the AV heap.
 *  - Impl::Ifu (I3, §6): adds DIRECTCALL/SHORTDIRECTCALL that the IFU
 *    follows like jumps, and the return stack that makes LIFO returns
 *    equally fast; unusual transfers flush it and fall back.
 *  - Impl::Banked (I4, §7): adds register banks shadowing frames, the
 *    stack-bank renaming that passes arguments for free (Figure 3),
 *    and the processor-held stack of free standard frames.
 *
 * The transfer entry points (callDescriptor, doReturn, xferTo,
 * processSwitch) are public so trace-driven experiments can exercise
 * the engines without interpreting code.
 */

#ifndef FPC_MACHINE_MACHINE_HH
#define FPC_MACHINE_MACHINE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "frames/frame_heap.hh"
#include "isa/decode.hh"
#include "machine/accel.hh"
#include "machine/banks.hh"
#include "machine/config.hh"
#include "memory/cache.hh"
#include "memory/memory.hh"
#include "program/loader.hh"
#include "stats/stats.hh"
#include "xfer/context.hh"

namespace fpc
{

/** Why run() stopped. */
enum class StopReason
{
    Running,   ///< not stopped
    Halted,    ///< HALT instruction
    TopReturn, ///< RETURN with a NIL return link
    Error,     ///< program error with no trap handler
    StepLimit  ///< maxSteps exhausted
};

const char *stopReasonName(StopReason reason);

/** Result of a run. */
struct RunResult
{
    StopReason reason = StopReason::Running;
    std::string message;
    std::uint64_t steps = 0;
};

/** Counters the machine maintains (see DESIGN.md §3). */
struct MachineStats
{
    static constexpr unsigned numXferKinds =
        static_cast<unsigned>(XferKind::NumKinds);

    // steps sits apart from cycles on purpose: the threaded loop
    // charges both at every block exit, and GCC merges two adjacent
    // counters bumped together into one 16-byte load and store, whose
    // load then stalls on the 8-byte store of cycles a transfer made
    // just before (see MemoryStats).
    Tick cycles = 0;

    /** Per-kind transfer counts and per-kind "jump-equivalent"
     *  transfers (no storage references, no IFU redirect). */
    std::array<CountT, numXferKinds> xferCount{};
    std::array<CountT, numXferKinds> xferFast{};
    /** Storage references and cycles per transfer, by kind. */
    std::array<stats::Distribution, numXferKinds> xferRefs{};
    std::array<stats::Distribution, numXferKinds> xferCycles{};

    CountT returnStackHits = 0;
    CountT returnStackMisses = 0;
    CountT returnStackFlushes = 0;
    CountT returnStackFlushedEntries = 0;
    CountT returnStackSpills = 0; ///< oldest entry evicted on overflow

    CountT bankOverflows = 0;  ///< evictions to make a bank free
    CountT bankUnderflows = 0; ///< XFER into a frame with no bank
    CountT bankFlushWords = 0;
    CountT bankLoadWords = 0;
    CountT bankDiverts = 0;    ///< §7.4 pointer references diverted
    CountT flaggedFrames = 0;  ///< §7.4 frames whose address was taken

    CountT fastFrameAllocs = 0;
    CountT slowFrameAllocs = 0;
    CountT fastFrameFrees = 0;
    CountT slowFrameFrees = 0;

    CountT localBankAccesses = 0;
    CountT localMemAccesses = 0;
    CountT globalAccesses = 0;

    /** Timeslice-driven (involuntary) process switches, a subset of
     *  the ProcSwitch transfer count. */
    CountT preemptions = 0;

    std::uint64_t steps = 0;

    std::array<CountT, 256> opCount{};
    std::array<CountT, 7> instLenCount{}; ///< index = bytes 1..6

    CountT calls() const;
    CountT returns() const;
    CountT totalXfers() const;
    double bankEventRate() const; ///< (over+underflows) / transfers
    double fastCallReturnRate() const;

    /** Fold another machine's counters in (multi-worker runtimes
     *  merge per-worker stats at join). */
    void merge(const MachineStats &other);
};

/**
 * One observed transfer, as delivered to an attached XferObserver
 * (the fpc_obs tracer and profiler implement the interface): which
 * XFER discipline ran, between which contexts, and what it cost.
 * Delivered after the transfer completes.
 */
struct XferRecord
{
    XferKind kind = XferKind::ExtCall;
    Word srcCtx = nilContext;  ///< source frame context (nil at start)
    Word dstCtx = nilContext;  ///< destination frame context
    Addr frame = nilAddr;      ///< destination local frame pointer
    CodeByteAddr pc = 0;       ///< destination PC (entry or resume)
    Tick start = 0;            ///< cycle count when the transfer began
    Tick end = 0;              ///< cycle count when it completed
    CountT refs = 0;           ///< storage references it consumed
    std::uint64_t step = 0;    ///< instructions executed so far
};

/** One activation on the machine's shadow call stack. */
struct ShadowFrame
{
    Addr frame = nilAddr; ///< its local frame
    CodeByteAddr pc = 0;  ///< entry PC (pushed by a call) or resume PC
                          ///< (the root a non-LIFO transfer left)
    Tick entered = 0;     ///< cycle count when that transfer completed
};

class Machine;

/**
 * Observation hook for transfers, frame allocation and traps; attach
 * with Machine::setObserver. Every callback receives the machine,
 * charges zero simulated cycles and must only read, so all simulated
 * numbers are byte-identical with any observer attached. With none
 * attached the machine pays one pointer null-check per transfer.
 *
 * While an observer is attached the machine keeps one shadow call
 * stack for it (Machine::shadowStack), with the one bracketing rule
 * of the §6 return stack: a call pushes the callee; a return pops it
 * if the stack is not empty; any other XFER (Coroutine, ProcSwitch,
 * Trap) empties the stack and re-roots it at the destination.
 * onXfer sees both ends of a LIFO transfer: a call's callee is
 * already pushed, a return's callee is popped, and a non-LIFO
 * transfer's flush applied, only after onXfer returns.
 *
 * Every observer is exact on both backends: each event is an XFER,
 * a frame allocation or release inside one, or a trap, and the
 * threaded loop runs all of them in member code after charging the
 * block through the instruction and spilling its register-held
 * deltas. So the absolute stamps (XferRecord::start/end/step,
 * cycles(), stats().steps, the memory counters, pc()) read exactly
 * what the eager loop reads; only the opcode/length histograms and
 * the host counters fold later, at the run's exit.
 */
class XferObserver
{
  public:
    virtual ~XferObserver() = default;
    /** After every completed transfer. */
    virtual void onXfer(const XferRecord &record,
                        const Machine &machine) = 0;
    /** After every frame allocation (fast = I4 fast-frame stack). */
    virtual void onFrameAlloc(unsigned, bool, const Machine &) {}
    /** After every frame release. The size class is ~0u when the
     *  slow release path cannot cheaply recover it. */
    virtual void onFrameFree(unsigned, bool, const Machine &) {}
    /** On every trap, including unhandled traps that stop the run
     *  (those never reach the XFER path). */
    virtual void onTrap(Word, const Machine &) {}
};

/**
 * Sampling hook clocked on simulated cycles; attach with
 * Machine::setSampler. onSample fires at the first boundary at or
 * past the deadline. An exact() sampler's boundaries are instruction
 * boundaries on both backends: the threaded loop enters a superblock
 * only when the deadline cannot fall inside it and takes plain steps
 * until the deadline has passed otherwise, so the sample points, the
 * machine each one reads and boundaryAnchorPc() are the eager loop's,
 * and any exported series is byte-identical across runs and backends.
 * A sampler that is not exact() fires at superblock exits on the
 * threaded loop, up to one superblock (≤ 64 instructions) of cycles
 * late, and costs no steps. Deferred opcode/length histograms and
 * accel counters are folded before the hook runs, so the machine it
 * reads is self-consistent. Like an observer, it reads only and
 * charges zero simulated cycles.
 */
class CycleSampler
{
  public:
    virtual ~CycleSampler() = default;
    virtual void onSample(const Machine &machine) = 0;
    virtual bool exact() const { return true; }
    /** The deadline after a sample taken at cycle count now: the
     *  first interval multiple past due that lies beyond now, so each
     *  interval fires once. A multiplexer returns its clients'
     *  earliest deadline instead. */
    virtual Tick
    nextDeadline(Tick due, Tick interval, Tick now) const
    {
        do
            due += interval;
        while (due <= now);
        return due;
    }
};

struct Superblock;
class SuperblockCache;

/** The processor. */
class Machine
{
  public:
    Machine(Memory &memory, const LoadedImage &image,
            const MachineConfig &config = MachineConfig());
    ~Machine();

    /** @name Program control. @{ */

    /** Reset processor state (not memory contents). */
    void reset();

    /** Begin executing Mod.proc with the given arguments. */
    void start(const std::string &module_name,
               const std::string &proc_name,
               std::span<const Word> args = {});

    /** Begin executing the given (procedure) context. */
    void startContext(Word descriptor, std::span<const Word> args = {});

    /** Run until halt/top-return/error or the step budget expires. */
    RunResult run();

    /** Execute one instruction. */
    void step();

    bool stopped() const { return stop_ != StopReason::Running; }
    const RunResult &result() const { return result_; }
    /** @} */

    /** @name Concurrency hooks. @{ */

    /** Create a suspended activation of Mod.proc: the model's
     *  "creation context" made tangible, for coroutines/processes. */
    Word spawn(const std::string &module_name,
               const std::string &proc_name,
               std::span<const Word> args = {});

    /** YIELD (and the timeslice trap) asks this hook for the next
     *  context to run. */
    using Scheduler = std::function<Word(Machine &)>;
    void setScheduler(Scheduler scheduler);

    /** Resume a suspended context as a process dispatch: clears the
     *  stop state and XFERs to ctx on the ProcSwitch path (return
     *  stack flushed, banks written back), exactly as if a scheduler
     *  had picked it. */
    void resumeProcess(Word ctx);

    /** True while the scheduler hook is being invoked from the
     *  timeslice trap rather than a voluntary YIELD. */
    bool preemptionInProgress() const { return preempting_; }

    /** Context that receives trap transfers (BRK, zero divide). */
    void setTrapContext(Word ctx) { trapCtx_ = ctx; }
    /** @} */

    /** @name Observation hooks (tracing/profiling, see src/obs/). @{ */

    /** Attach a transfer observer; null detaches. Attaching empties
     *  the shadow stack. The observer must outlive the machine or be
     *  detached before it dies. */
    void setObserver(XferObserver *observer);

    /** The shadow call stack, outermost first, kept while an observer
     *  is attached (see XferObserver for the bracketing rule). */
    const std::vector<ShadowFrame> &shadowStack() const
    {
        return shadow_;
    }

    /** Attach a sampler fired at the first boundary at or past each
     *  deadline, the first interval_cycles past the current cycle
     *  count; null detaches. */
    void setSampler(CycleSampler *sampler, Tick interval_cycles);

    /** Entry PC of the procedure the machine is currently executing,
     *  maintained as a shadow-of-shadow top-frame register: set on
     *  every call-like transfer, cleared (0) when a return or resume
     *  lands somewhere whose entry is not tracked. Cheap enough for
     *  the accelerated loops; sampling profilers attribute through it
     *  and fall back to pc() when it reads 0. */
    CodeByteAddr currentProcEntry() const { return curProcEntry_; }

    /** Entry of the code that expired the sampling budget, valid only
     *  inside a CycleSampler callback: the start of the instruction
     *  that crossed the deadline for an exact() sampler (on either
     *  backend) and on the eager loop, the superblock's entry when the
     *  threaded loop fired another sampler at a block exit. A
     *  transfer that crosses the deadline has already moved
     *  pc()/currentProcEntry() to its *destination*; attributing
     *  through the anchor instead charges the sample to the procedure
     *  that actually spent the cycles. */
    CodeByteAddr boundaryAnchorPc() const { return sampleAnchorPc_; }
    /** @} */

    /** @name Transfer primitives (also for trace-driven use).
     *
     * The call primitives take the calling superblock's target cache
     * when the threaded loop runs them; every other caller leaves it
     * null and resolves through the shared link caches. @{ */
    void callExternal(unsigned lv_index, CallSite *site = nullptr);
    void callLocal(unsigned ev_index, CallSite *site = nullptr);
    void callDirect(CodeByteAddr target, CallSite *site = nullptr);
    void callFat(CodeByteAddr target, Addr gf, CallSite *site = nullptr);
    void callDescriptor(Word descriptor, XferKind kind);
    void doReturn();
    void xferTo(Word ctx);      ///< the raw XFER primitive
    void processSwitch();       ///< YIELD path
    /** @} */

    /** @name Observation. @{ */
    const std::vector<Word> &output() const { return output_; }
    unsigned stackDepth() const { return sp_; }
    Word stackAt(unsigned index_from_bottom) const;
    Word popValue();
    void pushValue(Word value);

    Word returnContext() const { return returnCtx_; }
    Addr currentFrame() const { return lf_; }
    Addr currentGlobalFrame() const { return gf_; }
    Word currentFrameContext() const;

    /** Absolute PC (next instruction byte). */
    CodeByteAddr pc() const { return pcAbs_; }
    /** Start of the most recently decoded instruction — after an
     *  error stop, the faulting instruction (postmortem support). */
    CodeByteAddr lastInstStart() const { return instStart_; }

    const MachineStats &stats() const { return stats_; }
    Tick cycles() const { return stats_.cycles; }

    /** Host-acceleration counters (zeroed copy when acceleration is
     *  off). Host-side only; never part of the simulated results. */
    AccelStats accelStats() const
    {
        return accel_ ? accel_->stats : AccelStats();
    }
    bool accelEnabled() const { return accel_ != nullptr; }

    /** True when the threaded backend is configured on this machine,
     *  which is whenever acceleration is: run() then always runs the
     *  threaded loop. */
    bool threadedActive() const { return sblocks_ != nullptr; }

    /** @name Microarchitectural state, for experiments/diagnostics. @{ */
    const BankFile &banks() const { return banks_; }
    int currentLbank() const { return curLbank_; }
    int currentStackBank() const { return stackBank_; }
    unsigned returnStackDepth() const { return retStack_.size(); }
    unsigned fastFrameStackSize() const { return fastTop_; }
    /** Return-stack entry frames, innermost last (empty if none). */
    std::vector<Addr> returnStackFrames() const;
    /** @} */

    FrameHeap &heap() { return heap_; }
    const FrameHeap &heap() const { return heap_; }
    Memory &memory() { return mem_; }
    const Memory &memory() const { return mem_; }
    const Cache *dataCache() const { return cache_.get(); }
    const MachineConfig &config() const { return config_; }
    const LoadedImage &image() const { return image_; }

    /** Zero the machine's statistics, including the host-acceleration
     *  counters (memory/heap stats are separate; see
     *  Memory::resetStats and FrameHeap::resetStats). */
    void resetStats();

    /** Retain/flag a frame coherently with the bank metadata. */
    void setRetained(Addr frame_ptr, bool retained);

    /** Read a variable of an arbitrary frame (test support; routes
     *  through a live bank when one shadows the frame). */
    Word inspectVar(Addr frame_ptr, unsigned index) const;
    /** @} */

  private:
    friend class TransferTestPeer;

    // -- cost accounting ---------------------------------------------
    /** Where the storage references and cycles of an access go; each
     *  accessor below takes one, or charges live without. LiveCharge
     *  charges every reference as it is made. HeldCharge
     *  (transfers.cc) holds a transfer's references and cycles in
     *  locals and adds each counter once, when the transfer ends or
     *  unwinds: the threaded loop's call and return plans run the
     *  transfer bodies with it. */
    struct LiveCharge;
    struct HeldCharge;
    template <class C> Word readMem(C &c, Addr addr, AccessKind kind);
    template <class C>
    void writeMem(C &c, Addr addr, Word value, AccessKind kind);
    template <class C> Word readData(C &c, Addr addr);
    template <class C> void writeData(C &c, Addr addr, Word value);
    template <class C> void chargeRedirect(C &c);
    Word readMem(Addr addr, AccessKind kind);
    void writeMem(Addr addr, Word value, AccessKind kind);
    Word readData(Addr addr);
    void writeData(Addr addr, Word value);
    std::uint8_t fetchCodeByte(unsigned offset_from_pc);

    // -- frame word routing (bank or storage) ------------------------
    template <class C>
    Word readFrameWord(C &c, Addr frame_ptr, unsigned offset);
    template <class C>
    void writeFrameWord(C &c, Addr frame_ptr, unsigned offset, Word value);
    Word readFrameWord(Addr frame_ptr, unsigned offset);
    void writeFrameWord(Addr frame_ptr, unsigned offset, Word value);

    // -- locals / globals / stack ------------------------------------
    Word readVar(unsigned index);
    void writeVar(unsigned index, Word value);
    Word readGlobal(unsigned index);
    void writeGlobal(unsigned index, Word value);
    void push(Word value);
    Word pop();
    unsigned stackCapacity() const;

    // -- banks (I4) ---------------------------------------------------
    bool banked() const { return config_.impl == Impl::Banked; }
    bool ifuEnabled() const
    {
        return config_.impl == Impl::Ifu || config_.impl == Impl::Banked;
    }
    int acquireBank(Addr new_owner, int pinned_a, int pinned_b);
    void flushBank(int bank);
    int loadBankFor(Addr frame_ptr);
    void flushAllBanks();
    void dropCurrentBank(); ///< §7.4: flush + release, frame flagged
    bool divertToBank(Addr addr, bool is_write, Word &value);

    // -- transfers (implemented in transfers.cc) ----------------------
    struct RetEntry;

    /** Owner tag of the bank that holds the evaluation stack (I4). */
    static constexpr Addr stackOwner = 0xFFFFFFFFu;

    ProcTarget resolveDescriptor(const Context &ctx);
    ProcTarget resolveDirect(CodeByteAddr target);
    void dispatchContext(Word ctx, XferKind kind, bool followable,
                         CallSite *site = nullptr);
    void xferKinded(Word ctx, XferKind kind);
    /** Any XFER besides a simple call or return (§6): flush the IFU
     *  return stack and the threaded loop's host return stack. */
    void unusualXfer();
    /** The one body of every procedure call once its target is
     *  resolved: frame, argument record, return link, registers. The
     *  call primitives and the threaded loop's call plans both run
     *  it. */
    template <class C>
    void finishCall(C &c, const ProcTarget &target, XferKind kind,
                    bool followable);
    /** @name Resolved-site call bodies: what a call costs once its
     *  link walk is memoized — the walk's replayed charge, then
     *  finishCall. The call primitives run them on a link-cache hit,
     *  the threaded loop's call plans on every planned call. @{ */
    template <class C>
    void fatCallResolved(C &c, CodeByteAddr target_addr, Addr gf,
                         unsigned fsi);
    template <class C>
    void localCallResolved(C &c, unsigned fsi, CodeByteAddr entry_pc);
    template <class C>
    void directCallResolved(C &c, const ProcTarget &target);
    /** @} */
    /** @name The threaded loop's call and return plans: the transfer
     *  of a call whose site resolved, or of a return the IFU return
     *  stack (I3/I4) or the return link (I1/I2) serves, measured as
     *  the primitive measures it, with no instruction dispatch or link
     *  lookup in front. Out of line, so the loop's own code stays what
     *  its straight-line handlers need. plannedReturn expects a
     *  current frame and, on I3/I4, a non-empty return stack. @{ */
    void plannedFatCall(CodeByteAddr target_addr, Addr gf, unsigned fsi);
    void plannedLocalCall(unsigned fsi, CodeByteAddr entry_pc);
    void plannedDirectCall(const ProcTarget &target);
    void plannedReturn();
    /** @} */
    /** @name The two return bodies, run by doReturn and by the return
     *  plan. Both expect a current frame. @{ */
    /** §6: pop the IFU return stack (non-empty) and resume its entry. */
    template <class C> void returnThroughRing(C &c);
    /** §4/§5: read the return link, free the frame, XFER to the link. */
    template <class C> void returnThroughLink(C &c);
    /** @} */

    struct AllocResult
    {
        Addr framePtr;
        unsigned fsi;
        bool fast;
    };
    template <class C> AllocResult allocFrame(C &c, unsigned fsi);
    template <class C> void releaseFrame(C &c, Addr frame_ptr, int bank);
    template <class C> void resumeFrame(C &c, Addr frame_ptr);
    void flushReturnStack();
    void spillOldestReturnEntry();
    void materializeEntry(const RetEntry &entry, Addr child);
    template <class C> void saveCurrentPc(C &c);
    /** Current code base; reads gf[0] if not cached in a register. */
    template <class C> CodeByteAddr currentCodeBase(C &c);
    void trap(Word code, const std::string &message);

    struct XferProbe;
    /** Deliver a completed transfer to the observer, bracketing the
     *  shadow stack around it (see XferObserver). */
    void observeXfer(const XferRecord &record);
    /** Fold the threaded loop's deferred per-kind XFER samples into
     *  MachineStats::xferRefs/xferCycles (see XferSums). */
    void foldXferSums();

    // -- interpreter ---------------------------------------------------
    /** The one definition of every instruction, run by the eager
     *  loop and by the threaded loop's slow paths and terminals. A
     *  call reaches its target through `site` when one is given
     *  (the threaded loop passes its block's call-site cache). */
    void execute(const isa::Inst &inst, CallSite *site = nullptr);
    /** Decode and execute one instruction, without the stop check /
     *  epoch sync / preemption poll / sampler check that step() wraps
     *  around it. */
    void stepCore();
    /** The threaded-code superblock loop (threaded.cc): computed-goto
     *  dispatch with block-fused accounting, and step() wherever a
     *  boundary event (an exact sampler's deadline, the timeslice, the
     *  step budget) could fall inside a block. Runs until stop or the
     *  step budget expires; steps counts completed instructions and
     *  stays correct when a handler throws (run()'s catch reads it).
     *  The Banked parameter folds the I4 bank checks out of the
     *  inlined stack/local accessors at compile time. */
    template <bool Banked>
    void threadedLoopT(std::uint64_t &steps);
    /** Replay the accounting of a memoized link walk: n Table-kind
     *  word reads (each costing memCycles) plus n code-byte fetches. */
    template <class C>
    void chargeLinkWalk(C &c, CountT table_reads, CountT code_bytes);
    /** Fire the sampler: fold any deferred accounting so the machine
     *  is self-consistent, deliver the sample, and move the deadline
     *  past the current cycle count. Out of line — runs at most once
     *  per interval. */
    void fireSample();
    void maybePreempt();
    /** ALU and compare ops (OpClass::Arith and Compare). */
    void execArith(isa::Op op);
    void stopWith(StopReason reason, std::string message);

    // -- state ---------------------------------------------------------
    Memory &mem_;
    const LoadedImage &image_;
    MachineConfig config_;
    SystemLayout layout_;
    FrameHeap heap_;
    BankFile banks_;
    std::unique_ptr<Cache> cache_;
    std::unique_ptr<Accel> accel_;
    std::unique_ptr<SuperblockCache> sblocks_;

    // processor registers
    Addr lf_ = nilAddr;            ///< local frame pointer
    Addr gf_ = nilAddr;            ///< global frame pointer
    CodeByteAddr pcAbs_ = 0;       ///< absolute PC (byte address)
    CodeByteAddr codeBase_ = 0;    ///< cached code base, when valid
    bool codeBaseValid_ = false;
    CodeByteAddr instStart_ = 0;   ///< start of the current instruction
    Word returnCtx_ = nilContext;  ///< the returnContext global (§3)
    std::array<Word, 16> stack_{}; ///< eval stack (I1-I3 registers)
    /** Stack capacity for the configured mode, fixed at construction
     *  (bank words minus the vars offset when banked). */
    unsigned stackCap_ = 0;
    unsigned sp_ = 0;
    bool xferRedirected_ = false;

    /** Register hints about the current frame (restored via the
     *  return stack), enabling the I4 zero-reference free path. */
    unsigned curFrameFsi_ = 0;
    bool curFrameFsiValid_ = false;
    bool curFrameRetainedHint_ = false;

    // I3/I4 IFU return stack
    struct RetEntry
    {
        Addr lf;
        Addr gf;
        CodeByteAddr pcAbs;
        CodeByteAddr codeBase;
        std::int16_t lbank;
        std::uint8_t fsi;
        bool codeBaseValid;
        bool fsiValid;
        bool retained;
    };
    /** The return stack as a fixed ring of returnStackDepth entries
     *  (one slot when the depth is 0, which still holds the newest
     *  call until the next one spills it): push, pop and the spill of
     *  the oldest entry are each O(1) and never allocate. */
    class ReturnRing
    {
      public:
        void
        init(unsigned depth)
        {
            depth_ = depth;
            slots_.assign(std::bit_ceil(std::max(1u, depth)), RetEntry{});
            mask_ = static_cast<unsigned>(slots_.size()) - 1;
            clear();
        }
        unsigned size() const { return n_; }
        [[gnu::always_inline]] bool empty() const { return n_ == 0; }
        [[gnu::always_inline]] bool full() const { return n_ >= depth_; }
        /** The slot of a new newest entry, for the caller to fill in
         *  place (a whole-entry copy of fields just written one by one
         *  stalls on store forwarding). */
        [[gnu::always_inline]] RetEntry &
        push()
        {
            return slots_[(head_ + n_++) & mask_];
        }
        /** The newest entry, removed; valid until the next push. */
        [[gnu::always_inline]] const RetEntry &
        pop()
        {
            return slots_[(head_ + --n_) & mask_];
        }
        /** Entry i counted from the oldest. */
        const RetEntry &at(unsigned i) const
        {
            return slots_[(head_ + i) & mask_];
        }
        void
        dropOldest()
        {
            head_ = (head_ + 1) & mask_;
            --n_;
        }
        void
        clear()
        {
            head_ = 0;
            n_ = 0;
        }

      private:
        std::vector<RetEntry> slots_;
        unsigned mask_ = 0;
        unsigned depth_ = 0;
        unsigned head_ = 0;
        unsigned n_ = 0;
    };
    ReturnRing retStack_;

    // I4 bank state
    int curLbank_ = -1;
    int stackBank_ = -1;
    bool curFrameFlagged_ = false;

    // I4 fast frame stack: fastFrameStackDepth slots, sized once at
    // construction, of which the first fastTop_ hold free frames.
    std::vector<Addr> fastFrames_;
    unsigned fastTop_ = 0;
    unsigned fastFsi_ = 0;
    bool fastFramesEnabled_ = false;

    Scheduler scheduler_;
    Word trapCtx_ = nilContext;
    /** The observer and its shadow stack. */
    XferObserver *observer_ = nullptr;
    std::vector<ShadowFrame> shadow_;
    CycleSampler *sampler_ = nullptr;
    Tick sampleInterval_ = 0;
    Tick nextSampleAt_ = 0;
    /** See boundaryAnchorPc(); set by both loops just before
     *  fireSample, 0 everywhere else. */
    CodeByteAddr sampleAnchorPc_ = 0;
    /** Shadow-of-shadow top-frame register: entry PC of the procedure
     *  currently executing (0 when unknown, e.g. after a return). */
    CodeByteAddr curProcEntry_ = 0;

    // timeslice preemption
    std::uint64_t sliceLeft_ = 0;
    bool switchPending_ = false;
    bool preempting_ = false;

    /** Per-kind XFER samples as integer sums, kept while the threaded
     *  loop runs without an observer (xferDeferred_) and folded into
     *  the xferRefs/xferCycles distributions at every loop exit and
     *  boundary sample. A run of identical samples — the common case:
     *  one call site's transfers cost the same every time — costs one
     *  compare and one count until it ends. Exact: each sample is a
     *  small integer, so the sums stay far below 2^53, where doubles
     *  add exactly. */
    struct XferSums
    {
        CountT runRefs = 0, runCycles = 0, run = 0;
        CountT n = 0;
        CountT refs = 0, refsSq = 0, refsMin = ~CountT{0}, refsMax = 0;
        CountT cycles = 0, cyclesSq = 0, cyclesMin = ~CountT{0},
               cyclesMax = 0;

        [[gnu::always_inline]] void
        add(CountT r, CountT c)
        {
            if (r == runRefs && c == runCycles) [[likely]] {
                ++run;
                return;
            }
            endRun();
            runRefs = r;
            runCycles = c;
            run = 1;
        }
        /** Move the pending run into the sums. */
        void
        endRun()
        {
            n += run;
            refs += run * runRefs;
            refsSq += run * runRefs * runRefs;
            cycles += run * runCycles;
            cyclesSq += run * runCycles * runCycles;
            if (run != 0) {
                refsMin = std::min(refsMin, runRefs);
                refsMax = std::max(refsMax, runRefs);
                cyclesMin = std::min(cyclesMin, runCycles);
                cyclesMax = std::max(cyclesMax, runCycles);
            }
            run = 0;
        }
    };
    std::array<XferSums, MachineStats::numXferKinds> xferSums_{};
    bool xferDeferred_ = false;

    RunResult result_;
    StopReason stop_ = StopReason::Halted;
    MachineStats stats_;
    std::vector<Word> output_;
};

// ---------------------------------------------------------------------
// ALU and compare results, inline: execArith and the threaded loop's
// binary handlers share this one definition, and a constant op folds
// to its one case.
// ---------------------------------------------------------------------

/** Two-operand ALU or compare result (a compare yields 1 or 0);
 *  reports division by zero instead of dividing, so every caller
 *  traps identically. */
[[gnu::always_inline]] inline Word
binaryResult(isa::Op op, Word a, Word b, bool &div_zero)
{
    using isa::Op;
    const auto sa = static_cast<SWord>(a);
    const auto sb = static_cast<SWord>(b);
    switch (op) {
      case Op::ADD: return static_cast<Word>(a + b);
      case Op::SUB: return static_cast<Word>(a - b);
      case Op::MUL:
        return static_cast<Word>(static_cast<SDWord>(sa) * sb);
      case Op::DIV:
      case Op::MOD:
        if (b == 0) {
            div_zero = true;
            return 0;
        }
        return static_cast<Word>(op == Op::DIV ? sa / sb : sa % sb);
      case Op::AND: return static_cast<Word>(a & b);
      case Op::IOR: return static_cast<Word>(a | b);
      case Op::XOR: return static_cast<Word>(a ^ b);
      case Op::SHL: return static_cast<Word>(b >= 16 ? 0 : a << b);
      case Op::SHR: return static_cast<Word>(b >= 16 ? 0 : a >> b);
      case Op::LT: return sa < sb ? 1 : 0;
      case Op::LE: return sa <= sb ? 1 : 0;
      case Op::EQ: return sa == sb ? 1 : 0;
      case Op::NE: return sa != sb ? 1 : 0;
      case Op::GE: return sa >= sb ? 1 : 0;
      case Op::GT: return sa > sb ? 1 : 0;
      default: panic("binaryResult: bad op");
    }
}

// ---------------------------------------------------------------------
// Storage and frame-word accessors, inline: every transfer makes
// several of these, from machine.cc, transfers.cc and threaded.cc.
// ---------------------------------------------------------------------

/** The live charge: every reference and cycle lands in the counters
 *  as it is made. Memory-shaped (read/write), so FrameHeap charges
 *  through it too. */
struct Machine::LiveCharge
{
    Machine &m;

    [[gnu::always_inline]] Word
    read(Addr addr, AccessKind kind)
    {
        return m.mem_.read(addr, kind);
    }
    [[gnu::always_inline]] void
    write(Addr addr, Word value, AccessKind kind)
    {
        m.mem_.write(addr, value, kind);
    }
    [[gnu::always_inline]] void
    chargeReads(AccessKind kind, CountT n)
    {
        m.mem_.chargeReads(kind, n);
    }
    [[gnu::always_inline]] void cycles(Tick n) { m.stats_.cycles += n; }
    /** Storage references so far, charged or held. */
    [[gnu::always_inline]] CountT refs() const { return m.mem_.totalRefs(); }
};

template <class C>
[[gnu::always_inline]] inline Word
Machine::readMem(C &c, Addr addr, AccessKind kind)
{
    c.cycles(config_.latency.memCycles);
    return c.read(addr, kind);
}

template <class C>
[[gnu::always_inline]] inline void
Machine::writeMem(C &c, Addr addr, Word value, AccessKind kind)
{
    c.cycles(config_.latency.memCycles);
    c.write(addr, value, kind);
}

template <class C>
[[gnu::always_inline]] inline Word
Machine::readData(C &c, Addr addr)
{
    c.cycles(cache_ ? cache_->access(addr, false)
                    : config_.latency.memCycles);
    return c.read(addr, AccessKind::Data);
}

template <class C>
[[gnu::always_inline]] inline void
Machine::writeData(C &c, Addr addr, Word value)
{
    // A program store into the GFT or a global frame's code-base word
    // changes what a memoized link walk would resolve to; drop the
    // link caches. One compare for the common case: every frame/local
    // store lands at or above globalEnd and skips the map lookup.
    if (accel_ && addr < layout_.globalEnd && accel_->linkSensitive(addr))
        accel_->flushLinks();
    c.cycles(cache_ ? cache_->access(addr, true)
                    : config_.latency.memCycles);
    c.write(addr, value, AccessKind::Data);
}

template <class C>
[[gnu::always_inline]] inline void
Machine::chargeRedirect(C &c)
{
    c.cycles(config_.latency.redirectCycles);
    xferRedirected_ = true;
}

// Frame word routing: register bank when one shadows the frame.

template <class C>
[[gnu::always_inline]] inline Word
Machine::readFrameWord(C &c, Addr frame_ptr, unsigned offset)
{
    if (banked() && offset < banks_.bankWords()) {
        const int bank = banks_.bankOf(frame_ptr);
        if (bank >= 0) {
            c.cycles(config_.latency.regCycles);
            return banks_.read(bank, offset);
        }
    }
    if (offset >= frame::varsOffset)
        return readData(c, frame_ptr + offset);
    return readMem(c, frame_ptr + offset, AccessKind::FrameState);
}

template <class C>
[[gnu::always_inline]] inline void
Machine::writeFrameWord(C &c, Addr frame_ptr, unsigned offset,
                        Word value)
{
    if (banked() && offset < banks_.bankWords()) {
        const int bank = banks_.bankOf(frame_ptr);
        if (bank >= 0) {
            c.cycles(config_.latency.regCycles);
            banks_.write(bank, offset, value);
            return;
        }
    }
    if (offset >= frame::varsOffset)
        writeData(c, frame_ptr + offset, value);
    else
        writeMem(c, frame_ptr + offset, value, AccessKind::FrameState);
}

[[gnu::always_inline]] inline Word
Machine::readMem(Addr addr, AccessKind kind)
{
    LiveCharge c{*this};
    return readMem(c, addr, kind);
}

[[gnu::always_inline]] inline void
Machine::writeMem(Addr addr, Word value, AccessKind kind)
{
    LiveCharge c{*this};
    writeMem(c, addr, value, kind);
}

[[gnu::always_inline]] inline Word
Machine::readData(Addr addr)
{
    LiveCharge c{*this};
    return readData(c, addr);
}

[[gnu::always_inline]] inline void
Machine::writeData(Addr addr, Word value)
{
    LiveCharge c{*this};
    writeData(c, addr, value);
}

[[gnu::always_inline]] inline Word
Machine::readFrameWord(Addr frame_ptr, unsigned offset)
{
    LiveCharge c{*this};
    return readFrameWord(c, frame_ptr, offset);
}

[[gnu::always_inline]] inline void
Machine::writeFrameWord(Addr frame_ptr, unsigned offset, Word value)
{
    LiveCharge c{*this};
    writeFrameWord(c, frame_ptr, offset, value);
}

[[gnu::always_inline]] inline Word
Machine::currentFrameContext() const
{
    return lf_ == nilAddr ? nilContext
                          : packFrameContext(lf_, layout_);
}

} // namespace fpc

#endif // FPC_MACHINE_MACHINE_HH
