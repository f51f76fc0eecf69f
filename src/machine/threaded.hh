/**
 * @file
 * Threaded-code host backend: superblocks over the decoded stream.
 *
 * The paper's arc removes per-call work (I3's IFU follows DIRECTCALL
 * like a jump). On the host, the eager loop pays per-step decode,
 * dispatch through a central switch and per-instruction accounting.
 * This backend compiles all three away:
 *
 *  - each decoded instruction carries a direct handler address
 *    (a GNU computed-goto label), so dispatch is one indirect jump
 *    from the end of one handler straight into the next — a BTB entry
 *    per handler instead of one mispredicted central switch;
 *  - straight-line runs are grouped into **superblocks** — basic
 *    blocks ending at an XFER, branch, or trap-prone terminal — with
 *    fused accounting: one steps/cycles/code-byte charge per block,
 *    replaying exactly what the eager loop would have charged per
 *    step, so every simulated number stays bit-identical;
 *  - an XFER at a block exit chains to the successor block through an
 *    inline pointer the way I3's IFU follows a DIRECTCALL: a chain
 *    hit re-enters the next block without touching the cache index;
 *  - a taken forward branch (predicted not taken, so a side exit)
 *    re-enters through a second inline pointer, Superblock::side,
 *    keyed by the branch target;
 *  - a block that ends in a call keeps the call's resolved target in
 *    a call-site cache (Superblock::site). DIRECTCALL, SHORTDIRECTCALL
 *    and FCALL entries live as long as the block (one code epoch);
 *    EFC and LFC entries also die at Accel::flushLinks;
 *  - **call plans**: FCALL, LFC and DFC/SDFC end their blocks in their
 *    own terminal handlers. Once the site holds a live resolution and
 *    no observer is attached, the handler runs the call primitive's
 *    resolved-site body directly (Machine::plannedDirectCall and its
 *    siblings, transfers.cc): the same transfer body and XferProbe,
 *    with the storage references and cycles held in registers and
 *    charged once. The callee block is then entered through the chain
 *    pointer. Any other call goes through execute(), which fills the
 *    site;
 *  - **return plans**: a RET that the IFU return stack (I3/I4, not
 *    empty) or the return link (I1/I2) serves runs Machine::
 *    plannedReturn the same way. Returns are then predicted the way
 *    §6's return stack predicts them: call exits push the calling
 *    block on a host return stack, a RET pops it, and the loop enters
 *    the block last seen at that caller's return PC
 *    (Superblock::retSucc), before the returning block's own chain
 *    pointer, if it starts exactly where the return landed. Unusual
 *    XFERs and every cache flush empty the stack.
 *
 * The contract is the acceleration contract (machine/accel.hh): all
 * simulated numbers are bit-identical with the backend off or
 * threaded. Every run takes this loop. Observers and scheduler hooks
 * see exact stamps: every event they see is raised by member code (a
 * block terminal or h_slow), which runs only after the block is
 * charged through its instruction and the register-held deltas are
 * spilled. Boundary events the eager loop raises between two
 * instructions — an exact sampler's deadline (machine.hh), the
 * timeslice, the step budget — are kept out of blocks: the loop
 * enters a block only when none can fall inside it, and takes plain
 * eager steps (Machine::step) until the event has passed otherwise.
 * Other samplers fire at block exits. Host counters (AccelStats) may
 * differ across backends by design.
 */

#ifndef FPC_MACHINE_THREADED_HH
#define FPC_MACHINE_THREADED_HH

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "machine/accel.hh"
#include "machine/machine.hh"

namespace fpc
{

/** One threaded instruction: the decoded fields the handlers consume,
 *  flattened next to the direct handler address so a block executes
 *  out of one sequential array. */
struct TInst
{
    const void *handler = nullptr; ///< computed-goto label
    CodeByteAddr start = 0;        ///< absolute PC of this instruction
    CodeByteAddr next = 0;         ///< start + length
    std::int32_t operand = 0;
    std::int32_t operand2 = 0;
    /** Cumulative code bytes of the block through this instruction —
     *  the prefix charge when a trap exits the block early. */
    std::uint32_t cumBytes = 0;
    std::uint8_t op = 0;     ///< raw opcode (opCount accounting)
    std::uint8_t length = 0; ///< encoded length (instLenCount)
};
static_assert(sizeof(TInst) == 32);

/**
 * A superblock: a straight-line decoded run ending at a control
 * transfer (or at the length cap, where a BlockEnd sentinel falls
 * through to the next block). Immutable once built; the accounting
 * totals and sparse per-opcode deltas replay the eager loop's exact
 * per-step charges at block granularity.
 */
struct Superblock
{
    CodeByteAddr entry = 0;
    std::uint32_t n = 0;          ///< executable instructions
    std::vector<TInst> insts;     ///< n + 1 (BlockEnd sentinel last)
    /** Sparse accounting deltas for one full execution. */
    std::vector<std::pair<std::uint8_t, std::uint32_t>> opDeltas;
    std::vector<std::pair<std::uint8_t, std::uint32_t>> lenDeltas;
    /** Superinstructions fused at build time (compare+branch and
     *  load-pair peepholes); host-side accounting only. */
    std::uint32_t fusedPairs = 0;

    /** Full executions not yet folded into MachineStats. The
     *  opCount/instLenCount/AccelStats charges defer here (nothing
     *  reads them mid-run); the loop's register-held counters (data
     *  reference counts and their cycles, local-bank accesses) defer
     *  across blocks too, because every mid-run reader is delta-based
     *  — XFER probes and heap/link trackers sample differences of the
     *  counters entirely within member code, where the pending deltas
     *  are constant and cancel — while the absolute readers are
     *  observers and scheduler hooks, for which member code spills the
     *  deltas first, and samplers, which fire only between blocks,
     *  after the fold. Only the bank dirty bits fold at every
     *  slow-path entry: transfers read dirty masks directly. */
    std::uint64_t execPending = 0;
    /** Early exits not yet folded, by length: exitPending[k - 1]
     *  counts side exits (taken forward branches, traps, stops) after
     *  the block's first k instructions (empty until the first one).
     *  Their opcode/length histograms and predecode hits defer with
     *  execPending, so an exit costs one count instead of a walk over
     *  its prefix. */
    std::vector<std::uint64_t> exitPending;
    bool exitsPending = false;

    /** Inline successor chain (the IFU-follows-DIRECTCALL idiom at
     *  block granularity): the block most recently entered from this
     *  block's exit, keyed by the exit PC it was entered at. Valid
     *  until the cache flushes — evicted blocks stay alive in the
     *  arena precisely so chains never dangle within an epoch. */
    Superblock *chain = nullptr;
    CodeByteAddr chainPc = ~0u;
    /** Side link: the block most recently entered at a taken forward
     *  branch of this block (BTFN predicts those not taken, so they
     *  side-exit), keyed by the branch target. Same lifetime as the
     *  chain. */
    Superblock *side = nullptr;
    CodeByteAddr sidePc = ~0u;

    /** Call-site target cache for the call that ends this block (a
     *  block ends in at most one XFER). The callee's block needs no
     *  field of its own: a call always exits to its callee's entry,
     *  so the chain pointer above already holds it. */
    CallSite site;
    /** Host return prediction: the block last entered at this block's
     *  return PC (the fall-through of its terminal call), followed
     *  when a RET pops this block off the host return stack and the
     *  block's entry equals the PC the return produced. */
    Superblock *retSucc = nullptr;
};

/**
 * Entry-PC-indexed cache of superblocks. Direct-mapped table over an
 * owning arena: table eviction forgets the index entry only, so chain
 * pointers into evicted blocks stay valid until the next full flush
 * (code-epoch move or arena cap).
 */
class SuperblockCache
{
  public:
    SuperblockCache(unsigned entries, std::uint64_t code_epoch);

    /** The block whose entry is pc, or null. No counters: the loop
     *  accounts executions at block granularity. */
    Superblock *
    find(CodeByteAddr pc)
    {
        Superblock *b = table_[slot(pc)];
        return (b != nullptr && b->entry == pc) ? b : nullptr;
    }

    /** Take ownership and index the block. Returns the raw pointer,
     *  valid until the next flushAll. */
    Superblock *insert(std::unique_ptr<Superblock> block);

    /** Flush everything if the memory's code epoch moved. Returns
     *  true when a flush happened (chain pointers held by the caller
     *  are dead). Pending accounting folds into stats first. Inline
     *  for the common no-move case: this runs every loop iteration. */
    bool
    sync(std::uint64_t code_epoch, MachineStats &stats,
         AccelStats &astats)
    {
        if (code_epoch == seenEpoch_) [[likely]]
            return false;
        seenEpoch_ = code_epoch;
        flushAll(stats, astats);
        return true;
    }

    /** Arena saturation: the loop flushes between blocks, never
     *  mid-block, so the cap can be checked lazily. */
    bool overLimit() const { return arena_.size() >= maxBlocks; }

    /** Drop all blocks (deferred accounting folds into stats first)
     *  and the host return stack with them. */
    void flushAll(MachineStats &stats, AccelStats &astats);

    /** @name Host return stack (§6's return stack, for the
     *  translator): caller blocks pushed at call exits, popped at RET.
     *  Bounded; an overflow forgets the oldest entry. @{ */
    void
    pushReturn(Superblock *caller)
    {
        retTop_ = (retTop_ + 1) & (returnSlots - 1);
        returns_[retTop_] = caller;
        if (retCount_ < returnSlots)
            ++retCount_;
    }
    /** The newest caller block, or null when the stack is empty. */
    Superblock *
    popReturn()
    {
        if (retCount_ == 0)
            return nullptr;
        Superblock *caller = returns_[retTop_];
        retTop_ = (retTop_ - 1) & (returnSlots - 1);
        --retCount_;
        return caller;
    }
    void flushReturns() { retCount_ = 0; }
    /** @} */

    /** Fold every block's deferred execution accounting into the
     *  simulated opcode/length histograms and the host counters.
     *  Called on every threaded-loop exit (RAII) and before any
     *  flush, so deferral is never observable. */
    void flushDeferred(MachineStats &stats, AccelStats &astats);

  private:
    /** Fold one block's pending early exits (see exitPending). */
    static void foldExits(Superblock &b, MachineStats &stats,
                          AccelStats &astats);

    static constexpr std::size_t maxBlocks = 1u << 16;
    static constexpr unsigned returnSlots = 64;

    std::size_t
    slot(CodeByteAddr pc) const
    {
        return (pc ^ (pc >> 12)) & mask_;
    }

    std::uint64_t seenEpoch_ = 0;
    std::size_t mask_ = 0;
    std::vector<Superblock *> table_;
    std::vector<std::unique_ptr<Superblock>> arena_;
    std::array<Superblock *, returnSlots> returns_{};
    unsigned retTop_ = 0;
    unsigned retCount_ = 0;
};

} // namespace fpc

#endif // FPC_MACHINE_THREADED_HH
