/**
 * @file
 * The threaded-code superblock interpreter (see threaded.hh).
 *
 * Built on the GNU label-address extension: each decoded instruction
 * carries the address of its handler, handlers end by jumping straight
 * into the next handler, and a straight-line run executes out of one
 * sequential TInst array with one fused accounting charge per block.
 * The whole file is exact-accounting-first. A straight-line handler
 * is a register-cached fast path (the bank checks folded out by the
 * Banked template parameter) behind a guard that rules out every
 * trap; a failed guard, an opcode with no fast path, and every block
 * terminal run Machine::execute(), the one definition the eager loop
 * also runs. Every block exit charges precisely what the eager loop
 * would have charged for the same instruction sequence.
 */

#include "machine/threaded.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "common/logging.hh"

namespace fpc
{

// ---------------------------------------------------------------------
// SuperblockCache
// ---------------------------------------------------------------------

SuperblockCache::SuperblockCache(unsigned entries,
                                 std::uint64_t code_epoch)
    : seenEpoch_(code_epoch)
{
    const std::size_t size = std::bit_ceil(std::max(1u, entries));
    mask_ = size - 1;
    table_.assign(size, nullptr);
}

Superblock *
SuperblockCache::insert(std::unique_ptr<Superblock> block)
{
    Superblock *raw = block.get();
    arena_.push_back(std::move(block));
    table_[slot(raw->entry)] = raw;
    return raw;
}

void
SuperblockCache::flushAll(MachineStats &stats, AccelStats &astats)
{
    flushDeferred(stats, astats);
    std::fill(table_.begin(), table_.end(), nullptr);
    arena_.clear();
    flushReturns();
}

void
SuperblockCache::flushDeferred(MachineStats &stats, AccelStats &astats)
{
    ++astats.deferredFlushes;
    for (auto &owned : arena_) {
        Superblock &b = *owned;
        foldExits(b, stats, astats);
        if (b.execPending == 0)
            continue;
        const std::uint64_t execs = b.execPending;
        b.execPending = 0;
        for (const auto &[op, count] : b.opDeltas)
            stats.opCount[op] += static_cast<CountT>(count) * execs;
        for (const auto &[len, count] : b.lenDeltas)
            stats.instLenCount[len] +=
                static_cast<CountT>(count) * execs;
        astats.sblockExecs += execs;
        astats.icacheHits += static_cast<CountT>(b.n) * execs;
        astats.sblockFusionHits +=
            static_cast<CountT>(b.fusedPairs) * execs;
    }
}

void
SuperblockCache::foldExits(Superblock &b, MachineStats &stats,
                           AccelStats &astats)
{
    if (!b.exitsPending)
        return;
    b.exitsPending = false;
    // Instruction i ran once in every exit after more than i
    // instructions: a suffix sum over the exit counts.
    std::uint64_t runs = 0;
    for (std::size_t k = b.exitPending.size(); k-- > 0;) {
        runs += b.exitPending[k];
        b.exitPending[k] = 0;
        if (runs == 0)
            continue;
        const TInst &t = b.insts[k];
        stats.opCount[t.op] += runs;
        if (t.length < stats.instLenCount.size())
            stats.instLenCount[t.length] += runs;
        astats.icacheHits += runs;
    }
}

// ---------------------------------------------------------------------
// Handler indices and the superblock builder
// ---------------------------------------------------------------------

namespace
{

/**
 * Handler index space. Order matters twice: the labels array in
 * threadedLoopT must list the labels in exactly this order, and
 * every handler from H_Exit on is a block terminal (isTerminalIdx).
 */
enum HIdx : unsigned
{
    // Straight-line handlers: execution falls through to the next
    // TInst after the divergence check.
    H_Noop,
    H_Dup,
    H_Drop,
    H_Exch,
    H_Out,
    H_LoadRetCtx,
    H_LoadLocal,
    H_StoreLocal,
    H_LoadGlobal,
    H_StoreGlobal,
    H_LoadImm,
    /** RD/WR: on the banked engine the labels table routes both to
     *  H_Slow (an address may divert into a bank). */
    H_LoadIndirect,
    H_StoreIndirect,
    H_ReadField,
    H_WriteField,
    H_Add,
    H_Sub,
    H_Mul,
    H_And,
    H_Ior,
    H_Xor,
    H_Shl,
    H_Shr,
    /** DIV/MOD: in place unless the divisor is 0 (the trap path). */
    H_Div,
    H_Mod,
    H_Lt,
    H_Le,
    H_Eq,
    H_Ne,
    H_Ge,
    H_Gt,
    /** Unconditional jump, fused: the builder followed the target, so
     *  the handler is pure dispatch (loops unroll into the block). */
    H_JumpFused,
    /** Forward conditional (BTFN: predicted not-taken): the block
     *  continues at the fall-through; a taken branch diverges and
     *  side-exits with exact prefix accounting. */
    H_JumpZeroFall,
    H_JumpNotZeroFall,
    /** Fused compare+forward-conditional superinstructions: the
     *  builder collapses a compare immediately followed by a
     *  JumpZeroFall/JumpNotZeroFall in the same block into one
     *  handler that branches on the comparison directly — no boolean
     *  push/pop and one dispatch instead of two. Layout is the six
     *  compares twice: first the JumpZero pairs, then JumpNotZero. */
    H_LtJz,
    H_LeJz,
    H_EqJz,
    H_NeJz,
    H_GeJz,
    H_GtJz,
    H_LtJnz,
    H_LeJnz,
    H_EqJnz,
    H_NeJnz,
    H_GeJnz,
    H_GtJnz,
    /** Fused load-pair superinstructions (LL/LI are over half of a
     *  call-heavy instruction stream): two pushes under one guard and
     *  one dispatch. As with the compare pairs, the second TInst
     *  stays in the array and keeps its own handler. */
    H_LlLl,
    H_LlLi,
    H_LiLl,
    H_LiLi,
    /** No fast path (LLA, LPD, NEG/NOT): execute() runs it. Every
     *  failed fast-path guard lands here too. */
    H_Slow,

    // Terminals: every handler from here on ends its block.
    /** HALT, XF, BRK, YIELD, illegal opcodes, LLA on the banked
     *  engine, and the backward conditionals (BTFN: predicted taken,
     *  so a taken latch pays the O(1) full-block exit and re-enters
     *  through the chain pointer). */
    H_Exit,
    /** The five call classes: push the host return stack, then call
     *  through the block's call-site cache. */
    H_Call,
    H_Ret,
    H_BlockEnd, ///< sentinel after the length cap: fall to next block
    H_Count
};

constexpr bool
isTerminalIdx(unsigned h)
{
    return h >= H_Exit;
}

unsigned
handlerIndexFor(const isa::Inst &inst, bool banked)
{
    using isa::Op;
    using isa::OpClass;
    switch (inst.cls) {
      case OpClass::Noop: return H_Noop;
      case OpClass::Dup: return H_Dup;
      case OpClass::Drop: return H_Drop;
      case OpClass::Exch: return H_Exch;
      case OpClass::Out: return H_Out;
      case OpClass::LoadRetCtx: return H_LoadRetCtx;
      case OpClass::LoadLocal: return H_LoadLocal;
      case OpClass::StoreLocal: return H_StoreLocal;
      case OpClass::LoadGlobal: return H_LoadGlobal;
      case OpClass::StoreGlobal: return H_StoreGlobal;
      case OpClass::LoadImm: return H_LoadImm;
      case OpClass::LoadIndirect: return H_LoadIndirect;
      case OpClass::StoreIndirect: return H_StoreIndirect;
      case OpClass::ReadField: return H_ReadField;
      case OpClass::WriteField: return H_WriteField;
      case OpClass::Arith:
        switch (inst.op) {
          case Op::ADD: return H_Add;
          case Op::SUB: return H_Sub;
          case Op::MUL: return H_Mul;
          case Op::AND: return H_And;
          case Op::IOR: return H_Ior;
          case Op::XOR: return H_Xor;
          case Op::SHL: return H_Shl;
          case Op::SHR: return H_Shr;
          case Op::DIV: return H_Div;
          case Op::MOD: return H_Mod;
          default: return H_Slow; // NEG, NOT
        }
      case OpClass::Compare:
        switch (inst.op) {
          case Op::LT: return H_Lt;
          case Op::LE: return H_Le;
          case Op::EQ: return H_Eq;
          case Op::NE: return H_Ne;
          case Op::GE: return H_Ge;
          case Op::GT: return H_Gt;
          default: return H_Slow; // unreachable
        }
      case OpClass::Jump:
        return H_JumpFused;
      case OpClass::JumpZero:
        return inst.operand > 0 ? H_JumpZeroFall : H_Exit;
      case OpClass::JumpNotZero:
        return inst.operand > 0 ? H_JumpNotZeroFall : H_Exit;
      case OpClass::LoadLocalAddr:
        // On I4 it can drop a bank (§7.4): ending the block keeps
        // every instruction inside one under the cycle ceiling.
        return banked ? H_Exit : H_Slow;
      case OpClass::LoadDesc:
        return H_Slow;
      case OpClass::Halt:
      case OpClass::Xfer:
      case OpClass::Brk:
      case OpClass::Yield:
      case OpClass::Illegal:
        return H_Exit;
      case OpClass::ExtCall:
      case OpClass::LocalCall:
      case OpClass::DirectCall:
      case OpClass::ShortDirectCall:
      case OpClass::FatCall:
        return H_Call;
      case OpClass::Ret:
        return H_Ret;
      default:
        panic("threaded: unhandled op class");
    }
}

/** The decoded instruction a TInst was built from: TInst keeps the
 *  raw opcode, not its class, so it stays 32 bytes. */
isa::Inst
instOf(const TInst &t)
{
    isa::Inst inst;
    inst.op = static_cast<isa::Op>(t.op);
    inst.cls = isa::opInfo(t.op).cls;
    inst.operand = t.operand;
    inst.operand2 = t.operand2;
    inst.length = t.length;
    return inst;
}

/** Longest block: bounds both unrolled-loop blow-up (a fused jump can
 *  revisit the same code) and the prefix-accounting cost of a side
 *  exit. */
constexpr unsigned maxBlockInsts = 64;

/**
 * Decode a superblock starting at entry. Fetches are unaccounted
 * peeks: the execution charges chargeCodeBytes per run, which is
 * exactly what the eager loop's per-fetch readByte accounting sums to
 * (both only bump the code-byte counter). Returns null when even the
 * first instruction fails to decode — a single eager step then
 * reproduces the fault with the eager loop's exact partial-fetch
 * accounting.
 */
std::unique_ptr<Superblock>
buildBlock(Memory &mem, CodeByteAddr entry, const void *const *labels,
           bool banked)
{
    auto block = std::make_unique<Superblock>();
    block->entry = entry;
    block->insts.reserve(maxBlockInsts + 1);

    std::array<std::uint32_t, 256> opCounts{};
    std::array<std::uint32_t, 7> lenCounts{};
    std::array<std::uint8_t, maxBlockInsts> hidx{};

    CodeByteAddr pc = entry;
    std::uint32_t bytes = 0;
    while (block->insts.size() < maxBlockInsts) {
        isa::Inst inst;
        try {
            inst = isa::decode([&mem, pc](unsigned i) {
                return mem.peekByte(pc + i);
            });
        } catch (...) {
            break; // undecodable tail: left for the eager loop
        }
        const unsigned h = handlerIndexFor(inst, banked);
        hidx[block->insts.size()] = static_cast<std::uint8_t>(h);
        TInst t;
        t.handler = labels[h];
        t.start = pc;
        t.operand = inst.operand;
        t.operand2 = inst.operand2;
        t.op = static_cast<std::uint8_t>(inst.op);
        t.length = static_cast<std::uint8_t>(inst.length);
        bytes += inst.length;
        t.cumBytes = bytes;
        // Jump fusion: an unconditional jump's successor is its
        // target, so the builder keeps decoding there and the handler
        // is pure dispatch. Everything else falls through.
        t.next = h == H_JumpFused
                     ? pc + inst.operand
                     : pc + inst.length;
        block->insts.push_back(t);
        ++opCounts[t.op];
        if (inst.length < lenCounts.size())
            ++lenCounts[inst.length];
        if (isTerminalIdx(h))
            break;
        pc = t.next;
    }
    if (block->insts.empty())
        return nullptr;

    // Superinstruction fusion: a compare whose successor in this same
    // block is a forward conditional gets the fused handler. The
    // branch TInst stays in the array — the fused handler consumes
    // both slots, so the per-instruction prefix accounting of a side
    // exit (and the block deltas above) are unchanged.
    for (std::size_t i = 0; i + 1 < block->insts.size(); ++i) {
        const unsigned c = hidx[i];
        const unsigned br = hidx[i + 1];
        if (c >= H_Lt && c <= H_Gt &&
            (br == H_JumpZeroFall || br == H_JumpNotZeroFall)) {
            block->insts[i].handler =
                labels[H_LtJz + (c - H_Lt) +
                       (br == H_JumpNotZeroFall ? 6 : 0)];
            ++block->fusedPairs;
            ++i; // skip the branch: it belongs to the pair
            continue;
        }
        if ((c == H_LoadLocal || c == H_LoadImm) &&
            (br == H_LoadLocal || br == H_LoadImm)) {
            block->insts[i].handler =
                labels[c == H_LoadLocal
                           ? (br == H_LoadLocal ? H_LlLl : H_LlLi)
                           : (br == H_LoadLocal ? H_LiLl : H_LiLi)];
            ++block->fusedPairs;
            ++i; // skip the second load: it belongs to the pair
        }
    }

    block->n = static_cast<std::uint32_t>(block->insts.size());
    for (unsigned op = 0; op < opCounts.size(); ++op)
        if (opCounts[op] != 0)
            block->opDeltas.emplace_back(
                static_cast<std::uint8_t>(op), opCounts[op]);
    for (unsigned len = 0; len < lenCounts.size(); ++len)
        if (lenCounts[len] != 0)
            block->lenDeltas.emplace_back(
                static_cast<std::uint8_t>(len), lenCounts[len]);

    // The sentinel's cumBytes closes the prefix sums: the bytes before
    // any TInst t, sentinel included, are t.cumBytes - t.length.
    TInst sentinel;
    sentinel.handler = labels[H_BlockEnd];
    sentinel.cumBytes = bytes;
    block->insts.push_back(sentinel);
    return block;
}

} // namespace

// ---------------------------------------------------------------------
// The threaded loop
// ---------------------------------------------------------------------

/** Begin a slow-path or terminal instruction: what stepCore does
 *  before execute(), plus the spill of the register-cached stack
 *  pointer and the stack bank's dirty bits. With an observer or a
 *  scheduler attached it also charges the instruction's step, decode
 *  cycles and code bytes, with every not-yet-charged instruction of
 *  the block before it, and spills the register-held storage deltas,
 *  so every stamp member code hands an observer (XferRecord, cycles(),
 *  steps, memory counters) or a YIELD's scheduler hook reads what the
 *  eager loop reads at the same instruction. Without either, nothing
 *  reads absolute stamps mid-block, and the exits charge the block
 *  instead. Fast paths skip all of this — nothing they
 *  call reads instStart_/pcAbs_/sp_, traps only happen behind the
 *  guards, and the store-port traffic of three spills per instruction
 *  is a large share of a short handler's cost. The members are
 *  re-established at every place control can leave the fast path:
 *  h_slow and the terminals run this macro, and a taken side exit and
 *  the BlockEnd sentinel restore them by hand. */
#define FPC_T_PRE()                                                    \
    do {                                                               \
        instStart_ = ti->start;                                        \
        pcAbs_ = ti->next;                                             \
        sp_ = sp;                                                      \
        if (observed) {                                                \
            chargeTo(ti + 1);                                          \
            spillStats();                                              \
        } else {                                                       \
            foldDirty();                                               \
        }                                                              \
    } while (0)

/** End a straight-line instruction whose body may have diverged:
 *  anything a handler can do that would leave the block (a trap, a
 *  stop, a taken side exit) shows up as a stop or a PC off the
 *  decoded path; everything else is one indirect jump into the next
 *  handler. */
#define FPC_T_NEXT()                                                   \
    do {                                                               \
        if (stop_ != StopReason::Running || pcAbs_ != ti->next)        \
            [[unlikely]]                                               \
            goto early_exit;                                           \
        ++ti;                                                          \
        goto *const_cast<void *>(ti->handler);                         \
    } while (0)

/** End a fast path that provably could not diverge. The only ways a
 *  straight-line body leaves the decoded path are a trap (stack
 *  over/underflow, DIV/MOD faults) or a taken side-exit branch, so a
 *  fast path whose guard held — and whose body calls nothing that
 *  traps — needs no check at all: just the dispatch. (Thrown storage
 *  panics bypass this and land in the catch block with `ti` still on
 *  the faulting instruction.) */
#define FPC_T_NEXT_FAST()                                              \
    do {                                                               \
        ++ti;                                                          \
        goto *const_cast<void *>(ti->handler);                         \
    } while (0)

/** Binary ALU/compare body: execute()'s in-place binary path with the
 *  bank checks folded out; binaryResult folds to OP's one case. A
 *  failed guard (underflow, or a DIV/MOD divisor of 0) takes h_slow,
 *  which traps exactly as the eager loop does. */
#define FPC_T_BIN(OP)                                                  \
    do {                                                               \
        if (sp >= 2) [[likely]] {                                      \
            const unsigned bse = sp - 2;                               \
            bool divZero = false;                                      \
            const Word r =                                             \
                binaryResult(OP, tslot(bse), tslot(bse + 1), divZero); \
            if (!divZero) [[likely]] {                                 \
                tslotw(bse, r);                                        \
                sp = bse + 1;                                          \
                FPC_T_NEXT_FAST();                                     \
            }                                                          \
        }                                                              \
        goto h_slow;                                                   \
    } while (0)

/** Fused compare + forward-conditional body. The guard covers the
 *  whole pair (compare needs two slots; the branch pops the one the
 *  compare would push, so net sp >= 2 suffices) and the boolean is
 *  never pushed or popped (only its slot write stays). ti advances onto the branch TInst first so a
 *  taken side exit charges the exact two-instruction prefix; the
 *  untaken path's dispatch then steps over it. The fallback is the
 *  compare alone — underflow traps there, diverges, and the branch
 *  TInst never runs, exactly as in the eager loop. */
#define FPC_T_CMPBR(OP, TAKEN_ON_TRUE)                                 \
    do {                                                               \
        if (sp >= 2) [[likely]] {                                      \
            const unsigned bse = sp - 2;                               \
            bool divZero = false;                                      \
            const Word r =                                             \
                binaryResult(OP, tslot(bse), tslot(bse + 1), divZero); \
            sp = bse;                                                  \
            /* Eager pushes the boolean then pops it: the slot write   \
             * (value and dirty bit) is observable when the stack bank \
             * is renamed into a frame bank and later flushed, so the  \
             * fusion must keep it. */                                 \
            tslotw(bse, r);                                            \
            ++ti;                                                      \
            if ((r != 0) == (TAKEN_ON_TRUE)) [[unlikely]] {            \
                sp_ = sp;                                              \
                instStart_ = ti->start;                                \
                pcAbs_ = ti->start + ti->operand;                      \
                goto early_exit; /* taken: known divergence */         \
            }                                                          \
            FPC_T_NEXT_FAST();                                         \
        }                                                              \
        goto h_slow;                                                   \
    } while (0)

template <bool Banked>
void
Machine::threadedLoopT(std::uint64_t &steps)
{
    // Label order must match HIdx exactly.
    const void *const labels[] = {
        &&h_noop,
        &&h_dup,
        &&h_drop,
        &&h_exch,
        &&h_out,
        &&h_lrc,
        &&h_ll,
        &&h_sl,
        &&h_lg,
        &&h_sg,
        &&h_li,
        Banked ? &&h_slow : &&h_rd,
        Banked ? &&h_slow : &&h_wr,
        &&h_readf,
        &&h_writef,
        &&h_add,
        &&h_sub,
        &&h_mul,
        &&h_and,
        &&h_ior,
        &&h_xor,
        &&h_shl,
        &&h_shr,
        &&h_div,
        &&h_mod,
        &&h_lt,
        &&h_le,
        &&h_eq,
        &&h_ne,
        &&h_ge,
        &&h_gt,
        &&h_jmp_fused,
        &&h_jz_fall,
        &&h_jnz_fall,
        &&h_lt_jz,
        &&h_le_jz,
        &&h_eq_jz,
        &&h_ne_jz,
        &&h_ge_jz,
        &&h_gt_jz,
        &&h_lt_jnz,
        &&h_le_jnz,
        &&h_eq_jnz,
        &&h_ne_jnz,
        &&h_ge_jnz,
        &&h_gt_jnz,
        &&h_ll_ll,
        &&h_ll_li,
        &&h_li_ll,
        &&h_li_li,
        &&h_slow,
        &&h_exit,
        &&h_call,
        &&h_ret,
        &&h_block_end,
    };
    static_assert(std::size(labels) == H_Count);

    SuperblockCache &cache = *sblocks_;
    Accel *const acc = accel_.get();
    Cache *const dcache = cache_.get();
    const Tick decodeCyc = config_.latency.decodeCycles;
    const unsigned memCyc = config_.latency.memCycles;
    const unsigned regCyc = config_.latency.regCycles;
    const unsigned bankWords = banks_.bankWords();
    const Addr globalEnd = layout_.globalEnd;
    const std::uint64_t maxSteps = config_.maxSteps;
    // Sampler, hoisted: the sampling-off cost is one register compare
    // per outer-loop iteration and per chain follow — never per
    // instruction.
    CycleSampler *const smp = sampler_;
    // The hooks are fixed while run() executes, so these are constants
    // of the run. Member code spills the register-held deltas whenever
    // an observer or a YIELD's scheduler hook could read stamps.
    const bool observed = observer_ != nullptr || scheduler_ != nullptr;
    const bool exactSmp = smp != nullptr && smp->exact();
    const bool slicing = config_.timesliceSteps != 0 && scheduler_;
    // A sampler or a timeslice: only then do block exits check more
    // than the step budget.
    const bool hooked = smp != nullptr || slicing;
    // Most cycles an instruction inside a block can take (one that
    // transfers or traps ends the block's run): its decode and one
    // data reference, at worst a cache miss that writes back a dirty
    // victim (Cache::access).
    const Tick instCeiling =
        decodeCyc +
        std::max({Tick{memCyc}, Tick{regCyc},
                  dcache != nullptr
                      ? Tick{config_.latency.cacheHitCycles} + 2 * memCyc
                      : Tick{0}});
    (void)bankWords;

    // Deferred per-block accounting folds into the real counters on
    // every exit from this loop, normal or thrown, so deferral is
    // never observable from outside run().
    struct Flusher
    {
        Machine &m;
        ~Flusher()
        {
            m.sblocks_->flushDeferred(m.stats_, m.accel_->stats);
            m.foldXferSums();
            m.xferDeferred_ = false;
        }
    } flusher{*this};
    // Per-XFER refs/cycles samples defer as integer sums (XferSums);
    // an observer reads those distributions' inputs per event, so it
    // keeps the exact per-sample path.
    xferDeferred_ = observer_ == nullptr;

    // Register-cached run-step counter: `steps` is a reference into
    // the caller's frame, which the compiler must assume any member
    // call could alias. No RAII mirror here — holding a reference to
    // the local would pin it to the stack and defeat the register
    // promotion this exists for; instead every path that leaves the
    // block world (block_done, the catch block, the eager window, the
    // loop exit) writes it back explicitly.
    std::uint64_t st = steps;

    // Hoisted loop-invariant members and register-resident deltas.
    // The register budget is the constraint here: every local below
    // earns its keep on nearly every fast-path instruction, and the
    // colder counters (localMemAccesses, globalAccesses, the dcache
    // cycle charge) deliberately stay as direct member updates — a
    // larger delta set measured slower than this one because the
    // extra live locals spilled.
    //
    // The store and the eval-stack array never move or resize while
    // running, and stackCap_ is set once at reset. lf mirrors lf_ and
    // sbData/sbDirty mirror the stack bank's raw views; both only
    // move inside transfer code — every such call ends its block, and
    // both the block (re)entry and h_slow reload them (treload).
    //
    // dReads/dWrites count fast-path Data references; when no dcache
    // is configured each such reference also costs exactly memCyc
    // cycles, so the cycle charge is derived from the counts at spill
    // time instead of spending a third register (with a dcache the
    // charge is data-dependent and goes straight to stats_.cycles).
    // They, and dLocalBank, spill at block_done and in the catch
    // block, so no path leaves run() with a pending delta. Member
    // code in between (h_slow, the terminals) sees them pending unless
    // an observer is attached (FPC_T_PRE spills them then); without
    // one, its mid-run readers are delta-based (the transfer walks'
    // reference probes snapshot differences across a member call,
    // where the pending deltas are constant), so nothing moves.
    Word *const memBase = mem_.raw();
    const std::size_t memSize = mem_.size();
    Word *const stackBase = stack_.data();
    const unsigned stackCap = stackCap_;
    Addr lf = 0;
    Word *sbData = nullptr;
    Word *lbData = nullptr;
    CountT dReads = 0;
    CountT dWrites = 0;
    CountT dLocalBank = 0;
    // Register accumulator for the stack bank's dirty bits: the
    // memory word is a loop-carried store-forward chain when every
    // push RMWs it, so fast paths OR into this register and
    // foldDirty (FPC_T_PRE, and spillStats at block_done and in the
    // catch) folds it into the real mask before any member code can
    // look.
    std::uint32_t sbAcc = 0;
    (void)stackBase;
    (void)sbData;
    (void)lbData;
    (void)sbAcc;
    (void)dLocalBank;
    // always_inline on every helper lambda is load-bearing: this
    // function is far past the inliner's size budget, so without the
    // attribute GCC outlines them into real calls — which also forces
    // sp and the delta counters out of registers at every call site.
    // The one piece of deferred state member code CAN observe: bank
    // flushes read dirty masks, so the register dirty bits fold in at
    // every slow-path entry. The storage/cycle counters below stay
    // pending across whole blocks instead — every mid-run reader is
    // either delta-based around member code (XferProbe, the heap and
    // link-cache trackers), where a constant pending delta cancels,
    // or an observer, for which FPC_T_PRE spills them first.
    const auto foldDirty = [&]() __attribute__((always_inline)) {
        if constexpr (Banked) {
            *banks_.dirtyPtr(stackBank_) |= sbAcc;
            sbAcc = 0;
        }
    };
    // The cycles the register-held deltas will charge at their spill.
    const auto pendingCycles = [&]() __attribute__((always_inline)) -> Tick {
        if constexpr (Banked)
            return static_cast<Tick>(regCyc) * dLocalBank;
        else
            return dcache == nullptr
                       ? static_cast<Tick>(memCyc) * (dReads + dWrites)
                       : 0;
    };
    const auto spillStats = [&]() __attribute__((always_inline)) {
        stats_.cycles += pendingCycles();
        if constexpr (Banked) {
            stats_.localBankAccesses += dLocalBank;
            dLocalBank = 0;
        } else {
            mem_.chargeReads(AccessKind::Data, dReads);
            mem_.chargeWrites(AccessKind::Data, dWrites);
            dReads = 0;
            dWrites = 0;
        }
        foldDirty();
    };
    // The first instruction of the current block whose step, cycles
    // and code bytes are not charged yet (see chargeTo).
    const TInst *charged = nullptr;
    // Charge the block's instructions from `charged` up to (not
    // including) `end`: steps, decode cycles and the code bytes, from
    // the prefix sums (the sentinel closes them, so a charge of no
    // instructions adds nothing). Observed member code runs only after
    // its own instruction is charged, as on the eager loop; the exits
    // charge the rest.
    const auto chargeTo = [&](const TInst *end) __attribute__((always_inline)) {
        const auto k = static_cast<std::uint64_t>(end - charged);
        stats_.steps += k;
        stats_.cycles += k * decodeCyc;
        mem_.chargeCodeBytes(end[-1].cumBytes -
                             (charged->cumBytes - charged->length));
        charged = end;
    };
    // Re-derive the block-cached mirrors from their members: run at
    // block (re)entry and after h_slow, the only places transfer code
    // (which moves them) can have run.
    const auto treload = [&]() __attribute__((always_inline)) {
        lf = lf_;
        if constexpr (Banked) {
            sbData = banks_.dataPtr(stackBank_);
            lbData = curLbank_ >= 0 ? banks_.dataPtr(curLbank_)
                                    : nullptr;
        }
    };

    // The eager-window rule: a block of n instructions runs only when
    // no boundary event can fall strictly inside it — the step budget
    // lasts through it, an exact sampler's deadline lies beyond n
    // ceilings of cycles, the timeslice outlasts it with no switch
    // pending. An event its last instruction raises is taken after
    // the block, where the eager loop takes it. Otherwise the loop
    // takes plain steps (step()) until the event has passed.
    const auto room = [&](std::uint64_t n) __attribute__((always_inline)) {
        return n <= maxSteps - st &&
               (!exactSmp || stats_.cycles + pendingCycles() +
                                     n * instCeiling <
                                 nextSampleAt_) &&
               (!slicing || (!switchPending_ && n < sliceLeft_));
    };
    // The timeslice counts the instructions a block ran, less one
    // that stopped the machine (maybePreempt skips a stopping step).
    const auto tickSlice = [&](std::uint64_t ran) __attribute__((always_inline)) {
        if (slicing)
            sliceLeft_ -= ran - (stop_ != StopReason::Running ? 1 : 0);
    };

    // Inlined accessor bodies for the fast paths, identical to the
    // members they mirror, with the Banked checks resolved at compile
    // time.
    const auto treadData = [&](Addr addr) __attribute__((always_inline)) -> Word {
        // Banked data accesses off the bank file are rare (globals,
        // indirects, bank-miss locals), so they take the member path
        // and keep four registers free for the bank fast paths. The
        // other engines hit this on every LL/SL and keep the counts
        // in registers instead.
        if constexpr (Banked)
            return readData(addr);
        // Eager read() order is charge, check, count: a storage panic
        // must leave the cycle charged and the reference uncounted.
        if (dcache != nullptr)
            stats_.cycles += dcache->access(addr, false);
        if (addr >= memSize) [[unlikely]] {
            if (dcache == nullptr)
                stats_.cycles += memCyc;
            return mem_.readUncounted(addr); // the accounted panic
        }
        const Word v = memBase[addr];
        ++dReads; // the memCyc charge is derived from the count
        return v;
    };
    const auto twriteData = [&](Addr addr, Word value) __attribute__((always_inline)) {
        if constexpr (Banked) {
            writeData(addr, value);
            return;
        }
        if (addr < globalEnd && acc->linkSensitive(addr))
            acc->flushLinks();
        if (dcache != nullptr)
            stats_.cycles += dcache->access(addr, true);
        if (addr >= memSize) [[unlikely]] {
            if (dcache == nullptr)
                stats_.cycles += memCyc;
            mem_.writeUncounted(addr, value); // the accounted panic
            return;
        }
        memBase[addr] = value;
        ++dWrites;
    };
    const auto treadVar = [&](unsigned index) __attribute__((always_inline)) -> Word {
        const unsigned offset = frame::varsOffset + index;
        if constexpr (Banked) {
            if (lbData != nullptr && offset < bankWords) {
                ++dLocalBank; // regCyc charge derived at spill
                return lbData[offset];
            }
        }
        ++stats_.localMemAccesses;
        return treadData(lf + offset);
    };
    const auto twriteVar = [&](unsigned index, Word value) __attribute__((always_inline)) {
        const unsigned offset = frame::varsOffset + index;
        if constexpr (Banked) {
            if (lbData != nullptr && offset < bankWords) {
                ++dLocalBank; // regCyc charge derived at spill
                banks_.writeOwned(curLbank_, offset, value);
                return;
            }
        }
        ++stats_.localMemAccesses;
        twriteData(lf + offset, value);
    };
    // Raw evaluation-stack slot access for fast paths whose bounds
    // guard already held — the unchecked core of push/pop.
    const auto tslot = [&](unsigned index) __attribute__((always_inline)) -> Word {
        if constexpr (Banked)
            return sbData[frame::varsOffset + index];
        else
            return stackBase[index];
    };
    const auto tslotw = [&](unsigned index, Word value) __attribute__((always_inline)) {
        if constexpr (Banked) {
            sbData[frame::varsOffset + index] = value;
            sbAcc |= 1u << (frame::varsOffset + index);
        } else {
            stackBase[index] = value;
        }
    };

    Superblock *prev = nullptr;
    Superblock *cur = nullptr;
    // The caller block a RET popped off the host return stack, until
    // the return's successor block is known (full_exit follows its
    // prediction, or the loop head records the block it looked up).
    Superblock *retFrom = nullptr;
    const TInst *base = nullptr;
    const TInst *ti = nullptr;
    // Register-cached stack pointer. Fast paths read and write only
    // this; FPC_T_PRE spills it to sp_ before any member code runs,
    // and it reloads from sp_ after it (h_slow directly, terminals via
    // the block-entry reload).
    unsigned sp = 0;

    while (stop_ == StopReason::Running) {
        if (st >= maxSteps) {
            stopWith(StopReason::StepLimit, "step budget exhausted");
            break;
        }
        // Per-iteration epoch poll: the machine never pokes code while
        // running, so the epoch cannot move inside a block.
        acc->sync(mem_.codeEpoch());
        if (cache.sync(mem_.codeEpoch(), stats_, acc->stats)) {
            prev = nullptr;
            retFrom = nullptr;
        }
        Superblock *retCaller = retFrom;
        retFrom = nullptr;

        Superblock *sb;
        if (prev != nullptr && prev->chainPc == pcAbs_) {
            // The IFU-follows-DIRECTCALL idiom at block granularity:
            // the previous block's exit remembers where it went.
            sb = prev->chain;
            ++acc->stats.sblockChainHits;
        } else {
            sb = cache.find(pcAbs_);
            if (sb == nullptr) {
                if (cache.overLimit()) {
                    cache.flushAll(stats_, acc->stats);
                    prev = nullptr;
                    retCaller = nullptr;
                }
                std::unique_ptr<Superblock> built =
                    buildBlock(mem_, pcAbs_, labels, Banked);
                if (built != nullptr) {
                    sb = cache.insert(std::move(built));
                    ++acc->stats.sblockBuilds;
                    acc->stats.icacheMisses += sb->n;
                }
            }
            if (prev != nullptr && sb != nullptr) {
                prev->chain = sb;
                prev->chainPc = pcAbs_;
            }
            if (retCaller != nullptr) {
                // A return neither link served: remember where it
                // went, for the next return into this caller.
                ++acc->stats.returnPredMisses;
                retCaller->retSucc = sb;
            }
        }

        if (sb == nullptr || !room(sb->n)) {
            // The eager window, or an undecodable PC, whose plain step
            // reproduces the fault. step() fires a due sample itself.
            prev = nullptr;
            ++acc->stats.icacheMisses;
            step();
            ++st;
            steps = st; // the next iteration's member calls can throw
            continue;
        }

        cur = sb;
        base = cur->insts.data();
        ti = base;
        charged = base;
        sp = sp_;
        treload();
        try {
            goto *const_cast<void *>(ti->handler);

            // -- straight-line handlers --------------------------------
            // Each is a register-cached fast path behind a guard that
            // rules out every trap; a failed guard takes h_slow.
          h_noop:
            // Cannot trap, stop, or move the PC: unchecked dispatch.
            FPC_T_NEXT_FAST();

          h_dup:
            if (sp >= 1 && sp < stackCap) [[likely]] {
                // pop v; push v; push v == copy the top slot up.
                tslotw(sp, tslot(sp - 1));
                ++sp;
                FPC_T_NEXT_FAST();
            }
            goto h_slow;

          h_drop:
            if (sp >= 1) [[likely]] {
                --sp;
                FPC_T_NEXT_FAST();
            }
            goto h_slow;

          h_exch:
            if (sp >= 2) [[likely]] {
                const Word a = tslot(sp - 1);
                tslotw(sp - 1, tslot(sp - 2));
                tslotw(sp - 2, a);
                FPC_T_NEXT_FAST();
            }
            goto h_slow;

          h_out:
            if (sp >= 1) [[likely]] {
                --sp;
                output_.push_back(tslot(sp));
                FPC_T_NEXT_FAST();
            }
            goto h_slow;

          h_lrc:
            if (sp < stackCap) [[likely]] {
                tslotw(sp, returnCtx_);
                ++sp;
                FPC_T_NEXT_FAST();
            }
            goto h_slow;

          h_ll:
            if (sp < stackCap) [[likely]] {
                tslotw(sp,
                       treadVar(static_cast<unsigned>(ti->operand)));
                ++sp;
                FPC_T_NEXT_FAST();
            }
            goto h_slow;

          h_sl:
            if (sp >= 1) [[likely]] {
                --sp;
                twriteVar(static_cast<unsigned>(ti->operand),
                          tslot(sp));
                FPC_T_NEXT_FAST();
            }
            goto h_slow;

          h_lg:
            if (sp < stackCap) [[likely]] {
                ++stats_.globalAccesses;
                tslotw(sp,
                       treadData(gf_ + 1 +
                                 static_cast<unsigned>(ti->operand)));
                ++sp;
                FPC_T_NEXT_FAST();
            }
            goto h_slow;

          h_sg:
            if (sp >= 1) [[likely]] {
                --sp;
                const Word v = tslot(sp);
                ++stats_.globalAccesses;
                twriteData(gf_ + 1 + static_cast<unsigned>(ti->operand),
                           v);
                FPC_T_NEXT_FAST();
            }
            goto h_slow;

          h_li:
            if (sp < stackCap) [[likely]] {
                tslotw(sp, static_cast<Word>(ti->operand));
                ++sp;
                FPC_T_NEXT_FAST();
            }
            goto h_slow;

          h_rd:
            // Not on the banked engine (see the labels table): pop
            // addr, push value in place.
            if (sp >= 1) [[likely]] {
                tslotw(sp - 1, treadData(tslot(sp - 1)));
                FPC_T_NEXT_FAST();
            }
            goto h_slow;

          h_wr:
            if (sp >= 2) [[likely]] {
                const Addr addr = tslot(sp - 1);
                const Word value = tslot(sp - 2);
                sp -= 2;
                twriteData(addr, value);
                FPC_T_NEXT_FAST();
            }
            goto h_slow;

          h_readf:
            if (sp >= 1) [[likely]] {
                tslotw(sp - 1,
                       treadData(tslot(sp - 1) +
                                 static_cast<unsigned>(ti->operand)));
                FPC_T_NEXT_FAST();
            }
            goto h_slow;

          h_writef:
            if (sp >= 2) [[likely]] {
                const Addr addr = tslot(sp - 1);
                const Word value = tslot(sp - 2);
                sp -= 2;
                twriteData(addr + static_cast<unsigned>(ti->operand),
                           value);
                FPC_T_NEXT_FAST();
            }
            goto h_slow;

            // -- ALU / compare -----------------------------------------
          h_add:
            FPC_T_BIN(isa::Op::ADD);
          h_sub:
            FPC_T_BIN(isa::Op::SUB);
          h_mul:
            FPC_T_BIN(isa::Op::MUL);
          h_and:
            FPC_T_BIN(isa::Op::AND);
          h_ior:
            FPC_T_BIN(isa::Op::IOR);
          h_xor:
            FPC_T_BIN(isa::Op::XOR);
          h_shl:
            FPC_T_BIN(isa::Op::SHL);
          h_shr:
            FPC_T_BIN(isa::Op::SHR);
          h_div:
            FPC_T_BIN(isa::Op::DIV);
          h_mod:
            FPC_T_BIN(isa::Op::MOD);
          h_lt:
            FPC_T_BIN(isa::Op::LT);
          h_le:
            FPC_T_BIN(isa::Op::LE);
          h_eq:
            FPC_T_BIN(isa::Op::EQ);
          h_ne:
            FPC_T_BIN(isa::Op::NE);
          h_ge:
            FPC_T_BIN(isa::Op::GE);
          h_gt:
            FPC_T_BIN(isa::Op::GT);

            // -- fused / predicted-not-taken branches ------------------
          h_jmp_fused:
            // The builder followed the target, so the next TInst IS
            // the jump target: pure dispatch.
            FPC_T_NEXT_FAST();

          h_jz_fall:
            if (sp >= 1) [[likely]] {
                --sp;
                if (tslot(sp) != 0) [[likely]]
                    FPC_T_NEXT_FAST();
                sp_ = sp;
                instStart_ = ti->start;
                pcAbs_ = ti->start + ti->operand;
                goto early_exit; // taken: known divergence
            }
            goto h_slow;

          h_jnz_fall:
            if (sp >= 1) [[likely]] {
                --sp;
                if (tslot(sp) == 0) [[likely]]
                    FPC_T_NEXT_FAST();
                sp_ = sp;
                instStart_ = ti->start;
                pcAbs_ = ti->start + ti->operand;
                goto early_exit; // taken: known divergence
            }
            goto h_slow;

            // -- fused compare+branch superinstructions ----------------
            // JumpZeroFall takes when the pushed boolean would be 0,
            // i.e. when the comparison is false.
          h_lt_jz:
            FPC_T_CMPBR(isa::Op::LT, false);
          h_le_jz:
            FPC_T_CMPBR(isa::Op::LE, false);
          h_eq_jz:
            FPC_T_CMPBR(isa::Op::EQ, false);
          h_ne_jz:
            FPC_T_CMPBR(isa::Op::NE, false);
          h_ge_jz:
            FPC_T_CMPBR(isa::Op::GE, false);
          h_gt_jz:
            FPC_T_CMPBR(isa::Op::GT, false);
          h_lt_jnz:
            FPC_T_CMPBR(isa::Op::LT, true);
          h_le_jnz:
            FPC_T_CMPBR(isa::Op::LE, true);
          h_eq_jnz:
            FPC_T_CMPBR(isa::Op::EQ, true);
          h_ne_jnz:
            FPC_T_CMPBR(isa::Op::NE, true);
          h_ge_jnz:
            FPC_T_CMPBR(isa::Op::GE, true);
          h_gt_jnz:
            FPC_T_CMPBR(isa::Op::GT, true);

            // -- fused load pairs --------------------------------------
            // One guard covers both pushes; ti steps onto the second
            // load before its read so a thrown storage panic (and any
            // side-exit prefix) charges the exact instruction. The
            // fallback runs the FIRST load alone — the second TInst
            // kept its own handler and dispatches normally after it.
          h_ll_ll:
            if (sp + 2 <= stackCap) [[likely]] {
                const Word v1 =
                    treadVar(static_cast<unsigned>(ti->operand));
                tslotw(sp, v1);
                ++ti;
                const Word v2 =
                    treadVar(static_cast<unsigned>(ti->operand));
                tslotw(sp + 1, v2);
                sp += 2;
                FPC_T_NEXT_FAST();
            }
            goto h_slow;

          h_ll_li:
            if (sp + 2 <= stackCap) [[likely]] {
                const Word v1 =
                    treadVar(static_cast<unsigned>(ti->operand));
                tslotw(sp, v1);
                ++ti;
                tslotw(sp + 1, static_cast<Word>(ti->operand));
                sp += 2;
                FPC_T_NEXT_FAST();
            }
            goto h_slow;

          h_li_ll:
            if (sp + 2 <= stackCap) [[likely]] {
                tslotw(sp, static_cast<Word>(ti->operand));
                ++ti;
                const Word v2 =
                    treadVar(static_cast<unsigned>(ti->operand));
                tslotw(sp + 1, v2);
                sp += 2;
                FPC_T_NEXT_FAST();
            }
            goto h_slow;

          h_li_li:
            if (sp + 2 <= stackCap) [[likely]] {
                tslotw(sp, static_cast<Word>(ti->operand));
                ++ti;
                tslotw(sp + 1, static_cast<Word>(ti->operand));
                sp += 2;
                FPC_T_NEXT_FAST();
            }
            goto h_slow;

          h_slow:
            // The general scheme: execute() is the one definition of
            // every instruction, traps included; an observer's
            // onTrap/onXfer reads exact stamps (FPC_T_PRE).
            FPC_T_PRE();
            execute(instOf(*ti));
            sp = sp_;
            treload();
            FPC_T_NEXT();

            // -- terminals ---------------------------------------------
          h_exit:
            FPC_T_PRE();
            execute(instOf(*ti));
            goto full_exit;

          h_call:
            FPC_T_PRE();
            cache.pushReturn(cur);
            execute(instOf(*ti), &cur->site);
            goto full_exit;

          h_ret:
            FPC_T_PRE();
            execute(instOf(*ti));
            retFrom = cache.popReturn();
            goto full_exit;

          h_block_end:
            // Length-cap sentinel: re-establish the members the fast
            // paths skipped — the last real instruction is ti[-1] and
            // execution resumes at its fall-through.
            sp_ = sp;
            instStart_ = ti[-1].start;
            pcAbs_ = ti[-1].next;
            goto full_exit;

          full_exit:
            // Whole block ran: charge what observed member code has not
            // charged yet, deferring only the histogram updates
            // (nothing reads those mid-run).
            chargeTo(base + cur->n);
            ++cur->execPending;
            st += cur->n;
            prev = cur;
            if (hooked) [[unlikely]] {
                tickSlice(cur->n);
                if (smp != nullptr && stats_.cycles >= nextSampleAt_)
                    goto block_done;
            }
            // Fast re-entry through the chain pointer or, for a return
            // the chain missed, the host return prediction: the code
            // epoch only moves on external pokes (loader, relocator,
            // test patching), never while run() executes, so either
            // link can skip the outer loop's epoch polls and cache
            // probe entirely. A prediction is followed only when its
            // block starts at the PC the return produced, and it
            // updates the chain exactly as the outer loop's lookup
            // would have. An expired sampling budget breaks both (above)
            // so the loop can fire the sample at this block boundary, and
            // so does a successor the eager-window rule keeps out.
            if (stop_ == StopReason::Running) [[likely]] {
                const bool chained = cur->chainPc == pcAbs_;
                Superblock *nb = chained ? cur->chain
                                 : retFrom != nullptr ? retFrom->retSucc
                                                      : nullptr;
                if (nb != nullptr && nb->entry == pcAbs_ &&
                    nb->n <= maxSteps - st && (!hooked || room(nb->n)))
                    [[likely]] {
                    if (chained) {
                        ++acc->stats.sblockChainHits;
                    } else {
                        ++acc->stats.returnPredHits;
                        cur->chain = nb;
                        cur->chainPc = pcAbs_;
                    }
                    retFrom = nullptr;
                    cur = nb;
                    base = cur->insts.data();
                    ti = base;
                    charged = base;
                    sp = sp_;
                    treload();
                    prev = cur;
                    goto *const_cast<void *>(ti->handler);
                }
            }
            goto block_done;

          early_exit : {
            // Divergence (trap transfer, stop, or taken side exit)
            // after instruction k-1 of the block: charge exactly the
            // k-instruction prefix the eager loop would have charged
            // (an observed h_slow that diverged charged it already).
            const std::uint64_t k =
                static_cast<std::uint64_t>(ti - base) + 1;
            chargeTo(ti + 1);
            // Sized on the block's first exit: most blocks never take
            // one, and a cold block build stays one allocation.
            if (cur->exitPending.empty()) [[unlikely]]
                cur->exitPending.assign(cur->n, 0);
            ++cur->exitPending[k - 1];
            cur->exitsPending = true;
            st += k;
            tickSlice(k);
            prev = nullptr;
            goto block_done;
          }

          block_done:
            spillStats();
            steps = st;
        } catch (...) {
            // A handler threw (storage panic): the prefix through the
            // throwing instruction is charged exactly like the eager
            // loop, whose counters include the instruction that threw
            // (observed member code charged its own before running); the
            // run-steps total, like the eager loop's, counts only
            // completed instructions. (A fast path never ran
            // FPC_T_PRE, so after its panic the members are stale; it
            // can only panic on a memory smaller than the 64K-word
            // data space, where the machine is dead anyway.)
            const std::uint64_t k =
                static_cast<std::uint64_t>(ti - base) + 1;
            chargeTo(ti + 1);
            for (std::uint64_t i = 0; i < k; ++i) {
                ++stats_.opCount[base[i].op];
                if (base[i].length < stats_.instLenCount.size())
                    ++stats_.instLenCount[base[i].length];
            }
            acc->stats.icacheHits += k;
            st += k - 1;
            tickSlice(k - 1); // the throwing step never ticks
            spillStats();
            steps = st;
            throw;
        }

        // Boundary sampling, with the deltas spilled (block_done), also
        // after a stop, as on the eager loop. An exact sampler's
        // deadline was crossed by the last instruction, its anchor.
        // Another fires up to one block late, where pcAbs_ is already
        // the terminal transfer's *destination*: it anchors to the
        // block that spent the cycles (prev, after a full exit), so
        // attribution does not shift one call deep.
        if (smp != nullptr && stats_.cycles >= nextSampleAt_)
            [[unlikely]] {
            sampleAnchorPc_ = !exactSmp && prev != nullptr ? prev->entry
                                                           : instStart_;
            fireSample();
        }
    }
    steps = st;
}

#undef FPC_T_CMPBR
#undef FPC_T_BIN
#undef FPC_T_NEXT_FAST
#undef FPC_T_NEXT
#undef FPC_T_PRE

template void Machine::threadedLoopT<false>(std::uint64_t &);
template void Machine::threadedLoopT<true>(std::uint64_t &);

} // namespace fpc
