#include "machine/machine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "machine/threaded.hh"

namespace fpc
{

const char *
implName(Impl impl)
{
    switch (impl) {
      case Impl::Simple: return "I1-simple";
      case Impl::Mesa: return "I2-mesa";
      case Impl::Ifu: return "I3-ifu";
      case Impl::Banked: return "I4-banked";
      default: return "?";
    }
}

const char *
stopReasonName(StopReason reason)
{
    switch (reason) {
      case StopReason::Running: return "running";
      case StopReason::Halted: return "halted";
      case StopReason::TopReturn: return "topReturn";
      case StopReason::Error: return "error";
      case StopReason::StepLimit: return "stepLimit";
      default: return "?";
    }
}

CountT
MachineStats::calls() const
{
    return xferCount[static_cast<unsigned>(XferKind::ExtCall)] +
           xferCount[static_cast<unsigned>(XferKind::LocalCall)] +
           xferCount[static_cast<unsigned>(XferKind::DirectCall)] +
           xferCount[static_cast<unsigned>(XferKind::FatCall)];
}

CountT
MachineStats::returns() const
{
    return xferCount[static_cast<unsigned>(XferKind::Return)];
}

CountT
MachineStats::totalXfers() const
{
    CountT total = 0;
    for (auto c : xferCount)
        total += c;
    return total;
}

double
MachineStats::bankEventRate() const
{
    const CountT xfers = totalXfers();
    if (xfers == 0)
        return 0.0;
    return static_cast<double>(bankOverflows + bankUnderflows) / xfers;
}

double
MachineStats::fastCallReturnRate() const
{
    const CountT total = calls() + returns();
    if (total == 0)
        return 0.0;
    CountT fast = xferFast[static_cast<unsigned>(XferKind::Return)];
    fast += xferFast[static_cast<unsigned>(XferKind::ExtCall)];
    fast += xferFast[static_cast<unsigned>(XferKind::LocalCall)];
    fast += xferFast[static_cast<unsigned>(XferKind::DirectCall)];
    fast += xferFast[static_cast<unsigned>(XferKind::FatCall)];
    return static_cast<double>(fast) / total;
}

void
MachineStats::merge(const MachineStats &other)
{
    steps += other.steps;
    cycles += other.cycles;
    for (unsigned k = 0; k < numXferKinds; ++k) {
        xferCount[k] += other.xferCount[k];
        xferFast[k] += other.xferFast[k];
        xferRefs[k].merge(other.xferRefs[k]);
        xferCycles[k].merge(other.xferCycles[k]);
    }
    returnStackHits += other.returnStackHits;
    returnStackMisses += other.returnStackMisses;
    returnStackFlushes += other.returnStackFlushes;
    returnStackFlushedEntries += other.returnStackFlushedEntries;
    returnStackSpills += other.returnStackSpills;
    bankOverflows += other.bankOverflows;
    bankUnderflows += other.bankUnderflows;
    bankFlushWords += other.bankFlushWords;
    bankLoadWords += other.bankLoadWords;
    bankDiverts += other.bankDiverts;
    flaggedFrames += other.flaggedFrames;
    fastFrameAllocs += other.fastFrameAllocs;
    slowFrameAllocs += other.slowFrameAllocs;
    fastFrameFrees += other.fastFrameFrees;
    slowFrameFrees += other.slowFrameFrees;
    localBankAccesses += other.localBankAccesses;
    localMemAccesses += other.localMemAccesses;
    globalAccesses += other.globalAccesses;
    preemptions += other.preemptions;
    for (unsigned i = 0; i < opCount.size(); ++i)
        opCount[i] += other.opCount[i];
    for (unsigned i = 0; i < instLenCount.size(); ++i)
        instLenCount[i] += other.instLenCount[i];
}

Machine::Machine(Memory &memory, const LoadedImage &image,
                 const MachineConfig &config)
    : mem_(memory), image_(image), config_(config),
      layout_(image.layout()),
      heap_(memory, image.layout(), image.classes()),
      banks_(std::max(2u, config.numBanks), config.bankWords)
{
    if (config_.useDataCache)
        cache_ = std::make_unique<Cache>(config_.cacheConfig,
                                         config_.latency);
    if (config_.accel.enabled) {
        accel_ = std::make_unique<Accel>(config_.accel, image,
                                         memory.codeEpoch());
        sblocks_ = std::make_unique<SuperblockCache>(
            config_.accel.sblockEntries, memory.codeEpoch());
    }
    if (banked()) {
        const unsigned payload =
            std::min(config_.fastFramePayloadWords,
                     image.classes().maxWords());
        fastFsi_ = image.classes().fsiFor(payload);
        fastFramesEnabled_ = config_.fastFrameStackDepth > 0;
        fastFrames_.assign(config_.fastFrameStackDepth, nilAddr);
    }
    stackCap_ = banked() ? banks_.bankWords() - frame::varsOffset
                         : static_cast<unsigned>(stack_.size());
    retStack_.init(config_.returnStackDepth);
    reset();
}

Machine::~Machine() = default;

void
Machine::reset()
{
    lf_ = nilAddr;
    gf_ = nilAddr;
    pcAbs_ = 0;
    codeBase_ = 0;
    codeBaseValid_ = false;
    curProcEntry_ = 0;
    shadow_.clear();
    returnCtx_ = nilContext;
    sp_ = 0;
    retStack_.clear();
    if (sblocks_)
        sblocks_->flushReturns();
    banks_.reset();
    curLbank_ = -1;
    stackBank_ = -1;
    curFrameFlagged_ = false;
    curFrameFsiValid_ = false;
    curFrameRetainedHint_ = false;
    fastTop_ = 0;
    sliceLeft_ = config_.timesliceSteps;
    switchPending_ = false;
    preempting_ = false;
    stop_ = StopReason::Halted;
    result_ = RunResult();

    if (banked()) {
        stackBank_ = banks_.assignFree(stackOwner);
        if (fastFramesEnabled_) {
            while (fastTop_ < config_.fastFrameStackDepth)
                fastFrames_[fastTop_++] = heap_.alloc(fastFsi_);
        }
    }
}

// ---------------------------------------------------------------------
// Cost accounting
// ---------------------------------------------------------------------

std::uint8_t
Machine::fetchCodeByte(unsigned offset_from_pc)
{
    // The IFU prefetches sequential code, so byte fetches cost no
    // extra cycles; they are still counted as code traffic.
    return mem_.readByte(pcAbs_ + offset_from_pc);
}

// ---------------------------------------------------------------------
// Variables and the evaluation stack
// ---------------------------------------------------------------------

Word
Machine::readVar(unsigned index)
{
    const unsigned offset = frame::varsOffset + index;
    if (banked() && curLbank_ >= 0 && offset < banks_.bankWords()) {
        ++stats_.localBankAccesses;
        stats_.cycles += config_.latency.regCycles;
        return banks_.readOwned(curLbank_, offset);
    }
    ++stats_.localMemAccesses;
    return readData(lf_ + offset);
}

void
Machine::writeVar(unsigned index, Word value)
{
    const unsigned offset = frame::varsOffset + index;
    if (banked() && curLbank_ >= 0 && offset < banks_.bankWords()) {
        ++stats_.localBankAccesses;
        stats_.cycles += config_.latency.regCycles;
        banks_.writeOwned(curLbank_, offset, value);
        return;
    }
    ++stats_.localMemAccesses;
    writeData(lf_ + offset, value);
}

Word
Machine::readGlobal(unsigned index)
{
    ++stats_.globalAccesses;
    return readData(gf_ + 1 + index);
}

void
Machine::writeGlobal(unsigned index, Word value)
{
    ++stats_.globalAccesses;
    writeData(gf_ + 1 + index, value);
}

unsigned
Machine::stackCapacity() const
{
    return stackCap_;
}

void
Machine::push(Word value)
{
    if (sp_ >= stackCap_) [[unlikely]] {
        trap(2, "evaluation stack overflow");
        return;
    }
    if (banked())
        banks_.writeOwned(stackBank_, frame::varsOffset + sp_, value);
    else
        stack_[sp_] = value;
    ++sp_;
}

Word
Machine::pop()
{
    if (sp_ == 0) [[unlikely]] {
        trap(3, "evaluation stack underflow");
        return 0;
    }
    --sp_;
    if (banked())
        return banks_.readOwned(stackBank_, frame::varsOffset + sp_);
    return stack_[sp_];
}

Word
Machine::stackAt(unsigned index_from_bottom) const
{
    if (index_from_bottom >= sp_)
        panic("stackAt: index {} >= depth {}", index_from_bottom, sp_);
    if (banked())
        return banks_.read(stackBank_,
                           frame::varsOffset + index_from_bottom);
    return stack_[index_from_bottom];
}

Word
Machine::popValue()
{
    return pop();
}

void
Machine::pushValue(Word value)
{
    push(value);
}

std::vector<Addr>
Machine::returnStackFrames() const
{
    std::vector<Addr> out;
    out.reserve(retStack_.size());
    for (unsigned i = 0; i < retStack_.size(); ++i)
        out.push_back(retStack_.at(i).lf);
    return out;
}

void
Machine::setScheduler(Scheduler scheduler)
{
    scheduler_ = std::move(scheduler);
}

void
Machine::setObserver(XferObserver *observer)
{
    observer_ = observer;
    if (observer != nullptr)
        shadow_.clear();
}

void
Machine::setSampler(CycleSampler *sampler, Tick interval_cycles)
{
    sampler_ = sampler;
    sampleInterval_ = interval_cycles > 0 ? interval_cycles : 1;
    nextSampleAt_ = stats_.cycles + sampleInterval_;
}

void
Machine::fireSample()
{
    // The threaded loop only reaches here at boundaries where its
    // register-held deltas have been spilled; the block-granular
    // opcode/length histograms and accel counters may still be
    // deferred, so fold them now — samples must read a
    // self-consistent machine.
    if (sblocks_)
        sblocks_->flushDeferred(stats_, accel_->stats);
    foldXferSums();
    sampler_->onSample(*this);
    nextSampleAt_ = sampler_->nextDeadline(nextSampleAt_, sampleInterval_,
                                           stats_.cycles);
    // The anchor is only meaningful inside the callback.
    sampleAnchorPc_ = 0;
}

void
Machine::setRetained(Addr frame_ptr, bool retained)
{
    heap_.setRetained(frame_ptr, retained);
    if (frame_ptr == lf_)
        curFrameRetainedHint_ = retained;
}

void
Machine::resetStats()
{
    stats_ = MachineStats();
    if (accel_)
        accel_->stats = AccelStats();
}

Word
Machine::inspectVar(Addr frame_ptr, unsigned index) const
{
    const unsigned offset = frame::varsOffset + index;
    if (banked() && offset < banks_.bankWords()) {
        const int bank = banks_.bankOf(frame_ptr);
        if (bank >= 0)
            return banks_.read(bank, offset);
    }
    return mem_.peek(frame_ptr + offset);
}

// ---------------------------------------------------------------------
// Program control
// ---------------------------------------------------------------------

void
Machine::start(const std::string &module_name,
               const std::string &proc_name, std::span<const Word> args)
{
    startContext(image_.procDescriptor(module_name, proc_name), args);
}

void
Machine::startContext(Word descriptor, std::span<const Word> args)
{
    stop_ = StopReason::Running;
    result_ = RunResult();
    // The entry call resolves before run()'s epoch poll gets a
    // chance: catch host-side patches (loader, relocator) that
    // happened between runs here.
    if (accel_)
        accel_->sync(mem_.codeEpoch());
    for (Word a : args)
        push(a);
    callDescriptor(descriptor, XferKind::ExtCall);
}

RunResult
Machine::run()
{
    // The threaded backend runs whenever it is configured. Observers,
    // exact samplers, preemption and the step budget all ride it: it
    // takes plain eager steps only where a boundary event could fall
    // inside a block (threaded.cc).
    std::uint64_t steps = 0;
    try {
        if (sblocks_) {
            if (banked())
                threadedLoopT<true>(steps);
            else
                threadedLoopT<false>(steps);
        } else {
            while (stop_ == StopReason::Running) {
                if (steps >= config_.maxSteps) {
                    stopWith(StopReason::StepLimit,
                             "step budget exhausted");
                    break;
                }
                step();
                ++steps;
            }
        }
    } catch (const FatalError &err) {
        stopWith(StopReason::Error, err.what());
    }
    result_.steps += steps;
    return result_;
}

void
Machine::stopWith(StopReason reason, std::string message)
{
    stop_ = reason;
    result_.reason = reason;
    result_.message = std::move(message);
}

void
Machine::step()
{
    if (stop_ != StopReason::Running)
        return;
    if (accel_)
        accel_->sync(mem_.codeEpoch());
    stepCore();
    maybePreempt();
    if (sampler_ != nullptr && stats_.cycles >= nextSampleAt_)
        [[unlikely]] {
        // Anchor to the instruction that spent the cycles: a transfer
        // that expires the budget has already moved pc() to its
        // destination, but the exact profiler charges its cost to the
        // source.
        sampleAnchorPc_ = instStart_;
        fireSample();
    }
}

void
Machine::stepCore()
{
    instStart_ = pcAbs_;
    const isa::Inst inst =
        isa::decode([this](unsigned i) { return fetchCodeByte(i); });
    pcAbs_ += inst.length;

    ++stats_.steps;
    stats_.cycles += config_.latency.decodeCycles;
    ++stats_.opCount[static_cast<std::uint8_t>(inst.op)];
    if (inst.length < stats_.instLenCount.size())
        ++stats_.instLenCount[inst.length];

    execute(inst);
}

void
Machine::maybePreempt()
{
    if (config_.timesliceSteps == 0 || !scheduler_ ||
        stop_ != StopReason::Running)
        return;
    if (sliceLeft_ > 1) {
        --sliceLeft_;
    } else {
        switchPending_ = true;
        sliceLeft_ = config_.timesliceSteps;
    }
    // The switch waits for an interruptible point: instruction
    // boundary, empty evaluation stack, a live frame. (§3: the timer
    // trap is just another XFER; Mesa requires the stack empty.)
    if (!switchPending_ || sp_ != 0 || lf_ == nilAddr)
        return;
    switchPending_ = false;
    ++stats_.preemptions;
    preempting_ = true;
    processSwitch();
    preempting_ = false;
}

// ---------------------------------------------------------------------
// Instruction execution
// ---------------------------------------------------------------------

void
Machine::execute(const isa::Inst &inst, CallSite *site)
{
    using isa::OpClass;

    switch (inst.cls) {
      case OpClass::Noop:
        break;
      case OpClass::Halt:
        stopWith(StopReason::Halted, "HALT");
        break;
      case OpClass::Dup: {
        const Word v = pop();
        push(v);
        push(v);
        break;
      }
      case OpClass::Drop:
        pop();
        break;
      case OpClass::Exch: {
        const Word a = pop();
        const Word b = pop();
        push(a);
        push(b);
        break;
      }
      case OpClass::Out:
        output_.push_back(pop());
        break;
      case OpClass::LoadRetCtx:
        push(returnCtx_);
        break;
      case OpClass::Xfer:
        xferTo(pop());
        break;
      case OpClass::Ret:
        doReturn();
        break;
      case OpClass::Brk:
        trap(1, "BRK trap");
        break;
      case OpClass::Yield:
        processSwitch();
        break;

      case OpClass::LoadLocal:
        push(readVar(static_cast<unsigned>(inst.operand)));
        break;
      case OpClass::StoreLocal:
        writeVar(static_cast<unsigned>(inst.operand), pop());
        break;
      case OpClass::LoadLocalAddr: {
        // §7.4 (C1/C2): the variable must have an address, and the
        // register copy must not go stale. The conservative policy:
        // flag the frame and flush/drop its bank, making storage the
        // only copy from here on.
        if (banked() && curLbank_ >= 0)
            dropCurrentBank();
        const Addr addr =
            lf_ + frame::varsOffset + static_cast<unsigned>(inst.operand);
        push(static_cast<Word>(addr));
        break;
      }
      case OpClass::LoadGlobal:
        push(readGlobal(static_cast<unsigned>(inst.operand)));
        break;
      case OpClass::StoreGlobal:
        writeGlobal(static_cast<unsigned>(inst.operand), pop());
        break;
      case OpClass::LoadImm:
        push(static_cast<Word>(inst.operand));
        break;

      case OpClass::LoadIndirect: {
        const Addr addr = pop();
        Word value = 0;
        if (banked() && divertToBank(addr, false, value)) {
            push(value);
        } else {
            push(readData(addr));
        }
        break;
      }
      case OpClass::StoreIndirect: {
        const Addr addr = pop();
        Word value = pop();
        if (!(banked() && divertToBank(addr, true, value)))
            writeData(addr, value);
        break;
      }
      case OpClass::ReadField: {
        const Addr addr = pop();
        push(readData(addr + static_cast<unsigned>(inst.operand)));
        break;
      }
      case OpClass::WriteField: {
        const Addr addr = pop();
        const Word value = pop();
        writeData(addr + static_cast<unsigned>(inst.operand), value);
        break;
      }
      case OpClass::LoadDesc:
        push(readMem(gf_ - 1 - static_cast<unsigned>(inst.operand),
                     AccessKind::Table));
        break;

      case OpClass::Arith:
      case OpClass::Compare:
        execArith(inst.op);
        break;

      case OpClass::Jump:
        pcAbs_ = instStart_ + inst.operand;
        break;
      case OpClass::JumpZero:
        if (pop() == 0)
            pcAbs_ = instStart_ + inst.operand;
        break;
      case OpClass::JumpNotZero:
        if (pop() != 0)
            pcAbs_ = instStart_ + inst.operand;
        break;

      case OpClass::ExtCall:
        callExternal(static_cast<unsigned>(inst.operand), site);
        break;
      case OpClass::LocalCall:
        callLocal(static_cast<unsigned>(inst.operand), site);
        break;
      case OpClass::DirectCall:
        callDirect(static_cast<CodeByteAddr>(inst.operand), site);
        break;
      case OpClass::ShortDirectCall:
        callDirect(instStart_ + inst.operand, site);
        break;
      case OpClass::FatCall:
        callFat(static_cast<CodeByteAddr>(inst.operand),
                static_cast<Addr>(inst.operand2), site);
        break;

      case OpClass::Illegal:
        trap(4, strfmt("illegal opcode {} at {}",
                       static_cast<int>(
                           static_cast<std::uint8_t>(inst.op)),
                       instStart_));
        break;
      default:
        panic("unhandled op class");
    }
}

void
Machine::execArith(isa::Op op)
{
    using isa::Op;
    if (op == Op::NEG || op == Op::NOT) {
        // Unary: pop-then-push is a net stack effect of zero, so with
        // an operand present the value can be rewritten in place.
        // push()/pop() charge no simulated cost — skipping their
        // checks changes nothing simulated.
        if (sp_ >= 1) [[likely]] {
            const unsigned top = sp_ - 1;
            if (banked()) {
                const Word v =
                    banks_.readOwned(stackBank_, frame::varsOffset + top);
                banks_.writeOwned(
                    stackBank_, frame::varsOffset + top,
                    op == Op::NEG
                        ? static_cast<Word>(-static_cast<SWord>(v))
                        : static_cast<Word>(~v));
            } else {
                const Word v = stack_[top];
                stack_[top] =
                    op == Op::NEG
                        ? static_cast<Word>(-static_cast<SWord>(v))
                        : static_cast<Word>(~v);
            }
            return;
        }
        const Word v = pop();
        push(op == Op::NEG ? static_cast<Word>(-static_cast<SWord>(v))
                           : static_cast<Word>(~v));
        return;
    }

    if (sp_ >= 2) [[likely]] {
        // Binary fast path: with both operands present the pops
        // cannot underflow and the in-place result store cannot
        // overflow (net stack effect -1, and sp_ <= stackCap_ is a
        // push() invariant).
        const unsigned base = sp_ - 2;
        Word a, b;
        if (banked()) {
            a = banks_.readOwned(stackBank_, frame::varsOffset + base);
            b = banks_.readOwned(stackBank_,
                                 frame::varsOffset + base + 1);
        } else {
            a = stack_[base];
            b = stack_[base + 1];
        }
        bool div_zero = false;
        const Word r = binaryResult(op, a, b, div_zero);
        sp_ = base;
        if (div_zero) [[unlikely]] {
            trap(5, "division by zero");
            return;
        }
        if (banked())
            banks_.writeOwned(stackBank_, frame::varsOffset + base, r);
        else
            stack_[base] = r;
        sp_ = base + 1;
        return;
    }

    // Underflow path: keep the original pop/pop sequence so the trap
    // order and the post-trap state are exactly the historical ones.
    const Word b = pop();
    const Word a = pop();
    bool div_zero = false;
    const Word r = binaryResult(op, a, b, div_zero);
    if (div_zero) {
        trap(5, "division by zero");
        return;
    }
    push(r);
}

} // namespace fpc
