/**
 * @file
 * Machine configuration: which of the paper's implementations the
 * processor realizes, and the model parameters of §6–§7.
 */

#ifndef FPC_MACHINE_CONFIG_HH
#define FPC_MACHINE_CONFIG_HH

#include <cstdint>

#include "machine/accel.hh"
#include "memory/cache.hh"
#include "memory/latency.hh"

namespace fpc
{

/** The four implementations of the control-transfer model. */
enum class Impl
{
    Simple, ///< I1 (§4): heap frames, inline descriptors, no IFU
    Mesa,   ///< I2 (§5): compact encoding, LV/GFT/EV indirection
    Ifu,    ///< I3 (§6): I2 + IFU-followed DIRECTCALLs + return stack
    Banked  ///< I4 (§7): I3 + register banks + fast frame stack
};

const char *implName(Impl impl);

/** Everything configurable about the simulated processor. */
struct MachineConfig
{
    Impl impl = Impl::Mesa;

    LatencyModel latency;

    /** I3/I4: IFU return stack depth ("a small stack", §6). */
    unsigned returnStackDepth = 8;

    /** I4: number of register banks ("say 4-8", §7.1). */
    unsigned numBanks = 4;
    /** I4: words per bank ("some modest fixed size (say 16 words)"). */
    unsigned bankWords = 16;
    /** I4: flush only written words ("keep track of which registers
     *  have been written, to avoid the cost of dumping registers which
     *  have never been written", §7.1). */
    bool flushDirtyOnly = true;

    /** I4: depth of the processor's stack of free standard frames
     *  (§7.1: "the processor can keep a stack of free frames of this
     *  size, and allocation will be extremely fast"). */
    unsigned fastFrameStackDepth = 16;
    /** I4: payload words of the standard fast frame (§7.1: 80 bytes =
     *  40 words covers ~95% of frames). */
    unsigned fastFramePayloadWords = 40;

    /** Route program data references through a cache timing model
     *  (for the §7.3 banks-vs-cache study). */
    bool useDataCache = false;
    CacheConfig cacheConfig;

    /** Preemptive timeslice: after this many executed instructions the
     *  machine performs a genuine ProcSwitch XFER through the installed
     *  scheduler hook (§3's process switch, driven by a timer trap
     *  instead of a YIELD). The switch is deferred to the next
     *  instruction boundary where the evaluation stack is empty — the
     *  Mesa rule for interruptible points — so the argument record of
     *  an in-flight expression is never torn. 0 disables preemption. */
    std::uint64_t timesliceSteps = 0;

    /** Interpreter step budget for run(). */
    std::uint64_t maxSteps = 200'000'000;

    /** Host-side acceleration (the threaded superblock backend + XFER
     *  link caches). Pure wall-clock optimization: every
     *  simulated number is bit-identical with it on or off (see
     *  docs/PERFORMANCE.md), so it defaults to on. */
    AccelConfig accel;
};

} // namespace fpc

#endif // FPC_MACHINE_CONFIG_HH
