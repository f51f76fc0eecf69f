/**
 * @file
 * Host-side execution acceleration (see docs/PERFORMANCE.md).
 *
 * The paper's arc I1→I4 removes per-call work by resolving it once
 * per code site: §6's DIRECTCALL conversion moves the LV→GFT→GF→EV
 * walk from call time to load time. The interpreter pays analogous
 * *host* costs — re-decoding the instruction at each PC and
 * re-walking the Figure-1 indirection chain on every external call.
 * The threaded backend (machine/threaded.hh) decodes each code site
 * once into a superblock; this layer memoizes the link walks in XFER
 * link caches: small direct-mapped caches of the resolved (global
 * frame, entry PC, frame-size index) for each resolution discipline
 * (EFC descriptor walk, LFC entry-vector lookup, DFC header read,
 * FCALL fsi byte) — the dynamic analogue of I3's load-time DIRECTCALL
 * conversion.
 *
 * The contract: every *simulated* number (cycles, storage references,
 * MachineStats, traces, profiles) is bit-identical with acceleration
 * on or off. A cache hit still charges the exact storage references
 * and cycles the paper's walk would have made; only the host-side
 * work is skipped. Invalidation: Memory keeps a code-mutation epoch
 * (bumped by every code-byte write and by the loader/relocator), and
 * the machine flushes everything when the epoch moves; data writes
 * that could change a cached mapping (the GFT, a global frame's code
 * base word) flush the link caches through a sensitive-address map.
 */

#ifndef FPC_MACHINE_ACCEL_HH
#define FPC_MACHINE_ACCEL_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace fpc
{

class LoadedImage;

/** Host-acceleration knobs (all host-side; no simulated effect). */
struct AccelConfig
{
    /** Master switch: on runs the threaded backend over the link
     *  caches (machine/threaded.hh); off runs the eager loop, which
     *  decodes every step and walks every link. */
    bool enabled = true;
    /** Entries per link-cache flavor (power of two). */
    unsigned linkEntries = 1u << 8;
    /** Read by nothing: `enabled` alone selects the backend. Kept
     *  because the repository benchmark (perfbench/fpcbench.cc), whose
     *  sources stay fixed across the changes it compares, assigns it. */
    bool threaded = true;
    /** Superblock cache entries (power of two). */
    unsigned sblockEntries = 1u << 12;
};

/** Host-side cache counters (separate from MachineStats on purpose:
 *  simulated statistics are invariant under acceleration). */
struct AccelStats
{
    /** Instructions run out of predecoded superblocks (hits), and
     *  instructions decoded from code bytes: by superblock builds and
     *  by the threaded loop's plain steps (misses). The names predate
     *  superblocks and stay for the reports that read them. */
    CountT icacheHits = 0;
    CountT icacheMisses = 0;

    CountT extHits = 0;    ///< EFC/XFER descriptor walks memoized
    CountT extMisses = 0;
    CountT localHits = 0;  ///< LFC entry-vector lookups memoized
    CountT localMisses = 0;
    CountT directHits = 0; ///< DFC/SDFC header reads memoized
    CountT directMisses = 0;
    CountT fatHits = 0;    ///< FCALL fsi-byte reads memoized
    CountT fatMisses = 0;

    CountT codeFlushes = 0;  ///< full flushes (code epoch moved)
    CountT tableFlushes = 0; ///< link flushes (sensitive data write)

    /** Threaded backend: superblocks decoded, superblock executions,
     *  and block-to-block transitions served by the inline chain
     *  pointer without a cache lookup. */
    CountT sblockBuilds = 0;
    CountT sblockExecs = 0;
    CountT sblockChainHits = 0;
    /** Dynamic executions of fused superinstructions (compare+branch
     *  and load-pair handlers): fused pairs per block × executions. */
    CountT sblockFusionHits = 0;
    /** Times the deferred block accounting folded into MachineStats
     *  (loop exits, cache flushes, boundary samples). */
    CountT deferredFlushes = 0;

    /** Threaded backend, host fast calls: calls resolved by their
     *  block's call-site target cache (a hit also counts as a hit of
     *  its link-cache flavor, so the link hit rate keeps its meaning),
     *  and returns whose successor block came from the host return
     *  stack (predictions taken) or did not (missed: empty stack, no
     *  recorded successor, or one that starts at another PC). */
    CountT callSiteHits = 0;
    CountT callSiteMisses = 0;
    CountT returnPredHits = 0;
    CountT returnPredMisses = 0;
    /** Threaded backend, call and return plans: calls that entered
     *  their callee from the block terminal through the resolved site
     *  (plan hits, also counted as call-site and link hits), calls
     *  whose site was empty or stale and went through execute() to
     *  resolve it (fallbacks), and returns that popped the IFU return
     *  stack (I3/I4) or the return link (I1/I2) in the loop, or went
     *  through execute() because the return stack was empty. */
    CountT callPlanHits = 0;
    CountT callPlanFallbacks = 0;
    CountT returnPlanHits = 0;
    CountT returnPlanFallbacks = 0;

    CountT linkHits() const
    {
        return extHits + localHits + directHits + fatHits;
    }
    CountT linkMisses() const
    {
        return extMisses + localMisses + directMisses + fatMisses;
    }
    double icacheHitRate() const;
    double linkHitRate() const;
    /** Planned calls and returns, as a fraction of the transfers the
     *  block terminals ran (0 when none ran). */
    double callPlanRate() const;
    double returnPlanRate() const;
    /** Block-to-block transitions served by the inline chain pointer,
     *  as a fraction of superblock executions. */
    double chainRate() const;

    /** Fold another machine's counters in (multi-worker runtimes). */
    void merge(const AccelStats &other);
};

/**
 * Where a procedure-call resolution landed: the callee's global
 * frame, entry PC and frame-size index (plus the code base when the
 * resolution path produced it — EFC/LFC do; DFC/FCALL leave it to be
 * recovered from the global frame on transfer out, §5.3).
 */
struct ProcTarget
{
    Addr gf = 0;
    CodeByteAddr codeBase = 0;
    bool codeBaseValid = false;
    unsigned fsi = 0;
    CodeByteAddr entryPc = 0; ///< absolute byte address
};

/**
 * A call site's target cache: the resolution of the one call that ends
 * a superblock, keyed by what varies at run time (the descriptor an
 * EFC read from its link vector, or the code base of an LFC; DFC and
 * FCALL sites take their target from the code itself, so their key
 * is their block's own call target and a filled entry always
 * matches). gen 0 means empty. EFC and LFC entries are valid until
 * Accel::flushLinks, the others for the block's life, which ends when
 * the code epoch moves.
 */
struct CallSite
{
    ProcTarget target;
    std::uint64_t key = 0;
    std::uint64_t gen = 0;
};

/** The caches themselves; owned by a Machine when acceleration is on. */
class Accel
{
  public:
    Accel(const AccelConfig &config, const LoadedImage &image,
          std::uint64_t code_epoch);

    AccelStats stats;

    /** Flush the link caches if the memory's code epoch moved. */
    void
    sync(std::uint64_t code_epoch)
    {
        if (code_epoch != seenEpoch_) {
            flushAll();
            seenEpoch_ = code_epoch;
            ++stats.codeFlushes;
        }
    }

    /** @name XFER link caches, one per resolution discipline.
     *
     * A non-null site is the calling block's target cache: find
     * consults it before the shared table and put refills it. @{ */
    bool findExt(Word descriptor, ProcTarget &out,
                 CallSite *site = nullptr);
    void putExt(Word descriptor, const ProcTarget &target,
                CallSite *site = nullptr);

    bool findLocal(CodeByteAddr code_base, unsigned ev_index,
                   unsigned &fsi, CodeByteAddr &entry_pc,
                   CallSite *site = nullptr);
    void putLocal(CodeByteAddr code_base, unsigned ev_index,
                  const ProcTarget &target, CallSite *site = nullptr);

    bool findDirect(CodeByteAddr target_addr, ProcTarget &out,
                    CallSite *site = nullptr);
    void putDirect(CodeByteAddr target_addr, const ProcTarget &target,
                   CallSite *site = nullptr);

    bool findFat(CodeByteAddr target_addr, unsigned &fsi,
                 CallSite *site = nullptr);
    void putFat(CodeByteAddr target_addr, unsigned fsi,
                CallSite *site = nullptr);
    /** @} */

    /** True when the site holds a live resolution for key: the test
     *  a site lookup makes before it counts a hit. link_scoped
     *  entries (EFC, LFC) also die at flushLinks. */
    [[gnu::always_inline]] bool
    siteLive(const CallSite &site, std::uint64_t key,
             bool link_scoped) const
    {
        return site.gen != 0 && site.key == key &&
               (!link_scoped || site.gen == linkGen_);
    }

    /** The LFC link-cache key. */
    static std::uint64_t
    localKey(CodeByteAddr code_base, unsigned ev_index)
    {
        return (static_cast<std::uint64_t>(code_base) << 16) | ev_index;
    }

    /** True if a data write to addr could change a memoized link
     *  mapping (GFT entry or a global frame's code-base word). */
    [[gnu::always_inline]] bool
    linkSensitive(Addr addr) const
    {
        return addr < sensitive_.size() && sensitive_[addr] != 0;
    }

    /** Drop the link caches (a sensitive data write happened). */
    void flushLinks();
    /** Drop every link cache (the code epoch moved). */
    void flushAll();

  private:
    struct LinkEntry
    {
        std::uint64_t key = invalidKey;
        ProcTarget target;
    };

    static constexpr std::uint64_t invalidKey = ~0ull;

    static std::size_t
    slot(std::uint64_t key, std::size_t mask)
    {
        return (key ^ (key >> 16)) & mask;
    }

    bool findLink(std::vector<LinkEntry> &cache, std::uint64_t key,
                  ProcTarget &out);
    void putLink(std::vector<LinkEntry> &cache, std::uint64_t key,
                 const ProcTarget &target);

    /** The site first, then the shared table (a table hit refills
     *  the site). link_scoped site entries also die at flushLinks. */
    bool lookup(std::vector<LinkEntry> &cache, std::uint64_t key,
                bool link_scoped, CallSite *site, ProcTarget &out);
    void
    putSite(CallSite *site, std::uint64_t key, const ProcTarget &target)
    {
        if (site != nullptr)
            *site = {target, key, linkGen_};
    }

    std::uint64_t seenEpoch_ = 0;
    /** Link-cache generation, bumped by every flush: the validity
     *  stamp of link-scoped call sites. Never 0. */
    std::uint64_t linkGen_ = 1;
    std::size_t linkMask_ = 0;
    std::vector<LinkEntry> ext_;
    std::vector<LinkEntry> local_;
    std::vector<LinkEntry> direct_;
    std::vector<LinkEntry> fat_;
    /** One byte per data-space word below the frame region. */
    std::vector<std::uint8_t> sensitive_;
};

// ---------------------------------------------------------------------
// The link-cache lookups, inline: the threaded loop makes one per call.
// ---------------------------------------------------------------------

inline bool
Accel::findLink(std::vector<LinkEntry> &cache, std::uint64_t key,
                ProcTarget &out)
{
    const LinkEntry &e = cache[slot(key, linkMask_)];
    if (e.key != key)
        return false;
    out = e.target;
    return true;
}

inline void
Accel::putLink(std::vector<LinkEntry> &cache, std::uint64_t key,
               const ProcTarget &target)
{
    LinkEntry &e = cache[slot(key, linkMask_)];
    e.key = key;
    e.target = target;
}

[[gnu::always_inline]] inline bool
Accel::lookup(std::vector<LinkEntry> &cache, std::uint64_t key,
              bool link_scoped, CallSite *site, ProcTarget &out)
{
    if (site != nullptr) {
        if (siteLive(*site, key, link_scoped)) {
            out = site->target;
            ++stats.callSiteHits;
            return true;
        }
        ++stats.callSiteMisses;
    }
    if (!findLink(cache, key, out))
        return false;
    putSite(site, key, out);
    return true;
}

inline bool
Accel::findExt(Word descriptor, ProcTarget &out, CallSite *site)
{
    if (lookup(ext_, descriptor, true, site, out)) {
        ++stats.extHits;
        return true;
    }
    ++stats.extMisses;
    return false;
}

inline void
Accel::putExt(Word descriptor, const ProcTarget &target, CallSite *site)
{
    putLink(ext_, descriptor, target);
    putSite(site, descriptor, target);
}

inline bool
Accel::findLocal(CodeByteAddr code_base, unsigned ev_index,
                 unsigned &fsi, CodeByteAddr &entry_pc, CallSite *site)
{
    // Caches only (fsi, entryPc): multiple instances of a module share
    // one code segment but have distinct global frames, so gf must
    // come from the live machine state, never from the cache.
    const std::uint64_t key = localKey(code_base, ev_index);
    ProcTarget t;
    if (lookup(local_, key, true, site, t)) {
        fsi = t.fsi;
        entry_pc = t.entryPc;
        ++stats.localHits;
        return true;
    }
    ++stats.localMisses;
    return false;
}

inline void
Accel::putLocal(CodeByteAddr code_base, unsigned ev_index,
                const ProcTarget &target, CallSite *site)
{
    const std::uint64_t key = localKey(code_base, ev_index);
    putLink(local_, key, target);
    putSite(site, key, target);
}

inline bool
Accel::findDirect(CodeByteAddr target_addr, ProcTarget &out,
                  CallSite *site)
{
    if (lookup(direct_, target_addr, false, site, out)) {
        ++stats.directHits;
        return true;
    }
    ++stats.directMisses;
    return false;
}

inline void
Accel::putDirect(CodeByteAddr target_addr, const ProcTarget &target,
                 CallSite *site)
{
    putLink(direct_, target_addr, target);
    putSite(site, target_addr, target);
}

inline bool
Accel::findFat(CodeByteAddr target_addr, unsigned &fsi, CallSite *site)
{
    ProcTarget t;
    if (lookup(fat_, target_addr, false, site, t)) {
        fsi = t.fsi;
        ++stats.fatHits;
        return true;
    }
    ++stats.fatMisses;
    return false;
}

inline void
Accel::putFat(CodeByteAddr target_addr, unsigned fsi, CallSite *site)
{
    ProcTarget t;
    t.fsi = fsi;
    putLink(fat_, target_addr, t);
    putSite(site, target_addr, t);
}

} // namespace fpc

#endif // FPC_MACHINE_ACCEL_HH
