/**
 * @file
 * State digests: one 64-bit FNV-1a hash summarizing the simulated
 * processor's state, the primitive the record/replay layer
 * (src/replay/) builds on.
 *
 * Two scopes:
 *
 *  - DigestScope::Full covers everything the engine owns — the
 *    architectural registers and evaluation stack, the program
 *    output, the frame-heap AV/live census, the IFU return stack and
 *    the resident register banks. Two runs of the same program on the
 *    same configuration produce identical Full digests at identical
 *    step boundaries, with host acceleration on or off (every input
 *    is simulated state, and the determinism contract of
 *    docs/PERFORMANCE.md covers all of it).
 *
 *  - DigestScope::Arch covers only the state every engine represents
 *    identically — PC, evaluation-stack values, current global frame,
 *    program output. Frame addresses are excluded (I4's fast-frame
 *    stack allocates them in a different order), as is every
 *    microarchitectural structure, so Arch digests are comparable
 *    *across engines* at XFER granularity: the same image run on I1
 *    and I4 yields the same Arch digest stream for programs that do
 *    not take addresses of locals.
 *
 * Every read is unaccounted (public accessors, Memory::peek under the
 * hood), so taking a digest charges zero simulated cycles.
 */

#ifndef FPC_MACHINE_DIGEST_HH
#define FPC_MACHINE_DIGEST_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "machine/machine.hh"

namespace fpc
{

/** FNV-1a, 64-bit: the offset basis. */
constexpr std::uint64_t fnvOffsetBasis = 0xcbf29ce484222325ull;

/** Fold one byte into an FNV-1a hash. */
constexpr std::uint64_t
fnv1aByte(std::uint64_t h, std::uint8_t byte)
{
    return (h ^ byte) * 0x00000100000001b3ull;
}

/** Fold a 64-bit value in, little-endian byte order. */
constexpr std::uint64_t
fnv1aWord(std::uint64_t h, std::uint64_t value)
{
    for (unsigned i = 0; i < 8; ++i)
        h = fnv1aByte(h, static_cast<std::uint8_t>(value >> (8 * i)));
    return h;
}

/** What a state digest covers. */
enum class DigestScope
{
    Arch, ///< engine-independent state only (cross-engine comparison)
    Full  ///< everything, including microarchitectural structures
};

/** Digest the machine's current state (zero simulated cost). */
std::uint64_t stateDigest(const Machine &machine,
                          DigestScope scope = DigestScope::Full);

/**
 * Per-XFER digest mode: an observer that digests the machine after
 * every completed transfer whose step stamp falls inside [beginStep,
 * endStep]. The replay layer's divergence bisection runs the suspect
 * interval at this granularity; cross-engine comparison uses the full
 * run with DigestScope::Arch.
 */
class XferDigester : public XferObserver
{
  public:
    struct Entry
    {
        std::uint64_t step = 0;
        std::uint64_t digest = 0;
    };

    explicit XferDigester(DigestScope scope,
                          std::uint64_t begin_step = 0,
                          std::uint64_t end_step =
                              std::numeric_limits<std::uint64_t>::max())
        : scope_(scope), beginStep_(begin_step), endStep_(end_step)
    {}

    void
    onXfer(const XferRecord &record, const Machine &machine) override
    {
        if (record.step < beginStep_ || record.step > endStep_)
            return;
        entries_.push_back({record.step, stateDigest(machine, scope_)});
    }

    const std::vector<Entry> &entries() const { return entries_; }

  private:
    DigestScope scope_;
    std::uint64_t beginStep_;
    std::uint64_t endStep_;
    std::vector<Entry> entries_;
};

} // namespace fpc

#endif // FPC_MACHINE_DIGEST_HH
