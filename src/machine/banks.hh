/**
 * @file
 * The register-bank file of §7.1–§7.2 and Figure 3.
 *
 * Each bank can shadow the first few words of one local frame, or hold
 * the evaluation stack. A call renames the stack bank to become the
 * callee's local-frame bank ("the arguments will automatically appear
 * as the first few local variables, without any actual data
 * movement") and assigns a fresh bank as the new stack. Banks are not
 * used in last-in first-out order (Figure 3).
 *
 * The bank file itself only manages storage and ownership; the
 * machine decides when to flush or load and charges the memory
 * traffic.
 */

#ifndef FPC_MACHINE_BANKS_HH
#define FPC_MACHINE_BANKS_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace fpc
{

/** The register-bank file. */
class BankFile
{
  public:
    BankFile(unsigned num_banks, unsigned bank_words);

    unsigned numBanks() const { return numBanks_; }
    unsigned bankWords() const { return bankWords_; }

    /** Words a bank can hold at most (the constructor's range). */
    static constexpr unsigned maxBankWords = 32;

    /** @name Ownership. Inline: every I4 transfer renames, assigns or
     *  frees a bank, and returns look banks up by owner. @{ */

    /** Bank currently shadowing the frame, or -1. */
    [[gnu::always_inline]] int
    bankOf(Addr frame_ptr) const
    {
        for (unsigned i = 0; i < numBanks_; ++i)
            if (!banks_[i].free && banks_[i].owner == frame_ptr)
                return static_cast<int>(i);
        return -1;
    }

    /** Take a free bank for the frame; -1 if none is free. */
    [[gnu::always_inline]] int
    assignFree(Addr frame_ptr)
    {
        for (unsigned i = 0; i < numBanks_; ++i) {
            Bank &b = banks_[i];
            if (b.free) {
                b.free = false;
                b.owner = frame_ptr;
                b.dirty = 0;
                b.assignedAt = ++clock_;
                b.ownerFsi = 0;
                return static_cast<int>(i);
            }
        }
        return -1;
    }

    /**
     * Pick the eviction victim: the oldest-assigned owned bank that is
     * not one of the pinned banks. -1 if every bank is pinned.
     */
    [[gnu::always_inline]] int
    victim(int pinned_a, int pinned_b) const
    {
        int best = -1;
        for (unsigned i = 0; i < numBanks_; ++i) {
            const int bi = static_cast<int>(i);
            if (banks_[i].free || bi == pinned_a || bi == pinned_b)
                continue;
            if (best < 0 ||
                banks_[i].assignedAt < banks_[best].assignedAt)
                best = bi;
        }
        return best;
    }

    /** Rename a bank to shadow a (new) frame, keeping its contents. */
    [[gnu::always_inline]] void
    rename(int bank, Addr new_owner)
    {
        Bank &b = checked(bank);
        if (b.free) [[unlikely]]
            freeBankPanic();
        b.owner = new_owner;
        b.assignedAt = ++clock_;
    }

    /** Release a bank (its contents become garbage). */
    [[gnu::always_inline]] void
    free(int bank)
    {
        Bank &b = checked(bank);
        b.free = true;
        b.owner = nilAddr;
        b.dirty = 0;
        b.ownerFsi = 0;
    }
    /** @} */

    [[gnu::always_inline]] bool
    isFree(int bank) const
    {
        return banks_[bank].free;
    }
    [[gnu::always_inline]] Addr
    owner(int bank) const
    {
        return banks_[bank].owner;
    }

    /** Inline: these run 2-4 times per interpreted instruction on the
     *  I4 engine (every push/pop and local-variable access). */
    [[gnu::always_inline]] Word
    read(int bank, unsigned word) const
    {
        const Bank &b = bankAt(bank, word);
        return b.data[word];
    }

    [[gnu::always_inline]] void
    write(int bank, unsigned word, Word value)
    {
        Bank &b = bankAt(bank, word);
        b.data[word] = value;
        b.dirty |= 1u << word;
    }

    /** @name Unchecked access for the machine's hottest bank paths.
     *
     * The eval-stack and current-local-frame accesses already
     * establish the preconditions (bank owned, word < bankWords())
     * before every call — the stack pointer is bounded by the bank
     * capacity and curLbank_/stackBank_ are only ever valid owned
     * banks — so these skip bankAt()'s revalidation.
     * @{ */
    [[gnu::always_inline]] Word
    readOwned(int bank, unsigned word) const
    {
        return banks_[bank].data[word];
    }

    [[gnu::always_inline]] void
    writeOwned(int bank, unsigned word, Word value)
    {
        Bank &b = banks_[bank];
        b.data[word] = value;
        b.dirty |= 1u << word;
    }
    /** @} */

    /** @name Stable raw views for block-cached bank pointers.
     *
     * A bank's data vector is sized at construction and never
     * reallocates, so the machine's threaded loop can hold these
     * across a superblock (re-deriving them whenever the bank
     * assignment can change, i.e. at every transfer).
     * @{ */
    Word *dataPtr(int bank) { return banks_[bank].data.data(); }
    std::uint32_t *dirtyPtr(int bank) { return &banks_[bank].dirty; }
    /** @} */

    /** Bitmask of written words since the last markClean. */
    std::uint32_t dirtyMask(int bank) const { return banks_[bank].dirty; }
    void markClean(int bank) { banks_[bank].dirty = 0; }

    /** Host-side cached frame metadata (fsi / flags snapshot). */
    [[gnu::always_inline]] void
    setOwnerFsi(int bank, unsigned fsi)
    {
        checked(bank).ownerFsi = fsi;
    }
    unsigned ownerFsi(int bank) const { return banks_[bank].ownerFsi; }

    /** Drop every ownership (full flush is handled by the machine). */
    void reset();

  private:
    struct Bank
    {
        bool free = true;
        Addr owner = nilAddr;
        std::uint32_t dirty = 0;
        std::uint64_t assignedAt = 0;
        unsigned ownerFsi = 0;
        std::array<Word, maxBankWords> data{};
    };

    /** Bounds-checked bank reference for the ownership calls. */
    [[gnu::always_inline]] Bank &
    checked(int bank)
    {
        if (static_cast<unsigned>(bank) >= numBanks_) [[unlikely]]
            bankRangePanic(bank, 0);
        return banks_[bank];
    }

    [[gnu::always_inline]] const Bank &
    bankAt(int bank, unsigned word) const
    {
        if (static_cast<unsigned>(bank) >= numBanks_ ||
            banks_[bank].free || word >= bankWords_)
            bankRangePanic(bank, word);
        return banks_[bank];
    }

    [[gnu::always_inline]] Bank &
    bankAt(int bank, unsigned word)
    {
        return const_cast<Bank &>(
            std::as_const(*this).bankAt(bank, word));
    }

    [[noreturn]] void bankRangePanic(int bank, unsigned word) const;
    [[noreturn]] static void freeBankPanic();

    std::vector<Bank> banks_;
    unsigned numBanks_ = 0;
    unsigned bankWords_;
    std::uint64_t clock_ = 0;
};

} // namespace fpc

#endif // FPC_MACHINE_BANKS_HH
