#include "machine/banks.hh"

#include "common/logging.hh"

namespace fpc
{

BankFile::BankFile(unsigned num_banks, unsigned bank_words)
    : bankWords_(bank_words)
{
    if (num_banks < 2)
        panic("BankFile: at least two banks are required (stack + "
              "frame)");
    if (bank_words < 8 || bank_words > maxBankWords)
        panic("BankFile: bank size {} out of the modelled range",
              bank_words);
    banks_.resize(num_banks);
    numBanks_ = num_banks;
}

void
BankFile::bankRangePanic(int bank, unsigned word) const
{
    panic("bank access out of range (bank {}, word {})", bank, word);
}

void
BankFile::freeBankPanic()
{
    panic("rename of a free bank");
}

void
BankFile::reset()
{
    for (auto &b : banks_) {
        b.free = true;
        b.owner = nilAddr;
        b.dirty = 0;
        b.ownerFsi = 0;
    }
}

} // namespace fpc
