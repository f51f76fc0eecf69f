#include "machine/accel.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "program/loader.hh"

namespace fpc
{

double
AccelStats::icacheHitRate() const
{
    const CountT total = icacheHits + icacheMisses;
    if (total == 0)
        return 0.0;
    return static_cast<double>(icacheHits) / total;
}

double
AccelStats::linkHitRate() const
{
    const CountT total = linkHits() + linkMisses();
    if (total == 0)
        return 0.0;
    return static_cast<double>(linkHits()) / total;
}

double
AccelStats::chainRate() const
{
    if (sblockExecs == 0)
        return 0.0;
    return static_cast<double>(sblockChainHits) / sblockExecs;
}

namespace
{
double
share(CountT part, CountT rest)
{
    const CountT total = part + rest;
    return total == 0 ? 0.0 : static_cast<double>(part) / total;
}
} // namespace

double
AccelStats::callPlanRate() const
{
    return share(callPlanHits, callPlanFallbacks);
}

double
AccelStats::returnPlanRate() const
{
    return share(returnPlanHits, returnPlanFallbacks);
}

void
AccelStats::merge(const AccelStats &other)
{
    icacheHits += other.icacheHits;
    icacheMisses += other.icacheMisses;
    extHits += other.extHits;
    extMisses += other.extMisses;
    localHits += other.localHits;
    localMisses += other.localMisses;
    directHits += other.directHits;
    directMisses += other.directMisses;
    fatHits += other.fatHits;
    fatMisses += other.fatMisses;
    codeFlushes += other.codeFlushes;
    tableFlushes += other.tableFlushes;
    sblockBuilds += other.sblockBuilds;
    sblockExecs += other.sblockExecs;
    sblockChainHits += other.sblockChainHits;
    sblockFusionHits += other.sblockFusionHits;
    deferredFlushes += other.deferredFlushes;
    callSiteHits += other.callSiteHits;
    callSiteMisses += other.callSiteMisses;
    returnPredHits += other.returnPredHits;
    returnPredMisses += other.returnPredMisses;
    callPlanHits += other.callPlanHits;
    callPlanFallbacks += other.callPlanFallbacks;
    returnPlanHits += other.returnPlanHits;
    returnPlanFallbacks += other.returnPlanFallbacks;
}

Accel::Accel(const AccelConfig &config, const LoadedImage &image,
             std::uint64_t code_epoch)
    : seenEpoch_(code_epoch)
{
    const std::size_t lsize =
        std::bit_ceil(std::max(1u, config.linkEntries));
    linkMask_ = lsize - 1;
    ext_.resize(lsize);
    local_.resize(lsize);
    direct_.resize(lsize);
    fat_.resize(lsize);

    // A data write to one of these words can silently change what a
    // memoized link resolution would produce: any GFT entry (the
    // descriptor -> global-frame step of Figure 1) and each instance's
    // gf[0] code-base word (the global-frame -> code-base step). Link
    // vectors are deliberately absent: the LV read stays a real read
    // on every external call, and its value is the cache key.
    const SystemLayout &layout = image.layout();
    sensitive_.assign(layout.globalEnd, 0);
    for (unsigned i = 0; i < layout.gftEntries; ++i)
        sensitive_[layout.gftAddr + i] = 1;
    for (const PlacedInstance &inst : image.instances())
        sensitive_[inst.gfAddr] = 1;
}

void
Accel::flushLinks()
{
    flushAll();
    ++stats.tableFlushes;
}

void
Accel::flushAll()
{
    for (auto *cache : {&ext_, &local_, &direct_, &fat_})
        for (LinkEntry &e : *cache)
            e.key = invalidKey;
    ++linkGen_;
}

} // namespace fpc
