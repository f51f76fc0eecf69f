#include "stats/stats.hh"

#include <cmath>

#include "common/logging.hh"

namespace fpc::stats
{

void
Distribution::reset()
{
    *this = Distribution();
}

void
Distribution::merge(const Distribution &other)
{
    if (other.count_ == 0)
        return;
    count_ += other.count_;
    sum_ += other.sum_;
    sumSq_ += other.sumSq_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
Distribution::sampleSums(CountT n, double sum, double sum_sq, double lo,
                         double hi)
{
    if (n == 0)
        return;
    count_ += n;
    sum_ += sum;
    sumSq_ += sum_sq;
    min_ = std::min(min_, lo);
    max_ = std::max(max_, hi);
}

double
Distribution::variance() const
{
    if (count_ < 2)
        return 0.0;
    const double m = mean();
    return std::max(0.0, sumSq_ / count_ - m * m);
}

double
Distribution::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double bucket_width, std::size_t bucket_count)
    : bucketWidth_(bucket_width), counts_(bucket_count, 0)
{
    if (bucket_width <= 0 || bucket_count == 0)
        panic("Histogram: bad shape ({} x {})", bucket_width, bucket_count);
}

void
Histogram::sample(double val, CountT count)
{
    dist_.sample(val, count);
    const auto idx = static_cast<std::size_t>(val / bucketWidth_);
    if (val < 0 || idx >= counts_.size())
        overflow_ += count;
    else
        counts_[idx] += count;
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    overflow_ = 0;
    dist_.reset();
}

void
Histogram::merge(const Histogram &other)
{
    if (bucketWidth_ != other.bucketWidth_ ||
        counts_.size() != other.counts_.size())
        panic("Histogram::merge: shape mismatch ({} x {} vs {} x {})",
              bucketWidth_, counts_.size(), other.bucketWidth_,
              other.counts_.size());
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    overflow_ += other.overflow_;
    dist_.merge(other.dist_);
}

double
Histogram::fractionAtOrBelow(double val) const
{
    if (dist_.count() == 0)
        return 0.0;
    CountT at_or_below = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        // A bucket counts only when it lies entirely at or below val.
        if ((i + 1) * bucketWidth_ > val)
            break;
        at_or_below += counts_[i];
    }
    return static_cast<double>(at_or_below) / dist_.count();
}

double
Histogram::percentile(double p) const
{
    const CountT n = dist_.count();
    if (n == 0)
        return 0.0;
    p = std::min(1.0, std::max(0.0, p));
    const double rank = p * static_cast<double>(n);
    // Rank 0 is the smallest sample by definition — even when every
    // sample overflowed the bucketed range and the scan below would
    // only ever see the recorded maximum.
    if (rank <= 0.0)
        return dist_.min();
    double cum = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const double in_bucket = static_cast<double>(counts_[i]);
        if (in_bucket > 0 && cum + in_bucket >= rank) {
            // Interpolate the rank's position inside [i*w, (i+1)*w).
            const double frac =
                std::max(0.0, rank - cum) / in_bucket;
            const double v = (i + frac) * bucketWidth_;
            return std::min(dist_.max(), std::max(dist_.min(), v));
        }
        cum += in_bucket;
    }
    // The rank lands among overflow samples; all we know about them
    // is the recorded extremum.
    return dist_.max();
}

StatGroup::Entry &
StatGroup::newEntry(const std::string &name, std::string desc)
{
    auto [it, inserted] = entries_.try_emplace(name);
    if (!inserted)
        panic("stat '{}' registered twice in group '{}'", name, name_);
    it->second.desc = std::move(desc);
    order_.push_back(name);
    return it->second;
}

Counter &
StatGroup::counter(const std::string &name, std::string desc)
{
    auto &e = newEntry(name, std::move(desc));
    e.counter = std::make_unique<Counter>();
    return *e.counter;
}

Distribution &
StatGroup::distribution(const std::string &name, std::string desc)
{
    auto &e = newEntry(name, std::move(desc));
    e.dist = std::make_unique<Distribution>();
    return *e.dist;
}

Histogram &
StatGroup::histogram(const std::string &name, double bucket_width,
                     std::size_t buckets, std::string desc)
{
    auto &e = newEntry(name, std::move(desc));
    e.hist = std::make_unique<Histogram>(bucket_width, buckets);
    return *e.hist;
}

const Counter &
StatGroup::findCounter(const std::string &name) const
{
    auto it = entries_.find(name);
    if (it == entries_.end() || !it->second.counter)
        panic("no counter '{}' in group '{}'", name, name_);
    return *it->second.counter;
}

const Distribution &
StatGroup::findDistribution(const std::string &name) const
{
    auto it = entries_.find(name);
    if (it == entries_.end() || !it->second.dist)
        panic("no distribution '{}' in group '{}'", name, name_);
    return *it->second.dist;
}

const Histogram &
StatGroup::findHistogram(const std::string &name) const
{
    auto it = entries_.find(name);
    if (it == entries_.end() || !it->second.hist)
        panic("no histogram '{}' in group '{}'", name, name_);
    return *it->second.hist;
}

bool
StatGroup::hasCounter(const std::string &name) const
{
    auto it = entries_.find(name);
    return it != entries_.end() && it->second.counter != nullptr;
}

void
StatGroup::resetAll()
{
    for (auto &[name, e] : entries_) {
        if (e.counter)
            e.counter->reset();
        if (e.dist)
            e.dist->reset();
        if (e.hist)
            e.hist->reset();
    }
}

void
StatGroup::mergeFrom(const StatGroup &other)
{
    for (const auto &name : other.order_) {
        const Entry &src = other.entries_.at(name);
        auto it = entries_.find(name);
        if (it == entries_.end()) {
            Entry &dst = newEntry(name, src.desc);
            if (src.counter)
                dst.counter = std::make_unique<Counter>(*src.counter);
            else if (src.dist)
                dst.dist = std::make_unique<Distribution>(*src.dist);
            else if (src.hist)
                dst.hist = std::make_unique<Histogram>(*src.hist);
            continue;
        }
        Entry &dst = it->second;
        if (src.counter && dst.counter)
            dst.counter->merge(*src.counter);
        else if (src.dist && dst.dist)
            dst.dist->merge(*src.dist);
        else if (src.hist && dst.hist)
            dst.hist->merge(*src.hist);
        else
            panic("StatGroup::mergeFrom: stat '{}' has mismatched "
                  "types between '{}' and '{}'",
                  name, name_, other.name_);
    }
}

void
StatGroup::visit(const Visitor &visitor) const
{
    for (const auto &name : order_) {
        const Entry &e = entries_.at(name);
        visitor(name, e.desc, e.counter.get(), e.dist.get(),
                e.hist.get());
    }
}

void
StatGroup::dump(std::ostream &os) const
{
    os << "---- " << name_ << " ----\n";
    for (const auto &name : order_) {
        const auto &e = entries_.at(name);
        os << "  " << name << " = ";
        if (e.counter) {
            os << e.counter->value();
        } else if (e.dist) {
            os << "n=" << e.dist->count() << " mean=" << e.dist->mean()
               << " min=" << e.dist->min() << " max=" << e.dist->max();
        } else if (e.hist) {
            os << "n=" << e.hist->count() << " mean=" << e.hist->mean();
        }
        if (!e.desc.empty())
            os << "   # " << e.desc;
        os << "\n";
    }
}

} // namespace fpc::stats
