/**
 * @file
 * A small statistics package in the spirit of gem5's Stats: named
 * counters, scalar distributions and histograms grouped into a
 * StatGroup, dumped as text. Every simulator component owns a group;
 * benches read individual stats to regenerate the paper's numbers.
 */

#ifndef FPC_STATS_STATS_HH
#define FPC_STATS_STATS_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace fpc::stats
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(CountT n) { value_ += n; return *this; }
    void reset() { value_ = 0; }

    /** Fold another counter in (multi-worker stat merging). */
    void merge(const Counter &other) { value_ += other.value_; }

    CountT value() const { return value_; }

  private:
    CountT value_ = 0;
};

/** Running min/max/mean/variance over a stream of samples. */
class Distribution
{
  public:
    /** Inline: sampled on every XFER (refs and cycles). */
    void
    sample(double val, CountT count = 1)
    {
        count_ += count;
        sum_ += val * count;
        sumSq_ += val * val * count;
        min_ = std::min(min_, val);
        max_ = std::max(max_, val);
    }

    void reset();

    /** Fold another distribution in; exact for count/sum/moments. */
    void merge(const Distribution &other);

    /** Fold n samples given by their sum, sum of squares and extremes:
     *  the same result as sampling them one by one whenever the
     *  samples and all partial sums are integers below 2^53, which
     *  doubles add exactly in any order. */
    void sampleSums(CountT n, double sum, double sum_sq, double lo,
                    double hi);

    CountT count() const { return count_; }
    double total() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double variance() const;
    double stddev() const;

  private:
    CountT count_ = 0;
    double sum_ = 0;
    double sumSq_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** A fixed-bucket histogram over [0, bucketCount * bucketWidth). */
class Histogram
{
  public:
    Histogram(double bucket_width = 1.0, std::size_t bucket_count = 16);

    void sample(double val, CountT count = 1);
    void reset();

    /** Fold another histogram in; panics if the bucket shapes
     *  (width and count) do not match. */
    void merge(const Histogram &other);

    CountT count() const { return dist_.count(); }
    double mean() const { return dist_.mean(); }
    double min() const { return dist_.min(); }
    double max() const { return dist_.max(); }

    std::size_t buckets() const { return counts_.size(); }
    double bucketWidth() const { return bucketWidth_; }
    CountT bucketCount(std::size_t i) const { return counts_.at(i); }
    CountT overflow() const { return overflow_; }

    /** Fraction of samples with value <= val (bucket-resolution). */
    double fractionAtOrBelow(double val) const;

    /** @name Percentiles, linearly interpolated within buckets.
     *  Ranks that fall into the overflow bucket report the observed
     *  maximum; results are clamped to [min(), max()] so a
     *  single-bucket histogram never reports a value outside the
     *  samples it actually saw. Empty histograms report 0. @{ */
    double percentile(double p) const;
    double p50() const { return percentile(0.50); }
    double p90() const { return percentile(0.90); }
    double p99() const { return percentile(0.99); }
    /** @} */

  private:
    double bucketWidth_;
    std::vector<CountT> counts_;
    CountT overflow_ = 0;
    Distribution dist_;
};

/**
 * A named collection of statistics. Components register their stats by
 * name; dump() prints them; find*() lets benches read them back.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    Counter &counter(const std::string &name, std::string desc = "");
    Distribution &distribution(const std::string &name,
                               std::string desc = "");
    Histogram &histogram(const std::string &name, double bucket_width,
                         std::size_t buckets, std::string desc = "");

    const std::string &name() const { return name_; }

    /** Look up a previously registered stat; panics if missing. */
    const Counter &findCounter(const std::string &name) const;
    const Distribution &findDistribution(const std::string &name) const;
    const Histogram &findHistogram(const std::string &name) const;

    bool hasCounter(const std::string &name) const;

    void resetAll();
    void dump(std::ostream &os) const;

    /** Visit every stat in registration order. Exactly one of the
     *  three stat pointers is non-null per call (the JSON exporter
     *  and other generic consumers iterate through this). */
    using Visitor = std::function<void(
        const std::string &name, const std::string &desc,
        const Counter *counter, const Distribution *dist,
        const Histogram *hist)>;
    void visit(const Visitor &visitor) const;

    /** Fold another group's stats into this one. Entries are matched
     *  by name; entries this group lacks are created. Used to merge
     *  per-worker registries into one at Runtime join. */
    void mergeFrom(const StatGroup &other);

  private:
    struct Entry
    {
        std::string desc;
        // Exactly one of these is non-null; unique ownership.
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Distribution> dist;
        std::unique_ptr<Histogram> hist;
    };

    std::string name_;
    std::map<std::string, Entry> entries_;
    std::vector<std::string> order_;

    Entry &newEntry(const std::string &name, std::string desc);
};

} // namespace fpc::stats

#endif // FPC_STATS_STATS_HH
