/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/logging.hh"
#include "stats/stats.hh"
#include "stats/table.hh"

namespace fpc::stats
{
namespace
{

TEST(Counter, IncrementAndAdd)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 4;
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Distribution, Moments)
{
    Distribution d;
    EXPECT_EQ(d.mean(), 0.0);
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 8u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
    EXPECT_NEAR(d.stddev(), 2.0, 1e-9);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
}

TEST(Distribution, WeightedSamples)
{
    Distribution d;
    d.sample(10.0, 3);
    d.sample(20.0, 1);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_DOUBLE_EQ(d.mean(), 12.5);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(2.0, 4); // buckets [0,2) [2,4) [4,6) [6,8)
    for (double v : {0.0, 1.9, 2.0, 5.0, 7.9, 8.0, 100.0, -1.0})
        h.sample(v);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.overflow(), 3u);
    EXPECT_EQ(h.count(), 8u);
}

TEST(Histogram, FractionAtOrBelow)
{
    Histogram h(1.0, 10);
    for (int i = 0; i < 10; ++i)
        h.sample(i + 0.5);
    EXPECT_NEAR(h.fractionAtOrBelow(4.0), 0.4, 1e-9);
    EXPECT_NEAR(h.fractionAtOrBelow(100.0), 1.0, 1e-9);
}

TEST(Histogram, PercentilesEmpty)
{
    const Histogram h(1.0, 10);
    EXPECT_EQ(h.p50(), 0.0);
    EXPECT_EQ(h.p90(), 0.0);
    EXPECT_EQ(h.p99(), 0.0);
}

TEST(Histogram, PercentilesSingleBucket)
{
    // One sample: every percentile is that sample (interpolation
    // within the bucket is clamped to the observed range).
    Histogram h(10.0, 4);
    h.sample(5.0);
    EXPECT_DOUBLE_EQ(h.p50(), 5.0);
    EXPECT_DOUBLE_EQ(h.p90(), 5.0);
    EXPECT_DOUBLE_EQ(h.p99(), 5.0);
}

TEST(Histogram, PercentilesInterpolate)
{
    Histogram h(1.0, 10);
    for (int i = 0; i < 10; ++i)
        h.sample(i + 0.5); // one sample per bucket
    EXPECT_NEAR(h.p50(), 5.0, 1e-9);
    EXPECT_NEAR(h.p90(), 9.0, 1e-9);
    // p99 lands 0.9 into the last bucket, clamped to the max seen.
    EXPECT_NEAR(h.p99(), 9.5, 1e-9);
    EXPECT_NEAR(h.percentile(0.0), 0.5, 1e-9); // clamped to min
}

TEST(Histogram, PercentilesAfterMerge)
{
    Histogram a(2.0, 4);
    Histogram b(2.0, 4);
    a.sample(1.0);
    a.sample(1.0);
    b.sample(3.0);
    b.sample(3.0);
    a.merge(b);
    EXPECT_NEAR(a.p50(), 2.0, 1e-9);
    EXPECT_NEAR(a.p99(), 3.0, 1e-9); // clamped to the merged max
}

TEST(Histogram, PercentileOfOverflowSamples)
{
    Histogram h(1.0, 2);
    h.sample(10.0); // overflow bucket
    EXPECT_DOUBLE_EQ(h.p50(), 10.0);
}

TEST(Histogram, PercentileEndpointsEmpty)
{
    const Histogram h(1.0, 4);
    EXPECT_EQ(h.percentile(0.0), 0.0);
    EXPECT_EQ(h.percentile(1.0), 0.0);
}

TEST(Histogram, PercentileEndpoints)
{
    Histogram h(1.0, 10);
    h.sample(0.25);
    h.sample(7.5);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.25); // p0 is the min seen
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 7.5);  // p100 is the max
    // Out-of-range p clamps to the endpoints.
    EXPECT_DOUBLE_EQ(h.percentile(-1.0), 0.25);
    EXPECT_DOUBLE_EQ(h.percentile(2.0), 7.5);
}

TEST(Histogram, PercentileAllOverflow)
{
    // Every sample lands past the bucketed range: the histogram only
    // knows the observed extrema, and the endpoints must report them
    // (p0 the min, everything else the max).
    Histogram h(1.0, 2);
    h.sample(50.0);
    h.sample(90.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 50.0);
    EXPECT_DOUBLE_EQ(h.p50(), 90.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 90.0);
}

TEST(Histogram, BadShapePanics)
{
    EXPECT_THROW(Histogram(0.0, 4), PanicError);
    EXPECT_THROW(Histogram(1.0, 0), PanicError);
}

TEST(Histogram, MergeShapeMismatchPanics)
{
    Histogram a(2.0, 4);
    Histogram wrong_count(2.0, 8);
    Histogram wrong_width(4.0, 4);
    EXPECT_THROW(a.merge(wrong_count), PanicError);
    EXPECT_THROW(a.merge(wrong_width), PanicError);

    // The message must name both shapes so the mismatch is debuggable.
    try {
        a.merge(wrong_width);
        FAIL() << "merge of mismatched shapes did not panic";
    } catch (const PanicError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find("2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("4"), std::string::npos) << msg;
        EXPECT_NE(msg.find("mismatch"), std::string::npos) << msg;
    }

    // Matching shapes still merge.
    Histogram b(2.0, 4);
    a.sample(1.0);
    b.sample(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
}

TEST(StatGroup, VisitRunsInRegistrationOrder)
{
    StatGroup group("visit");
    group.counter("c1", "first");
    group.distribution("d1");
    group.histogram("h1", 2.0, 4);
    group.counter("c2");

    std::vector<std::string> order;
    group.visit([&](const std::string &name, const std::string &desc,
                    const Counter *c, const Distribution *d,
                    const Histogram *h) {
        order.push_back(name);
        if (name == "c1") {
            EXPECT_EQ(desc, "first");
            EXPECT_NE(c, nullptr);
        }
        if (name == "d1") {
            EXPECT_NE(d, nullptr);
        }
        if (name == "h1") {
            EXPECT_NE(h, nullptr);
        }
        EXPECT_EQ((c != nullptr) + (d != nullptr) + (h != nullptr), 1);
    });
    EXPECT_EQ(order,
              (std::vector<std::string>{"c1", "d1", "h1", "c2"}));
}

TEST(StatGroup, RegisterFindAndDump)
{
    StatGroup group("test");
    Counter &c = group.counter("events", "number of events");
    Distribution &d = group.distribution("latency");
    Histogram &h = group.histogram("sizes", 4.0, 8);

    ++c;
    d.sample(3.0);
    h.sample(5.0);

    EXPECT_EQ(group.findCounter("events").value(), 1u);
    EXPECT_EQ(group.findDistribution("latency").count(), 1u);
    EXPECT_EQ(group.findHistogram("sizes").count(), 1u);
    EXPECT_TRUE(group.hasCounter("events"));
    EXPECT_FALSE(group.hasCounter("latency")); // wrong type
    EXPECT_THROW(group.findCounter("nope"), PanicError);
    EXPECT_THROW(group.counter("events"), PanicError); // duplicate

    std::ostringstream os;
    group.dump(os);
    EXPECT_NE(os.str().find("events = 1"), std::string::npos);
    EXPECT_NE(os.str().find("number of events"), std::string::npos);

    group.resetAll();
    EXPECT_EQ(group.findCounter("events").value(), 0u);
}

TEST(Table, AlignmentAndArity)
{
    Table t({"a", "bb"});
    t.row(1, "x");
    t.row("long-cell", 22);
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("| long-cell | 22 |"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
    EXPECT_THROW(Table({}), PanicError);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fixed(3.14159, 2), "3.14");
    EXPECT_EQ(fixed(2.0, 0), "2");
    EXPECT_EQ(percent(0.9512), "95.1%");
    EXPECT_EQ(percent(1.0, 0), "100%");
}

} // namespace
} // namespace fpc::stats
