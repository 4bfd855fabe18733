/**
 * @file
 * Tests of the benchmark's own helpers: the percentile rule, seeded
 * input determinism, the pinned reference work, the serve-ledger
 * checker, metric-name and unit validation, and self-time subtraction.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "bench_lib.hh"

using namespace perfbench;

TEST(Percentile, NearestRank)
{
    const std::vector<double> v = {5, 1, 4, 2, 3};
    EXPECT_EQ(percentile(v, 50), 3);
    EXPECT_EQ(percentile(v, 100), 5);
    EXPECT_EQ(percentile(v, 1), 1);
    EXPECT_EQ(percentile({}, 50), 0);
}

TEST(Percentile, HighestWithTenBeyond)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    // p90 has exactly 10 samples beyond rank 90; p99 has only 1.
    Tail t = highestSupportedPercentile(v, {50, 90, 99});
    EXPECT_EQ(t.pct, 90);
    EXPECT_EQ(t.value, 90);
    EXPECT_EQ(t.beyond, 10u);

    // With 99 samples p90 (rank 90) has 9 beyond: fall back to p50.
    v.pop_back();
    t = highestSupportedPercentile(v, {50, 90, 99});
    EXPECT_EQ(t.pct, 50);
    EXPECT_EQ(t.beyond, 49u);

    // Fourteen samples support no percentile of the ladder.
    v.resize(14);
    t = highestSupportedPercentile(v, {50, 90, 99});
    EXPECT_EQ(t.pct, 0);
    EXPECT_EQ(t.value, 0);
}

TEST(SeededInputs, TraceIsAPureFunctionOfTheSeed)
{
    const std::vector<double> weights = {3.0, 1.5, 1.0};
    const auto a = makeArrivalTrace(7, 4.0, 300'000, weights);
    const auto b = makeArrivalTrace(7, 4.0, 300'000, weights);
    const auto c = makeArrivalTrace(8, 4.0, 300'000, weights);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].cycle, b[i].cycle);
        EXPECT_EQ(a[i].tenant, b[i].tenant);
    }
    bool differs = a.size() != c.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].cycle != c[i].cycle || a[i].tenant != c[i].tenant;
    EXPECT_TRUE(differs);

    // ~4 arrivals per 10 K cycles over 300 K cycles, sorted, in range,
    // with every tenant drawn.
    EXPECT_GT(a.size(), 80u);
    EXPECT_LT(a.size(), 160u);
    std::vector<unsigned> per_tenant(3, 0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_LT(a[i].cycle, 300'000u);
        if (i) {
            EXPECT_LE(a[i - 1].cycle, a[i].cycle);
        }
        ASSERT_LT(a[i].tenant, 3u);
        ++per_tenant[a[i].tenant];
    }
    EXPECT_GT(per_tenant[0], per_tenant[2]);
    EXPECT_GT(per_tenant[2], 0u);
}

TEST(SeededInputs, FaultPlanIsAPureFunctionOfTheSeed)
{
    const auto a = makeFaultPlan(11, 4, 300'000, 3);
    const auto b = makeFaultPlan(11, 4, 300'000, 3);
    ASSERT_EQ(a.faults.size(), 4u);
    ASSERT_EQ(b.faults.size(), 4u);
    std::vector<unsigned> per_tenant(3, 0);
    for (std::size_t i = 0; i < 4; ++i) {
        ASSERT_LT(a.faults[i].tenant, 3u);
        ++per_tenant[a.faults[i].tenant];
        EXPECT_EQ(a.faults[i].cycle, b.faults[i].cycle);
        EXPECT_EQ(a.faults[i].tenant, b.faults[i].tenant);
        EXPECT_EQ(a.faults[i].kind, b.faults[i].kind);
        EXPECT_GE(a.faults[i].cycle, 300'000u / 8);
        EXPECT_LT(a.faults[i].cycle, 300'000u * 7 / 8);
        if (i) {
            EXPECT_LE(a.faults[i - 1].cycle, a.faults[i].cycle);
        }
    }
    // No tenant reaches the serve engine's quarantine threshold (3).
    for (unsigned n : per_tenant)
        EXPECT_LE(n, 2u);
}

TEST(ReferenceWork, FixedWorkAndPositiveSlowdown)
{
    // The checksum pins what one slice computes: a change to the
    // reference work changes what every normalized timing means.
    ReferenceWork a, b;
    EXPECT_GT(a.slowdown(), 0.0);
    EXPECT_EQ(a.checksum(), 0xfd981c3e7a323f56ULL);
    b.slowdown();
    EXPECT_EQ(b.checksum(), a.checksum());
    a.slowdown();
    EXPECT_EQ(a.checksum(), 0xfb30387cf4647eacULL);
}

TEST(Median, OddEvenEmpty)
{
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0);
}

namespace {

/** A consistent two-class ledger: class 0 completed one job on time
 *  and rejected one, class 1 has one job still running. */
void
consistentLedger(std::vector<wsl::ClassSlo> &classes,
                 std::vector<wsl::ServeJob> &jobs)
{
    classes.assign(2, wsl::ClassSlo{});
    jobs.assign(3, wsl::ServeJob{});
    jobs[0].tenant = 0;
    jobs[0].outcome = wsl::JobOutcome::Completed;
    jobs[0].deadlineMet = true;
    jobs[1].tenant = 0;
    jobs[1].outcome = wsl::JobOutcome::Rejected;
    jobs[1].reason = wsl::RejectReason::QueueFull;
    jobs[2].tenant = 1;
    jobs[2].outcome = wsl::JobOutcome::Running;
    classes[0].arrivals = 2;
    classes[0].admitted = 1;
    classes[0].completed = 1;
    classes[0].goodput = 1;
    classes[0].rejectedQueueFull = 1;
    classes[1].arrivals = 1;
    classes[1].admitted = 1;
    classes[1].pendingAtEnd = 1;
}

} // namespace

TEST(Ledger, AcceptsAConsistentLedger)
{
    std::vector<wsl::ClassSlo> classes;
    std::vector<wsl::ServeJob> jobs;
    consistentLedger(classes, jobs);
    EXPECT_TRUE(ledgerErrors(classes, jobs).empty());
}

TEST(Ledger, RejectsBrokenLedgers)
{
    std::vector<wsl::ClassSlo> classes;
    std::vector<wsl::ServeJob> jobs;

    consistentLedger(classes, jobs);
    ++classes[0].arrivals;  // an arrival in no bucket
    EXPECT_FALSE(ledgerErrors(classes, jobs).empty());

    consistentLedger(classes, jobs);
    classes[1].pendingAtEnd = 0;  // an admitted job that never settled
    EXPECT_FALSE(ledgerErrors(classes, jobs).empty());

    consistentLedger(classes, jobs);
    ++classes[0].deadlineMiss;  // goodput + misses over-count
    EXPECT_FALSE(ledgerErrors(classes, jobs).empty());

    consistentLedger(classes, jobs);
    jobs[0].outcome = wsl::JobOutcome::Shed;  // job disagrees with counters
    EXPECT_FALSE(ledgerErrors(classes, jobs).empty());

    consistentLedger(classes, jobs);
    jobs[2].tenant = 5;  // a job of no known class
    EXPECT_FALSE(ledgerErrors(classes, jobs).empty());
}

TEST(Metrics, NameAndUnitCharset)
{
    EXPECT_TRUE(validMetricName("run_s"));
    EXPECT_TRUE(validMetricName("sm.scan_memo_hit_ratio"));
    EXPECT_TRUE(validMetricName("9-lives.x_y"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_leading"));
    EXPECT_FALSE(validMetricName(".leading"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/name"));
    EXPECT_FALSE(validMetricName("quote\"name"));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));

    EXPECT_TRUE(validUnit("ns/cyc"));
    EXPECT_TRUE(validUnit("%"));
    EXPECT_FALSE(validUnit(""));
    EXPECT_FALSE(validUnit("m s"));
    EXPECT_FALSE(validUnit(std::string(17, 'u')));
}

TEST(Metrics, ResultLineAndRejections)
{
    MetricSet m;
    m.add("run_s", 1.25, "s");
    m.add("count", 3, "count");
    EXPECT_EQ(m.resultLine(true, 4, 0),
              "{\"correct\": true, \"attempted\": 4, \"failed\": 0, "
              "\"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": "
              "\"s\"}, \"count\": {\"value\": 3, \"unit\": \"count\"}}}");
    EXPECT_THROW(m.add("run_s", 2, "s"), std::invalid_argument);
    EXPECT_THROW(m.add("bad name", 2, "s"), std::invalid_argument);
    EXPECT_THROW(m.add("ok", 2, "bad unit"), std::invalid_argument);
    EXPECT_THROW(m.add("nan", 0.0 / 0.0, "s"), std::invalid_argument);
}

TEST(Spans, SelfTimeSubtractsChildrenOnce)
{
    // root [0,100) with children a [10,40) and b [30,60) (overlapping:
    // covered 50), and b's child c [35,45) — c counts against b only.
    std::vector<Span> spans = {
        {"root", 0, 100, -1},
        {"a", 10, 40, 0},
        {"b", 30, 60, 0},
        {"c", 35, 45, 2},
        {"a", 70, 80, 0},  // a second "a" sums into the same name
    };
    const auto self = selfTimeByName(spans);
    EXPECT_EQ(self.at("root"), 100 - 60);
    EXPECT_EQ(self.at("a"), 30 + 10);
    EXPECT_EQ(self.at("b"), 30 - 10);
    EXPECT_EQ(self.at("c"), 10);
}

TEST(Spans, ChildClippedToItsParent)
{
    std::vector<Span> spans = {{"p", 10, 20, -1}, {"k", 5, 25, 0}};
    EXPECT_EQ(selfTimeByName(spans).at("p"), 0);
}

TEST(Spans, RecorderNestsAndRejectsOutOfOrderClose)
{
    SpanRecorder rec("test");
    {
        SpanRecorder::Scope outer(&rec, "outer");
        SpanRecorder::Scope inner(&rec, "inner");
    }
    ASSERT_EQ(rec.spans().size(), 2u);
    EXPECT_EQ(rec.spans()[0].parent, -1);
    EXPECT_EQ(rec.spans()[1].parent, 0);
    EXPECT_LE(rec.spans()[0].startNs, rec.spans()[1].startNs);
    EXPECT_GE(rec.spans()[0].endNs, rec.spans()[1].endNs);

    const int a = rec.begin("a");
    rec.begin("b");
    EXPECT_THROW(rec.end(a), std::logic_error);

    SpanRecorder::Scope none(nullptr, "ignored");  // records nothing
    EXPECT_EQ(rec.spans().size(), 4u);
}
