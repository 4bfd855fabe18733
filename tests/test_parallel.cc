/**
 * @file
 * Tests for the parallel experiment engine: job-count parsing
 * hardening, parallelFor/parallelMap mechanics (ordering, exception
 * propagation), and the determinism regression — a co-run sweep must
 * produce bit-identical results whether it runs serially or on 4 / 8
 * worker threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parse.hh"
#include "harness/parallel.hh"
#include "harness/runner.hh"
#include "harness/solo_cache.hh"

using namespace wsl;

namespace {

/** Exact counter-level equality via the canonical field lists. */
void
expectStatsEqual(const GpuStats &a, const GpuStats &b)
{
    SmStats::forEachField([&](const char *name, auto member) {
        EXPECT_EQ(a.*member, b.*member) << "SmStats field " << name;
    });
    PartitionStats::forEachField([&](const char *name, auto member) {
        EXPECT_EQ(a.*member, b.*member)
            << "PartitionStats field " << name;
    });
}

void
expectResultsEqual(const CoRunResult &a, const CoRunResult &b)
{
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.sysIpc, b.sysIpc);  // bitwise: same simulation
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.spatialFallback, b.spatialFallback);
    EXPECT_EQ(a.chosenCtas, b.chosenCtas);
    ASSERT_EQ(a.apps.size(), b.apps.size());
    for (std::size_t i = 0; i < a.apps.size(); ++i) {
        EXPECT_EQ(a.apps[i].insts, b.apps[i].insts);
        EXPECT_EQ(a.apps[i].cycles, b.apps[i].cycles);
    }
    expectStatsEqual(a.stats, b.stats);
}

std::vector<CoRunJob>
smallSweep(Cycle window)
{
    const std::vector<std::vector<std::string>> sets = {
        {"NN", "HOT"}, {"KNN", "LBM"}, {"MM", "BLK"}};
    std::vector<CoRunJob> batch;
    for (const auto &apps : sets) {
        for (PolicyKind kind :
             {PolicyKind::LeftOver, PolicyKind::Spatial,
              PolicyKind::Even, PolicyKind::Dynamic}) {
            CoRunJob job;
            job.apps = apps;
            job.kind = kind;
            if (kind == PolicyKind::Dynamic)
                job.opts.slicer = scaledSlicerOptions(window);
            batch.push_back(job);
        }
    }
    return batch;
}

} // namespace

TEST(ParseDecimal, AcceptsOnlyPlainDigitsInRange)
{
    EXPECT_EQ(parseDecimal("0"), 0u);
    EXPECT_EQ(parseDecimal("3000"), 3000u);
    EXPECT_EQ(parseDecimal("007"), 7u);
    EXPECT_EQ(parseDecimal("18446744073709551615"),
              ~std::uint64_t{0});
    for (const char *bad : {"", "abc", "3000x", "-1", "+7", " 9", "9 ",
                            "0x10", "1.5", "18446744073709551616"})
        EXPECT_FALSE(parseDecimal(bad).has_value()) << "'" << bad << "'";
    EXPECT_FALSE(parseDecimal(nullptr).has_value());
    EXPECT_EQ(parseDecimal("255", 255), 255u);
    EXPECT_FALSE(parseDecimal("256", 255).has_value());
}

TEST(ParseJobs, NullAndEmptyMeanSerial)
{
    EXPECT_EQ(parseJobs(nullptr, "WSL_JOBS"), 1u);
    EXPECT_EQ(parseJobs("", "WSL_JOBS"), 1u);
}

TEST(ParseJobs, PlainNumbers)
{
    EXPECT_EQ(parseJobs("1", "--jobs"), 1u);
    EXPECT_EQ(parseJobs("4", "--jobs"), 4u);
    EXPECT_EQ(parseJobs("32", "--jobs"), 32u);
}

TEST(ParseJobs, ZeroSelectsHardwareConcurrency)
{
    const unsigned hw = std::thread::hardware_concurrency();
    EXPECT_EQ(parseJobs("0", "--jobs"), hw ? hw : 1u);
}

TEST(ParseJobs, MalformedInputFallsBackToSerial)
{
    EXPECT_EQ(parseJobs("-3", "--jobs"), 1u);
    EXPECT_EQ(parseJobs("abc", "--jobs"), 1u);
    EXPECT_EQ(parseJobs("4x", "--jobs"), 1u);
    EXPECT_EQ(parseJobs(" 8", "--jobs"), 1u);
    EXPECT_EQ(parseJobs("999999999999999999999999", "--jobs"), 1u);
}

TEST(ParseJobs, DefaultJobsReadsEnvironment)
{
    setenv("WSL_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    setenv("WSL_JOBS", "junk", 1);
    EXPECT_EQ(defaultJobs(), 1u);
    unsetenv("WSL_JOBS");
    EXPECT_EQ(defaultJobs(), 1u);
}

TEST(ParallelFor, VisitsEveryIndexOnce)
{
    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        std::vector<std::atomic<int>> counts(100);
        parallelFor(counts.size(), jobs,
                    [&](std::size_t i) { counts[i].fetch_add(1); });
        for (const auto &c : counts)
            EXPECT_EQ(c.load(), 1);
    }
}

TEST(ParallelFor, HandlesEmptyAndOversubscribed)
{
    parallelFor(0, 8, [](std::size_t) { FAIL(); });
    std::atomic<int> ran{0};
    parallelFor(2, 64, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 2);
}

TEST(ParallelFor, PropagatesFirstException)
{
    EXPECT_THROW(parallelFor(16, 4,
                             [](std::size_t i) {
                                 if (i == 7)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(ParallelMap, ResultsLandAtTheirIndex)
{
    const auto out = parallelMap<std::size_t>(
        50, 4, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 50u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

/**
 * The engine's core guarantee: the full sweep pipeline (solo
 * characterization + co-runs, including the Warped-Slicer decision
 * process) is bit-identical regardless of thread count.
 */
TEST(ParallelSweep, DeterministicAcrossThreadCounts)
{
    const GpuConfig cfg = GpuConfig::baseline();
    const Cycle window = 20000;
    const std::vector<CoRunJob> batch = smallSweep(window);

    SoloCache::global().clear();
    Characterization chars_serial(cfg, window);
    const auto serial = runCoScheduleBatch(chars_serial, batch, 1);

    for (unsigned jobs : {4u, 8u}) {
        SoloCache::global().clear();
        Characterization chars(cfg, window);
        const auto parallel = runCoScheduleBatch(chars, batch, jobs);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE("job " + std::to_string(i) + " jobs=" +
                         std::to_string(jobs));
            expectResultsEqual(serial[i], parallel[i]);
        }
    }
}

/** Characterization targets must not depend on the prewarm fan-out. */
TEST(ParallelSweep, PrewarmMatchesLazyCharacterization)
{
    const GpuConfig cfg = GpuConfig::baseline();
    const Cycle window = 20000;
    const std::vector<std::string> names = {"NN", "HOT", "KNN"};

    SoloCache::global().clear();
    Characterization lazy(cfg, window);
    std::vector<std::uint64_t> lazy_targets;
    for (const std::string &name : names)
        lazy_targets.push_back(lazy.target(name));

    SoloCache::global().clear();
    Characterization warmed(cfg, window);
    warmed.prewarm(names, 4);
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(warmed.target(names[i]), lazy_targets[i]);
}
