/**
 * @file
 * Integration tests for the Warped-Slicer dynamic policy: profiling
 * layout, decision timing, quota enforcement, spatial fallback, >2
 * kernel support, late-arrival repartitioning, and the phase monitor.
 */

#include <gtest/gtest.h>

#include "core/warped_slicer.hh"
#include "harness/runner.hh"
#include "obs/decision_log.hh"
#include "workloads/benchmarks.hh"

using namespace wsl;

namespace {

const GpuConfig cfg = GpuConfig::baseline();

WarpedSlicerOptions
fastOpts()
{
    WarpedSlicerOptions o;
    o.warmup = 2000;
    o.profileLength = 2000;
    o.monitorWindow = 2000;
    o.reprofileCooldown = 50000;
    return o;
}

struct Rig
{
    explicit Rig(WarpedSlicerOptions opts = fastOpts())
    {
        auto policy = std::make_unique<WarpedSlicerPolicy>(opts);
        dyn = policy.get();
        gpu = std::make_unique<Gpu>(cfg, std::move(policy));
    }

    std::unique_ptr<Gpu> gpu;
    WarpedSlicerPolicy *dyn;
};

} // namespace

TEST(WarpedSlicer, SingleKernelStaysIdle)
{
    Rig rig;
    rig.gpu->launchKernel(benchmark("IMG"), 100000);
    rig.gpu->run(5000);
    EXPECT_EQ(rig.dyn->phase(), WarpedSlicerPolicy::Phase::Idle);
    EXPECT_EQ(rig.gpu->sm(0).quota(0), -1);
}

TEST(WarpedSlicer, ProfileLayoutFollowsFigure4)
{
    Rig rig;
    rig.gpu->launchKernel(benchmark("IMG"), 10'000'000);
    rig.gpu->launchKernel(benchmark("NN"), 10'000'000);
    EXPECT_EQ(rig.dyn->phase(), WarpedSlicerPolicy::Phase::Profiling);
    rig.gpu->run(1000);
    // First half of the SMs sample kernel 0 with quotas 1..8, second
    // half kernel 1 — check the quota staircase and exclusivity.
    for (unsigned s = 0; s < 8; ++s) {
        EXPECT_EQ(rig.gpu->sm(s).quota(0), static_cast<int>(s + 1));
        EXPECT_EQ(rig.gpu->sm(s).quota(1), 0);
        EXPECT_EQ(rig.gpu->sm(s + 8).quota(0), 0);
        EXPECT_EQ(rig.gpu->sm(s + 8).quota(1), static_cast<int>(s + 1));
    }
}

TEST(WarpedSlicer, DecisionHappensAfterWarmupPlusProfile)
{
    Rig rig;
    rig.gpu->launchKernel(benchmark("IMG"), 10'000'000);
    rig.gpu->launchKernel(benchmark("NN"), 10'000'000);
    rig.gpu->run(3999);
    EXPECT_EQ(rig.dyn->profileRounds(), 0u);
    rig.gpu->run(200);
    EXPECT_EQ(rig.dyn->profileRounds(), 1u);
    EXPECT_TRUE(rig.dyn->phase() ==
                    WarpedSlicerPolicy::Phase::Enforced ||
                rig.dyn->phase() == WarpedSlicerPolicy::Phase::Spatial);
}

TEST(WarpedSlicer, DecisionsApplyOnExactScheduleCycles)
{
    // The profiling schedule is cycle-exact: warmup and profile
    // windows end at fixed cycles, and each applied repartition records
    // the cycle it happened, in the decision history and the log.
    auto run = [](DecisionLog &log) {
        auto policy = std::make_unique<WarpedSlicerPolicy>(fastOpts());
        policy->attachDecisionLog(&log);
        WarpedSlicerPolicy *dyn = policy.get();
        Gpu gpu(GpuConfig::baseline(), std::move(policy));
        gpu.launchKernel(benchmark("IMG"), 10'000'000);
        gpu.launchKernel(benchmark("NN"), 10'000'000);
        gpu.run(12'000);
        return dyn->decisionHistory();
    };
    DecisionLog log, again;
    const auto history = run(log);
    ASSERT_GE(history.size(), 1u);
    // No algorithm delay: the first split applies on the cycle the
    // profile window closes.
    const WarpedSlicerOptions opts = fastOpts();
    EXPECT_EQ(history.front().at, opts.warmup + opts.profileLength);
    ASSERT_EQ(log.entries().size(), history.size());
    for (std::size_t i = 0; i < history.size(); ++i)
        EXPECT_EQ(log.entries()[i].cycle, history[i].at)
            << "decision " << i;
    run(again);
    ASSERT_EQ(again.entries().size(), log.entries().size());
    for (std::size_t i = 0; i < log.entries().size(); ++i) {
        EXPECT_EQ(again.entries()[i].cycle, log.entries()[i].cycle);
        EXPECT_EQ(again.entries()[i].chosenCtas,
                  log.entries()[i].chosenCtas);
    }
}

TEST(WarpedSlicer, EnforcedQuotasMatchDecision)
{
    Rig rig;
    rig.gpu->launchKernel(benchmark("IMG"), 10'000'000);
    rig.gpu->launchKernel(benchmark("NN"), 10'000'000);
    rig.gpu->run(5000);
    ASSERT_EQ(rig.dyn->phase(), WarpedSlicerPolicy::Phase::Enforced);
    const WaterFillResult &d = rig.dyn->lastDecision();
    ASSERT_TRUE(d.feasible);
    ASSERT_EQ(d.ctas.size(), 2u);
    for (unsigned s = 0; s < rig.gpu->numSms(); ++s) {
        EXPECT_EQ(rig.gpu->sm(s).quota(0), d.ctas[0]);
        EXPECT_EQ(rig.gpu->sm(s).quota(1), d.ctas[1]);
    }
    // The assignment respects the SM's resources.
    EXPECT_TRUE(d.used.fitsIn(ResourceVec::capacity(cfg)));
}

TEST(WarpedSlicer, PerfVectorsAreReasonable)
{
    Rig rig;
    rig.gpu->launchKernel(benchmark("IMG"), 10'000'000);
    rig.gpu->launchKernel(benchmark("NN"), 10'000'000);
    rig.gpu->run(5000);
    const auto &vectors = rig.dyn->lastPerfVectors();
    ASSERT_EQ(vectors.size(), 2u);
    // IMG is compute-scaling: its profiled curve must rise markedly.
    const auto &img = vectors[0];
    ASSERT_EQ(img.size(), 8u);
    EXPECT_GT(img.back(), img.front() * 2.0);
    // All entries positive.
    for (const auto &vec : vectors)
        for (double p : vec)
            EXPECT_GT(p, 0.0);
}

TEST(WarpedSlicer, AlgorithmDelayDefersEnforcement)
{
    WarpedSlicerOptions o = fastOpts();
    o.algorithmDelay = 3000;
    Rig rig(o);
    rig.gpu->launchKernel(benchmark("IMG"), 10'000'000);
    rig.gpu->launchKernel(benchmark("NN"), 10'000'000);
    rig.gpu->run(5000);
    EXPECT_EQ(rig.dyn->phase(), WarpedSlicerPolicy::Phase::Delay);
    rig.gpu->run(3000);
    EXPECT_NE(rig.dyn->phase(), WarpedSlicerPolicy::Phase::Delay);
}

TEST(WarpedSlicer, TightThresholdForcesSpatialFallback)
{
    // With an unachievable retained-performance requirement, any
    // co-location falls back to spatial multitasking.
    WarpedSlicerOptions o = fastOpts();
    o.lossThresholdScale = 1e9;
    Rig rig(o);
    rig.gpu->launchKernel(benchmark("IMG"), 10'000'000);
    rig.gpu->launchKernel(benchmark("BLK"), 10'000'000);
    rig.gpu->run(6000);
    EXPECT_EQ(rig.dyn->phase(), WarpedSlicerPolicy::Phase::Spatial);
    EXPECT_TRUE(rig.dyn->usedSpatialFallback());
    // Masks keep the kernels on disjoint SMs.
    unsigned overlap = 0;
    for (unsigned s = 0; s < rig.gpu->numSms(); ++s) {
        overlap += rig.dyn->mayDispatch(*rig.gpu, s, 0) &&
                   rig.dyn->mayDispatch(*rig.gpu, s, 1);
    }
    EXPECT_EQ(overlap, 0u);
}

TEST(WarpedSlicer, ThreeKernelsPartitionTogether)
{
    Rig rig;
    rig.gpu->launchKernel(benchmark("MM"), 10'000'000);
    rig.gpu->launchKernel(benchmark("IMG"), 10'000'000);
    rig.gpu->launchKernel(benchmark("NN"), 10'000'000);
    // Three kernels profile in two time-shared sub-windows.
    rig.gpu->run(2000 + 2 * 2000 + 500);
    if (rig.dyn->phase() == WarpedSlicerPolicy::Phase::Enforced) {
        const auto &d = rig.dyn->lastDecision();
        ASSERT_EQ(d.ctas.size(), 3u);
        for (int t : d.ctas)
            EXPECT_GE(t, 1);
        EXPECT_TRUE(d.used.fitsIn(ResourceVec::capacity(cfg)));
    } else {
        EXPECT_EQ(rig.dyn->phase(), WarpedSlicerPolicy::Phase::Spatial);
    }
}

TEST(WarpedSlicer, LateArrivalTriggersRepartitioning)
{
    Rig rig;
    rig.gpu->launchKernel(benchmark("MM"), 10'000'000);
    rig.gpu->launchKernel(benchmark("IMG"), 10'000'000);
    rig.gpu->run(6000);
    const unsigned rounds_before = rig.dyn->profileRounds();
    ASSERT_GE(rounds_before, 1u);
    // Third kernel arrives mid-run: re-profiling starts immediately
    // (no warm-up for later arrivals).
    rig.gpu->launchKernel(benchmark("NN"), 10'000'000);
    EXPECT_EQ(rig.dyn->phase(), WarpedSlicerPolicy::Phase::Profiling);
    rig.gpu->run(2 * 2000 + 500);
    EXPECT_EQ(rig.dyn->profileRounds(), rounds_before + 1);
    if (!rig.dyn->usedSpatialFallback()) {
        EXPECT_EQ(rig.dyn->lastDecision().ctas.size(), 3u);
    }
}

TEST(WarpedSlicer, KernelCompletionLiftsRestrictions)
{
    Characterization chars(cfg, 20000);
    Rig rig;
    rig.gpu->launchKernel(benchmark("IMG"), chars.target("IMG") / 4);
    rig.gpu->launchKernel(benchmark("NN"),
                          chars.target("NN") * 4);
    rig.gpu->run(4'000'000);
    ASSERT_TRUE(rig.gpu->kernel(0).done);
    EXPECT_EQ(rig.dyn->phase(), WarpedSlicerPolicy::Phase::Idle);
    EXPECT_EQ(rig.gpu->sm(0).quota(1), -1);
}

TEST(WarpedSlicer, MonitorStaysQuietOnStationaryWorkload)
{
    WarpedSlicerOptions o = fastOpts();
    o.reprofileCooldown = 0;  // any sustained deviation would fire
    Rig rig(o);
    rig.gpu->launchKernel(benchmark("IMG"), 10'000'000);
    rig.gpu->launchKernel(benchmark("DXT"), 10'000'000);
    rig.gpu->run(60000);
    // Stationary compute kernels should not retrigger profiling often.
    EXPECT_LE(rig.dyn->profileRounds(), 3u);
}

TEST(WarpedSlicer, MonitorDisabledNeverReprofiles)
{
    WarpedSlicerOptions o = fastOpts();
    o.phaseMonitor = false;
    Rig rig(o);
    rig.gpu->launchKernel(benchmark("IMG"), 10'000'000);
    rig.gpu->launchKernel(benchmark("BLK"), 10'000'000);
    rig.gpu->run(100000);
    EXPECT_EQ(rig.dyn->profileRounds(), 1u);
}

TEST(WarpedSlicer, EndToEndCoRunCompletes)
{
    const Cycle window = 20000;
    Characterization chars(cfg, window);
    CoRunOptions opts;
    opts.slicer = scaledSlicerOptions(window);
    const std::vector<KernelParams> apps = {benchmark("IMG"),
                                            benchmark("NN")};
    const std::vector<std::uint64_t> targets = {chars.target("IMG"),
                                                chars.target("NN")};
    const CoRunResult r =
        runCoSchedule(apps, targets, PolicyKind::Dynamic, cfg, opts);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.apps.size(), 2u);
    EXPECT_GE(r.apps[0].insts, targets[0]);
    EXPECT_GE(r.apps[1].insts, targets[1]);
    EXPECT_FALSE(r.chosenCtas.empty());
}
