/**
 * @file
 * Tests that event-horizon clock skipping is invisible to everything
 * that observes the machine: MM and LBM micro-windows match the
 * per-cycle reference counter for counter, and skips never run past a
 * cycle at which an invariant audit, telemetry sample, policy decision
 * or watchdog deadline is due — each fires on exactly the cycle the
 * per-cycle engine fires it.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "check/auditor.hh"
#include "check/sim_error.hh"
#include "common/config.hh"
#include "core/policies.hh"
#include "core/warped_slicer.hh"
#include "gpu/gpu.hh"
#include "obs/decision_log.hh"
#include "telemetry/telemetry.hh"
#include "workloads/benchmarks.hh"

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

struct SoloRun
{
    Cycle cycles = 0;
    std::uint64_t insts = 0;
    GpuStats stats;
};

/** Run `bench` alone for `window` cycles with clock skipping on or
 *  off (the per-cycle reference). */
SoloRun
soloWindow(const char *bench, Cycle window, bool skip)
{
    GpuConfig cfg = GpuConfig::baseline();
    cfg.clockSkip = skip;
    Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
    const KernelId kid = gpu.launchKernel(benchmark(bench));
    gpu.run(window);
    SoloRun out;
    out.cycles = gpu.cycle();
    out.insts = gpu.kernelThreadInsts(kid);
    out.stats = gpu.collectStats();
    return out;
}

void
expectMatchesReference(const char *bench)
{
    const Cycle window = 8'000;
    const SoloRun ref = soloWindow(bench, window, false);
    const SoloRun skip = soloWindow(bench, window, true);
    EXPECT_EQ(skip.cycles, ref.cycles);
    EXPECT_EQ(skip.insts, ref.insts);
    expectStatsEqual(ref.stats, skip.stats);
}

/** A barrier-per-iteration kernel whose grid is fully resident and
 *  effectively never finishes — the deadlock-injection substrate. */
KernelParams
hangKernel()
{
    KernelParams k;
    k.name = "SKIP_HANG";
    k.gridDim = 32;
    k.blockDim = 64;
    k.regsPerThread = 16;
    k.mix = {.alu = 6, .sfu = 1, .ldGlobal = 2, .stGlobal = 0,
             .ldShared = 0, .stShared = 0, .depDist = 4,
             .barrierPerIter = true};
    k.loopIters = 1'000'000;
    k.mem = {MemPattern::Tile, 4096, 1};
    k.ifetchMissRate = 0.0;
    return k;
}

} // namespace

// ---------------------------------------------------------------------
// Bit-identity vs the per-cycle reference
// ---------------------------------------------------------------------

TEST(ClockSkip, MmBitIdenticalToPerCycleReference)
{
    expectMatchesReference("MM");
}

TEST(ClockSkip, LbmBitIdenticalToPerCycleReference)
{
    // LBM is memory-stalled: long DRAM waits are where skips are
    // longest, so this window exercises the bulk-accounting path.
    expectMatchesReference("LBM");
}

// ---------------------------------------------------------------------
// Horizon events fire at the exact per-cycle cycle
// ---------------------------------------------------------------------

TEST(ClockSkip, AuditsFireAtExactSerialCycles)
{
    // A cadence that is neither a divisor nor a multiple of anything
    // the workload does: the skipping engine must run the same number
    // of audits, leaving the auditor's schedule at the same next cycle
    // as the per-cycle reference.
    auto run = [](bool skip) {
        GpuConfig cfg = GpuConfig::baseline();
        cfg.clockSkip = skip;
        cfg.auditCadence = 677;
        Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
        gpu.launchKernel(benchmark("MM"));
        gpu.run(20'000);
        const Auditor *aud = gpu.integrityAuditor();
        return std::pair<std::uint64_t, Cycle>(
            aud->auditsRun(), aud->nextAuditAt());
    };
    const auto [ref_audits, ref_next] = run(false);
    const auto [skip_audits, skip_next] = run(true);
    EXPECT_GT(ref_audits, 10u);
    EXPECT_EQ(skip_audits, ref_audits);
    EXPECT_EQ(skip_next, ref_next);
}

TEST(ClockSkip, TelemetrySamplesAtExactSerialCycles)
{
    // Interval 703 (prime, no relation to any engine constant): each
    // sample must land on the same cycle with the same deltas as the
    // per-cycle reference — a skip that overshoots the sample point by
    // even one cycle shifts an interval boundary and fails here.
    auto run = [](bool skip, std::vector<TelemetryInterval> &out) {
        GpuConfig cfg = GpuConfig::baseline();
        cfg.clockSkip = skip;
        Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
        TelemetryConfig tconf;
        tconf.interval = 703;
        TelemetrySampler sampler(tconf);
        gpu.attachTelemetry(&sampler);
        gpu.launchKernel(benchmark("MM"));
        gpu.run(15'000);
        sampler.finish(gpu);
        out = sampler.intervals();
    };
    std::vector<TelemetryInterval> ref, skipped;
    run(false, ref);
    run(true, skipped);
    ASSERT_GT(ref.size(), 10u);
    ASSERT_EQ(skipped.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(skipped[i].start, ref[i].start) << "interval " << i;
        EXPECT_EQ(skipped[i].end, ref[i].end) << "interval " << i;
        expectStatsEqual(ref[i].gpu, skipped[i].gpu);
    }
}

TEST(ClockSkip, PolicyDecisionsApplyAtExactSerialCycles)
{
    // The Warped-Slicer profiling schedule is cycle-exact: warmup and
    // profile windows end at fixed cycles, and each applied
    // repartition records the cycle it happened. The skipping engine
    // must reproduce the decision log cycle-for-cycle.
    auto run = [](bool skip, DecisionLog &log) {
        GpuConfig cfg = GpuConfig::baseline();
        cfg.clockSkip = skip;
        WarpedSlicerOptions opts;
        opts.warmup = 2000;
        opts.profileLength = 2000;
        opts.monitorWindow = 2000;
        opts.reprofileCooldown = 50'000;
        auto policy = std::make_unique<WarpedSlicerPolicy>(opts);
        policy->attachDecisionLog(&log);
        Gpu gpu(cfg, std::move(policy));
        gpu.launchKernel(benchmark("IMG"), 10'000'000);
        gpu.launchKernel(benchmark("NN"), 10'000'000);
        gpu.run(12'000);
    };
    DecisionLog ref, skipped;
    run(false, ref);
    run(true, skipped);
    ASSERT_GE(ref.entries().size(), 1u);
    ASSERT_EQ(skipped.entries().size(), ref.entries().size());
    for (std::size_t i = 0; i < ref.entries().size(); ++i) {
        EXPECT_EQ(skipped.entries()[i].cycle, ref.entries()[i].cycle);
        EXPECT_EQ(skipped.entries()[i].chosenCtas,
                  ref.entries()[i].chosenCtas);
        EXPECT_EQ(skipped.entries()[i].spatial, ref.entries()[i].spatial);
    }
}

TEST(ClockSkip, WatchdogDeadlineBoundsSkips)
{
    // Inject a lost-wakeup barrier hang, then run the skipping engine:
    // no skip may jump past lastProgress + watchdogCycles, so detection
    // stays bounded exactly as in the per-cycle engine.
    constexpr Cycle wd = 300;
    GpuConfig cfg = GpuConfig::baseline();
    cfg.clockSkip = true;
    cfg.watchdogCycles = wd;
    Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
    gpu.launchKernel(hangKernel());
    gpu.run(2'000);  // get every CTA resident and running
    ASSERT_FALSE(gpu.allKernelsDone());
    for (unsigned s = 0; s < gpu.numSms(); ++s)
        gpu.sm(s).injectBarrierHangForTest();
    const Cycle injected = gpu.cycle();
    try {
        gpu.run(1'000'000);
        FAIL() << "watchdog never fired on a parked machine";
    } catch (const DeadlockError &e) {
        EXPECT_GE(e.stalledFor(), wd);
        EXPECT_LE(e.cycle(), injected + wd + 5'000);
    }
}
