/**
 * @file
 * Unit tests for the SM core driven standalone, with the test acting
 * as the memory system: CTA lifecycle, resource accounting, barriers,
 * scoreboard behavior, quotas, eviction, and scheduler variants.
 */

#include <gtest/gtest.h>

#include <memory>

#include "check/access.hh"
#include "sm/sm_core.hh"
#include "workloads/benchmarks.hh"

using namespace wsl;

namespace {

/** Fixed-latency perfect memory behind the SM. */
class TestRig
{
  public:
    explicit TestRig(const GpuConfig &config = GpuConfig::baseline())
        : cfg(config), sm(config, 0)
    {
    }

    /** Advance one cycle, servicing memory with `mem_latency`. */
    void
    tick(Cycle mem_latency = 100)
    {
        sm.tick(now);
        auto &out = sm.outgoingRequests();
        for (const MemRequest &req : out) {
            if (!req.write)
                pending.push_back({req.line, req.sm,
                                   req.readyAt + mem_latency});
        }
        out.clear();
        for (std::size_t i = 0; i < pending.size();) {
            if (pending[i].readyAt <= now) {
                sm.deliverResponse(pending[i]);
                pending[i] = pending.back();
                pending.pop_back();
            } else {
                ++i;
            }
        }
        ++now;
    }

    void
    run(Cycle cycles, Cycle mem_latency = 100)
    {
        for (Cycle i = 0; i < cycles; ++i)
            tick(mem_latency);
    }

    GpuConfig cfg;
    SmCore sm;
    Cycle now = 0;
    std::vector<MemResponse> pending;
};

/** Small single-CTA kernel: pure ALU. */
KernelParams
aluKernel(unsigned iters = 10, unsigned dep = 4)
{
    KernelParams k;
    k.name = "ALU";
    k.gridDim = 64;
    k.blockDim = 64;
    k.regsPerThread = 16;
    k.mix = {.alu = 8, .sfu = 0, .ldGlobal = 0, .stGlobal = 0,
             .ldShared = 0, .stShared = 0, .depDist = dep,
             .barrierPerIter = false};
    k.loopIters = iters;
    k.mem = {MemPattern::Tile, 1024, 1};
    k.ifetchMissRate = 0.0;
    return k;
}

KernelParams
barrierKernel(unsigned iters = 4)
{
    KernelParams k = aluKernel(iters);
    k.name = "BARK";
    k.blockDim = 128;  // 4 warps so the barrier actually couples
    k.mix.barrierPerIter = true;
    return k;
}

KernelParams
loadKernel(unsigned iters = 6)
{
    KernelParams k = aluKernel(iters);
    k.name = "LD";
    k.mix = {.alu = 4, .sfu = 0, .ldGlobal = 2, .stGlobal = 1,
             .ldShared = 0, .stShared = 0, .depDist = 1,
             .barrierPerIter = false};
    k.mem = {MemPattern::Stream, 0, 1};
    return k;
}

struct Launched
{
    KernelParams params;
    KernelProgram program;
};

std::unique_ptr<Launched>
launch(TestRig &rig, KernelParams params, KernelId kid = 0,
       unsigned cta = 0)
{
    auto l = std::make_unique<Launched>();
    l->params = std::move(params);
    l->program = buildProgram(l->params);
    const bool ok = rig.sm.launchCta(kid, l->params, l->program, cta,
                                     Addr{1} << 36, rig.now);
    EXPECT_TRUE(ok);
    return l;
}

} // namespace

TEST(SmCore, LaunchConsumesResources)
{
    TestRig rig;
    auto k = launch(rig, aluKernel());
    const ResourceVec used = rig.sm.pool().usedVec();
    EXPECT_EQ(used.regs, 16u * 64u);
    EXPECT_EQ(used.threads, 64u);
    EXPECT_EQ(used.ctas, 1u);
    EXPECT_EQ(rig.sm.residentCtas(0), 1u);
    EXPECT_FALSE(rig.sm.idle());
}

TEST(SmCore, CtaRunsToCompletionAndFreesResources)
{
    TestRig rig;
    auto k = launch(rig, aluKernel());
    rig.run(5000);
    EXPECT_TRUE(rig.sm.idle());
    EXPECT_EQ(rig.sm.pool().usedVec(), ResourceVec{});
    EXPECT_EQ(rig.sm.residentCtas(0), 0u);
    ASSERT_EQ(rig.sm.completedCtaEvents().size(), 1u);
    EXPECT_EQ(rig.sm.completedCtaEvents()[0], 0);
    EXPECT_EQ(rig.sm.stats().ctasCompleted, 1u);
}

TEST(SmCore, ExecutesExactInstructionCount)
{
    TestRig rig;
    auto k = launch(rig, aluKernel(10));
    rig.run(5000);
    // 2 warps x 8 insts x 10 iters.
    EXPECT_EQ(rig.sm.stats().warpInstsIssued, 2u * 8u * 10u);
    EXPECT_EQ(rig.sm.stats().threadInstsIssued, 2u * 8u * 10u * 32u);
}

TEST(SmCore, PartialLastWarpCountsActiveThreads)
{
    TestRig rig;
    KernelParams k = aluKernel(1);
    k.blockDim = 48;  // warp0: 32 threads, warp1: 16
    auto l = launch(rig, k);
    rig.run(2000);
    EXPECT_EQ(rig.sm.stats().threadInstsIssued, 8u * (32u + 16u));
}

TEST(SmCore, RejectsWhenCtaSlotsExhausted)
{
    GpuConfig cfg = GpuConfig::baseline();
    cfg.maxCtasPerSm = 2;
    TestRig rig(cfg);
    auto a = launch(rig, aluKernel(), 0, 0);
    auto b = launch(rig, aluKernel(), 0, 1);
    EXPECT_FALSE(rig.sm.canAcceptCta(a->params));
    KernelProgram prog = buildProgram(a->params);
    EXPECT_FALSE(rig.sm.launchCta(0, a->params, prog, 2, 0, rig.now));
}

TEST(SmCore, RejectsWhenRegistersExhausted)
{
    TestRig rig;
    KernelParams k = aluKernel();
    k.regsPerThread = 36;
    k.blockDim = 512;  // 18432 regs per CTA
    auto a = launch(rig, k, 0, 0);
    EXPECT_FALSE(rig.sm.canAcceptCta(k));  // 2nd would need 36864
}

TEST(SmCore, BarrierCouplesWarpProgress)
{
    // With a barrier per iteration, no warp may be a full iteration
    // ahead of its CTA siblings; the kernel still completes.
    TestRig rig;
    auto k = launch(rig, barrierKernel(6));
    rig.run(8000);
    EXPECT_TRUE(rig.sm.idle());
    EXPECT_EQ(rig.sm.stats().warpInstsIssued,
              4u * (8u + 1u) * 6u);  // 4 warps, body 8 + bar, 6 iters
}

TEST(SmCore, BarrierKernelWithSingleWarpDoesNotDeadlock)
{
    TestRig rig;
    KernelParams k = barrierKernel(3);
    k.blockDim = 32;
    auto l = launch(rig, k);
    rig.run(3000);
    EXPECT_TRUE(rig.sm.idle());
}

TEST(SmCore, LoadsGoOutAndCompleteOnResponse)
{
    TestRig rig;
    auto k = launch(rig, loadKernel(4));
    rig.run(8000, 150);
    EXPECT_TRUE(rig.sm.idle());
    const SmStats &s = rig.sm.stats();
    // 2 warps x (2 loads + 1 store) x 4 iters global accesses.
    EXPECT_EQ(s.l1Accesses, 2u * 3u * 4u);
    EXPECT_GT(s.l1Misses, 0u);
}

TEST(SmCore, MemoryLatencySlowsExecution)
{
    auto run_with_latency = [](Cycle lat) {
        TestRig rig;
        auto k = launch(rig, loadKernel(6));
        Cycle cycles = 0;
        while (!rig.sm.idle() && cycles < 50000) {
            rig.tick(lat);
            ++cycles;
        }
        return cycles;
    };
    const Cycle fast = run_with_latency(20);
    const Cycle slow = run_with_latency(800);
    EXPECT_LT(fast, slow);
    EXPECT_GT(slow, 800u);  // at least one serialized round trip
}

TEST(SmCore, StoresDoNotBlockCompletion)
{
    // Stores are fire-and-forget: the kernel finishes even if writes
    // are never acknowledged.
    TestRig rig;
    KernelParams k = aluKernel(3);
    k.mix.stGlobal = 2;
    k.mem = {MemPattern::Stream, 0, 1};
    auto l = launch(rig, k);
    rig.run(4000);
    EXPECT_TRUE(rig.sm.idle());
}

TEST(SmCore, QuotaAccessors)
{
    TestRig rig;
    EXPECT_EQ(rig.sm.quota(0), -1);
    rig.sm.setQuota(0, 3);
    rig.sm.setQuota(1, 0);
    EXPECT_EQ(rig.sm.quota(0), 3);
    EXPECT_EQ(rig.sm.quota(1), 0);
    rig.sm.clearQuotas();
    EXPECT_EQ(rig.sm.quota(0), -1);
    EXPECT_EQ(rig.sm.quota(1), -1);
}

TEST(SmCore, EvictKernelFreesEverything)
{
    TestRig rig;
    auto a = launch(rig, aluKernel(1000), 0, 0);
    auto b = launch(rig, aluKernel(1000), 1, 1);
    rig.run(50);
    EXPECT_EQ(rig.sm.residentCtas(0), 1u);
    EXPECT_EQ(rig.sm.residentCtas(1), 1u);
    rig.sm.evictKernel(0);
    EXPECT_EQ(rig.sm.residentCtas(0), 0u);
    EXPECT_EQ(rig.sm.residentCtas(1), 1u);
    EXPECT_EQ(rig.sm.pool().usedVec().ctas, 1u);
    // The survivor still completes.
    rig.run(200000);
    EXPECT_TRUE(rig.sm.idle());
}

TEST(SmCore, EvictionWithOutstandingLoadsIsSafe)
{
    TestRig rig;
    auto k = launch(rig, loadKernel(50));
    rig.run(30, 500);  // loads in flight
    rig.sm.evictKernel(0);
    // Slot reuse while the old responses are still pending.
    auto k2 = launch(rig, loadKernel(5), 1, 0);
    rig.run(10000, 500);
    EXPECT_TRUE(rig.sm.idle());
    EXPECT_EQ(rig.sm.pool().usedVec(), ResourceVec{});
}

TEST(SmCore, TwoKernelsShareOneSm)
{
    TestRig rig;
    auto a = launch(rig, aluKernel(20), 0, 0);
    auto b = launch(rig, loadKernel(10), 1, 1);
    rig.run(20000);
    EXPECT_TRUE(rig.sm.idle());
    const SmStats &s = rig.sm.stats();
    EXPECT_EQ(s.kernelWarpInsts[0], 2u * 8u * 20u);
    EXPECT_EQ(s.kernelWarpInsts[1], 2u * 7u * 10u);
    EXPECT_EQ(s.warpInstsIssued,
              s.kernelWarpInsts[0] + s.kernelWarpInsts[1]);
}

TEST(SmCore, GtoFavorsOldWarpsLrrRotates)
{
    // Warp slots are handed out LIFO, so a newer CTA reuses *lower*
    // slots: slot order is the reverse of age order. GTO must still
    // pick by age. Two 4-warp CTAs of different kernels, every i-buffer
    // refilled in the same cycle (fetchWidth 8), dependent ALU chains:
    //   kernel 0: slots 47 46 45 44, ages 0-3
    //   kernel 1: slots 43 42 41 40, ages 4-7
    // Scheduler 1 holds 47 45 43 41. Its first issue goes to the
    // oldest warp, 47; two cycles later 47 (now the greedy warp) waits
    // on its RAW hazard and the oldest ready warp, 45, must issue —
    // not a newer, lower-slot kernel-1 warp. Scheduler 0 likewise
    // issues 46, then 44.
    auto run_sched = [](SchedulerKind kind) {
        GpuConfig cfg = GpuConfig::baseline();
        cfg.scheduler = kind;
        cfg.fetchWidth = 8;
        TestRig rig(cfg);
        KernelParams params = aluKernel(50, 1);
        params.blockDim = 128;
        auto a = launch(rig, params, 0, 0);
        auto b = launch(rig, params, 1, 1);
        const auto &hot = AuditAccess::hotWarps(rig.sm);
        const auto &warps = AuditAccess::warps(rig.sm);
        EXPECT_LT(warps[47].age, warps[41].age);
        while (rig.sm.stats().warpInstsIssued < 4 && rig.now < 1000)
            rig.tick();
        if (kind == SchedulerKind::Gto) {
            EXPECT_EQ(rig.sm.stats().warpInstsIssued, 4u);
            for (unsigned w : {47u, 46u, 45u, 44u})
                EXPECT_EQ(hot[w].pc, 1u) << "older warp " << w;
            for (unsigned w : {43u, 42u, 41u, 40u})
                EXPECT_EQ(hot[w].pc, 0u) << "newer warp " << w;
            EXPECT_EQ(rig.sm.stats().kernelWarpInsts[1], 0u);
        }
        while (!rig.sm.idle() && rig.now < 100000)
            rig.tick();
        EXPECT_EQ(rig.sm.stats().warpInstsIssued, 2u * 4u * 8u * 50u);
    };
    run_sched(SchedulerKind::Gto);
    run_sched(SchedulerKind::Lrr);
}

TEST(SmCore, StallAccountingCoversAllCycles)
{
    TestRig rig;
    auto k = launch(rig, loadKernel(20));
    rig.run(3000, 400);
    const SmStats &s = rig.sm.stats();
    // Every scheduler-cycle either issued or recorded a stall.
    EXPECT_EQ(s.warpInstsIssued + s.stallTotal(),
              s.cycles * rig.cfg.numSchedulers);
}

TEST(SmCore, RawHazardsForceSerialExecution)
{
    // depDist 1 with ALU latency L: a lone warp cannot issue faster
    // than one instruction per L cycles once the i-buffer streams.
    GpuConfig cfg = GpuConfig::baseline();
    TestRig rig(cfg);
    KernelParams k = aluKernel(20, 1);
    k.blockDim = 32;  // one warp
    auto l = launch(rig, k);
    Cycle cycles = 0;
    while (!rig.sm.idle() && cycles < 100000) {
        rig.tick();
        ++cycles;
    }
    const std::uint64_t insts = 8u * 20u;
    EXPECT_GE(cycles, insts * (cfg.aluLatency - 2));
}

TEST(SmCore, IFetchMissesSlowFetchBoundKernels)
{
    auto run_missrate = [](double rate) {
        TestRig rig;
        KernelParams k = aluKernel(40, 8);
        k.ifetchMissRate = rate;
        auto l = launch(rig, k);
        Cycle cycles = 0;
        while (!rig.sm.idle() && cycles < 200000) {
            rig.tick();
            ++cycles;
        }
        return cycles;
    };
    EXPECT_LT(run_missrate(0.0), run_missrate(0.8));
}

TEST(SmCore, ShmConflictFactorSlowsSharedMemoryKernels)
{
    auto run_conflict = [](unsigned factor) {
        TestRig rig;
        KernelParams k = aluKernel(40, 2);
        k.mix.ldShared = 4;
        k.shmConflictFactor = factor;
        auto l = launch(rig, k);
        Cycle cycles = 0;
        while (!rig.sm.idle() && cycles < 200000) {
            rig.tick();
            ++cycles;
        }
        return cycles;
    };
    EXPECT_LT(run_conflict(1), run_conflict(8));
}

TEST(SmCore, UtilizationIntegralsAccumulate)
{
    TestRig rig;
    auto k = launch(rig, aluKernel(5));
    rig.run(10);
    const SmStats &s = rig.sm.stats();
    EXPECT_EQ(s.regsAllocatedIntegral, 10u * 16u * 64u);
    EXPECT_EQ(s.threadsAllocatedIntegral, 10u * 64u);
}
