/**
 * @file
 * Tests for the telemetry subsystem: interval sampling deltas,
 * bounded-series compaction, per-kernel stall/LDST attribution, and
 * the latency-histogram recording gate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "core/policies.hh"
#include "gpu/gpu.hh"
#include "report/table.hh"
#include "telemetry/telemetry.hh"
#include "workloads/benchmarks.hh"

using namespace wsl;

namespace {

/** Two-kernel GPU used by most tests (MM is compute-ish, BFS memory-
 *  bound, so both latency and stall paths get exercised). */
std::unique_ptr<Gpu>
makeCoRunGpu()
{
    auto gpu = std::make_unique<Gpu>(GpuConfig::baseline(),
                                     std::make_unique<LeftOverPolicy>());
    gpu->launchKernel(benchmark("MM"));
    gpu->launchKernel(benchmark("BFS"));
    return gpu;
}

} // namespace

TEST(Telemetry, DisabledSamplerNeverAttaches)
{
    auto gpu = makeCoRunGpu();
    TelemetrySampler off(TelemetryConfig{0, 16});
    EXPECT_FALSE(off.enabled());
    gpu->attachTelemetry(&off);
    EXPECT_EQ(gpu->telemetry(), nullptr);
    gpu->run(2000);
    EXPECT_TRUE(off.intervals().empty());
}

TEST(Telemetry, IntervalDeltasSumToFinalStats)
{
    auto gpu = makeCoRunGpu();
    TelemetrySampler sampler(TelemetryConfig{2000, 4096});
    gpu->attachTelemetry(&sampler);
    gpu->run(25000);
    sampler.finish(*gpu);

    const GpuStats final_stats = gpu->collectStats();
    std::uint64_t warp = 0, cycles = 0, l2 = 0, stalls = 0;
    for (const TelemetryInterval &iv : sampler.intervals()) {
        warp += iv.gpu.warpInstsIssued;
        cycles += iv.gpu.cycles;
        l2 += iv.gpu.l2Accesses;
        stalls += iv.gpu.stallTotal();
    }
    EXPECT_EQ(warp, final_stats.warpInstsIssued);
    EXPECT_EQ(cycles, final_stats.cycles);
    EXPECT_EQ(l2, final_stats.l2Accesses);
    EXPECT_EQ(stalls, final_stats.stallTotal());

    // Intervals tile the run: contiguous, and the last one ends at the
    // current cycle thanks to finish().
    ASSERT_FALSE(sampler.intervals().empty());
    Cycle prev_end = 0;
    for (const TelemetryInterval &iv : sampler.intervals()) {
        EXPECT_EQ(iv.start, prev_end);
        EXPECT_GT(iv.end, iv.start);
        prev_end = iv.end;
    }
    EXPECT_EQ(prev_end, gpu->cycle());
}

TEST(Telemetry, SamplesLandOnExactIntervalBoundaries)
{
    // Interval 703 (prime, no relation to any engine constant) and a
    // bound the series never reaches: interval i covers exactly
    // [i * 703, (i + 1) * 703), and finish() closes the partial tail.
    constexpr Cycle interval = 703;
    constexpr Cycle window = 15'000;
    Gpu gpu(GpuConfig::baseline(), std::make_unique<LeftOverPolicy>());
    TelemetrySampler sampler(TelemetryConfig{interval, 4096});
    gpu.attachTelemetry(&sampler);
    gpu.launchKernel(benchmark("MM"));
    ASSERT_EQ(gpu.run(window), window);
    sampler.finish(gpu);
    const auto &ivs = sampler.intervals();
    ASSERT_EQ(ivs.size(), window / interval + 1);
    for (std::size_t i = 0; i < ivs.size(); ++i) {
        EXPECT_EQ(ivs[i].start, i * interval) << "interval " << i;
        EXPECT_EQ(ivs[i].end, std::min<Cycle>((i + 1) * interval, window))
            << "interval " << i;
        EXPECT_EQ(ivs[i].gpu.cycles, ivs[i].end - ivs[i].start)
            << "interval " << i;
    }
}

TEST(Telemetry, PerSmDeltasSumToSmTotals)
{
    auto gpu = makeCoRunGpu();
    TelemetrySampler sampler(TelemetryConfig{3000, 4096});
    gpu->attachTelemetry(&sampler);
    gpu->run(20000);
    sampler.finish(*gpu);

    for (unsigned s = 0; s < gpu->numSms(); ++s) {
        std::uint64_t warp = 0;
        for (const TelemetryInterval &iv : sampler.intervals())
            warp += iv.sms[s].warpInstsIssued;
        EXPECT_EQ(warp, gpu->sm(s).stats().warpInstsIssued) << "sm" << s;
    }
}

TEST(Telemetry, CompactionBoundsSeriesAndPreservesSums)
{
    auto gpu = makeCoRunGpu();
    // Tiny interval and tiny bound force several compactions.
    TelemetrySampler sampler(TelemetryConfig{100, 8});
    gpu->attachTelemetry(&sampler);
    gpu->run(20000);
    sampler.finish(*gpu);

    EXPECT_LE(sampler.intervals().size(), 8u);
    EXPECT_GT(sampler.compactions(), 0u);
    // Each compaction merges interval pairs and doubles the stride.
    EXPECT_EQ(sampler.stride(),
              Cycle{100} << sampler.compactions());

    const GpuStats final_stats = gpu->collectStats();
    std::uint64_t warp = 0, cycles = 0;
    Cycle prev_end = 0;
    for (const TelemetryInterval &iv : sampler.intervals()) {
        warp += iv.gpu.warpInstsIssued;
        cycles += iv.gpu.cycles;
        EXPECT_EQ(iv.start, prev_end);  // still contiguous
        prev_end = iv.end;
    }
    EXPECT_EQ(warp, final_stats.warpInstsIssued);
    EXPECT_EQ(cycles, final_stats.cycles);
    EXPECT_EQ(prev_end, gpu->cycle());
}

TEST(Telemetry, StallAttributionSumsToTotals)
{
    auto gpu = makeCoRunGpu();
    // LeftOver residency starves kernel 1; split the SMs so both
    // kernels have resident warps to be charged for.
    for (unsigned s = 0; s < gpu->numSms(); ++s) {
        gpu->sm(s).setQuota(0, 2);
        gpu->sm(s).setQuota(1, 2);
    }
    TelemetrySampler sampler(TelemetryConfig{5000, 4096});
    gpu->attachTelemetry(&sampler);
    gpu->run(30000);

    for (unsigned s = 0; s < gpu->numSms(); ++s) {
        const SmStats &st = gpu->sm(s).stats();
        for (unsigned kind = 0; kind < numStallKinds; ++kind) {
            std::uint64_t attributed = 0;
            for (unsigned k = 0; k < maxConcurrentKernels; ++k)
                attributed += st.kernelStalls[k][kind];
            EXPECT_EQ(attributed + st.unattributedStalls[kind],
                      st.stalls[kind])
                << "sm" << s << " kind" << kind;
        }
        // Idle has no resident warps, so no kernel can be charged.
        const unsigned idle = static_cast<unsigned>(StallKind::Idle);
        for (unsigned k = 0; k < maxConcurrentKernels; ++k)
            EXPECT_EQ(st.kernelStalls[k][idle], 0u);
        // LDST attribution never exceeds the unit's busy time.
        std::uint64_t ldst = 0;
        for (unsigned k = 0; k < maxConcurrentKernels; ++k)
            ldst += st.kernelLdstBusyCycles[k];
        EXPECT_LE(ldst, st.ldstBusyCycles);
    }
    // Both kernels actually got charged somewhere on the GPU.
    const GpuStats g = gpu->collectStats();
    std::uint64_t k0 = 0, k1 = 0;
    for (unsigned kind = 0; kind < numStallKinds; ++kind) {
        k0 += g.kernelStalls[0][kind];
        k1 += g.kernelStalls[1][kind];
    }
    EXPECT_GT(k0, 0u);
    EXPECT_GT(k1, 0u);
}

TEST(Telemetry, LatencyHistogramsOnlyRecordWhenAttached)
{
    // Without telemetry the histogram paths must stay cold.
    auto plain = makeCoRunGpu();
    plain->run(15000);
    for (unsigned s = 0; s < plain->numSms(); ++s)
        for (unsigned k = 0; k < maxConcurrentKernels; ++k)
            EXPECT_TRUE(plain->sm(s)
                            .memLatencyHistogram(static_cast<KernelId>(k))
                            .empty());

    auto gpu = makeCoRunGpu();
    TelemetrySampler sampler(TelemetryConfig{5000, 4096});
    gpu->attachTelemetry(&sampler);
    gpu->run(15000);
    Histogram merged;
    for (unsigned s = 0; s < gpu->numSms(); ++s)
        for (unsigned k = 0; k < maxConcurrentKernels; ++k)
            merged.merge(gpu->sm(s).memLatencyHistogram(
                static_cast<KernelId>(k)));
    EXPECT_FALSE(merged.empty());
    // Global-load round trips are at least the L1 hit latency.
    EXPECT_GE(merged.min(), GpuConfig::baseline().l1HitLatency);
    // Queue-depth histograms in the partitions follow the same gate.
    Histogram depth;
    for (unsigned p = 0; p < gpu->numPartitions(); ++p)
        depth.merge(gpu->partition(p).mshrOccupancyHistogram());
    EXPECT_FALSE(depth.empty());
    for (unsigned p = 0; p < plain->numPartitions(); ++p)
        EXPECT_TRUE(plain->partition(p).mshrOccupancyHistogram().empty());
}

TEST(Telemetry, QuotaSnapshotTracksSetQuotas)
{
    auto gpu = makeCoRunGpu();
    for (unsigned s = 0; s < gpu->numSms(); ++s) {
        gpu->sm(s).setQuota(0, 3);
        gpu->sm(s).setQuota(1, 2);
    }
    TelemetrySampler sampler(TelemetryConfig{2000, 4096});
    gpu->attachTelemetry(&sampler);
    gpu->run(8000);
    sampler.finish(*gpu);

    ASSERT_FALSE(sampler.intervals().empty());
    const TelemetryInterval &iv = sampler.intervals().back();
    EXPECT_EQ(iv.quotas[0], 3);
    EXPECT_EQ(iv.quotas[1], 2);
    // With quotas 3+2 per SM, total resident CTAs respect the caps.
    EXPECT_LE(iv.residentCtas[0], 3u * gpu->numSms());
    EXPECT_LE(iv.residentCtas[1], 2u * gpu->numSms());
    EXPECT_GT(iv.residentCtas[0] + iv.residentCtas[1], 0u);
}

TEST(Telemetry, TableHasOneRowPerScopePerInterval)
{
    auto gpu = makeCoRunGpu();
    TelemetrySampler sampler(TelemetryConfig{4000, 4096});
    gpu->attachTelemetry(&sampler);
    gpu->run(12000);
    sampler.finish(*gpu);

    const Table t = sampler.toTable();
    const std::size_t scopes = 1 + gpu->numSms() + gpu->numPartitions();
    EXPECT_EQ(t.numRows(), sampler.intervals().size() * scopes);

    std::ostringstream csv;
    sampler.writeCsv(csv);
    const std::string text = csv.str();
    // Header + one line per row.
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(text.begin(), text.end(), '\n')),
              t.numRows() + 1);
    std::ostringstream json;
    sampler.writeJson(json);
    EXPECT_EQ(json.str().front(), '[');
}

TEST(Telemetry, SamplingDoesNotPerturbTheSimulation)
{
    // Telemetry is observational: the simulated execution must be
    // cycle-for-cycle identical with and without a sampler attached.
    auto a = makeCoRunGpu();
    a->run(20000);
    auto b = makeCoRunGpu();
    TelemetrySampler sampler(TelemetryConfig{1000, 16});
    b->attachTelemetry(&sampler);
    b->run(20000);

    const GpuStats sa = a->collectStats();
    const GpuStats sb = b->collectStats();
    EXPECT_EQ(sa.warpInstsIssued, sb.warpInstsIssued);
    EXPECT_EQ(sa.l1Misses, sb.l1Misses);
    EXPECT_EQ(sa.dramReads, sb.dramReads);
    EXPECT_EQ(sa.stallTotal(), sb.stallTotal());
}
