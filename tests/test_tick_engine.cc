/**
 * @file
 * Tests for the serial tick engine's plumbing: the ordered
 * interconnect merge and its conservation counters, the datacenter
 * preset, config validation of component counts and tickThreads, and
 * the addressing edge cases the merge relies on (lineAddr /
 * partitionOf at the top of the address space, non-power-of-two
 * partition counts).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "check/access.hh"
#include "common/config.hh"
#include "core/policies.hh"
#include "expect_throw.hh"
#include "gpu/gpu.hh"
#include "gpu/staging.hh"
#include "mem/partition.hh"
#include "mem/request.hh"
#include "sm/sm_core.hh"
#include "workloads/benchmarks.hh"

using namespace wsl;

// ---------------------------------------------------------------------
// The dc preset
// ---------------------------------------------------------------------

TEST(DcPreset, ValidatesAndRunsAWindow)
{
    GpuConfig cfg = GpuConfig::datacenter();
    EXPECT_EQ(cfg.numSms, 128u);
    EXPECT_EQ(cfg.numMemPartitions, 32u);
    EXPECT_NO_THROW(cfg.validate());
    Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
    gpu.launchKernel(benchmark("MM"));
    EXPECT_NO_THROW(gpu.run(300));
    EXPECT_LE(gpu.cycle(), 300u);
    EXPECT_GT(gpu.collectStats().warpInstsIssued, 0u);
}

// ---------------------------------------------------------------------
// InterconnectStage ordered merge
// ---------------------------------------------------------------------

namespace {

Addr
lineForPartition(unsigned part, unsigned nparts, unsigned k)
{
    return static_cast<Addr>(part + k * nparts) * lineSize;
}

} // namespace

TEST(InterconnectStage, MergesInSmIndexOrder)
{
    GpuConfig cfg = GpuConfig::baseline();
    cfg.numSms = 3;
    cfg.numMemPartitions = 2;
    std::vector<std::unique_ptr<SmCore>> sm_store;
    std::vector<std::unique_ptr<MemPartition>> part_store;
    std::vector<SmCore *> sms;
    std::vector<MemPartition *> parts;
    for (unsigned i = 0; i < cfg.numSms; ++i) {
        sm_store.push_back(std::make_unique<SmCore>(cfg, i));
        sms.push_back(sm_store.back().get());
    }
    for (unsigned i = 0; i < cfg.numMemPartitions; ++i) {
        part_store.push_back(std::make_unique<MemPartition>(cfg, i));
        parts.push_back(part_store.back().get());
    }

    // Every SM stages two requests for partition 0 (staged in
    // arbitrary per-SM order by the compute phase; here by hand).
    for (unsigned i = 0; i < cfg.numSms; ++i) {
        auto &out = sms[i]->outgoingRequests();
        out.push_back({lineForPartition(0, 2, 2 * i),
                       false, static_cast<SmId>(i), 10});
        out.push_back({lineForPartition(0, 2, 2 * i + 1),
                       false, static_cast<SmId>(i), 10});
    }

    InterconnectStage stage;
    stage.mergeRequests(sms, parts);
    EXPECT_EQ(stage.routedRequests(), 6u);
    for (unsigned i = 0; i < cfg.numSms; ++i)
        EXPECT_TRUE(sms[i]->outgoingRequests().empty());

    // Partition 0's input queue must hold SM 0's requests first, then
    // SM 1's, then SM 2's — exactly the serial iteration order.
    std::vector<SmId> got;
    for (const MemRequest &req : AuditAccess::reqQueue(*parts[0]))
        got.push_back(req.sm);
    const std::vector<SmId> want = {0, 0, 1, 1, 2, 2};
    EXPECT_EQ(got, want);
    EXPECT_EQ(AuditAccess::reqQueueDepth(*parts[1]), 0u);
}

TEST(InterconnectStage, BackpressureKeepsRefusedRequestsInOrder)
{
    GpuConfig cfg = GpuConfig::baseline();
    cfg.numSms = 2;
    cfg.numMemPartitions = 1;
    SmCore sm0(cfg, 0), sm1(cfg, 1);
    MemPartition part(cfg, 0);
    std::vector<SmCore *> sms = {&sm0, &sm1};
    std::vector<MemPartition *> parts = {&part};

    // Fill the partition queue to one slot short of its 64-entry
    // backpressure limit, then stage 3 more requests: only the first
    // (SM 0's oldest) fits; the refused two must stay staged in order.
    while (AuditAccess::reqQueueDepth(part) < 63)
        part.pushRequest({0, false, 0, 0});
    sm0.outgoingRequests().push_back({1 * lineSize, false, 0, 5});
    sm0.outgoingRequests().push_back({2 * lineSize, false, 0, 5});
    sm1.outgoingRequests().push_back({3 * lineSize, false, 1, 5});

    InterconnectStage stage;
    stage.mergeRequests(sms, parts);
    EXPECT_EQ(AuditAccess::reqQueueDepth(part), 64u);
    ASSERT_EQ(sm0.outgoingRequests().size(), 1u);
    EXPECT_EQ(sm0.outgoingRequests()[0].line, 2 * lineSize);
    ASSERT_EQ(sm1.outgoingRequests().size(), 1u);
    EXPECT_EQ(sm1.outgoingRequests()[0].line, 3 * lineSize);
    EXPECT_EQ(stage.routedRequests(), 1u);

    // Draining the partition lets the retry succeed, oldest first.
    part.reset();
    stage.mergeRequests(sms, parts);
    EXPECT_EQ(stage.routedRequests(), 3u);
    EXPECT_TRUE(sm0.outgoingRequests().empty());
    EXPECT_TRUE(sm1.outgoingRequests().empty());
}

TEST(InterconnectStage, StagingConservationHoldsAfterRun)
{
    GpuConfig cfg = GpuConfig::baseline();
    cfg.auditCadence = 1; // audit (incl. staging check) every cycle
    Gpu gpu(cfg, std::make_unique<LeftOverPolicy>());
    gpu.launchKernel(benchmark("LBM"));
    gpu.run(4000);
    ASSERT_NE(gpu.integrityAuditor(), nullptr);
    std::uint64_t accepted = 0, pushed = 0, staged = 0;
    for (unsigned i = 0; i < gpu.numPartitions(); ++i) {
        accepted += AuditAccess::accepted(gpu.partition(i));
        pushed += AuditAccess::pushedResponses(gpu.partition(i));
        staged += AuditAccess::responseCount(gpu.partition(i));
    }
    EXPECT_EQ(gpu.interconnect().routedRequests(), accepted);
    EXPECT_EQ(pushed, gpu.interconnect().deliveredResponses() + staged);
}

// ---------------------------------------------------------------------
// Addressing edge cases the merge depends on
// ---------------------------------------------------------------------

TEST(Addressing, LineAddrAtTopOfAddressSpace)
{
    constexpr Addr max = std::numeric_limits<Addr>::max();
    const Addr top_line = lineAddr(max);
    EXPECT_EQ(top_line, max - (lineSize - 1));
    EXPECT_EQ(top_line % lineSize, 0u);
    EXPECT_EQ(lineAddr(top_line), top_line);
    // Every byte of the top line maps to the same line address — no
    // wraparound past the end of the address space.
    EXPECT_EQ(lineAddr(max - 1), top_line);
    EXPECT_EQ(lineAddr(top_line + lineSize / 2), top_line);
}

TEST(Addressing, PartitionOfAtTopOfAddressSpace)
{
    constexpr Addr max = std::numeric_limits<Addr>::max();
    const Addr top_line = lineAddr(max);
    for (unsigned nparts : {1u, 2u, 5u, 6u, 7u, 1024u}) {
        const unsigned home = partitionOf(top_line, nparts);
        EXPECT_LT(home, nparts);
        // The modulo interleave must agree with its definition even
        // where line/lineSize is near 2^57.
        EXPECT_EQ(home, static_cast<unsigned>(
                            (top_line / lineSize) % nparts));
        // Bytes within one line share a home partition.
        EXPECT_EQ(partitionOf(lineAddr(max - 1), nparts), home);
    }
}

TEST(Addressing, ConsecutiveLinesInterleaveForNonPow2Counts)
{
    // 6 partitions (the paper's baseline) is not a power of two; the
    // interleave must still cycle through every partition.
    const unsigned nparts = 6;
    for (unsigned k = 0; k < 2 * nparts; ++k) {
        EXPECT_EQ(partitionOf(static_cast<Addr>(k) * lineSize, nparts),
                  k % nparts);
    }
}

TEST(ConfigValidate, NonPow2ComponentCountsAreValid)
{
    GpuConfig cfg = GpuConfig::baseline();
    EXPECT_EQ(cfg.numMemPartitions, 6u);  // paper baseline, non-pow2
    EXPECT_NO_THROW(cfg.validate());
    cfg.numMemPartitions = 7;
    cfg.numSms = 13;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidate, RejectsOutOfRangeComponentCounts)
{
    GpuConfig cfg = GpuConfig::baseline();
    cfg.numMemPartitions = 1025;
    WSL_EXPECT_THROW_MSG(cfg.validate(), ConfigError,
                         "numMemPartitions");
    cfg = GpuConfig::baseline();
    cfg.numSms = 1025;
    WSL_EXPECT_THROW_MSG(cfg.validate(), ConfigError, "numSms");
}

TEST(ConfigValidate, RejectsAnyTickThreadsOtherThanOne)
{
    GpuConfig cfg = GpuConfig::baseline();
    EXPECT_EQ(cfg.tickThreads, 1u);
    EXPECT_NO_THROW(cfg.validate());
    for (unsigned threads : {0u, 2u, 4u, ~0u}) {
        cfg.tickThreads = threads;
        WSL_EXPECT_THROW_MSG(cfg.validate(), ConfigError, "tickThreads");
    }
}
