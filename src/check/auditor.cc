/**
 * @file
 * The standard integrity-check suite. Every check re-derives a piece
 * of cached accounting from the ground-truth state it summarizes:
 * allocator sums from CTA allocations, MSHR occupancy from in-flight
 * load transactions, scoreboard bits from pending writebacks, the
 * SM readiness bitmasks from a per-warp scan, timing-wheel counts
 * from their slot lists, and queue conservation from
 * accepted/serviced counters. A divergence means a
 * fast path drifted from the state it mirrors — exactly the class of
 * bug that silently corrupts sweep results.
 */

#include "check/auditor.hh"

#include <cstdint>
#include <sstream>
#include <string>

#include "check/access.hh"
#include "check/sim_error.hh"
#include "gpu/gpu.hh"
#include "isa/opcode.hh"

namespace wsl {

namespace {

std::uint32_t
regBit(int reg)
{
    return reg >= 0 ? (std::uint32_t{1} << (reg & 31)) : 0u;
}

std::uint32_t
touchedMask(const Instruction &inst)
{
    return regBit(inst.src0) | regBit(inst.src1) | regBit(inst.src2) |
           regBit(inst.dst);
}

/**
 * Register-file / shared-memory / thread / CTA-slot allocator sums
 * must equal the sum of live CTA allocations, and the per-kernel
 * resident counts must match a direct scan of the CTA slots.
 */
void
checkSmResources(const Gpu &gpu, std::vector<std::string> &out)
{
    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        const SmCore &sm = gpu.sm(s);
        ResourceVec expect;
        std::array<unsigned, maxConcurrentKernels> perKernel{};
        std::size_t ctaWarps = 0;
        for (const CtaSlot &cta : AuditAccess::ctas(sm)) {
            if (!cta.active)
                continue;
            expect = expect + cta.alloc;
            if (cta.kernel >= 0 &&
                cta.kernel < static_cast<int>(maxConcurrentKernels))
                ++perKernel[cta.kernel];
            ctaWarps += cta.warpIdxs.size();
        }
        if (!(sm.pool().usedVec() == expect)) {
            const ResourceVec &used = sm.pool().usedVec();
            std::ostringstream os;
            os << "SM " << s << ": allocator (regs " << used.regs
               << ", shm " << used.shm << ", threads " << used.threads
               << ", ctas " << used.ctas
               << ") != sum of live CTA allocations (regs "
               << expect.regs << ", shm " << expect.shm << ", threads "
               << expect.threads << ", ctas " << expect.ctas << ")";
            out.push_back(os.str());
        }
        const auto &resident = AuditAccess::resident(sm);
        for (unsigned k = 0; k < maxConcurrentKernels; ++k) {
            if (resident[k] != perKernel[k]) {
                out.push_back("SM " + std::to_string(s) + ": kernel " +
                              std::to_string(k) + " resident count " +
                              std::to_string(resident[k]) +
                              " != live CTA scan " +
                              std::to_string(perKernel[k]));
            }
        }
        const auto &warps = AuditAccess::warps(sm);
        unsigned live = 0;
        for (const WarpHot &w : AuditAccess::hotWarps(sm))
            if (w.active && !w.finished)
                ++live;
        if (AuditAccess::liveWarps(sm) != live) {
            out.push_back("SM " + std::to_string(s) + ": liveWarps " +
                          std::to_string(AuditAccess::liveWarps(sm)) +
                          " != warp scan " + std::to_string(live));
        }
        const std::size_t freeSlots =
            AuditAccess::freeWarpSlots(sm).size();
        if (freeSlots + ctaWarps != warps.size()) {
            out.push_back(
                "SM " + std::to_string(s) + ": free warp slots " +
                std::to_string(freeSlots) + " + CTA-held warps " +
                std::to_string(ctaWarps) + " != total slots " +
                std::to_string(warps.size()));
        }
    }
}

/**
 * L1 MSHR occupancy must match outstanding misses: the transactions
 * still in flight for pending loads are exactly the tokens parked on
 * L1 MSHRs plus the L1-hit maturations in the memory wheel, and every
 * MSHR entry must have at least one waiter.
 */
void
checkSmMshrs(const Gpu &gpu, std::vector<std::string> &out)
{
    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        const SmCore &sm = gpu.sm(s);
        std::uint64_t transLeft = 0;
        unsigned valid = 0;
        for (const auto &load : AuditAccess::loads(sm)) {
            if (!load.valid)
                continue;
            ++valid;
            transLeft += load.transLeft;
        }
        if (valid != AuditAccess::activeLoads(sm)) {
            out.push_back("SM " + std::to_string(s) + ": activeLoads " +
                          std::to_string(AuditAccess::activeLoads(sm)) +
                          " != valid pending-load scan " +
                          std::to_string(valid));
        }
        std::uint64_t tokens = 0;
        for (const auto &[line, waiters] :
             AuditAccess::mshrMap(AuditAccess::l1(sm))) {
            if (waiters.empty()) {
                std::ostringstream os;
                os << "SM " << s << ": L1 MSHR for line 0x" << std::hex
                   << line << " has no waiters";
                out.push_back(os.str());
            }
            tokens += waiters.size();
        }
        const std::size_t memWheel = AuditAccess::memWheel(sm).size();
        const std::uint64_t accounted = tokens + memWheel;
        if (transLeft != accounted) {
            out.push_back(
                "SM " + std::to_string(s) +
                ": outstanding load transactions " +
                std::to_string(transLeft) + " != L1 MSHR waiters " +
                std::to_string(tokens) + " + mem-wheel entries " +
                std::to_string(memWheel));
        }
    }
}

/**
 * Scoreboard entries must correspond to in-flight instructions: every
 * pendingLong bit of a live warp is covered by a valid pending load of
 * that (warp, epoch), and every pendingShort bit by a queued writeback.
 * (Subset, not equality: a retired producer may clear a bit an older
 * in-flight write to the same register still carries.)
 */
void
checkSmScoreboard(const Gpu &gpu, std::vector<std::string> &out)
{
    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        const SmCore &sm = gpu.sm(s);
        const auto &warps = AuditAccess::warps(sm);
        std::vector<std::uint32_t> loadMask(warps.size(), 0);
        for (const auto &load : AuditAccess::loads(sm)) {
            if (load.valid && load.warp < warps.size() &&
                load.epoch == warps[load.warp].epoch)
                loadMask[load.warp] |= load.regMask;
        }
        const auto &hot = AuditAccess::hotWarps(sm);
        for (std::size_t w = 0; w < warps.size(); ++w) {
            const WarpHot &warp = hot[w];
            if (!warp.active || warp.finished)
                continue;
            if (warp.pendingLong & ~loadMask[w]) {
                std::ostringstream os;
                os << "SM " << s << " warp " << w << ": pendingLong 0x"
                   << std::hex << warp.pendingLong
                   << " not covered by in-flight loads 0x" << loadMask[w];
                out.push_back(os.str());
            }
            if (warp.pendingShort) {
                const std::uint32_t wb = AuditAccess::pendingWbMask(
                    sm, static_cast<std::uint16_t>(w), warps[w].epoch);
                if (warp.pendingShort & ~wb) {
                    std::ostringstream os;
                    os << "SM " << s << " warp " << w
                       << ": pendingShort 0x" << std::hex
                       << warp.pendingShort
                       << " not covered by queued writebacks 0x" << wb;
                    out.push_back(os.str());
                }
            }
        }
    }
}

/**
 * Barrier arrival counts: for every live CTA, barrierWaiting equals
 * the number of its live warps parked at the barrier, never exceeds
 * the warps still running, and warpsFinished matches a direct scan.
 */
void
checkSmBarriers(const Gpu &gpu, std::vector<std::string> &out)
{
    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        const SmCore &sm = gpu.sm(s);
        const auto &hot = AuditAccess::hotWarps(sm);
        const auto &ctas = AuditAccess::ctas(sm);
        for (std::size_t c = 0; c < ctas.size(); ++c) {
            const CtaSlot &cta = ctas[c];
            if (!cta.active)
                continue;
            unsigned atBarrier = 0;
            unsigned finished = 0;
            for (std::uint16_t widx : cta.warpIdxs) {
                const WarpHot &w = hot[widx];
                if (w.finished)
                    ++finished;
                else if (w.active && w.atBarrier)
                    ++atBarrier;
            }
            const std::string where =
                "SM " + std::to_string(s) + " CTA slot " +
                std::to_string(c);
            if (cta.warpsTotal != cta.warpIdxs.size()) {
                out.push_back(where + ": warpsTotal " +
                              std::to_string(cta.warpsTotal) +
                              " != member warps " +
                              std::to_string(cta.warpIdxs.size()));
            }
            if (cta.warpsFinished != finished) {
                out.push_back(where + ": warpsFinished " +
                              std::to_string(cta.warpsFinished) +
                              " != finished-warp scan " +
                              std::to_string(finished));
            }
            if (cta.barrierWaiting != atBarrier) {
                out.push_back(where + ": barrierWaiting " +
                              std::to_string(cta.barrierWaiting) +
                              " != at-barrier scan " +
                              std::to_string(atBarrier));
            }
            if (cta.barrierWaiting + cta.warpsFinished > cta.warpsTotal) {
                out.push_back(
                    where + ": barrier arrivals " +
                    std::to_string(cta.barrierWaiting) +
                    " exceed unfinished warps (" +
                    std::to_string(cta.warpsTotal) + " total, " +
                    std::to_string(cta.warpsFinished) + " finished)");
            }
        }
    }
}

/**
 * The readiness/blocked/barrier/unit and per-kernel bitmasks
 * cross-checked against a per-warp scan, plus scheduler-list
 * membership (each live warp on exactly its widx-mod-schedulers list,
 * mirrored by schedListMask) and order: each list strictly increasing
 * in launch age, the order GTO's oldest-first pick relies on.
 */
void
checkSmMasks(const Gpu &gpu, std::vector<std::string> &out)
{
    const unsigned nsched = gpu.config().numSchedulers;
    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        const SmCore &sm = gpu.sm(s);
        const auto &warps = AuditAccess::hotWarps(sm);
        const auto &cold = AuditAccess::warps(sm);
        const auto &lists = AuditAccess::schedLists(sm);

        // Scheduler-list membership and age order.
        std::vector<unsigned> seen(warps.size(), 0);
        for (std::size_t sc = 0; sc < lists.size(); ++sc) {
            for (std::size_t i = 1; i < lists[sc].size(); ++i) {
                const std::uint16_t prev = lists[sc][i - 1];
                const std::uint16_t cur = lists[sc][i];
                if (cold[prev].age >= cold[cur].age) {
                    out.push_back(
                        "SM " + std::to_string(s) + ": scheduler " +
                        std::to_string(sc) + " list not in age order: "
                        "warp " + std::to_string(prev) + " (age " +
                        std::to_string(cold[prev].age) +
                        ") before warp " + std::to_string(cur) +
                        " (age " + std::to_string(cold[cur].age) + ")");
                }
            }
            for (std::uint16_t widx : lists[sc]) {
                ++seen[widx];
                const WarpHot &w = warps[widx];
                if (!w.active || w.finished) {
                    out.push_back("SM " + std::to_string(s) +
                                  ": scheduler " + std::to_string(sc) +
                                  " lists dead warp " +
                                  std::to_string(widx));
                }
                if (widx % nsched != sc) {
                    out.push_back("SM " + std::to_string(s) + ": warp " +
                                  std::to_string(widx) +
                                  " on wrong scheduler list " +
                                  std::to_string(sc));
                }
            }
        }
        for (std::size_t w = 0; w < warps.size(); ++w) {
            const unsigned expect =
                (warps[w].active && !warps[w].finished) ? 1 : 0;
            if (seen[w] != expect) {
                out.push_back("SM " + std::to_string(s) + ": warp " +
                              std::to_string(w) + " appears " +
                              std::to_string(seen[w]) +
                              "x on scheduler lists, expected " +
                              std::to_string(expect));
            }
        }

        // Per-warp recomputation of all seven fast-path masks and the
        // per-kernel warp masks.
        std::uint64_t issuable = 0, memBlocked = 0, shortBlocked = 0;
        std::uint64_t barrier = 0, aluNext = 0, sfuNext = 0, ldstNext = 0;
        std::array<std::uint64_t, maxConcurrentKernels> perKernel{};
        for (std::size_t w = 0; w < warps.size(); ++w) {
            const WarpHot &warp = warps[w];
            if (!warp.active || warp.finished)
                continue;
            const std::uint64_t bit = std::uint64_t{1} << w;
            const KernelId kid = cold[w].kernel;
            if (kid >= 0 && kid < static_cast<KernelId>(maxConcurrentKernels))
                perKernel[kid] |= bit;
            if (!warp.atBarrier && warp.ibuf > 0)
                issuable |= bit;
            if (warp.atBarrier)
                barrier |= bit;
            const Instruction &inst = warp.program->body[warp.pc];
            const std::uint32_t touched = touchedMask(inst);
            if (touched & warp.pendingLong)
                memBlocked |= bit;
            if (touched & warp.pendingShort)
                shortBlocked |= bit;
            switch (unitOf(inst.op)) {
              case UnitKind::Alu: aluNext |= bit; break;
              case UnitKind::Sfu: sfuNext |= bit; break;
              case UnitKind::Ldst: ldstNext |= bit; break;
              case UnitKind::None: break;
            }
        }
        const struct
        {
            const char *name;
            std::uint64_t cached;
            std::uint64_t scanned;
        } masks[] = {
            {"issuable", AuditAccess::issuableMask(sm), issuable},
            {"memBlocked", AuditAccess::memBlockedMask(sm), memBlocked},
            {"shortBlocked", AuditAccess::shortBlockedMask(sm),
             shortBlocked},
            {"barrier", AuditAccess::barrierMask(sm), barrier},
            {"aluNext", AuditAccess::aluNextMask(sm), aluNext},
            {"sfuNext", AuditAccess::sfuNextMask(sm), sfuNext},
            {"ldstNext", AuditAccess::ldstNextMask(sm), ldstNext},
        };
        for (const auto &m : masks) {
            if (m.cached != m.scanned) {
                std::ostringstream os;
                os << "SM " << s << ": " << m.name << "Mask 0x"
                   << std::hex << m.cached
                   << " != per-warp scan 0x" << m.scanned;
                out.push_back(os.str());
            }
        }
        const auto &kernelMask = AuditAccess::kernelWarpMask(sm);
        for (unsigned k = 0; k < maxConcurrentKernels; ++k) {
            if (kernelMask[k] != perKernel[k]) {
                std::ostringstream os;
                os << "SM " << s << ": kernelWarpMask[" << k << "] 0x"
                   << std::hex << kernelMask[k]
                   << " != per-warp scan 0x" << perKernel[k];
                out.push_back(os.str());
            }
        }
        for (unsigned sc = 0; sc < lists.size(); ++sc) {
            std::uint64_t expectMask = 0;
            for (std::uint16_t widx : lists[sc])
                expectMask |= std::uint64_t{1} << widx;
            const std::uint64_t listMask =
                AuditAccess::schedListMask(sm, sc);
            if (listMask != expectMask) {
                std::ostringstream os;
                os << "SM " << s << ": schedListMask[" << sc << "] 0x"
                   << std::hex << listMask << " != list contents 0x"
                   << expectMask;
                out.push_back(os.str());
            }
        }
    }
}

/** One wheel's bookkeeping against a walk of its slot lists. */
template <typename Wheel>
void
checkWheel(unsigned s, const char *name, const Wheel &wheel,
           std::vector<std::string> &out)
{
    std::size_t entries = 0;
    for (unsigned slot = 0; slot < wheel.slots; ++slot)
        entries += wheel.slotSize(slot);
    if (entries != wheel.size()) {
        out.push_back("SM " + std::to_string(s) + ": " + name +
                      " wheel size " + std::to_string(wheel.size()) +
                      " != slot-list total " + std::to_string(entries));
    }
}

/** Timing-wheel bookkeeping: each wheel's entry count equals the sum
 *  of its slot lengths. */
void
checkSmWheels(const Gpu &gpu, std::vector<std::string> &out)
{
    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        const SmCore &sm = gpu.sm(s);
        checkWheel(s, "writeback", AuditAccess::wbWheel(sm), out);
        checkWheel(s, "L1-hit", AuditAccess::memWheel(sm), out);
        checkWheel(s, "fetch", AuditAccess::fetchWheel(sm), out);
    }
}

/**
 * Partition/DRAM queue conservation: every request accepted from the
 * interconnect is serviced exactly once or still queued, every DRAM
 * push is issued exactly once or still in a bank queue, and the DRAM
 * queue total matches the per-bank queue sum.
 */
void
checkPartitionConservation(const Gpu &gpu, std::vector<std::string> &out)
{
    for (unsigned p = 0; p < gpu.numPartitions(); ++p) {
        const MemPartition &part = gpu.partition(p);
        const std::uint64_t accepted = AuditAccess::accepted(part);
        const std::uint64_t serviced = AuditAccess::serviced(part);
        const std::size_t queued = AuditAccess::reqQueueDepth(part);
        if (accepted != serviced + queued) {
            out.push_back("partition " + std::to_string(p) +
                          ": accepted " + std::to_string(accepted) +
                          " != serviced " + std::to_string(serviced) +
                          " + queued " + std::to_string(queued));
        }
        const DramChannel &dram = AuditAccess::dram(part);
        const std::size_t dramQueued = AuditAccess::dramQueued(dram);
        if (dramQueued != AuditAccess::dramBankQueueSum(dram)) {
            out.push_back(
                "partition " + std::to_string(p) + ": DRAM queued " +
                std::to_string(dramQueued) + " != bank-queue sum " +
                std::to_string(AuditAccess::dramBankQueueSum(dram)));
        }
        const std::uint64_t issued =
            dram.stats.dramReads + dram.stats.dramWrites;
        if (AuditAccess::dramPushed(dram) != issued + dramQueued) {
            out.push_back("partition " + std::to_string(p) +
                          ": DRAM pushes " +
                          std::to_string(AuditAccess::dramPushed(dram)) +
                          " != issued " + std::to_string(issued) +
                          " + queued " + std::to_string(dramQueued));
        }
        for (const auto &[line, waiters] :
             AuditAccess::mshrMap(AuditAccess::l2(part))) {
            if (waiters.empty()) {
                std::ostringstream os;
                os << "partition " << p << ": L2 MSHR for line 0x"
                   << std::hex << line << " has no waiters";
                out.push_back(os.str());
            }
        }
    }
}

/**
 * Staging conservation across the two-phase tick: every request the
 * interconnect stage committed is counted by exactly one partition's
 * accepted counter, and every response a partition staged was
 * delivered exactly once or is still staged. A tick-parallel merge
 * that dropped, duplicated, or bypassed the ordered commit path
 * diverges these sums at the very next audit.
 */
void
checkStagingConservation(const Gpu &gpu, std::vector<std::string> &out)
{
    std::uint64_t accepted = 0;
    std::uint64_t pushed = 0;
    std::uint64_t staged = 0;
    for (unsigned p = 0; p < gpu.numPartitions(); ++p) {
        const MemPartition &part = gpu.partition(p);
        accepted += AuditAccess::accepted(part);
        pushed += AuditAccess::pushedResponses(part);
        staged += AuditAccess::responseCount(part);
    }
    const InterconnectStage &icnt = gpu.interconnect();
    if (icnt.routedRequests() != accepted) {
        out.push_back("interconnect stage routed " +
                      std::to_string(icnt.routedRequests()) +
                      " requests != partitions accepted " +
                      std::to_string(accepted));
    }
    if (pushed != icnt.deliveredResponses() + staged) {
        out.push_back("partitions staged " + std::to_string(pushed) +
                      " responses != stage delivered " +
                      std::to_string(icnt.deliveredResponses()) +
                      " + still staged " + std::to_string(staged));
    }
}

/**
 * Kernel-table accounting: per-SM resident CTA sums must equal the
 * dispatcher's issued-minus-completed count (zero once evicted).
 */
void
checkKernelAccounting(const Gpu &gpu, std::vector<std::string> &out)
{
    for (std::size_t k = 0; k < gpu.numKernels(); ++k) {
        const KernelInstance &kern = gpu.kernel(static_cast<KernelId>(k));
        if (kern.nextCta > kern.params.gridDim) {
            out.push_back("kernel " + std::to_string(k) + ": nextCta " +
                          std::to_string(kern.nextCta) +
                          " exceeds gridDim " +
                          std::to_string(kern.params.gridDim));
        }
        if (kern.ctasCompleted > kern.nextCta) {
            out.push_back("kernel " + std::to_string(k) +
                          ": ctasCompleted " +
                          std::to_string(kern.ctasCompleted) +
                          " exceeds issued " +
                          std::to_string(kern.nextCta));
        }
        unsigned resident = 0;
        for (unsigned s = 0; s < gpu.numSms(); ++s)
            resident += gpu.sm(s).residentCtas(kern.id);
        const unsigned expect =
            kern.halted ? 0
                        : static_cast<unsigned>(kern.nextCta -
                                                kern.ctasCompleted);
        if (resident != expect) {
            out.push_back("kernel " + std::to_string(k) + ": resident " +
                          std::to_string(resident) + " CTAs != issued " +
                          std::to_string(kern.nextCta) + " - completed " +
                          std::to_string(kern.ctasCompleted) +
                          (kern.halted ? " (halted: expected 0)" : ""));
        }
    }
}

} // namespace

Auditor::Auditor(Cycle cadence, bool with_standard_checks)
    : auditCadence(cadence < 1 ? 1 : cadence)
{
    if (!with_standard_checks)
        return;
    registerCheck("sm-resources", checkSmResources);
    registerCheck("sm-mshr", checkSmMshrs);
    registerCheck("sm-scoreboard", checkSmScoreboard);
    registerCheck("sm-barrier", checkSmBarriers);
    registerCheck("sm-masks", checkSmMasks);
    registerCheck("sm-wheels", checkSmWheels);
    registerCheck("mem-conservation", checkPartitionConservation);
    registerCheck("staging-conservation", checkStagingConservation);
    registerCheck("kernel-accounting", checkKernelAccounting);
}

void
Auditor::registerCheck(std::string name, CheckFn fn)
{
    checks.emplace_back(std::move(name), std::move(fn));
}

void
Auditor::runChecks(const Gpu &gpu)
{
    ++audits;
    nextAudit = gpu.cycle() + auditCadence;
    std::vector<std::string> failures;
    for (const auto &[name, fn] : checks) {
        std::vector<std::string> found;
        fn(gpu, found);
        for (std::string &msg : found)
            failures.push_back(name + ": " + std::move(msg));
    }
    if (!failures.empty())
        throw InvariantViolation(gpu.cycle(), std::move(failures));
}

} // namespace wsl
