#include "sm/sm_core.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/bits.hh"
#include "common/log.hh"

namespace wsl {

namespace {

/** L1 MSHRs in use at or above which the LDST unit counts as busy
 *  under memory-system backpressure, matching GPGPU-Sim's accounting. */
constexpr unsigned ldstPressureMshrs = 8;

/** Bit for an architectural register in a scoreboard mask. */
inline std::uint32_t
regBit(int reg)
{
    return reg >= 0 ? (std::uint32_t{1} << (reg & 31)) : 0u;
}

inline std::uint32_t
srcMaskOf(const Instruction &inst)
{
    return regBit(inst.src0) | regBit(inst.src1) | regBit(inst.src2);
}

} // namespace

void
SmCore::updateIssuable(std::uint16_t widx)
{
    const std::uint64_t bit = std::uint64_t{1} << widx;
    const WarpHot &w = hot[widx];
    if (!w.active || w.finished) {
        issuableMask &= ~bit;
        memBlockedMask &= ~bit;
        shortBlockedMask &= ~bit;
        barrierMask &= ~bit;
        aluNextMask &= ~bit;
        sfuNextMask &= ~bit;
        ldstNextMask &= ~bit;
        return;
    }
    if (!w.atBarrier && w.ibuf > 0)
        issuableMask |= bit;
    else
        issuableMask &= ~bit;
    // Scoreboard overlap of the next instruction, mirroring tryIssue's
    // hazard tests (long checked before short). The pc is always valid
    // for a live warp: advanceWarp wraps it before returning.
    const Instruction &inst = w.program->body[w.pc];
    const std::uint32_t touched = srcMaskOf(inst) | regBit(inst.dst);
    if (touched & w.pendingLong)
        memBlockedMask |= bit;
    else
        memBlockedMask &= ~bit;
    if (touched & w.pendingShort)
        shortBlockedMask |= bit;
    else
        shortBlockedMask &= ~bit;
    if (w.atBarrier)
        barrierMask |= bit;
    else
        barrierMask &= ~bit;
    const UnitKind unit = unitOf(inst.op);
    if (unit == UnitKind::Alu)
        aluNextMask |= bit;
    else
        aluNextMask &= ~bit;
    if (unit == UnitKind::Sfu)
        sfuNextMask |= bit;
    else
        sfuNextMask &= ~bit;
    if (unit == UnitKind::Ldst)
        ldstNextMask |= bit;
    else
        ldstNextMask &= ~bit;
}

SmCore::SmCore(const GpuConfig &c, SmId id)
    : cfg(c), smId(id), schedKind(c.scheduler),
      rng(c.seed * 7919 + id * 104729 + 1),
      resourcePool(ResourceVec::capacity(c)),
      l1(CacheParams{c.l1Size, c.l1Assoc, c.l1Mshrs, 128})
{
    warps.resize(cfg.maxWarpsPerSm());
    hot.resize(warps.size());
    ctas.resize(cfg.maxCtasPerSm);
    freeWarpSlots.reserve(warps.size());
    for (unsigned w = 0; w < warps.size(); ++w)
        freeWarpSlots.push_back(static_cast<std::uint16_t>(w));
    schedLists.resize(cfg.numSchedulers);
    scheds.resize(cfg.numSchedulers);
    quotas.fill(-1);
    // Staging/bookkeeping buffers grow once here, not on the tick hot
    // path: outRequests is bounded by the L1 miss queue, respQueue by
    // the L1 MSHR count (one fill per in-flight line), and the CTA
    // completion list by the CTA slots.
    outRequests.reserve(cfg.l1MissQueue);
    respQueue.reserve(cfg.l1Mshrs);
    ctaCompletions.reserve(cfg.maxCtasPerSm);
}

bool
SmCore::canAcceptCta(const KernelParams &params) const
{
    return resourcePool.canAlloc(ResourceVec::ofCta(params)) &&
           freeWarpSlots.size() >= params.warpsPerCta();
}

bool
SmCore::launchCta(KernelId kid, const KernelParams &params,
                  const KernelProgram &program, unsigned cta_global_id,
                  Addr kernel_base, Cycle now)
{
    WSL_ASSERT(kid >= 0 &&
               kid < static_cast<int>(maxConcurrentKernels),
               "kernel id out of range");
    const ResourceVec need = ResourceVec::ofCta(params);
    if (freeWarpSlots.size() < params.warpsPerCta())
        return false;
    int slot = -1;
    for (unsigned c = 0; c < ctas.size(); ++c) {
        if (!ctas[c].active) {
            slot = static_cast<int>(c);
            break;
        }
    }
    if (slot < 0 || !resourcePool.tryAlloc(need))
        return false;

    CtaSlot &cta = ctas[slot];
    cta.active = true;
    cta.kernel = kid;
    cta.ctaGlobalId = cta_global_id;
    cta.warpsTotal = params.warpsPerCta();
    cta.warpsFinished = 0;
    cta.barrierWaiting = 0;
    cta.alloc = need;
    cta.params = &params;
    cta.warpIdxs.clear();

    for (unsigned i = 0; i < params.warpsPerCta(); ++i) {
        const std::uint16_t widx = freeWarpSlots.back();
        freeWarpSlots.pop_back();
        WarpState &w = warps[widx];
        WarpHot &h = hot[widx];
        w.reset();  // keeps epoch and the divStack buffer
        h.reset();
        h.active = true;
        w.ctaSlot = slot;
        w.kernel = kid;
        w.warpInCta = i;
        w.activeThreads =
            std::min(warpSize, params.blockDim - i * warpSize);
        h.activeMask = w.activeThreads >= 32
                           ? 0xffffffffu
                           : ((1u << w.activeThreads) - 1);
        h.program = &program;
        w.age = ageCounter++;
        cta.warpIdxs.push_back(widx);
        schedLists[widx % cfg.numSchedulers].push_back(widx);
        scheds[widx % cfg.numSchedulers].listMask |=
            std::uint64_t{1} << widx;
        kernelWarpMask[kid] |= std::uint64_t{1} << widx;
        fetchQueue.push({widx, w.epoch});
        ++liveWarps;
        updateIssuable(widx);
    }
    // Stash the kernel base in the CTA by encoding it per-warp at
    // address-generation time; the CTA only needs the base pointer.
    cta.kernelBase = kernel_base;
    ++resident[kid];
    ++smStats.ctasLaunched;
    invalidateScanCache();
    (void)now;
    return true;
}

void
SmCore::completeCta(int cta_idx)
{
    CtaSlot &cta = ctas[cta_idx];
    WSL_ASSERT(cta.active, "completing inactive CTA");
    // Every warp already left the scheduler lists and its kernel's warp
    // mask in finishWarp(); only the slot bookkeeping remains.
    for (std::uint16_t widx : cta.warpIdxs) {
        WarpHot &h = hot[widx];
        if (h.active && !h.finished)
            --liveWarps;
        h.active = false;
        h.finished = true;
        ++warps[widx].epoch;  // invalidate in-flight writebacks
        freeWarpSlots.push_back(widx);
        updateIssuable(widx);
    }
    resourcePool.free(cta.alloc);
    WSL_ASSERT(resident[cta.kernel] > 0, "resident CTA underflow");
    --resident[cta.kernel];
    ctaCompletions.push_back(cta.kernel);
    ++smStats.ctasCompleted;
    cta.active = false;
    cta.warpIdxs.clear();
}

void
SmCore::evictKernel(KernelId kid)
{
    bool any = false;
    for (unsigned c = 0; c < ctas.size(); ++c) {
        CtaSlot &cta = ctas[c];
        if (!cta.active || cta.kernel != kid)
            continue;
        any = true;
        for (std::uint16_t widx : cta.warpIdxs) {
            WarpHot &h = hot[widx];
            if (h.active && !h.finished)
                --liveWarps;
            h.active = false;
            h.finished = true;
            ++warps[widx].epoch;
            freeWarpSlots.push_back(widx);
            kernelWarpMask[kid] &= ~(std::uint64_t{1} << widx);
            updateIssuable(widx);
        }
        resourcePool.free(cta.alloc);
        cta.active = false;
        cta.warpIdxs.clear();
    }
    if (any) {
        // One sweep drops every deactivated warp: anything inactive
        // still on a list belongs to the CTAs marked above (finished
        // warps of other kernels left their lists in finishWarp).
        for (unsigned s = 0; s < schedLists.size(); ++s) {
            auto &list = schedLists[s];
            list.erase(
                std::remove_if(list.begin(), list.end(),
                               [&](std::uint16_t w) {
                                   if (hot[w].active)
                                       return false;
                                   scheds[s].listMask &=
                                       ~(std::uint64_t{1} << w);
                                   return true;
                               }),
                list.end());
        }
    }
    resident[kid] = 0;
    invalidateScanCache();
}

unsigned
SmCore::residentCtas(KernelId kid) const
{
    WSL_ASSERT(kid >= 0 && kid < static_cast<int>(maxConcurrentKernels),
               "kernel id out of range");
    return resident[kid];
}

unsigned
SmCore::totalResidentCtas() const
{
    unsigned total = 0;
    for (unsigned r : resident)
        total += r;
    return total;
}

void
SmCore::setQuota(KernelId kid, int max_ctas)
{
    WSL_ASSERT(kid >= 0 && kid < static_cast<int>(maxConcurrentKernels),
               "kernel id out of range");
    quotas[kid] = max_ctas;
    ++quotaGen;
}

int
SmCore::quota(KernelId kid) const
{
    WSL_ASSERT(kid >= 0 && kid < static_cast<int>(maxConcurrentKernels),
               "kernel id out of range");
    return quotas[kid];
}

void
SmCore::clearQuotas()
{
    quotas.fill(-1);
    ++quotaGen;
}

std::uint16_t
SmCore::allocLoadEntry()
{
    if (!freeLoads.empty()) {
        const std::uint16_t idx = freeLoads.back();
        freeLoads.pop_back();
        return idx;
    }
    loads.push_back({});
    return static_cast<std::uint16_t>(loads.size() - 1);
}

void
SmCore::completeLoadTransaction(std::uint16_t load_idx, Cycle now)
{
    WSL_ASSERT(load_idx < loads.size(), "bad load index");
    PendingLoad &load = loads[load_idx];
    WSL_ASSERT(load.valid && load.transLeft > 0,
               "completing an idle load entry");
    if (--load.transLeft == 0) {
        if (warps[load.warp].epoch == load.epoch) {
            hot[load.warp].pendingLong &= ~load.regMask;
            updateIssuable(load.warp);
            invalidateScanCache();  // a stalled warp may now be ready
        }
        if (recordTelemetry && load.kernel != invalidKernel)
            memLatency[load.kernel].record(
                static_cast<std::uint32_t>(now) - load.issuedAt);
        load.valid = false;
        WSL_ASSERT(activeLoads > 0, "active-load underflow");
        --activeLoads;
        freeLoads.push_back(load_idx);
    }
}

void
SmCore::maybeReleaseBarrier(CtaSlot &cta)
{
    const unsigned unfinished = cta.warpsTotal - cta.warpsFinished;
    if (unfinished == 0 || cta.barrierWaiting < unfinished)
        return;
    for (std::uint16_t widx : cta.warpIdxs) {
        hot[widx].atBarrier = false;
        updateIssuable(widx);
    }
    cta.barrierWaiting = 0;
    invalidateScanCache();  // released warps are schedulable again
}

void
SmCore::injectBarrierHangForTest()
{
    // Park every live warp at its CTA barrier without running
    // maybeReleaseBarrier — the release predicate is only re-evaluated
    // on barrier issue or warp finish, and parked warps do neither, so
    // the machine is permanently stalled while every count and mask
    // stays self-consistent (integrity audits pass on purpose: this
    // models a lost wakeup, not corrupted state).
    for (CtaSlot &cta : ctas) {
        if (!cta.active)
            continue;
        for (std::uint16_t widx : cta.warpIdxs) {
            WarpHot &h = hot[widx];
            if (!h.active || h.finished || h.atBarrier)
                continue;
            h.atBarrier = true;
            ++cta.barrierWaiting;
            updateIssuable(widx);
        }
    }
    invalidateScanCache();
}

bool
SmCore::swapSchedListOrderForTest()
{
    for (auto &list : schedLists) {
        if (list.size() >= 2) {
            std::swap(list[0], list[1]);
            return true;
        }
    }
    return false;
}

void
SmCore::finishWarp(std::uint16_t widx)
{
    WarpHot &h = hot[widx];
    WSL_ASSERT(h.active && !h.finished, "double finish");
    h.finished = true;
    updateIssuable(widx);
    --liveWarps;
    // Active-warp index: drop the warp from its scheduler list now so
    // issue scans touch only live warps, instead of skipping finished
    // slots every cycle until the whole CTA retires.
    auto &list = schedLists[widx % cfg.numSchedulers];
    list.erase(std::find(list.begin(), list.end(), widx));
    scheds[widx % cfg.numSchedulers].listMask &=
        ~(std::uint64_t{1} << widx);
    kernelWarpMask[warps[widx].kernel] &= ~(std::uint64_t{1} << widx);
    invalidateScanCache();
    const int cta_slot = warps[widx].ctaSlot;
    CtaSlot &cta = ctas[cta_slot];
    if (h.atBarrier) {
        h.atBarrier = false;
        WSL_ASSERT(cta.barrierWaiting > 0, "barrier underflow");
        --cta.barrierWaiting;
    }
    ++cta.warpsFinished;
    if (cta.warpsFinished == cta.warpsTotal)
        completeCta(cta_slot);
    else
        maybeReleaseBarrier(cta);
}

void
SmCore::advanceWarp(std::uint16_t widx, Cycle now)
{
    (void)now;
    WarpState &w = warps[widx];
    WarpHot &h = hot[widx];
    WSL_ASSERT(h.ibuf > 0, "advancing without a buffered instruction");
    --h.ibuf;
    ++h.pc;
    // Reconverge lanes whose rejoin point has been reached. Entries
    // are independent (mask, rejoin-pc) pairs, not a nesting stack:
    // dense branch layouts can produce overlapping skip regions whose
    // rejoin points are reached out of push order, so every entry must
    // be checked, not just the innermost. (For properly nested
    // programs the match is always at the back and this degenerates to
    // the classic pop loop.)
    for (std::size_t d = w.divStack.size(); d-- > 0;) {
        if (w.divStack[d].second == h.pc ||
            (h.pc >= h.program->body.size() &&
             w.divStack[d].second >= h.program->body.size())) {
            h.activeMask |= w.divStack[d].first;
            w.divStack.erase(w.divStack.begin() +
                             static_cast<std::ptrdiff_t>(d));
        }
    }
    if (h.pc >= h.program->body.size()) {
        WSL_ASSERT(w.divStack.empty(),
                   "divergence must reconverge within one iteration");
        h.pc = 0;
        ++w.iter;
        if (w.iter >= h.program->loopIters)
            finishWarp(widx);
    }
    if (h.active && !h.finished && h.ibuf == 0 && !w.fetchPending)
        fetchQueue.push({widx, w.epoch});
    // One recompute covers everything the issue may have changed for
    // this warp: i-buffer drain, barrier entry, or warp completion.
    updateIssuable(widx);
}

SmCore::IssueOutcome
SmCore::tryIssue(std::uint16_t widx, unsigned sched, Cycle now)
{
    WarpHot &h = hot[widx];
    if (h.atBarrier)
        return IssueOutcome::Barrier;
    if (h.ibuf == 0)
        return IssueOutcome::Empty;

    const Instruction &inst = h.program->body[h.pc];
    const std::uint32_t touched = srcMaskOf(inst) | regBit(inst.dst);
    if (touched & h.pendingLong)
        return IssueOutcome::MemWait;
    if (touched & h.pendingShort)
        return IssueOutcome::ShortWait;

    switch (unitOf(inst.op)) {
      case UnitKind::Alu:
        if (scheds[sched].aluBusyUntil > now)
            return IssueOutcome::ExecBusy;
        break;
      case UnitKind::Sfu:
        if (sfuBusyUntil > now)
            return IssueOutcome::ExecBusy;
        break;
      case UnitKind::Ldst: {
        if (ldstBusyUntil > now)
            return IssueOutcome::ExecBusy;
        if (isGlobalMem(inst.op)) {
            // Structural backpressure from the memory system counts as
            // a long-memory-latency stall (the warp is blocked on the
            // memory system, not on a pipeline).
            const CtaSlot &cta = ctas[warps[widx].ctaSlot];
            const unsigned trans = cta.params->mem.transactionsPerAccess;
            if (outRequests.size() + trans > cfg.l1MissQueue * 2)
                return IssueOutcome::MemWait;
            if (isLoad(inst.op)) {
                // Conservative MSHR precheck: every transaction may
                // allocate a new MSHR.
                if (!l1.mshrAvailable(trans))
                    return IssueOutcome::MemWait;
            }
        }
        break;
      }
      case UnitKind::None:
        break;
    }

    executeIssue(h, warps[widx], inst, widx, sched, now);
    advanceWarp(widx, now);
    return IssueOutcome::Issued;
}

void
SmCore::executeIssue(WarpHot &h, WarpState &w, const Instruction &inst,
                     std::uint16_t widx, unsigned sched, Cycle now)
{
    CtaSlot &cta = ctas[w.ctaSlot];
    const KernelParams &params = *cta.params;
    // Issuing always perturbs this scheduler's own scan inputs (the
    // warp's scoreboard, i-buffer, pc, and ALU busy horizon). Sibling
    // schedulers scan disjoint warps and only observe the shared
    // structural state — the SFU/LDST busy horizons, MSHRs, and the
    // outgoing queue — so their memoized failed scans survive pure-ALU
    // and control issues; the SFU and LDST cases below invalidate all.
    scheds[sched].memo.valid = false;

    const unsigned live_lanes = popcount64(h.activeMask);
    ++smStats.warpInstsIssued;
    smStats.threadInstsIssued += live_lanes;
    ++smStats.kernelWarpInsts[w.kernel];
    smStats.kernelThreadInsts[w.kernel] += live_lanes;
    smStats.regReads +=
        static_cast<std::uint64_t>(inst.numSrcs()) * live_lanes;
    if (inst.dst >= 0)
        smStats.regWrites += live_lanes;

    const std::uint32_t dst_bit = regBit(inst.dst);
    switch (unitOf(inst.op)) {
      case UnitKind::Alu: {
        scheds[sched].aluBusyUntil = now + cfg.aluInitiation;
        smStats.aluBusyCycles += cfg.aluInitiation;
        if (dst_bit) {
            h.pendingShort |= dst_bit;
            wbWheel.push(now + cfg.aluLatency, {widx, w.epoch, dst_bit});
        }
        break;
      }
      case UnitKind::Sfu: {
        invalidateScanCache();  // sfuBusyUntil is cross-scheduler
        sfuBusyUntil = now + cfg.sfuInitiation;
        smStats.sfuBusyCycles += cfg.sfuInitiation;
        if (dst_bit) {
            h.pendingShort |= dst_bit;
            wbWheel.push(now + cfg.sfuLatency, {widx, w.epoch, dst_bit});
        }
        break;
      }
      case UnitKind::Ldst: {
        // ldstBusyUntil, the MSHR pool, and the outgoing queue are all
        // cross-scheduler scan inputs.
        invalidateScanCache();
        ++smStats.ldstIssues;
        ldstOwner = w.kernel;
        if (!isGlobalMem(inst.op)) {
            // Shared-memory access: bank conflicts serialize the access
            // into `conflict` replays, occupying the port and delaying
            // the result proportionally.
            const unsigned conflict =
                std::max(1u, params.shmConflictFactor);
            ldstBusyUntil = now + cfg.ldstInitiation * conflict;
            ++smStats.shmAccesses;
            if (dst_bit) {
                h.pendingShort |= dst_bit;
                wbWheel.push(now + cfg.shmLatency * conflict,
                             {widx, w.epoch, dst_bit});
            }
            break;
        }
        const unsigned trans = params.mem.transactionsPerAccess;
        ldstBusyUntil = now + cfg.ldstInitiation * trans;
        if (isLoad(inst.op)) {
            const std::uint16_t entry = allocLoadEntry();
            loads[entry] = {widx, w.epoch, dst_bit,
                            static_cast<std::uint16_t>(trans), true,
                            static_cast<std::int8_t>(w.kernel),
                            static_cast<std::uint32_t>(now)};
            ++activeLoads;
            h.pendingLong |= dst_bit;
            for (unsigned t = 0; t < trans; ++t) {
                const Addr line = lineAddr(genAddress(
                    params, cta.kernelBase, cta.ctaGlobalId, w.warpInCta,
                    w.iter, inst.memSlot, t));
                ++smStats.l1Accesses;
                switch (l1.read(line, entry)) {
                  case Cache::ReadResult::Hit:
                    memWheel.push(now + cfg.l1HitLatency, entry);
                    break;
                  case Cache::ReadResult::MissNew:
                    ++smStats.l1Misses;
                    outRequests.push_back(
                        {line, false, smId, now + cfg.icntLatency});
                    break;
                  case Cache::ReadResult::MissMerged:
                    ++smStats.l1Misses;
                    break;
                  case Cache::ReadResult::Blocked:
                    simBug("L1 MSHR blocked after precheck");
                }
            }
        } else {
            // Write-through, no-allocate stores; fire and forget.
            for (unsigned t = 0; t < trans; ++t) {
                const Addr line = lineAddr(genAddress(
                    params, cta.kernelBase, cta.ctaGlobalId, w.warpInCta,
                    w.iter, inst.memSlot, t));
                ++smStats.l1Accesses;
                if (!l1.write(line, false))
                    ++smStats.l1Misses;
                outRequests.push_back(
                    {line, true, smId, now + cfg.icntLatency});
            }
        }
        break;
      }
      case UnitKind::None: {
        if (inst.op == Opcode::Bar) {
            h.atBarrier = true;
            ++cta.barrierWaiting;
            maybeReleaseBarrier(cta);
        } else if (inst.op == Opcode::BraDiv) {
            // Split the active lanes: `taken` lanes skip ahead to the
            // reconvergence point, the rest execute the fall-through
            // block. Lane selection is deterministic per (warp, iter,
            // pc) with an exact taken fraction.
            const unsigned active = live_lanes;
            const unsigned take = static_cast<unsigned>(
                (static_cast<std::uint64_t>(active) *
                     inst.divFraction256 + 128) / 256);
            if (take >= active) {
                // Everyone skips: jump straight to the target.
                h.pc = static_cast<unsigned>(inst.branchTarget) - 1;
            } else if (take > 0) {
                const std::uint64_t hash =
                    mixHash(static_cast<std::uint64_t>(
                                cta.ctaGlobalId) * 64 + w.warpInCta,
                            w.iter * 131 + h.pc);
                std::uint32_t taken = 0;
                unsigned picked = 0;
                const unsigned rot =
                    static_cast<unsigned>(hash & 31);
                for (unsigned l = 0; l < 32 && picked < take; ++l) {
                    const unsigned lane = (l + rot) & 31;
                    if (h.activeMask & (1u << lane)) {
                        taken |= 1u << lane;
                        ++picked;
                    }
                }
                w.divStack.emplace_back(
                    taken,
                    static_cast<std::uint16_t>(inst.branchTarget));
                h.activeMask &= ~taken;
            }
        }
        break;
      }
    }
}

void
SmCore::chargeStall(StallKind kind, int culprit, Cycle count)
{
    smStats.stalls[static_cast<unsigned>(kind)] += count;
    if (recordTelemetry) {
        if (culprit != invalidKernel)
            smStats.kernelStalls[culprit][static_cast<unsigned>(kind)] +=
                count;
        else
            smStats.unattributedStalls[static_cast<unsigned>(kind)] +=
                count;
    }
}

void
SmCore::runScheduler(unsigned sched, Cycle now)
{
    SchedulerState &sc = scheds[sched];
    const std::uint64_t live = sc.listMask;
    if (live == 0) {
        chargeStall(StallKind::Idle, invalidKernel);
        return;
    }

    // Replay a memoized failed scan while nothing changed: same warps,
    // same blockers, same majority stall, same culprit kernel.
    ScanCacheEntry &memo = sc.memo;
    if (memo.valid && now < memo.validUntil) {
        ++engineScanMemoHits;
        chargeStall(memo.kind, memo.culprit);
        return;
    }
    memo.valid = false;
    ++engineSchedScans;

    // Two-phase mask scan. Phase 1 visits only candidate warps —
    // issuable with a clean scoreboard, needing no busy unit — since
    // everything else is a bit-provable failure (tryIssue tests the
    // unit before any structural memory check, so a busy unit is a
    // certain ExecBusy). A candidate tryIssue refuses (a structural
    // hazard) is recorded in its outcome mask, abandoned if a later
    // candidate issues. If nothing issues, the scan failed, counting
    // no longer depends on scan order, and phase 2 fills in every
    // other warp's outcome from the masks.
    std::uint64_t busyBlocked = 0;
    if (sc.aluBusyUntil > now)
        busyBlocked |= aluNextMask;
    if (sfuBusyUntil > now)
        busyBlocked |= sfuNextMask;
    if (ldstBusyUntil > now)
        busyBlocked |= ldstNextMask;
    const std::uint64_t clean =
        issuableMask & ~memBlockedMask & ~shortBlockedMask;
    std::uint64_t rest = live & clean & ~busyBlocked;
    // Warp bits per IssueOutcome.
    std::uint64_t outcome[6] = {0, 0, 0, 0, 0, 0};

    // Phase 1 only runs when this scheduler has a candidate at all;
    // nearly every failed scan has none and goes straight to phase 2.
    if (rest != 0 && schedKind == SchedulerKind::Gto) {
        // Greedy-then-oldest: stick with the last issued warp, then
        // fall back to the oldest ready warp. The list is kept in
        // launch-age order, so popping candidates by age visits them
        // exactly as a walk of the list would.
        const int greedy = sc.lastIssued;
        if (greedy >= 0 && ((rest >> greedy) & 1)) {
            const std::uint64_t bit = std::uint64_t{1} << greedy;
            rest &= ~bit;
            const IssueOutcome o = tryIssue(
                static_cast<std::uint16_t>(greedy), sched, now);
            if (o == IssueOutcome::Issued)
                return;
            outcome[static_cast<unsigned>(o)] |= bit;
        }
        while (rest != 0) {
            unsigned oldest =
                static_cast<unsigned>(std::countr_zero(rest));
            for (std::uint64_t r = rest & (rest - 1); r != 0;
                 r &= r - 1) {
                const unsigned w =
                    static_cast<unsigned>(std::countr_zero(r));
                if (warps[w].age < warps[oldest].age)
                    oldest = w;
            }
            const std::uint64_t bit = std::uint64_t{1} << oldest;
            rest &= ~bit;
            const IssueOutcome o = tryIssue(
                static_cast<std::uint16_t>(oldest), sched, now);
            if (o == IssueOutcome::Issued) {
                sc.lastIssued = static_cast<int>(oldest);
                return;
            }
            outcome[static_cast<unsigned>(o)] |= bit;
        }
    } else if (rest != 0) {
        // Loose round robin over the resident warps.
        const auto &list = schedLists[sched];
        const unsigned n = static_cast<unsigned>(list.size());
        const unsigned start = sc.rrPos % n;
        for (unsigned i = 0; i < n; ++i) {
            const unsigned pos = (start + i) % n;
            const std::uint16_t widx = list[pos];
            if (!((rest >> widx) & 1))
                continue;
            const IssueOutcome o = tryIssue(widx, sched, now);
            if (o == IssueOutcome::Issued) {
                sc.lastIssued = widx;
                sc.rrPos = pos + 1;
                return;
            }
            outcome[static_cast<unsigned>(o)] |= std::uint64_t{1} << widx;
        }
    }

    // Phase 2: nothing issued; add every non-candidate's outcome.
    outcome[static_cast<unsigned>(IssueOutcome::Barrier)] |=
        live & barrierMask;
    outcome[static_cast<unsigned>(IssueOutcome::Empty)] |=
        live & ~issuableMask & ~barrierMask;
    outcome[static_cast<unsigned>(IssueOutcome::MemWait)] |=
        live & issuableMask & memBlockedMask;
    outcome[static_cast<unsigned>(IssueOutcome::ShortWait)] |=
        live & issuableMask & ~memBlockedMask & shortBlockedMask;
    outcome[static_cast<unsigned>(IssueOutcome::ExecBusy)] |=
        live & clean & busyBlocked;

    // Majority outcome, ties broken Mem > RAW > Exec > IBuffer >
    // Barrier to match the paper's accounting priority.
    static const IssueOutcome order[] = {
        IssueOutcome::MemWait, IssueOutcome::ShortWait,
        IssueOutcome::ExecBusy, IssueOutcome::Empty,
        IssueOutcome::Barrier};
    static const StallKind kinds[] = {
        StallKind::MemLatency, StallKind::RawHazard,
        StallKind::ExecResource, StallKind::IBufferEmpty,
        StallKind::Barrier};
    unsigned best = 0;
    unsigned bestCount = 0;
    for (unsigned i = 0; i < 5; ++i) {
        const unsigned c =
            popcount64(outcome[static_cast<unsigned>(order[i])]);
        if (c > bestCount) {
            best = i;
            bestCount = c;
        }
    }
    const StallKind kind = bestCount > 0 ? kinds[best] : StallKind::Idle;
    int culprit = invalidKernel;
    if (recordTelemetry) {
        // Attribute the stall to the kernel whose warps dominated the
        // charged outcome (per-tenant Figure-1 profiles); ties go to
        // the lower kernel id.
        const std::uint64_t charged =
            outcome[static_cast<unsigned>(order[best])];
        unsigned most = 0;
        for (unsigned k = 0; k < maxConcurrentKernels; ++k) {
            const unsigned c = popcount64(charged & kernelWarpMask[k]);
            if (c > most) {
                most = c;
                culprit = static_cast<int>(k);
            }
        }
    }
    chargeStall(kind, culprit);

    // Memoize until an event or a pipeline busy-until horizon could
    // change some warp's issue outcome.
    Cycle horizon = ~Cycle{0};
    if (sc.aluBusyUntil > now)
        horizon = std::min(horizon, sc.aluBusyUntil);
    if (sfuBusyUntil > now)
        horizon = std::min(horizon, sfuBusyUntil);
    if (ldstBusyUntil > now)
        horizon = std::min(horizon, ldstBusyUntil);
    memo.valid = true;
    memo.validUntil = horizon;
    memo.kind = kind;
    memo.culprit = static_cast<std::int8_t>(culprit);
}

void
SmCore::runFetch(Cycle now)
{
    // Start refills for queued warps, FIFO, up to fetchWidth per cycle.
    unsigned started = 0;
    while (started < cfg.fetchWidth && !fetchQueue.empty()) {
        const FetchEntry entry = fetchQueue.front();
        fetchQueue.pop();
        WarpState &w = warps[entry.warp];
        const WarpHot &h = hot[entry.warp];
        if (!h.active || h.finished || w.epoch != entry.epoch ||
            w.fetchPending || h.ibuf > 0) {
            continue;  // stale entry
        }
        const KernelParams &params = *ctas[w.ctaSlot].params;
        const bool miss = rng.chance(params.ifetchMissRate);
        const Cycle lat =
            miss ? cfg.ifetchMissLatency : cfg.fetchLatency;
        w.fetchPending = true;
        w.fetchReadyAt = now + lat;
        fetchWheel.push(now + lat, {entry.warp, entry.epoch});
        ++smStats.ifetches;
        if (miss)
            ++smStats.ifetchMisses;
        ++started;
    }
}

void
SmCore::deliverResponse(const MemResponse &resp)
{
    respQueue.push_back(resp);
}

void
SmCore::tick(Cycle now)
{
    ++smStats.cycles;
    const ResourceVec &used = resourcePool.usedVec();
    smStats.regsAllocatedIntegral += used.regs;
    smStats.shmAllocatedIntegral += used.shm;
    smStats.threadsAllocatedIntegral += used.threads;
    // LDST utilization: the unit counts as busy while occupied by an
    // access or backpressured by the memory system (queue buildup or
    // substantial MSHR occupancy), matching GPGPU-Sim's accounting.
    if (ldstBusyUntil > now || !outRequests.empty() ||
        l1.mshrsInUse() >= ldstPressureMshrs) {
        ++smStats.ldstBusyCycles;
        if (recordTelemetry && ldstOwner != invalidKernel)
            ++smStats.kernelLdstBusyCycles[ldstOwner];
    }

    // Writeback wheel: retire short-latency results.
    wbWheel.drain(now, [&](const WbEntry &e) {
        if (warps[e.warp].epoch == e.epoch) {
            hot[e.warp].pendingShort &= ~e.regMask;
            updateIssuable(e.warp);
            invalidateScanCache();  // a ShortWait warp may be ready
        }
    });

    // Instruction-buffer refills completing this cycle.
    fetchWheel.drain(now, [&](const FetchEntry &e) {
        WarpState &w = warps[e.warp];
        WarpHot &h = hot[e.warp];
        if (h.active && !h.finished && w.epoch == e.epoch &&
            w.fetchPending && w.fetchReadyAt <= now) {
            w.fetchPending = false;
            h.ibuf = cfg.ibufferEntries;
            updateIssuable(e.warp);
            invalidateScanCache();  // Empty flips to issuable
        }
    });

    // L1-hit load transactions maturing this cycle.
    memWheel.drain(now, [&](std::uint16_t load_idx) {
        completeLoadTransaction(load_idx, now);
    });

    // Line fills arriving from the memory partitions.
    for (std::size_t i = 0; i < respQueue.size();) {
        if (respQueue[i].readyAt <= now) {
            l1.fill(respQueue[i].line, fillScratch);
            for (std::uint64_t token : fillScratch.tokens)
                completeLoadTransaction(
                    static_cast<std::uint16_t>(token), now);
            // Even a fill whose loads are still partial frees an MSHR,
            // which can flip the tryIssue MSHR-availability precheck.
            invalidateScanCache();
            respQueue[i] = respQueue.back();
            respQueue.pop_back();
        } else {
            ++i;
        }
    }

    for (unsigned s = 0; s < cfg.numSchedulers; ++s)
        runScheduler(s, now);
    if (!fetchQueue.empty())
        runFetch(now);
}

Cycle
SmCore::nextEventAt(Cycle now) const
{
    // A quiescent core has no valid load, warp, or CTA left, so any
    // remaining wheel or fetch-queue entries are epoch-guarded stale
    // no-ops (memWheel is provably empty: activeLoads == 0); they must
    // not pin the horizon, or a drained core would force per-cycle
    // ticking forever.
    if (quiescent(now))
        return neverCycle;
    // Queued outgoing requests and front-end refill starts need
    // per-cycle service (routing and fetchWidth pacing).
    if (!outRequests.empty() || !fetchQueue.empty())
        return now;
    Cycle h = neverCycle;
    for (const SchedulerState &sc : scheds) {
        if (sc.listMask == 0)
            continue;
        if (!sc.memo.valid || now >= sc.memo.validUntil)
            return now;  // the scan must actually run
        h = std::min(h, sc.memo.validUntil);
    }
    for (const MemResponse &r : respQueue) {
        if (r.readyAt <= now)
            return now;
        h = std::min(h, r.readyAt);
    }
    // Wheel entries always fire within smWheelSlots cycles of being
    // pushed, so the first occupied slot at or after `now` is the
    // wheels' next event; a skip can never jump over one.
    const unsigned d = std::min({wbWheel.nextOccupied(now),
                                 memWheel.nextOccupied(now),
                                 fetchWheel.nextOccupied(now)});
    if (d < smWheelSlots)
        h = std::min(h, now + d);
    return h;
}

void
SmCore::skipTick(Cycle now, Cycle cycles)
{
    // Every cycle in [now, now + cycles) is provably eventless (see
    // nextEventAt): no wheel slot fires, no fill arrives, and every
    // scheduler either has no warps or replays its memoized stall, so
    // nothing can issue and the pools, pipelines, and MSHRs hold
    // still. Bulk-account exactly what per-cycle ticking would have.
    smStats.cycles += cycles;
    const ResourceVec &used = resourcePool.usedVec();
    smStats.regsAllocatedIntegral +=
        static_cast<std::uint64_t>(used.regs) * cycles;
    smStats.shmAllocatedIntegral +=
        static_cast<std::uint64_t>(used.shm) * cycles;
    smStats.threadsAllocatedIntegral +=
        static_cast<std::uint64_t>(used.threads) * cycles;
    // outRequests is empty here (else the horizon was `now`), so the
    // LDST unit counts busy while occupied or under MSHR pressure;
    // both terms are frozen across the window.
    Cycle busy = 0;
    if (l1.mshrsInUse() >= ldstPressureMshrs)
        busy = cycles;
    else if (ldstBusyUntil > now)
        busy = std::min(cycles, ldstBusyUntil - now);
    if (busy != 0) {
        smStats.ldstBusyCycles += busy;
        if (recordTelemetry && ldstOwner != invalidKernel)
            smStats.kernelLdstBusyCycles[ldstOwner] += busy;
    }
    for (const SchedulerState &sc : scheds) {
        if (sc.listMask == 0) {
            chargeStall(StallKind::Idle, invalidKernel, cycles);
        } else {
            const ScanCacheEntry &memo = sc.memo;
            WSL_ASSERT(memo.valid && now + cycles <= memo.validUntil,
                       "skip window crosses a scheduler memo horizon");
            engineScanMemoHits += cycles;
            chargeStall(memo.kind, memo.culprit, cycles);
        }
    }
}

} // namespace wsl
