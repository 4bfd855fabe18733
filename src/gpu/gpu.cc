#include "gpu/gpu.hh"

#include <algorithm>
#include <thread>

#include "check/sim_error.hh"
#include "check/watchdog.hh"
#include "common/log.hh"
#include "obs/engine_profiler.hh"
#include "telemetry/telemetry.hh"
#include "trace/tracer.hh"

namespace wsl {

namespace {

/** A fused window must cover at least this many cycles to beat the
 *  cost of computing it (the per-SM quiet-bound scan). */
constexpr Cycle minFuseCycles = 4;

/** Cycles to wait after a failed fuse attempt before re-scanning the
 *  horizon. Under saturation every attempt fails (some SM always has
 *  memory traffic within minFuseCycles), and the scan itself is
 *  O(SMs x warps); pacing it keeps never-fusing windows on the plain
 *  per-cycle path. */
constexpr Cycle fuseCooldown = 8;

/** Pool a phase only past this component count: dispatching a handful
 *  of partition ticks (or horizon scans) to workers costs more in
 *  barrier wait than the sharded work saves. Serial fallback is
 *  bit-identical (same order; min-reduce is associative). */
constexpr std::size_t minPooledComponents = 24;

/** Map the tickThreads=auto sentinel to a concrete thread count
 *  before the config is stored (and validated). */
GpuConfig
resolveEngineConfig(GpuConfig c)
{
    if (c.tickThreads == GpuConfig::tickThreadsAuto)
        c.tickThreads = GpuConfig::autoTickThreads(
            c.numSms, std::thread::hardware_concurrency());
    return c;
}

} // namespace

Gpu::Gpu(const GpuConfig &c, std::unique_ptr<SlicingPolicy> p)
    : cfg(resolveEngineConfig(c)), policy(std::move(p))
{
    WSL_ASSERT(policy != nullptr, "GPU needs a slicing policy");
    // Reject inconsistent machines before building components out of
    // them (every harness and CLI path funnels through here).
    cfg.validate();
    sms.reserve(cfg.numSms);
    for (unsigned s = 0; s < cfg.numSms; ++s)
        sms.push_back(std::make_unique<SmCore>(cfg, s));
    partitions.reserve(cfg.numMemPartitions);
    for (unsigned p_idx = 0; p_idx < cfg.numMemPartitions; ++p_idx)
        partitions.push_back(std::make_unique<MemPartition>(cfg, p_idx));
    if (cfg.auditCadence != 0)
        auditor = std::make_unique<Auditor>(cfg.auditCadence);

    smPtrs.reserve(sms.size());
    for (auto &sm_ptr : sms)
        smPtrs.push_back(sm_ptr.get());
    partPtrs.reserve(partitions.size());
    for (auto &part : partitions)
        partPtrs.push_back(part.get());

    // Intra-run tick pool: more workers than SMs would only idle at
    // the barrier, so clamp there. The phase closures are built once;
    // each captures only `this` and reads the live cycle/skip state
    // through it, so dispatching a phase is a single pool.run().
    const unsigned tick_threads =
        std::min(cfg.tickThreads, cfg.numSms);
    if (tick_threads > 1) {
        pool = std::make_unique<TickPool>(tick_threads);
        horizonShard.assign(tick_threads, neverCycle);
        smPhase = [this](unsigned t) {
            // Tag worker-side assertion failures with our cycle, as
            // run() does for the dispatching thread.
            SimContextGuard context(&now);
            const auto [begin, end] =
                shardRange(smPtrs.size(), t, pool->threads());
            for (std::size_t i = begin; i < end; ++i) {
                SmCore &core = *smPtrs[i];
                if (core.quiescent(now))
                    core.skipTick(now, 1);
                else
                    core.tick(now);
            }
        };
        partPhase = [this](unsigned t) {
            SimContextGuard context(&now);
            const auto [begin, end] =
                shardRange(partPtrs.size(), t, pool->threads());
            for (std::size_t i = begin; i < end; ++i)
                partPtrs[i]->tick(now);
        };
        skipPhase = [this](unsigned t) {
            SimContextGuard context(&now);
            const auto [begin, end] =
                shardRange(smPtrs.size(), t, pool->threads());
            for (std::size_t i = begin; i < end; ++i)
                smPtrs[i]->skipTick(now, pendingSkip);
            const auto [pbegin, pend] =
                shardRange(partPtrs.size(), t, pool->threads());
            for (std::size_t i = pbegin; i < pend; ++i)
                partPtrs[i]->skipTick(pendingSkip);
        };
        horizonPhase = [this](unsigned t) {
            const auto [begin, end] =
                shardRange(smPtrs.size(), t, pool->threads());
            Cycle h = neverCycle;
            for (std::size_t i = begin; i < end && h > now; ++i)
                h = std::min(h, smPtrs[i]->nextEventAt(now));
            const auto [pbegin, pend] =
                shardRange(partPtrs.size(), t, pool->threads());
            for (std::size_t i = pbegin; i < pend && h > now; ++i)
                h = std::min(h, partPtrs[i]->nextEventAt(now));
            horizonShard[t] = h;
        };
        fusePhase = [this](unsigned t) {
            SimContextGuard context(&now);
            const auto [begin, end] =
                shardRange(smPtrs.size(), t, pool->threads());
            for (std::size_t i = begin; i < end; ++i) {
                // SMs are provably interaction-free across the whole
                // window (fuseHorizon), so each worker may run its
                // shard's cycles back to back: the per-cycle order
                // SM0..SMn x cycle and this cycle x SM0..SMn order
                // compute identical per-SM states.
                SmCore &core = *smPtrs[i];
                for (Cycle c = 0; c < pendingFuse; ++c) {
                    if (core.quiescent(now + c))
                        core.skipTick(now + c, 1);
                    else
                        core.tick(now + c);
                }
                WSL_ASSERT(core.outgoingRequests().empty(),
                           "fused window staged interconnect traffic");
                WSL_ASSERT(core.completedCtaEvents().empty(),
                           "fused window completed a CTA");
            }
        };
    }
}

KernelId
Gpu::launchKernel(const KernelParams &params, std::uint64_t inst_target)
{
    WSL_ASSERT(kernels.size() < maxConcurrentKernels,
               "kernel table full");
    // Bank conflicts stretch the shared-memory result latency on the
    // SM writeback wheel; past the wheel size it would fire early.
    const std::uint64_t shm_latency =
        std::uint64_t{cfg.shmLatency} *
        std::max(1u, params.shmConflictFactor);
    if (shm_latency >= smWheelSlots) {
        throw ConfigError(detail::concat(
            "kernel ", params.name, ": shmLatency ", cfg.shmLatency,
            " x shmConflictFactor ", params.shmConflictFactor, " = ",
            shm_latency, " is not below the ", smWheelSlots,
            "-slot SM writeback wheel"));
    }
    auto inst = std::make_unique<KernelInstance>();
    inst->id = static_cast<KernelId>(kernels.size());
    inst->params = params;
    inst->program = buildProgram(params);
    inst->baseAddr = (static_cast<Addr>(inst->id) + 1) << 36;
    inst->instTarget = inst_target;
    inst->launchCycle = now;
    Tracer::global().setKernelName(inst->id, params.name);
    Tracer::global().record(now, TraceEvent::KernelLaunch, inst->id,
                            params.gridDim);
    kernels.push_back(std::move(inst));
    ctaDispatchDirty = true;
    dispatchBlocked = false;
    policyDirty = true;
    policy->onKernelSetChanged(*this, now);
    return kernels.back()->id;
}

void
Gpu::haltKernel(KernelId kid)
{
    WSL_ASSERT(kid >= 0 && static_cast<std::size_t>(kid) < kernels.size(),
               detail::concat("haltKernel: bad kernel id ", kid));
    KernelInstance &k = *kernels[kid];
    if (k.done)
        return;
    k.done = true;
    k.halted = true;
    k.finishCycle = now;
    Tracer::global().record(now, TraceEvent::KernelFinish, k.id, 1);
    for (auto &sm_ptr : sms)
        sm_ptr->evictKernel(k.id);
    ctaDispatchDirty = true;
    dispatchBlocked = false;
    policyDirty = true;
    policy->onKernelSetChanged(*this, now);
}

void
Gpu::dispatch()
{
    // Policies mutate quotas directly on the SMs; a moved generation
    // sum is the only signal that placement limits changed.
    std::uint64_t gen = 0;
    for (const auto &sm_ptr : sms)
        gen += sm_ptr->quotaGeneration();
    if (gen != quotaGenSeen) {
        quotaGenSeen = gen;
        ctaDispatchDirty = true;
        dispatchBlocked = false;
    }
    // Every grid fully issued and nothing re-armed the scan since:
    // dispatch is a no-op (the common steady state once every grid is
    // fully launched).
    if (!ctaDispatchDirty)
        return;
    bool pending = false;
    for (const auto &kern_ptr : kernels) {
        if (kern_ptr->hasCtasToIssue()) {
            pending = true;
            break;
        }
    }
    if (!pending) {
        ctaDispatchDirty = false;
        return;
    }
    // CTAs are pending but the last scan placed none of them; until a
    // re-arm event or the policy's next decision boundary, rescanning
    // would provably place none again.
    if (dispatchBlocked && now < dispatchBlockedUntil)
        return;
    dispatchBlocked = false;

    // Kernel-aware thread-block scheduler: kernels are considered in
    // table order; the policy's quotas and SM masks carve up the SMs.
    bool placed = false;
    for (auto &sm_ptr : sms) {
        SmCore &core = *sm_ptr;
        for (auto &kern_ptr : kernels) {
            KernelInstance &k = *kern_ptr;
            if (!k.hasCtasToIssue())
                continue;
            if (!policy->mayDispatch(*this, core.id(), k.id))
                continue;
            const int q = core.quota(k.id);
            while (k.hasCtasToIssue() &&
                   (q < 0 ||
                    core.residentCtas(k.id) < static_cast<unsigned>(q)) &&
                   core.canAcceptCta(k.params)) {
                const bool ok =
                    core.launchCta(k.id, k.params, k.program, k.nextCta,
                                   k.baseAddr, now);
                WSL_ASSERT(ok, "launch failed after canAcceptCta");
                Tracer::global().record(
                    now, TraceEvent::CtaLaunch, k.id, k.nextCta,
                    static_cast<std::uint32_t>(core.id()));
                ++k.nextCta;
                placed = true;
            }
        }
    }
    if (!placed) {
        dispatchBlocked = true;
        dispatchBlockedUntil = policy->nextDecisionAt(now);
    }
}

void
Gpu::tickSms()
{
    if (pool) {
        pool->run(smPhase);
        return;
    }
    for (auto &sm_ptr : sms) {
        // A drained core can only burn Idle slots this cycle; account
        // them in bulk instead of running the pipeline stages.
        if (sm_ptr->quiescent(now))
            sm_ptr->skipTick(now, 1);
        else
            sm_ptr->tick(now);
    }
}

void
Gpu::tickPartitions()
{
    // Few partitions tick faster inline than sharded (the dispatch +
    // barrier would dominate); the dc-scale partition counts pool.
    if (pool && partPtrs.size() >= minPooledComponents) {
        pool->run(partPhase);
        return;
    }
    for (auto &part : partitions)
        part->tick(now);
}

void
Gpu::drainCtaEvents()
{
    for (auto &sm_ptr : sms) {
        auto &events = sm_ptr->completedCtaEvents();
        if (!events.empty()) {
            ctaDispatchDirty = true;  // freed resources: rescan
            dispatchBlocked = false;
        }
        for (KernelId kid : events) {
            ++kernels[kid]->ctasCompleted;
            Tracer::global().record(
                now, TraceEvent::CtaComplete, kid,
                kernels[kid]->ctasCompleted,
                static_cast<std::uint32_t>(sm_ptr->id()));
        }
        events.clear();
    }
}

void
Gpu::checkKernelProgress()
{
    bool set_changed = false;
    for (auto &kern_ptr : kernels) {
        KernelInstance &k = *kern_ptr;
        if (k.done)
            continue;
        // Check the cheap grid predicate first: the 16-SM instruction
        // sum only matters for target-bounded runs that are still going.
        const bool grid_done = k.nextCta >= k.params.gridDim &&
                               k.ctasCompleted >= k.params.gridDim;
        const bool target_hit =
            !grid_done && k.instTarget > 0 &&
            kernelThreadInsts(k.id) >= k.instTarget;
        if (target_hit || grid_done) {
            k.done = true;
            k.halted = target_hit && !grid_done;
            // Cycles elapsed at completion (this tick included).
            k.finishCycle = now + 1;
            Tracer::global().record(now, TraceEvent::KernelFinish,
                                    k.id, k.halted ? 1 : 0);
            if (k.halted) {
                for (auto &sm_ptr : sms)
                    sm_ptr->evictKernel(k.id);
            }
            set_changed = true;
        }
    }
    if (set_changed) {
        ctaDispatchDirty = true;
        dispatchBlocked = false;
        policyDirty = true;
        policy->onKernelSetChanged(*this, now);
    }
}

void
Gpu::tick()
{
    policyDirty = false;
    policy->tick(*this, now);
    dispatch();
    // Two-phase tick. Compute phases (tickSms/tickPartitions) touch
    // only per-component state and may run sharded across the pool;
    // the interconnect stage between them commits the staged traffic
    // serially in fixed index order — the same order the old
    // routeMemory() produced — which is what keeps any thread count
    // bit-identical to the serial engine.
    if (prof) {
        // Timed variant: identical phase sequence, bracketed by
        // monotonic clock reads that feed nothing back into the
        // simulation.
        prof->onTick();
        const std::uint64_t t0 = EngineProfiler::timestampNs();
        tickSms();
        const std::uint64_t t1 = EngineProfiler::timestampNs();
        icnt.mergeRequests(smPtrs, partPtrs);
        const std::uint64_t t2 = EngineProfiler::timestampNs();
        tickPartitions();
        const std::uint64_t t3 = EngineProfiler::timestampNs();
        icnt.deliverResponses(partPtrs, smPtrs);
        const std::uint64_t t4 = EngineProfiler::timestampNs();
        prof->onPhaseNs(EpochPhase::SmCompute, t1 - t0);
        prof->onPhaseNs(EpochPhase::IcntMergeRequests, t2 - t1);
        prof->onPhaseNs(EpochPhase::PartitionCompute, t3 - t2);
        prof->onPhaseNs(EpochPhase::IcntDeliver, t4 - t3);
    } else {
        tickSms();
        icnt.mergeRequests(smPtrs, partPtrs);
        tickPartitions();
        icnt.deliverResponses(partPtrs, smPtrs);
    }
    drainCtaEvents();
    checkKernelProgress();
    ++now;
    if (telem)
        telem->onCycleEnd(*this);
}

void
Gpu::attachTelemetry(TelemetrySampler *sampler)
{
    telem = sampler && sampler->enabled() ? sampler : nullptr;
    for (auto &sm_ptr : sms)
        sm_ptr->setTelemetryRecording(telem != nullptr);
    for (auto &part : partitions)
        part->setTelemetryRecording(telem != nullptr);
    if (telem)
        telem->bind(*this);
}

void
Gpu::attachEngineProfiler(EngineProfiler *profiler)
{
    prof = profiler;
    if (pool)
        pool->enableStats(prof != nullptr);
}

Cycle
Gpu::nextHorizon(Cycle end)
{
    // A kernel-set change this tick may have shifted temporal policy
    // state (e.g. the TimeSlice owner); run one un-skipped tick so the
    // policy observes it before the clock jumps.
    if (policyDirty) {
        if (prof)
            pendingCap = HorizonCap::PolicyDirty;
        return now;
    }
    const Cycle policy_next = policy->nextDecisionAt(now);
    Cycle h = std::min(end, policy_next);
    if (prof)
        pendingCap = policy_next <= end ? HorizonCap::Policy
                                        : HorizonCap::RunEnd;
    if (h <= now)
        return now;
    if (telem) {
        // onCycleEnd fires during the tick of cycle nextSampleAt()-1
        // (it tests the post-increment clock), so that cycle must be
        // ticked, not skipped.
        const Cycle sample = telem->nextSampleAt();
        if (sample <= now + 1) {
            if (prof)
                pendingCap = HorizonCap::Telemetry;
            return now;
        }
        if (sample - 1 < h) {
            h = sample - 1;
            if (prof)
                pendingCap = HorizonCap::Telemetry;
        }
    }
    // Cap attribution when a component wins: partitions are few, so
    // re-asking them (const scans) disambiguates SM vs partition — a
    // partition with an event at or before the capped horizon ties or
    // beats every SM. Only runs while profiling.
    const auto component_cap = [&](Cycle at) {
        for (const auto &part : partitions)
            if (part->nextEventAt(now) <= at)
                return HorizonCap::Partition;
        return HorizonCap::Sm;
    };
    if (pool && smPtrs.size() >= minPooledComponents) {
        // Sharded min-reduce: each worker scans its component slice
        // (with the same early-out at `now`) into its own slot; min
        // of per-worker minima == min of the serial scan.
        pool->run(horizonPhase);
        for (const Cycle shard_min : horizonShard) {
            if (shard_min <= now) {
                if (prof)
                    pendingCap = component_cap(now);
                return now;
            }
            if (shard_min < h) {
                h = shard_min;
                if (prof)
                    pendingCap = component_cap(h);
            }
        }
        return h;
    }
    for (const auto &sm_ptr : sms) {
        const Cycle e = sm_ptr->nextEventAt(now);
        if (e <= now) {
            if (prof)
                pendingCap = HorizonCap::Sm;
            return now;
        }
        if (e < h) {
            h = e;
            if (prof)
                pendingCap = HorizonCap::Sm;
        }
    }
    for (const auto &part : partitions) {
        const Cycle e = part->nextEventAt(now);
        if (e <= now) {
            if (prof)
                pendingCap = HorizonCap::Partition;
            return now;
        }
        if (e < h) {
            h = e;
            if (prof)
                pendingCap = HorizonCap::Partition;
        }
    }
    return h;
}

void
Gpu::bulkSkip(Cycle cycles)
{
    if (pool) {
        pendingSkip = cycles;
        pool->run(skipPhase);
    } else {
        for (auto &sm_ptr : sms)
            sm_ptr->skipTick(now, cycles);
        for (auto &part : partitions)
            part->skipTick(cycles);
    }
    now += cycles;
}

Cycle
Gpu::fuseHorizon(Cycle end)
{
    pendingFuseCap = FuseCap::RunEnd;
    // Glue that must observe the very next cycle pins the fuse to
    // `now` outright; everything else caps the window length.
    if (policyDirty) {
        pendingFuseCap = FuseCap::Policy;
        return now;
    }
    Cycle h = end;
    const auto cap = [&](Cycle c, FuseCap why) {
        if (c < h) {
            h = c;
            pendingFuseCap = why;
        }
    };
    cap(policy->nextDecisionAt(now), FuseCap::Policy);

    // Dispatch: the fused window never runs the placement scan, so it
    // must be provably a no-op throughout. A moved quota-generation
    // sum re-arms the scan the next dispatch() would notice — don't
    // fuse over it. Pending work is only tolerable while the
    // placement-saturation memo proves rescans futile, and then only
    // up to the memo's expiry.
    std::uint64_t gen = 0;
    for (const auto &sm_ptr : sms)
        gen += sm_ptr->quotaGeneration();
    if (gen != quotaGenSeen) {
        pendingFuseCap = FuseCap::Dispatch;
        return now;
    }
    if (ctaDispatchDirty) {
        if (!dispatchBlocked || dispatchBlockedUntil <= now) {
            pendingFuseCap = FuseCap::Dispatch;
            return now;
        }
        cap(dispatchBlockedUntil, FuseCap::Dispatch);
    }
    if (telem) {
        // As in nextHorizon(): onCycleEnd fires during the tick of
        // cycle nextSampleAt()-1, so that cycle needs a full epoch.
        const Cycle sample = telem->nextSampleAt();
        if (sample <= now + 1) {
            pendingFuseCap = FuseCap::Telemetry;
            return now;
        }
        cap(sample - 1, FuseCap::Telemetry);
    }
    // Audits run between epochs; capping at the cadence boundary makes
    // the post-fuse audit land on exactly the cycle the per-cycle
    // engine would have audited (cadence 1 disables fusing entirely).
    if (auditor)
        cap(auditor->nextAuditAt(), FuseCap::Audit);
    // The watchdog check also runs between epochs. Capping at the
    // deadline bounds detection coarsening: a hang already in progress
    // is still detected at its exact deadline cycle; one *starting*
    // mid-window is noticed at most a window late.
    if (cfg.watchdogCycles != 0)
        cap(lastProgressCycle + cfg.watchdogCycles, FuseCap::Watchdog);
    if (h <= now + 1)
        return h;

    // Instruction-target kernels: checkKernelProgress() does not run
    // inside the window, so the window must end before any kernel
    // could possibly reach its target. Issue is bounded by one warp
    // instruction (warpSize threads) per scheduler per cycle.
    const std::uint64_t rate = static_cast<std::uint64_t>(sms.size()) *
                               cfg.numSchedulers * warpSize;
    for (const auto &kern_ptr : kernels) {
        const KernelInstance &k = *kern_ptr;
        if (k.done || k.instTarget == 0)
            continue;
        const std::uint64_t executed = kernelThreadInsts(k.id);
        if (executed >= k.instTarget) {
            pendingFuseCap = FuseCap::InstTarget;
            return now;
        }
        // F cycles are safe iff executed + F*rate < target.
        cap(now + (k.instTarget - executed - 1) / rate,
            FuseCap::InstTarget);
    }
    if (h <= now + 1)
        return h;

    // Partitions must be idle across the whole window (their ticks,
    // the request merge, and the response delivery are all skipped).
    for (const auto &part : partitions) {
        const Cycle e = part->nextEventAt(now);
        if (e <= now) {
            pendingFuseCap = FuseCap::Partition;
            return now;
        }
        cap(e, FuseCap::Partition);
    }
    // SMs cap at their traffic / CTA-completion quiet bound.
    for (const auto &sm_ptr : sms) {
        if (h <= now + 1)
            return h;
        const Cycle q = sm_ptr->fuseQuietUntil(now);
        if (q <= now) {
            pendingFuseCap = FuseCap::Sm;
            return now;
        }
        cap(q, FuseCap::Sm);
    }
    return h;
}

void
Gpu::runFusedEpoch(Cycle cycles)
{
    const std::uint64_t t0 = prof ? EngineProfiler::timestampNs() : 0;
    if (pool) {
        pendingFuse = cycles;
        pool->run(fusePhase);
    } else {
        for (SmCore *core : smPtrs) {
            for (Cycle c = 0; c < cycles; ++c) {
                if (core->quiescent(now + c))
                    core->skipTick(now + c, 1);
                else
                    core->tick(now + c);
            }
            WSL_ASSERT(core->outgoingRequests().empty(),
                       "fused window staged interconnect traffic");
            WSL_ASSERT(core->completedCtaEvents().empty(),
                       "fused window completed a CTA");
        }
    }
    // Partitions were proven idle for the whole window; skipTick only
    // bulk-records telemetry occupancy, exactly like `cycles` idle
    // per-cycle ticks would have.
    for (auto &part : partitions)
        part->skipTick(cycles);
    now += cycles;
    if (prof)
        prof->onPhaseNs(EpochPhase::FusedCompute,
                        EngineProfiler::timestampNs() - t0);
}

std::uint64_t
Gpu::progressSignature() const
{
    std::uint64_t sig = 0;
    for (const auto &sm_ptr : sms) {
        const SmStats &st = sm_ptr->stats();
        sig += st.warpInstsIssued + st.ifetches + st.ctasLaunched +
               st.l1Accesses;
    }
    for (const auto &part : partitions) {
        const PartitionStats st = part->stats();
        sig += st.l2Accesses + st.dramReads + st.dramWrites;
    }
    return sig;
}

void
Gpu::checkWatchdog()
{
    const std::uint64_t sig = progressSignature();
    if (sig != lastProgressSig) {
        lastProgressSig = sig;
        lastProgressCycle = now;
        return;
    }
    // Only a machine with resident warps can deadlock; an empty one
    // merely waits for dispatch, bounded by the caller's max_cycles.
    bool resident = false;
    for (const auto &sm_ptr : sms) {
        if (!sm_ptr->idle()) {
            resident = true;
            break;
        }
    }
    if (!resident) {
        lastProgressCycle = now;
        return;
    }
    const Cycle stalled = now - lastProgressCycle;
    if (stalled >= cfg.watchdogCycles)
        throw DeadlockError(now, stalled,
                            buildDeadlockReport(*this, stalled));
}

Cycle
Gpu::run(Cycle max_cycles)
{
    // Tag assertion failures / panics on this thread with our cycle.
    SimContextGuard errorContext(&now);
    const Cycle start = now;
    const Cycle end = now + max_cycles;
    const bool skipping = cfg.clockSkip;
    const Cycle wd = cfg.watchdogCycles;
    if (wd != 0) {
        lastProgressCycle = now;
        lastProgressSig = progressSignature();
    }
    while (now < end && !allKernelsDone()) {
        // Fused multi-cycle epoch: when no interaction (traffic,
        // dispatch, policy/telemetry/audit/watchdog boundary, CTA or
        // kernel completion) can occur for a stretch, run the SMs'
        // ticks for the whole stretch back to back — one pool
        // dispatch instead of 2+ per cycle — and skip the idle
        // partitions and the per-cycle glue entirely. Bit-identical
        // to per-cycle ticking by construction; covers the
        // compute-bound stretches bulkSkip (which needs *eventless*
        // cycles) cannot touch.
        if (skipping && now >= fuseRetryAt) {
            const Cycle fuse_end = fuseHorizon(end);
            if (fuse_end >= now + minFuseCycles) {
                const Cycle window = fuse_end - now;
                if (prof)
                    prof->onFusedEpoch(window, pendingFuseCap);
                runFusedEpoch(window);
                if (auditor && now >= auditor->nextAuditAt())
                    auditor->runChecks(*this);
                if (wd != 0)
                    checkWatchdog();
                continue;
            }
            // Failed attempt: back off before scanning again. Gates
            // that go quiet mid-cooldown are caught at most
            // fuseCooldown cycles late — a shorter fused window, not a
            // missed one.
            fuseRetryAt = now + fuseCooldown;
        }
        tick();
        // Audits run post-tick. Skipped stretches are provably
        // eventless, so state at the next real event equals state at
        // every skipped cycle: auditing there loses nothing, and the
        // audit clock never pins the horizon.
        if (auditor && now >= auditor->nextAuditAt())
            auditor->runChecks(*this);
        if (wd != 0)
            checkWatchdog();
        if (!skipping || now >= end)
            continue;
        // Safe even when the tick just completed the last kernel:
        // every completion sets policyDirty, pinning the horizon to
        // `now` so no cycles are skipped past the finish.
        Cycle h = nextHorizon(end);
        // A deadlocked machine reports a far (or never) horizon; cap
        // the jump at the watchdog deadline so it cannot bulk-skip
        // straight past detection to max_cycles. Prefix windows of a
        // skippable stretch are always themselves skippable, so the
        // cap is safe.
        if (wd != 0) {
            const Cycle deadline = lastProgressCycle + wd;
            if (deadline < h) {
                h = deadline;
                if (prof)
                    pendingCap = HorizonCap::WatchdogDeadline;
            }
        }
        if (prof)
            prof->onHorizonCap(pendingCap);
        if (h > now) {
            if (prof)
                prof->onSkip(h - now);
            bulkSkip(h - now);
        }
    }
    return now - start;
}

bool
Gpu::allKernelsDone() const
{
    if (kernels.empty())
        return false;
    for (const auto &k : kernels)
        if (!k->done)
            return false;
    return true;
}

std::uint64_t
Gpu::kernelThreadInsts(KernelId kid) const
{
    std::uint64_t total = 0;
    for (const auto &sm_ptr : sms)
        total += sm_ptr->stats().kernelThreadInsts[kid];
    return total;
}

std::uint64_t
Gpu::kernelWarpInsts(KernelId kid) const
{
    std::uint64_t total = 0;
    for (const auto &sm_ptr : sms)
        total += sm_ptr->stats().kernelWarpInsts[kid];
    return total;
}

GpuStats
Gpu::collectStats() const
{
    GpuStats g;
    for (const auto &sm_ptr : sms)
        accumulateStats<SmStats>(g, sm_ptr->stats());
    for (const auto &part : partitions)
        accumulateStats<PartitionStats>(g, part->stats());
    // The per-SM sum of `cycles` is meaningless GPU-wide; report the
    // global simulation clock instead.
    g.cycles = now;
    return g;
}

} // namespace wsl
