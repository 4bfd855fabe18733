/**
 * @file
 * Cycle-level streaming multiprocessor model: dual warp schedulers
 * (GTO/LRR), per-warp scoreboard, i-buffer fetch stage, ALU/SFU/LDST
 * pipelines, an L1 data cache with MSHRs, CTA slots, and a barrier unit.
 * Multiple kernels may be resident simultaneously; per-kernel CTA quotas
 * are enforced by the dispatcher using setQuota().
 */

#ifndef WSL_SM_SM_CORE_HH
#define WSL_SM_SM_CORE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/histogram.hh"
#include "common/ring.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "common/wheel.hh"
#include "mem/cache.hh"
#include "mem/request.hh"
#include "sm/resources.hh"
#include "sm/warp.hh"
#include "sm/warp_soa.hh"

namespace wsl {

struct AuditAccess;
struct SnapshotAccess;

/**
 * One SM. The core is self-contained: the GPU object launches CTAs into
 * it, drains its outgoing memory requests, and delivers responses.
 */
class SmCore
{
  public:
    SmCore(const GpuConfig &cfg, SmId id);

    // ---- CTA / kernel management ----

    /** True if the resource pool can hold one more CTA of `params`. */
    bool canAcceptCta(const KernelParams &params) const;

    /**
     * Install a CTA. Returns false if resources or slots are exhausted.
     * `kernel_base` is the kernel's global-memory allocation base.
     */
    bool launchCta(KernelId kid, const KernelParams &params,
                   const KernelProgram &program, unsigned cta_global_id,
                   Addr kernel_base, Cycle now);

    /** Forcibly retire every CTA of a kernel and free its resources
     *  (used when a kernel reaches its instruction target). */
    void evictKernel(KernelId kid);

    /** Resident CTAs of one kernel. */
    unsigned residentCtas(KernelId kid) const;
    /** Resident CTAs of all kernels. */
    unsigned totalResidentCtas() const;

    /** Per-kernel CTA quota; -1 means unlimited. */
    void setQuota(KernelId kid, int max_ctas);
    int quota(KernelId kid) const;
    void clearQuotas();

    /** Bumped on every quota mutation; the GPU dispatcher re-arms its
     *  pending-CTA scan when the sum across SMs moves (policies write
     *  quotas directly, so there is no other signal). */
    std::uint32_t quotaGeneration() const { return quotaGen; }

    // ---- Simulation ----

    /** Advance one core cycle. */
    void tick(Cycle now);

    /** True if no live warps are resident. */
    bool idle() const { return liveWarps == 0; }

    /**
     * True when this core has no live warps and no in-flight work:
     * ticking it can only burn Idle scheduler slots. The GPU then
     * substitutes skipTick(), which bulk-accounts the identical
     * counters without running the pipeline.
     */
    bool
    quiescent(Cycle now) const
    {
        return liveWarps == 0 && activeLoads == 0 &&
               outRequests.empty() && respQueue.empty() &&
               ldstBusyUntil <= now;
    }

    /**
     * Earliest future cycle at which ticking this core could do
     * anything beyond replaying memoized stalls: a wheel slot firing
     * (writeback, L1-hit maturation, i-buffer refill), a line fill
     * arriving, a scheduler memo expiring, or queued front-end/outgoing
     * work needing per-cycle service. Returns `now` when the core must
     * be ticked every cycle; cycles strictly between `now` and the
     * returned value are provably identical to skipTick() accounting.
     */
    Cycle nextEventAt(Cycle now) const;

    /**
     * Account `cycles` cycles of guaranteed-eventless simulation
     * exactly as per-cycle ticking would: cycle counter, resource
     * integrals, LDST busy accounting, and per-scheduler stall charges
     * replayed from the scan memos. Only valid for windows ending at or
     * before nextEventAt(now).
     */
    void skipTick(Cycle now, Cycle cycles);

    // ---- Memory-system interface (driven by the GPU object) ----

    /** Requests awaiting routing to memory partitions. */
    std::vector<MemRequest> &outgoingRequests() { return outRequests; }

    /**
     * Notification that the GPU drained entries from outgoingRequests():
     * memory-backpressure issue outcomes may have changed, so cached
     * scheduler scans are invalid.
     */
    void noteOutgoingDrained() { invalidateScanCache(); }

    /** Deliver a line fill from a memory partition. */
    void deliverResponse(const MemResponse &resp);

    // ---- Events & observability ----

    /** Kernel ids whose CTAs completed since the last drain. */
    std::vector<KernelId> &completedCtaEvents() { return ctaCompletions; }

    const SmStats &stats() const { return smStats; }
    SmStats &mutableStats() { return smStats; }
    const ResourcePool &pool() const { return resourcePool; }
    const Cache &l1Cache() const { return l1; }
    SmId id() const { return smId; }

    // Engine-meta counters: how the *simulator* ran, not what the
    // simulated machine did. Deliberately NOT in SmStats — memo
    // replays and scan counts legitimately differ between the skip
    // and no-skip engines, so folding them into the identity surface
    // would break the bit-identity gates.

    /** Scheduler scans answered by replaying the failed-scan memo. */
    std::uint64_t scanMemoHits() const { return engineScanMemoHits; }
    /** Scheduler issue scans executed (memo misses). */
    std::uint64_t schedulerScans() const { return engineSchedScans; }

    /**
     * Switch the telemetry histogram recording (end-to-end memory
     * latency per kernel) on or off. Off (the default) keeps the load
     * completion path free of histogram work.
     */
    void
    setTelemetryRecording(bool on)
    {
        recordTelemetry = on;
        invalidateScanCache();
    }

    /** Issue-to-writeback global-load latency of one kernel's accesses
     *  (populated only while telemetry recording is on). */
    const Histogram &
    memLatencyHistogram(KernelId kid) const
    {
        return memLatency[kid];
    }

    /** Change the warp scheduler (Figure 10b sensitivity study). */
    void
    setScheduler(SchedulerKind kind)
    {
        schedKind = kind;
        invalidateScanCache();
    }

    /**
     * Test hook: park every live warp of every resident CTA at its
     * barrier *without* arming a release, emulating a lost-wakeup bug
     * (the barrier only re-evaluates on barrier issue or warp finish,
     * and parked warps do neither). Leaves all bookkeeping — masks,
     * barrierWaiting counts, scheduler lists — self-consistent, so
     * integrity audits pass while the machine makes no progress: the
     * exact state the no-progress watchdog exists to catch.
     */
    void injectBarrierHangForTest();

    /**
     * Test hook: swap the first two entries of the first scheduler
     * list holding at least two warps, breaking the lists' launch-age
     * order while membership and masks stay consistent. Returns false
     * when no list has two warps. Only the auditor's age-order check
     * can see the damage.
     */
    bool swapSchedListOrderForTest();

  private:
    friend struct AuditAccess;
    friend struct SnapshotAccess;
    /** Why a warp could not issue this cycle. */
    enum class IssueOutcome
    {
        Issued,
        Empty,      //!< i-buffer empty
        Barrier,
        MemWait,    //!< RAW on an outstanding global load
        ShortWait,  //!< RAW on an ALU/SFU/shared-mem result
        ExecBusy    //!< pipeline or memory-queue structural hazard
    };

    struct PendingLoad
    {
        std::uint16_t warp = 0;
        std::uint32_t epoch = 0;
        std::uint32_t regMask = 0;
        std::uint16_t transLeft = 0;
        bool valid = false;
        /** Owning kernel, narrowed to keep the entry compact. */
        std::int8_t kernel = static_cast<std::int8_t>(invalidKernel);
        /** Truncated issue cycle; latency via modulo-2^32 subtraction
         *  (round trips are far below 2^32 cycles). */
        std::uint32_t issuedAt = 0;
    };

    struct WbEntry
    {
        std::uint16_t warp;
        std::uint32_t epoch;
        std::uint32_t regMask;
    };

    /**
     * Memoized outcome of a failed (nothing-issued) scheduler scan.
     * A failed scan mutates nothing but stall counters, so until an
     * event changes some warp's readiness — writeback, line fill,
     * i-buffer refill, CTA launch/finish, outgoing-queue drain — or
     * the simulation clock crosses a pipeline busy-until horizon, the
     * next scan provably charges the same stall to the same kernel.
     * Replaying the memo skips the scan's busy-unit, candidate and
     * outcome-popcount mask work (and the stall-majority vote).
     */
    struct ScanCacheEntry
    {
        /** First cycle at which a time-dependent (ExecBusy) outcome
         *  could flip; ~Cycle{0} when no pipeline was busy. */
        Cycle validUntil = 0;
        StallKind kind = StallKind::Idle;
        std::int8_t culprit = static_cast<std::int8_t>(invalidKernel);
        bool valid = false;
    };

    /** Everything one warp scheduler reads on a scan, in one block. */
    struct SchedulerState
    {
        /** Warp-slot bit set mirroring schedLists membership; 0 exactly
         *  when the scheduler has no live warp. */
        std::uint64_t listMask = 0;
        Cycle aluBusyUntil = 0;  //!< the scheduler's own ALU pipe
        ScanCacheEntry memo;     //!< failed-scan memo
        int lastIssued = -1;     //!< GTO greedy warp
        unsigned rrPos = 0;      //!< LRR rotation
    };

    void
    invalidateScanCache()
    {
        for (SchedulerState &sc : scheds)
            sc.memo.valid = false;
    }

    void runFetch(Cycle now);
    void runScheduler(unsigned sched, Cycle now);
    void chargeStall(StallKind kind, int culprit, Cycle count = 1);
    IssueOutcome tryIssue(std::uint16_t widx, unsigned sched, Cycle now);
    void executeIssue(WarpHot &hw, WarpState &warp,
                      const Instruction &inst, std::uint16_t widx,
                      unsigned sched, Cycle now);
    void advanceWarp(std::uint16_t widx, Cycle now);
    void finishWarp(std::uint16_t widx);
    void maybeReleaseBarrier(CtaSlot &cta);
    void completeCta(int cta_idx);
    void completeLoadTransaction(std::uint16_t load_idx, Cycle now);
    std::uint16_t allocLoadEntry();

    /**
     * Recompute one warp's bits in issuableMask and the scoreboard
     * blocked masks. Called on every state transition that can flip
     * active/finished/atBarrier/ibuf or the next instruction's
     * operand-vs-scoreboard overlap (issue, writeback, line fill);
     * keeping the masks exact lets the scheduler scan resolve
     * Barrier/Empty/MemWait/ShortWait outcomes from bit tests instead
     * of tryIssue calls.
     */
    void updateIssuable(std::uint16_t widx);

    const GpuConfig cfg;
    const SmId smId;
    SchedulerKind schedKind;
    Rng rng;

    ResourcePool resourcePool;
    /** Scheduler-hot warp rows, one 32-byte entry per slot: the per-SM
     *  arena the readiness scan walks (see sm/warp_soa.hh). Parallel
     *  to `warps`, which keeps the cold remainder. */
    std::vector<WarpHot> hot;
    std::vector<WarpState> warps;
    std::vector<CtaSlot> ctas;
    std::vector<std::uint16_t> freeWarpSlots;
    unsigned liveWarps = 0;
    std::uint64_t ageCounter = 0;

    // Per-kernel dispatch bookkeeping.
    std::array<int, maxConcurrentKernels> quotas;
    std::array<unsigned, maxConcurrentKernels> resident{};
    std::uint32_t quotaGen = 0;

    /** Bit per warp slot: active, unfinished, not at a barrier, and
     *  holding a buffered instruction. Every warp index fits a 64-bit
     *  word: GpuConfig::validate() caps an SM at maxWarpSlotsPerSm. */
    std::uint64_t issuableMask = 0;
    /** Bit per warp slot: the next instruction's registers overlap the
     *  long-latency (memBlocked) or short-latency (shortBlocked)
     *  scoreboard — exactly tryIssue's first two hazard tests. */
    std::uint64_t memBlockedMask = 0;
    std::uint64_t shortBlockedMask = 0;
    /** Bit per live warp slot waiting at a barrier. */
    std::uint64_t barrierMask = 0;
    /** Bit per live warp slot whose next instruction targets the given
     *  execution unit; lets the scheduler resolve ExecBusy outcomes
     *  for a busy unit without visiting the warps. */
    std::uint64_t aluNextMask = 0;
    std::uint64_t sfuNextMask = 0;
    std::uint64_t ldstNextMask = 0;
    /** Bit per live (active, unfinished) warp slot of each kernel;
     *  popcounted against an outcome mask to attribute a failed scan's
     *  stall to a kernel (telemetry). */
    std::array<std::uint64_t, maxConcurrentKernels> kernelWarpMask{};

    // Schedulers.
    std::vector<std::vector<std::uint16_t>> schedLists;  //!< age order
    std::vector<SchedulerState> scheds;

    // Shared execution pipelines (each scheduler's ALU is in scheds).
    Cycle sfuBusyUntil = 0;
    Cycle ldstBusyUntil = 0;
    /** Kernel whose access last occupied the LDST unit; busy cycles
     *  are attributed to it. */
    KernelId ldstOwner = invalidKernel;

    struct FetchEntry
    {
        std::uint16_t warp;
        std::uint32_t epoch;
    };

    // Fixed-latency event wheels, indexed by firing cycle: register
    // writebacks (ALU/SFU/shared memory), L1-hit load transactions
    // (load-entry indices), and i-buffer refills. Each keeps its own
    // occupancy bitmap, so nextEventAt() finds the next firing slot
    // without probing empty ones.
    TimingWheel<WbEntry> wbWheel;
    TimingWheel<std::uint16_t> memWheel;
    TimingWheel<FetchEntry> fetchWheel;

    // Memory.
    Cache l1;
    std::vector<PendingLoad> loads;
    std::vector<std::uint16_t> freeLoads;
    unsigned activeLoads = 0;  //!< valid PendingLoad entries
    std::vector<MemRequest> outRequests;
    std::vector<MemResponse> respQueue;
    Cache::FillResult fillScratch;  //!< scratch, reused per L1 fill

    // Front end: warps whose i-buffer drained and need a refill.
    RingQueue<FetchEntry> fetchQueue;

    // Engine-meta counters (see the accessors above).
    std::uint64_t engineScanMemoHits = 0;
    std::uint64_t engineSchedScans = 0;

    std::vector<KernelId> ctaCompletions;
    SmStats smStats;

    // Telemetry (recorded only while recordTelemetry is set).
    bool recordTelemetry = false;
    std::array<Histogram, maxConcurrentKernels> memLatency{};
};

} // namespace wsl

#endif // WSL_SM_SM_CORE_HH
