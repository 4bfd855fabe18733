/**
 * @file
 * Read-only introspection bridge for the integrity layer. The auditor
 * and the deadlock-report builder need to see private simulator state
 * (scoreboards, MSHR maps, bank queues) to cross-check it against the
 * public accounting; rather than widening every component's public
 * interface, each component befriends this single accessor struct.
 * Everything here returns const views — the integrity layer never
 * mutates the machine, which is what makes the "audits off or on,
 * identical results" guarantee trivially true.
 */

#ifndef WSL_CHECK_ACCESS_HH
#define WSL_CHECK_ACCESS_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/partition.hh"
#include "sm/sm_core.hh"

namespace wsl {

struct AuditAccess
{
    // ---- SmCore ----
    static const std::vector<WarpState> &
    warps(const SmCore &sm) { return sm.warps; }

    /** Scheduler-hot rows, parallel to warps() by slot index. */
    static const std::vector<WarpHot> &
    hotWarps(const SmCore &sm) { return sm.hot; }

    static const std::vector<CtaSlot> &
    ctas(const SmCore &sm) { return sm.ctas; }

    static const std::vector<std::uint16_t> &
    freeWarpSlots(const SmCore &sm) { return sm.freeWarpSlots; }

    static unsigned liveWarps(const SmCore &sm) { return sm.liveWarps; }

    static const std::array<unsigned, maxConcurrentKernels> &
    resident(const SmCore &sm) { return sm.resident; }

    static const std::array<int, maxConcurrentKernels> &
    quotas(const SmCore &sm) { return sm.quotas; }

    static std::uint64_t issuableMask(const SmCore &sm)
    {
        return sm.issuableMask;
    }
    static std::uint64_t memBlockedMask(const SmCore &sm)
    {
        return sm.memBlockedMask;
    }
    static std::uint64_t shortBlockedMask(const SmCore &sm)
    {
        return sm.shortBlockedMask;
    }
    static std::uint64_t barrierMask(const SmCore &sm)
    {
        return sm.barrierMask;
    }
    static std::uint64_t aluNextMask(const SmCore &sm)
    {
        return sm.aluNextMask;
    }
    static std::uint64_t sfuNextMask(const SmCore &sm)
    {
        return sm.sfuNextMask;
    }
    static std::uint64_t ldstNextMask(const SmCore &sm)
    {
        return sm.ldstNextMask;
    }

    static const std::vector<std::vector<std::uint16_t>> &
    schedLists(const SmCore &sm) { return sm.schedLists; }

    /** Scheduler `sched`'s warp-slot mask (mirrors its list). */
    static std::uint64_t schedListMask(const SmCore &sm, unsigned sched)
    {
        return sm.scheds[sched].listMask;
    }

    static const std::array<std::uint64_t, maxConcurrentKernels> &
    kernelWarpMask(const SmCore &sm) { return sm.kernelWarpMask; }

    /** Scoreboard-side view of one in-flight global load. */
    struct LoadView
    {
        std::uint16_t warp;
        std::uint32_t epoch;
        std::uint32_t regMask;
        std::uint16_t transLeft;
        bool valid;
        KernelId kernel;
    };

    static std::vector<LoadView>
    loads(const SmCore &sm)
    {
        std::vector<LoadView> out;
        out.reserve(sm.loads.size());
        for (const auto &load : sm.loads) {
            out.push_back({load.warp, load.epoch, load.regMask,
                           load.transLeft, load.valid,
                           static_cast<KernelId>(load.kernel)});
        }
        return out;
    }

    static unsigned activeLoads(const SmCore &sm)
    {
        return sm.activeLoads;
    }

    /** The three timing wheels: writeback, L1-hit, i-buffer refill. */
    static const auto &wbWheel(const SmCore &sm) { return sm.wbWheel; }
    static const auto &memWheel(const SmCore &sm) { return sm.memWheel; }
    static const auto &fetchWheel(const SmCore &sm)
    {
        return sm.fetchWheel;
    }

    /** Union of writeback regMasks pending for (warp, epoch). */
    static std::uint32_t
    pendingWbMask(const SmCore &sm, std::uint16_t widx,
                  std::uint32_t epoch)
    {
        std::uint32_t mask = 0;
        for (unsigned slot = 0; slot < sm.wbWheel.slots; ++slot) {
            sm.wbWheel.forEachIn(slot, [&](const auto &e) {
                if (e.warp == widx && e.epoch == epoch)
                    mask |= e.regMask;
            });
        }
        return mask;
    }

    static std::size_t outRequestCount(const SmCore &sm)
    {
        return sm.outRequests.size();
    }
    static std::size_t respQueueCount(const SmCore &sm)
    {
        return sm.respQueue.size();
    }
    static std::size_t fetchQueueCount(const SmCore &sm)
    {
        return sm.fetchQueue.size();
    }

    static const Cache &l1(const SmCore &sm) { return sm.l1; }

    // ---- Cache ----
    static const std::unordered_map<Addr, std::vector<std::uint64_t>> &
    mshrMap(const Cache &cache) { return cache.mshrs; }

    // ---- MemPartition ----
    static std::uint64_t accepted(const MemPartition &part)
    {
        return part.acceptedRequests;
    }
    static std::uint64_t serviced(const MemPartition &part)
    {
        return part.servicedRequests;
    }
    static std::size_t reqQueueDepth(const MemPartition &part)
    {
        return part.reqQueue.size();
    }
    static std::size_t responseCount(const MemPartition &part)
    {
        return part.outResponses.size();
    }
    static std::uint64_t pushedResponses(const MemPartition &part)
    {
        return part.pushedResponses;
    }
    /** Input-queue contents, oldest first (merge-order tests). */
    static const RingQueue<MemRequest> &
    reqQueue(const MemPartition &part)
    {
        return part.reqQueue;
    }
    static const Cache &l2(const MemPartition &part) { return part.l2; }
    static const DramChannel &dram(const MemPartition &part)
    {
        return part.dram;
    }

    // ---- DramChannel ----
    static std::size_t dramQueued(const DramChannel &ch)
    {
        return ch.queued;
    }
    static std::uint64_t dramPushed(const DramChannel &ch)
    {
        return ch.nextSeq;
    }
    static std::size_t
    dramBankQueueSum(const DramChannel &ch)
    {
        std::size_t sum = 0;
        for (const auto &bank : ch.banks)
            sum += bank.q.size();
        return sum;
    }
    static std::size_t dramInFlight(const DramChannel &ch)
    {
        return ch.inFlight.size();
    }
};

} // namespace wsl

#endif // WSL_CHECK_ACCESS_HH
