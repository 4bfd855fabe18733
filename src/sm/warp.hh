/**
 * @file
 * Per-warp and per-CTA execution state resident in an SM. The
 * scheduler-hot fields (pc, scoreboard masks, liveness flags, lane
 * mask, i-buffer depth) live in the parallel WarpHot arena
 * (sm/warp_soa.hh); WarpState here is the cold remainder the issue and
 * fetch paths consult occasionally.
 */

#ifndef WSL_SM_WARP_HH
#define WSL_SM_WARP_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sm/resources.hh"
#include "workloads/kernel_params.hh"

namespace wsl {

/**
 * Cold per-warp state. Warps occupy fixed slots; `epoch` invalidates
 * in-flight writebacks when a slot is recycled. The hot fields of the
 * same slot are WarpHot in SmCore's arena at the same index.
 */
struct WarpState
{
    std::uint32_t epoch = 0;

    int ctaSlot = -1;
    KernelId kernel = invalidKernel;
    unsigned warpInCta = 0;
    unsigned activeThreads = warpSize;

    unsigned iter = 0;  //!< completed loop iterations

    // Front end.
    bool fetchPending = false;
    Cycle fetchReadyAt = 0;

    // SIMT divergence reconvergence stack of (suspended-lane mask,
    // rejoin pc) entries; the live lane mask itself is hot state.
    std::vector<std::pair<std::uint32_t, std::uint16_t>> divStack;

    std::uint64_t age = 0;  //!< global launch order (GTO oldest-first)

    /**
     * Recycle the slot for a new warp: every field back to its
     * default, except `epoch` (it must keep counting up so in-flight
     * writebacks from the slot's previous occupant stay dead) and the
     * divStack heap buffer (clear() keeps capacity, so steady-state
     * CTA launch allocates nothing — `w = WarpState{}` would free and
     * re-grow it every time, allocator churn on every CTA launch of a
     * long co-run). Any field added above must be
     * restored here too, and hot fields in WarpHot::reset().
     */
    void
    reset()
    {
        ctaSlot = -1;
        kernel = invalidKernel;
        warpInCta = 0;
        activeThreads = warpSize;
        iter = 0;
        fetchPending = false;
        fetchReadyAt = 0;
        divStack.clear();
        age = 0;
    }
};

/** State of one CTA slot in an SM. */
struct CtaSlot
{
    bool active = false;
    KernelId kernel = invalidKernel;
    unsigned ctaGlobalId = 0;
    unsigned warpsTotal = 0;
    unsigned warpsFinished = 0;
    unsigned barrierWaiting = 0;
    ResourceVec alloc;
    Addr kernelBase = 0;  //!< base of the kernel's global allocation
    const KernelParams *params = nullptr;
    std::vector<std::uint16_t> warpIdxs;
};

} // namespace wsl

#endif // WSL_SM_WARP_HH
