/**
 * @file
 * GpuConfig::validate(): actionable rejection of inconsistent machine
 * parameters before they turn into divide-by-zero, empty-machine hangs,
 * or cache geometry that silently aliases every set.
 */

#include "common/config.hh"

#include <string>

#include "check/sim_error.hh"
#include "common/types.hh"

namespace wsl {

namespace {

[[noreturn]] void
reject(const std::string &what)
{
    throw ConfigError("invalid GpuConfig: " + what);
}

/** sets x assoc x line must tile the cache exactly. */
void
checkCacheGeometry(const char *name, unsigned size, unsigned assoc)
{
    if (assoc == 0)
        reject(std::string(name) + " associativity is 0");
    const unsigned way_bytes = assoc * lineSize;
    if (size < way_bytes) {
        reject(std::string(name) + " size " + std::to_string(size) +
               " is smaller than one set (" + std::to_string(assoc) +
               "-way x " + std::to_string(lineSize) + " B lines = " +
               std::to_string(way_bytes) + " B)");
    }
    if (size % way_bytes != 0) {
        reject(std::string(name) + " size " + std::to_string(size) +
               " is not sets x assoc x line: not a multiple of " +
               std::to_string(way_bytes) + " (assoc " +
               std::to_string(assoc) + " x " + std::to_string(lineSize) +
               " B lines)");
    }
}

} // namespace

void
GpuConfig::validate() const
{
    // ---- machine shape ----
    if (numSms == 0)
        reject("numSms is 0 — no SMs to run on");
    if (numSms > 1024) {
        reject("numSms " + std::to_string(numSms) +
               " exceeds 1024 — SM ids are stored in 16-bit warp/CTA "
               "bookkeeping and no modeled GPU approaches this; "
               "likely a typo'd value");
    }
    if (numSchedulers == 0)
        reject("numSchedulers is 0 — no warp scheduler can issue");
    if (maxThreadsPerSm < warpSize) {
        reject("maxThreadsPerSm " + std::to_string(maxThreadsPerSm) +
               " holds zero warps (warpSize is " +
               std::to_string(warpSize) + ")");
    }
    if (maxThreadsPerSm % warpSize != 0) {
        reject("maxThreadsPerSm " + std::to_string(maxThreadsPerSm) +
               " is not a multiple of warpSize " +
               std::to_string(warpSize));
    }
    if (maxThreadsPerSm / warpSize > maxWarpSlotsPerSm) {
        reject("maxThreadsPerSm " + std::to_string(maxThreadsPerSm) +
               " holds " + std::to_string(maxThreadsPerSm / warpSize) +
               " warps, above the " + std::to_string(maxWarpSlotsPerSm) +
               " an SM's 64-bit scheduler masks can track");
    }
    if (maxCtasPerSm == 0)
        reject("maxCtasPerSm is 0 — no CTA can ever launch");
    if (numRegsPerSm == 0)
        reject("numRegsPerSm is 0 — no kernel can allocate registers");

    // ---- front end / pipelines ----
    if (ibufferEntries == 0)
        reject("ibufferEntries is 0 — warps can never hold a decoded op");
    if (fetchWidth == 0)
        reject("fetchWidth is 0 — the i-buffer can never refill");
    if (numAluPipes == 0)
        reject("numAluPipes is 0 — ALU ops can never issue");
    if (aluInitiation == 0 || sfuInitiation == 0 || ldstInitiation == 0)
        reject("pipe initiation intervals must be >= 1 cycle");
    const struct
    {
        const char *name;
        unsigned value;
    } wheelLatencies[] = {
        {"fetchLatency", fetchLatency},
        {"ifetchMissLatency", ifetchMissLatency},
        {"aluLatency", aluLatency},
        {"sfuLatency", sfuLatency},
        {"l1HitLatency", l1HitLatency},
        {"shmLatency", shmLatency},
    };
    for (const auto &lat : wheelLatencies) {
        if (lat.value >= smWheelSlots) {
            reject(std::string(lat.name) + " " +
                   std::to_string(lat.value) + " is not below the " +
                   std::to_string(smWheelSlots) +
                   "-slot SM timing wheel — the event would alias onto "
                   "an earlier slot and fire early");
        }
    }

    // ---- caches / memory system ----
    checkCacheGeometry("L1", l1Size, l1Assoc);
    if (l1Mshrs == 0)
        reject("l1Mshrs is 0 — every L1 miss would block forever");
    if (l1MissQueue == 0)
        reject("l1MissQueue is 0 — no miss can leave the SM");
    if (numMemPartitions == 0)
        reject("numMemPartitions is 0 — memory requests have no home");
    if (numMemPartitions > 1024) {
        reject("numMemPartitions " + std::to_string(numMemPartitions) +
               " exceeds 1024 — the line interleave (partitionOf) is a "
               "plain modulo, so any count works, but nothing close to "
               "this many channels exists; likely a typo'd value");
    }
    checkCacheGeometry("L2", l2SizePerPartition, l2Assoc);
    if (l2Mshrs == 0)
        reject("l2Mshrs is 0 — every L2 miss would block forever");
    if (icntWidth == 0)
        reject("icntWidth is 0 — the interconnect can never drain");
    if (dramBanks == 0)
        reject("dramBanks is 0 — DRAM has nowhere to queue");
    if (dramQueue == 0)
        reject("dramQueue is 0 — DRAM can never accept a request");
    if (dramBurst == 0)
        reject("dramBurst is 0 — transfers would complete instantly");
    if (dramRowBytes < lineSize || dramRowBytes % lineSize != 0) {
        reject("dramRowBytes " + std::to_string(dramRowBytes) +
               " must be a non-zero multiple of the " +
               std::to_string(lineSize) + " B line size");
    }

    // ---- simulation control ----
    if (tickThreads != 1) {
        reject("tickThreads is " + std::to_string(tickThreads) +
               " — the tick engine is serial, so 1 is the only "
               "accepted value");
    }
}

} // namespace wsl
