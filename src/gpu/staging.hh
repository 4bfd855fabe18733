/**
 * @file
 * The SM <-> memory-partition interconnect merge of each tick. SMs
 * stage outbound requests in SmCore::outgoingRequests() and partitions
 * stage responses in MemPartition::responses(); this stage drains
 * those buffers in fixed SM-index / partition-index order. It is kept
 * as its own object for its conservation counters: the integrity
 * auditor cross-checks them against the partitions' accounting, so a
 * message dropped or duplicated between the two shows up as a
 * violation.
 */

#ifndef WSL_GPU_STAGING_HH
#define WSL_GPU_STAGING_HH

#include <cstdint>
#include <vector>

namespace wsl {

class MemPartition;
class SmCore;
struct SnapshotAccess;

/**
 * Ordered SM <-> partition traffic merge, with conservation counters
 * the integrity auditor cross-checks against the partitions' own
 * accounting (a dropped or duplicated message diverges them).
 */
class InterconnectStage
{
  public:
    /**
     * Route every SM's staged requests to their home partitions in
     * SM-index order, respecting per-partition queue backpressure
     * (refused requests stay staged, in order, for the next cycle).
     */
    void mergeRequests(const std::vector<SmCore *> &sms,
                       const std::vector<MemPartition *> &partitions);

    /** Deliver every partition's staged responses to the owning SMs
     *  in partition-index order and clear the staging buffers. */
    void deliverResponses(const std::vector<MemPartition *> &partitions,
                          const std::vector<SmCore *> &sms);

    /** Requests accepted into partition queues, ever. Matches the
     *  partitions' summed accepted counters iff nothing bypassed the
     *  ordered merge. */
    std::uint64_t routedRequests() const { return routed; }

    /** Responses handed to SMs, ever. The partitions' summed pushed
     *  counters equal this plus the still-staged responses. */
    std::uint64_t deliveredResponses() const { return delivered; }

  private:
    friend struct SnapshotAccess;

    std::uint64_t routed = 0;
    std::uint64_t delivered = 0;
};

} // namespace wsl

#endif // WSL_GPU_STAGING_HH
