/**
 * @file
 * ConflictGraph: the dependency DAG behind the parallel functional
 * VPC engine.
 *
 * The functional StreamPimSystem drains its VPC queue as one batch.
 * Each VPC touches a set of subarrays — the executing subarray plus
 * every subarray its remote-operand staging, store-out or TRAN
 * transfer reads or writes — encoded as a 64-bit resource mask (the
 * functional geometry is capped at 64 subarrays; streams over wider
 * resource sets use the multi-word constructor). Two VPCs conflict
 * exactly when their masks intersect: they would drive the same
 * mats, wear counters and fault-injector RNG stream, so they must
 * execute in submit order. Non-conflicting VPCs commute: every
 * per-subarray structure still sees exactly its own subarray-local
 * subsequence of the batch, which is what makes parallel execution
 * byte-identical to serial execution.
 *
 * The graph is built with one pass over the stream: each task
 * depends on the latest earlier task touching any of its resources.
 * The rules of Sec. IV fall out of the masks alone:
 *  - same-subarray VPCs chain in submit order (shared exec bit);
 *  - TRAN VPCs carry both their source and destination subarray
 *    ranges, so they order against producers of the source and
 *    consumers of the destination (src -> dst edges);
 *  - a host-level read/write modeled as a task would carry the full
 *    mask of its address range — a mask of ~0 acts as a barrier.
 *    (StreamPimSystem needs no such node today: its host API is
 *    only legal between processQueueInto() calls, which are natural
 *    barriers.)
 */

#ifndef STREAMPIM_RUNTIME_CONFLICT_GRAPH_HH_
#define STREAMPIM_RUNTIME_CONFLICT_GRAPH_HH_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace streampim
{

/** Dependency DAG over an ordered task stream of resource masks. */
class ConflictGraph
{
  public:
    /**
     * Build the graph of @p masks (one task per element, stream
     * order). Task i depends on the latest j < i with
     * masks[j] & masks[i] != 0, once per such j.
     */
    explicit ConflictGraph(std::span<const std::uint64_t> masks);

    /**
     * Wide-mask overload for streams over more than 64 resources:
     * each task's mask is @p words_per_task consecutive words of
     * @p words (task i's bit for resource r is word i *
     * words_per_task + r / 64, bit r % 64). @p words must be an
     * exact multiple of @p words_per_task. With words_per_task = 1
     * this is exactly the single-word constructor.
     */
    ConflictGraph(std::span<const std::uint64_t> words,
                  std::size_t words_per_task);

    std::size_t size() const { return nodes_.size(); }

    /** Number of direct dependencies of task @p i. */
    std::uint32_t
    predecessors(std::size_t i) const
    {
        return nodes_[i].preds;
    }

    /** Tasks directly unblocked by task @p i, in stream order. */
    const std::vector<std::uint32_t> &
    successors(std::size_t i) const
    {
        return nodes_[i].succs;
    }

    /** Dependency-free tasks, in stream order. */
    const std::vector<std::uint32_t> &roots() const { return roots_; }

    /** Total direct-dependency edges. */
    std::uint64_t edges() const { return edges_; }

  private:
    struct Node
    {
        std::uint32_t preds = 0;
        std::vector<std::uint32_t> succs;
    };

    std::vector<Node> nodes_;
    std::vector<std::uint32_t> roots_;
    std::uint64_t edges_ = 0;
};

} // namespace streampim

#endif // STREAMPIM_RUNTIME_CONFLICT_GRAPH_HH_
