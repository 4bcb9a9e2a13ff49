/**
 * @file
 * The RM processor: a matrix processor built entirely from
 * domain-wall nanowires (Sec. III-C, Fig. 11).
 *
 * This is the bit-accurate functional model, assembled from the
 * dwlogic components exactly as the paper describes:
 *
 *   duplicators (Fan-Out + diode) -> multiplier (AND partial
 *   products) -> adder tree -> circle adder.
 *
 * It computes real values (used by tests, the examples, and the
 * functional mode of the runtime) and counts every gate/shift/cycle
 * so the closed-form ProcessorTiming model can be validated against
 * it. The timed architecture simulation uses ProcessorTiming, not
 * this class, for speed.
 */

#ifndef STREAMPIM_PROCESSOR_RM_PROCESSOR_HH_
#define STREAMPIM_PROCESSOR_RM_PROCESSOR_HH_

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"
#include "dwlogic/circle_adder.hh"
#include "dwlogic/duplicator.hh"
#include "dwlogic/multiplier.hh"
#include "processor/timing.hh"
#include "rm/energy.hh"
#include "rm/params.hh"

namespace streampim
{

class FaultInjector;

/** Result of one functional processor operation. */
struct ProcessorResult
{
    std::vector<std::uint32_t> values; //!< result vector (or 1 scalar)
    Cycle cycles;                      //!< pipeline cycles consumed
    bool overflow;                     //!< any accumulator overflow
};

/** Bit-accurate model of one in-subarray RM processor. */
class RmProcessor
{
  public:
    RmProcessor(const RmParams &params, EnergyMeter &meter);

    /**
     * Vector dot product: sum_i a[i]*b[i] (MUL VPC).
     * Operands are 8-bit; the result is the 32-bit accumulator.
     *
     * In the packed mode the whole pipeline reduces to a
     * closed-form integer recurrence with one batched counter
     * commit per call; STREAMPIM_STRICT_GATES walks the full
     * component netlist. Values, counters, cycles and energy are
     * identical in both modes.
     *
     * Every field of @p res is overwritten; its values storage is
     * reused (allocation-free once warm). The same holds for the
     * other two operations.
     */
    void dotProductInto(std::span<const std::uint8_t> a,
                        std::span<const std::uint8_t> b,
                        ProcessorResult &res);

    /**
     * Scalar-vector multiplication: scalar * v (SMUL VPC).
     * Products are truncated to 8 bits for storage back into mats,
     * after the runtime's fixed-point convention; the full 16-bit
     * products are returned in @p res.
     */
    void scalarVectorMulInto(std::uint8_t scalar,
                             std::span<const std::uint8_t> v,
                             ProcessorResult &res);

    /**
     * Element-wise vector addition (ADD VPC); the 9-bit sums are
     * returned in @p res.
     */
    void vectorAddInto(std::span<const std::uint8_t> a,
                       std::span<const std::uint8_t> b,
                       ProcessorResult &res);

    /** Cumulative logic-activity counters across all operations. */
    const LogicCounters &counters() const { return counters_; }

    const ProcessorTiming &timing() const { return timing_; }

    /**
     * Attach a shift-fault injector: every operand element streamed
     * into the processor rides one fallible shift pulse. The ingest
     * port is an exact checkpoint (misalignment is visible in the
     * sensed bit-train) with budget-bounded fallible realignment;
     * a failed recovery escalates the VPC through the injector and
     * the element arrives bit-displaced. Compensating shifts add
     * pipeline cycles to the operation's result.
     */
    void setFaultInjector(FaultInjector *faults) { faults_ = faults; }

  private:
    /** Cycles spent duplicating one operand's replicas. */
    Cycle duplicationCycles() const;

    /**
     * Stream one operand element through the fallible ingest pulse;
     * returns the (possibly bit-displaced) value that reaches the
     * logic.
     */
    std::uint8_t ingestOperand(std::uint8_t value);

    const RmParams &params_;
    ProcessorTiming timing_;
    LogicCounters counters_;
    RmEnergyModel energy_;
    FaultInjector *faults_ = nullptr;

    /** One duplicator object per hardware duplicator (Table III). */
    std::vector<Duplicator> duplicators_;
    DwMultiplier multiplier_;
    CircleAdder circleAdder_;
};

} // namespace streampim

#endif // STREAMPIM_PROCESSOR_RM_PROCESSOR_HH_
