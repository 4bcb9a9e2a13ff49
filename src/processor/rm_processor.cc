#include "processor/rm_processor.hh"

#include "common/log.hh"
#include "dwlogic/mode.hh"
#include "rm/fault_injector.hh"

namespace streampim
{

namespace
{

/**
 * Per-element closed-form counter deltas of the three vector ops —
 * the composition of the component deltas exactly as the pipeline
 * invokes them (kOperandBits duplications + one replica multiply
 * per element, plus the circle-adder step of the op). The packed
 * paths below accumulate these in registers and commit once per
 * call; the fast-path equivalence tests pin them against the
 * NAND-by-NAND netlist.
 */
constexpr LogicCounters
dotElementDelta()
{
    LogicCounters d{};
    d.addScaled(Duplicator::duplicateDelta(kOperandBits),
                kOperandBits);
    d += DwMultiplier::multiplyReplicasDelta(kOperandBits);
    d += CircleAdder::accumulateDelta(kAccumulatorBits);
    return d;
}

constexpr LogicCounters
smulElementDelta()
{
    LogicCounters d{};
    d.addScaled(Duplicator::duplicateDelta(kOperandBits),
                kOperandBits);
    d += DwMultiplier::multiplyReplicasDelta(kOperandBits);
    return d;
}

constexpr LogicCounters
addElementDelta()
{
    return CircleAdder::addScalarsDelta(kAccumulatorBits);
}

constexpr LogicCounters kDotElementDelta = dotElementDelta();
constexpr LogicCounters kSmulElementDelta = smulElementDelta();
constexpr LogicCounters kAddElementDelta = addElementDelta();

} // namespace

RmProcessor::RmProcessor(const RmParams &params, EnergyMeter &meter)
    : params_(params), timing_(params), energy_(params, meter),
      multiplier_(kOperandBits, counters_),
      circleAdder_(kAccumulatorBits, counters_)
{
    duplicators_.reserve(params_.duplicators);
    for (unsigned i = 0; i < params_.duplicators; ++i)
        duplicators_.emplace_back(kOperandBits, counters_);
}

Cycle
RmProcessor::duplicationCycles() const
{
    return timing_.multiplyII();
}

std::uint8_t
RmProcessor::ingestOperand(std::uint8_t value)
{
    if (!faults_ || !faults_->enabled())
        return value;
    int disp = 0;
    switch (faults_->samplePulse(1)) {
      case ShiftOutcome::Exact:
        break;
      case ShiftOutcome::OverShift:
        disp = 1;
        break;
      case ShiftOutcome::UnderShift:
        disp = -1;
        break;
    }
    // Ingest checkpoint: the operand's bit-train is sensed as it
    // enters the duplicators, so misalignment detection is exact;
    // recovery is fallible and budget-bounded.
    faults_->noteCheckpointCheck();
    if (disp != 0)
        disp = realignEpisode(*faults_, disp);
    if (disp > 0)
        return std::uint8_t(value << disp);
    if (disp < 0)
        return std::uint8_t(value >> -disp);
    return value;
}

void
RmProcessor::dotProductInto(std::span<const std::uint8_t> a,
                            std::span<const std::uint8_t> b,
                            ProcessorResult &res)
{
    SPIM_ASSERT(a.size() == b.size(),
                "dot product operand length mismatch: ", a.size(),
                " vs ", b.size());

    circleAdder_.clear();
    res.values.clear();

    const std::uint64_t shifts_before =
        faults_ ? faults_->stats().correctionShifts : 0;

    if (!strictGates()) {
        // Closed-form packed path: the duplicator/multiplier/adder-
        // tree/circle-adder pipeline reduces per element to one
        // integer multiply-accumulate mod 2^kAccumulatorBits with a
        // sticky carry. Operand ingest (fault sampling, in element
        // order) and the per-element energy quanta stay exactly as
        // the netlist performs them; the logic counters accumulate
        // as one per-element delta committed once per call.
        constexpr std::uint64_t acc_mask =
            (std::uint64_t(1) << kAccumulatorBits) - 1;
        std::uint64_t acc = 0;
        bool ovf = false;
        for (std::size_t i = 0; i < a.size(); ++i) {
            const std::uint8_t ai = ingestOperand(a[i]);
            const std::uint8_t bi = ingestOperand(b[i]);
            acc += std::uint64_t(ai) * bi;
            if (acc > acc_mask) {
                ovf = true;
                acc &= acc_mask;
            }
            energy_.pimMul();
            energy_.pimAdd();
        }
        counters_.addScaled(kDotElementDelta, a.size());
        circleAdder_.install(acc, a.size(), ovf);
    } else {
        for (std::size_t i = 0; i < a.size(); ++i) {
            const std::uint8_t ai = ingestOperand(a[i]);
            const std::uint8_t bi = ingestOperand(b[i]);
            // Stage 1+2: the first operand enters the duplicators.
            // The hardware duplicators split the replica workload;
            // we use round-robin objects for the bit-accurate path
            // (the counts are identical for any assignment).
            std::vector<BitVec> replicas;
            replicas.reserve(kOperandBits);
            for (unsigned r = 0; r < kOperandBits; ++r) {
                Duplicator &dup =
                    duplicators_[r % duplicators_.size()];
                dup.load(BitVec::fromWord(ai, kOperandBits));
                replicas.push_back(dup.duplicate());
                dup.unload();
            }

            // Stage 2: partial products, Stage 3: adder tree.
            BitVec product = multiplier_.multiplyReplicas(
                replicas, BitVec::fromWord(bi, kOperandBits));

            // Stage 4: circle adder accumulation.
            circleAdder_.accumulate(product);

            energy_.pimMul();
            energy_.pimAdd();
        }
    }

    res.values.push_back(
        std::uint32_t(circleAdder_.accumulatorWord()));
    res.cycles = timing_.dotProductCycles(a.size());
    // Every compensating realignment shift stalls the pipeline one
    // cycle.
    if (faults_)
        res.cycles +=
            Cycle(faults_->stats().correctionShifts - shifts_before);
    res.overflow = circleAdder_.overflowed();
}

void
RmProcessor::scalarVectorMulInto(std::uint8_t scalar,
                                 std::span<const std::uint8_t> v,
                                 ProcessorResult &res)
{
    res.values.clear();
    res.values.reserve(v.size());
    res.overflow = false;

    const std::uint64_t shifts_before =
        faults_ ? faults_->stats().correctionShifts : 0;
    // The scalar streams into the duplicators once per operation.
    const std::uint8_t s = ingestOperand(scalar);

    if (!strictGates()) {
        // Closed-form packed path: each product is exact in
        // kProductBits, so the pipeline reduces to one integer
        // multiply per element.
        for (std::size_t i = 0; i < v.size(); ++i) {
            const std::uint8_t vi = ingestOperand(v[i]);
            res.values.push_back(std::uint32_t(unsigned(s) * vi));
            energy_.pimMul();
        }
        counters_.addScaled(kSmulElementDelta, v.size());
    } else {
        for (std::size_t i = 0; i < v.size(); ++i) {
            const std::uint8_t vi = ingestOperand(v[i]);
            std::vector<BitVec> replicas;
            replicas.reserve(kOperandBits);
            for (unsigned r = 0; r < kOperandBits; ++r) {
                Duplicator &dup =
                    duplicators_[r % duplicators_.size()];
                dup.load(BitVec::fromWord(s, kOperandBits));
                replicas.push_back(dup.duplicate());
                dup.unload();
            }
            BitVec product = multiplier_.multiplyReplicas(
                replicas, BitVec::fromWord(vi, kOperandBits));
            res.values.push_back(std::uint32_t(product.toWord()));
            energy_.pimMul();
        }
    }

    res.cycles = timing_.scalarVectorMulCycles(v.size());
    if (faults_)
        res.cycles +=
            Cycle(faults_->stats().correctionShifts - shifts_before);
}

void
RmProcessor::vectorAddInto(std::span<const std::uint8_t> a,
                           std::span<const std::uint8_t> b,
                           ProcessorResult &res)
{
    SPIM_ASSERT(a.size() == b.size(),
                "vector add operand length mismatch: ", a.size(),
                " vs ", b.size());

    res.values.clear();
    res.values.reserve(a.size());
    res.overflow = false;

    const std::uint64_t shifts_before =
        faults_ ? faults_->stats().correctionShifts : 0;

    // The second operand streams into the adder first — the order
    // is pinned explicitly (it used to be the compiler's argument
    // evaluation order) so fault-campaign RNG streams stay
    // byte-identical with the historical goldens.
    if (!strictGates()) {
        constexpr std::uint32_t sum_mask =
            (std::uint32_t(1) << (kOperandBits + 1)) - 1;
        for (std::size_t i = 0; i < a.size(); ++i) {
            const std::uint8_t bi = ingestOperand(b[i]);
            const std::uint8_t ai = ingestOperand(a[i]);
            res.values.push_back(
                (std::uint32_t(ai) + bi) & sum_mask);
            energy_.pimAdd();
        }
        counters_.addScaled(kAddElementDelta, a.size());
    } else {
        for (std::size_t i = 0; i < a.size(); ++i) {
            const std::uint8_t bi = ingestOperand(b[i]);
            const std::uint8_t ai = ingestOperand(a[i]);
            // Scalar additions stream across the circle adder
            // without circulating the result (Sec. III-C).
            BitVec sum = circleAdder_.addScalars(
                BitVec::fromWord(ai, kOperandBits),
                BitVec::fromWord(bi, kOperandBits));
            sum.resize(kOperandBits + 1);
            res.values.push_back(std::uint32_t(sum.toWord()));
            energy_.pimAdd();
        }
    }

    res.cycles = timing_.vectorAddCycles(a.size());
    if (faults_)
        res.cycles +=
            Cycle(faults_->stats().correctionShifts - shifts_before);
}

} // namespace streampim
