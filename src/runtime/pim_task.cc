#include "runtime/pim_task.hh"

#include <span>

#include "common/log.hh"
#include "processor/rm_processor.hh"

namespace streampim
{

PimTask::PimTask(SystemConfig config)
    : cfg_(config), planner_(cfg_), executor_(cfg_)
{
    graph_.name = "pim_task";
}

PimMatrix
PimTask::addMatrix(std::uint8_t *data, std::uint32_t rows,
                   std::uint32_t cols)
{
    SPIM_ASSERT(!ran_, "addMatrix after run()");
    SPIM_ASSERT(data != nullptr, "null matrix buffer");
    MatrixId id = graph_.addMatrix(
        "m" + std::to_string(graph_.matrices.size()), rows, cols);
    operands_.push_back({data});
    return {id};
}

void
PimTask::addOperation(MatOpKind kind, PimMatrix a, PimMatrix b,
                      PimMatrix c)
{
    SPIM_ASSERT(!ran_, "addOperation after run()");
    SPIM_ASSERT(kind != MatOpKind::Scale,
                "use addScale for scalar multiplication");
    graph_.addOp(kind, a.id, b.id, c.id);
}

void
PimTask::addScale(std::uint8_t alpha, PimMatrix a, PimMatrix c)
{
    SPIM_ASSERT(!ran_, "addScale after run()");
    graph_.addOp(MatOpKind::Scale, a.id, a.id, c.id);
    scales_.push_back({graph_.ops.size() - 1, alpha});
}

void
PimTask::computeOp(const MatrixOp &op, std::uint8_t alpha)
{
    const MatrixDesc &da = graph_.matrices[op.a];
    const std::uint8_t *pa = operands_[op.a].data;
    std::uint8_t *pc = operands_[op.c].data;

    // Pick the bit-accurate path for small problems.
    const bool bit_accurate =
        graph_.totalMacs() <= bitLimit_;
    EnergyMeter scratch_meter;
    RmProcessor proc(cfg_.rm, scratch_meter);
    ProcessorResult res;

    switch (op.kind) {
      case MatOpKind::MatMul: {
        const MatrixDesc &db = graph_.matrices[op.b];
        const std::uint8_t *pb = operands_[op.b].data;
        const unsigned I = da.rows, K = da.cols, J = db.cols;
        std::vector<std::uint8_t> col(K);
        for (unsigned j = 0; j < J; ++j) {
            for (unsigned k = 0; k < K; ++k)
                col[k] = pb[std::size_t(k) * J + j];
            for (unsigned i = 0; i < I; ++i) {
                const std::uint8_t *row = pa + std::size_t(i) * K;
                std::uint32_t acc;
                if (bit_accurate) {
                    proc.dotProductInto(
                        std::span<const std::uint8_t>(row, K),
                        std::span<const std::uint8_t>(col.data(), K),
                        res);
                    acc = res.values[0];
                } else {
                    acc = 0;
                    for (unsigned k = 0; k < K; ++k)
                        acc += std::uint32_t(row[k]) * col[k];
                }
                pc[std::size_t(i) * J + j] = std::uint8_t(acc);
            }
        }
        break;
      }
      case MatOpKind::MatVec:
      case MatOpKind::MatVecT: {
        const MatrixDesc &db = graph_.matrices[op.b];
        const std::uint8_t *pb = operands_[op.b].data;
        const bool t = op.kind == MatOpKind::MatVecT;
        const unsigned rows = t ? da.cols : da.rows;
        const unsigned k = t ? da.rows : da.cols;
        SPIM_ASSERT(db.rows == k, "matvec shape");
        std::vector<std::uint8_t> vec(k);
        for (unsigned i = 0; i < rows; ++i) {
            for (unsigned x = 0; x < k; ++x)
                vec[x] = t ? pa[std::size_t(x) * da.cols + i]
                           : pa[std::size_t(i) * da.cols + x];
            std::uint32_t acc;
            if (bit_accurate) {
                proc.dotProductInto(
                    std::span<const std::uint8_t>(vec.data(), k),
                    std::span<const std::uint8_t>(pb, k), res);
                acc = res.values[0];
            } else {
                acc = 0;
                for (unsigned x = 0; x < k; ++x)
                    acc += std::uint32_t(vec[x]) * pb[x];
            }
            pc[i] = std::uint8_t(acc);
        }
        break;
      }
      case MatOpKind::MatAdd: {
        const std::uint8_t *pb = operands_[op.b].data;
        const std::uint64_t n = da.elements();
        if (bit_accurate) {
            proc.vectorAddInto(std::span<const std::uint8_t>(pa, n),
                               std::span<const std::uint8_t>(pb, n),
                               res);
            for (std::uint64_t i = 0; i < n; ++i)
                pc[i] = std::uint8_t(res.values[i]);
        } else {
            for (std::uint64_t i = 0; i < n; ++i)
                pc[i] = std::uint8_t(pa[i] + pb[i]);
        }
        break;
      }
      case MatOpKind::Scale: {
        const std::uint64_t n = da.elements();
        if (bit_accurate) {
            proc.scalarVectorMulInto(
                alpha, std::span<const std::uint8_t>(pa, n), res);
            for (std::uint64_t i = 0; i < n; ++i)
                pc[i] = std::uint8_t(res.values[i]);
        } else {
            for (std::uint64_t i = 0; i < n; ++i)
                pc[i] = std::uint8_t(std::uint32_t(alpha) * pa[i]);
        }
        break;
      }
      case MatOpKind::Nonlinear:
        // Host-side; out of scope for the device task.
        break;
    }
}

void
PimTask::computeFunctional()
{
    for (std::size_t i = 0; i < graph_.ops.size(); ++i) {
        std::uint8_t alpha = 1;
        for (const auto &s : scales_)
            if (s.opIndex == i)
                alpha = s.alpha;
        computeOp(graph_.ops[i], alpha);
    }
}

ExecutionReport
PimTask::run()
{
    SPIM_ASSERT(!ran_, "a task runs once (Fig. 16 semantics)");
    ran_ = true;

    computeFunctional();

    VpcSchedule schedule = planner_.plan(graph_);
    planStats_ = planner_.stats();
    return executor_.run(schedule);
}

} // namespace streampim
