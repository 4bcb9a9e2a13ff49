#include "vpc/decoder.hh"

#include "common/log.hh"

namespace streampim
{

unsigned
VpcDecoder::executingBank(const Vpc &vpc) const
{
    return map_.decode(vpc.src1).bank;
}

void
VpcDecoder::decodeInto(const Vpc &vpc,
                       std::vector<BankCommand> &cmds) const
{
    SPIM_ASSERT(vpc.size > 0, "zero-size VPC");
    cmds.clear();

    const auto src1 = map_.decode(vpc.src1);
    const unsigned exec_bank = src1.bank;
    const unsigned exec_subarray = src1.subarray;

    if (vpc.kind == VpcKind::Tran) {
        // Pure data movement: a read at the source and a write at
        // the destination.
        const auto dst = map_.decode(vpc.dst);
        cmds.push_back({BankCommandKind::ReadBlock, src1.bank,
                        src1.subarray, vpc.src1, vpc.size,
                        VpcKind::Tran});
        cmds.push_back({BankCommandKind::WriteBlock, dst.bank,
                        dst.subarray, vpc.dst, vpc.size,
                        VpcKind::Tran});
        return;
    }

    // Operand collection: any operand outside the executing bank is
    // fetched with read commands (Sec. IV-B).
    const auto src2 = map_.decode(vpc.src2);
    if (src2.bank != exec_bank || src2.subarray != exec_subarray) {
        cmds.push_back({BankCommandKind::ReadBlock, src2.bank,
                        src2.subarray, vpc.src2, vpc.size,
                        vpc.kind});
    }

    // The arithmetic itself.
    cmds.push_back({BankCommandKind::ExecuteInBank, exec_bank,
                    exec_subarray, vpc.src1, vpc.size, vpc.kind});

    // Result store-out if the destination lives elsewhere. A dot
    // product emits one accumulator word; the other ops emit one
    // result per element.
    const auto dst = map_.decode(vpc.dst);
    if (dst.bank != exec_bank || dst.subarray != exec_subarray) {
        const std::uint32_t result_bytes =
            vpc.kind == VpcKind::Mul ? kAccumulatorBits / 8
                                     : vpc.size;
        cmds.push_back({BankCommandKind::WriteBlock, dst.bank,
                        dst.subarray, vpc.dst, result_bytes,
                        vpc.kind});
    }
}

std::vector<SubarrayOp>
VpcDecoder::expand(const BankCommand &cmd) const
{
    std::vector<SubarrayOp> ops;
    switch (cmd.kind) {
      case BankCommandKind::ReadBlock:
        ops.push_back({SubarrayOpKind::PortRead, cmd.bytes,
                       VpcKind::Tran});
        break;
      case BankCommandKind::WriteBlock:
        ops.push_back({SubarrayOpKind::PortWrite, cmd.bytes,
                       VpcKind::Tran});
        break;
      case BankCommandKind::ExecuteInBank: {
        // Fig. 13: (1)-(2) operands stream from mats over the RM
        // bus into the processor, (3) the pipeline computes, (4)-(5)
        // results stream back to the destination mat.
        const std::uint32_t n = cmd.bytes;
        const unsigned operand_streams =
            cmd.op == VpcKind::Smul ? 1 : 2;
        ops.push_back({SubarrayOpKind::StreamIn,
                       n * operand_streams, cmd.op});
        ops.push_back({SubarrayOpKind::Compute, n, cmd.op});
        const std::uint32_t out =
            cmd.op == VpcKind::Mul ? kAccumulatorBits / 8 : n;
        ops.push_back({SubarrayOpKind::StreamOut, out, cmd.op});
        break;
      }
    }
    return ops;
}

} // namespace streampim
