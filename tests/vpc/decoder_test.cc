/**
 * @file
 * Tests for VPC decoding and distribution (Fig. 14).
 */

#include <gtest/gtest.h>

#include "vpc/decoder.hh"

namespace streampim
{
namespace
{

struct Fixture
{
    RmParams rm;
    AddressMap map{rm};
    VpcDecoder decoder{rm, map};
};

TEST(VpcDecoder, SingleSubarrayVpcIsOneCommand)
{
    Fixture f;
    // Everything inside subarray 0 of bank 0.
    Vpc vpc{VpcKind::Mul, 0, 4096, 8192, 100};
    std::vector<BankCommand> cmds;
    f.decoder.decodeInto(vpc, cmds);
    ASSERT_EQ(cmds.size(), 1u);
    EXPECT_EQ(cmds[0].kind, BankCommandKind::ExecuteInBank);
    EXPECT_EQ(cmds[0].bank, 0u);
    EXPECT_EQ(cmds[0].op, VpcKind::Mul);
}

TEST(VpcDecoder, RemoteOperandAddsReadCommand)
{
    Fixture f;
    Vpc vpc{VpcKind::Add, 0, f.rm.bytesPerBank() /* bank 1 */, 64,
            32};
    std::vector<BankCommand> cmds;
    f.decoder.decodeInto(vpc, cmds);
    ASSERT_EQ(cmds.size(), 2u);
    EXPECT_EQ(cmds[0].kind, BankCommandKind::ReadBlock);
    EXPECT_EQ(cmds[0].bank, 1u);
    EXPECT_EQ(cmds[1].kind, BankCommandKind::ExecuteInBank);
    EXPECT_EQ(cmds[1].bank, 0u);
}

TEST(VpcDecoder, RemoteDestinationAddsWriteCommand)
{
    Fixture f;
    Vpc vpc{VpcKind::Mul, 0, 64, 2 * f.rm.bytesPerBank(), 16};
    std::vector<BankCommand> cmds;
    f.decoder.decodeInto(vpc, cmds);
    ASSERT_EQ(cmds.size(), 2u);
    EXPECT_EQ(cmds[0].kind, BankCommandKind::ExecuteInBank);
    EXPECT_EQ(cmds[1].kind, BankCommandKind::WriteBlock);
    EXPECT_EQ(cmds[1].bank, 2u);
    // A dot product stores one 32-bit accumulator.
    EXPECT_EQ(cmds[1].bytes, 4u);
}

TEST(VpcDecoder, NonDotResultsAreFullVectors)
{
    Fixture f;
    Vpc vpc{VpcKind::Add, 0, 64, 2 * f.rm.bytesPerBank(), 16};
    std::vector<BankCommand> cmds;
    f.decoder.decodeInto(vpc, cmds);
    EXPECT_EQ(cmds.back().bytes, 16u);
}

TEST(VpcDecoder, TranIsReadPlusWrite)
{
    Fixture f;
    Vpc vpc{VpcKind::Tran, 0, 0, f.rm.bytesPerBank(), 128};
    std::vector<BankCommand> cmds;
    f.decoder.decodeInto(vpc, cmds);
    ASSERT_EQ(cmds.size(), 2u);
    EXPECT_EQ(cmds[0].kind, BankCommandKind::ReadBlock);
    EXPECT_EQ(cmds[1].kind, BankCommandKind::WriteBlock);
    EXPECT_EQ(cmds[1].bank, 1u);
}

TEST(VpcDecoder, ExecutingBankFollowsSrc1)
{
    Fixture f;
    Vpc vpc{VpcKind::Mul, 5 * f.rm.bytesPerBank(), 0, 0, 8};
    EXPECT_EQ(f.decoder.executingBank(vpc), 5u);
}

TEST(VpcDecoder, ExpandExecuteFollowsFig13)
{
    Fixture f;
    BankCommand cmd{BankCommandKind::ExecuteInBank, 0, 0, 0, 50,
                    VpcKind::Mul};
    auto ops = f.decoder.expand(cmd);
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[0].kind, SubarrayOpKind::StreamIn);
    EXPECT_EQ(ops[0].elements, 100u); // two operand streams
    EXPECT_EQ(ops[1].kind, SubarrayOpKind::Compute);
    EXPECT_EQ(ops[1].elements, 50u);
    EXPECT_EQ(ops[2].kind, SubarrayOpKind::StreamOut);
    EXPECT_EQ(ops[2].elements, 4u); // one 32-bit scalar out
}

TEST(VpcDecoder, ExpandSmulStreamsOneOperand)
{
    Fixture f;
    BankCommand cmd{BankCommandKind::ExecuteInBank, 0, 0, 0, 50,
                    VpcKind::Smul};
    auto ops = f.decoder.expand(cmd);
    EXPECT_EQ(ops[0].elements, 50u);
    EXPECT_EQ(ops[2].elements, 50u);
}

TEST(VpcDecoder, ExpandReadWriteArePortOps)
{
    Fixture f;
    BankCommand rd{BankCommandKind::ReadBlock, 0, 0, 0, 64,
                   VpcKind::Tran};
    auto ops = f.decoder.expand(rd);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].kind, SubarrayOpKind::PortRead);
    BankCommand wr{BankCommandKind::WriteBlock, 0, 0, 0, 64,
                   VpcKind::Tran};
    EXPECT_EQ(f.decoder.expand(wr)[0].kind,
              SubarrayOpKind::PortWrite);
}

TEST(VpcDecoderDeath, ZeroSizePanics)
{
    Fixture f;
    Vpc vpc{VpcKind::Mul, 0, 0, 0, 0};
    std::vector<BankCommand> cmds;
    EXPECT_DEATH(f.decoder.decodeInto(vpc, cmds), "zero-size");
}

} // namespace
} // namespace streampim
