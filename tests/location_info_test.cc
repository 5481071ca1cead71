/**
 * @file
 * Tests for the D2M Location Information encoding (paper Table I),
 * including the near-side reinterpretation (Section IV-B). These
 * verify the exact bit patterns the paper specifies and the encode/
 * decode round trip over the full 6-bit space.
 */

#include <gtest/gtest.h>

#include "d2m/location_info.hh"

namespace d2m
{
namespace
{

/** The code of a system with @p nodes nodes and the default 32-way
 * LLC, near-side when @p near_side. */
LiCodec
codecFor(unsigned nodes, bool near_side)
{
    SystemParams p;
    p.numNodes = nodes;
    p.nearSideLlc = near_side;
    return LiCodec(p);
}

TEST(LocationInfo, TableIEncodingsFarSide)
{
    // Far side: 8 nodes, 1 slice of 32 ways (paper Figure 2).
    LiCodec codec = codecFor(8, false);

    // 000NNN: in NodeID NNN.
    EXPECT_EQ(codec.encode(LocationInfo::inNode(0)), 0x00);
    EXPECT_EQ(codec.encode(LocationInfo::inNode(5)), 0x05);
    // 001WWW: in L1, way WWW.
    EXPECT_EQ(codec.encode(LocationInfo::inL1(0)), 0x08);
    EXPECT_EQ(codec.encode(LocationInfo::inL1(7)), 0x0f);
    // 010WWW: in L2, way WWW.
    EXPECT_EQ(codec.encode(LocationInfo::inL2(3)), 0x13);
    // 011SSS: symbols; MEM is one of them.
    EXPECT_EQ(codec.encode(LocationInfo::mem()), 0x18);
    // 1WWWWW: in LLC, way WWWWW.
    EXPECT_EQ(codec.encode(LocationInfo::inLlc(0, 0)), 0x20);
    EXPECT_EQ(codec.encode(LocationInfo::inLlc(0, 31)), 0x3f);
}

TEST(LocationInfo, NearSideReinterpretation)
{
    // NS-LLC with 8 nodes: 1NNNWW (8 slices x 4 ways, Section IV-B).
    LiCodec codec = codecFor(8, true);
    EXPECT_EQ(codec.encode(LocationInfo::inLlc(0, 0)), 0x20);
    EXPECT_EQ(codec.encode(LocationInfo::inLlc(7, 3)), 0x3f);
    EXPECT_EQ(codec.encode(LocationInfo::inLlc(2, 1)), 0x20 | (2 << 2) | 1);

    const LocationInfo li = codec.decode(0x20 | (5 << 2) | 2);
    EXPECT_EQ(li.kind, LiKind::Llc);
    EXPECT_EQ(li.node, 5);
    EXPECT_EQ(li.way, 2);
}

TEST(LocationInfo, NearSideFourNodes)
{
    // 4 nodes x 8 ways: 1NNWWW (total still 32 ways).
    LiCodec codec = codecFor(4, true);
    EXPECT_EQ(codec.encode(LocationInfo::inLlc(3, 7)), 0x3f);
    const LocationInfo li = codec.decode(0x20 | (1 << 3) | 6);
    EXPECT_EQ(li.kind, LiKind::Llc);
    EXPECT_EQ(li.node, 1);
    EXPECT_EQ(li.way, 6);
}

TEST(LocationInfo, SixBitsOnly)
{
    // The paper: 6 LI bits vs ~30-bit address tags.
    EXPECT_EQ(LiCodec::bitsPerLi(), 6u);
    LiCodec codec = codecFor(8, false);
    for (const auto &li :
         {LocationInfo::inNode(7), LocationInfo::inL1(7),
          LocationInfo::inL2(7), LocationInfo::mem(),
          LocationInfo::invalid(), LocationInfo::inLlc(0, 31)}) {
        EXPECT_LT(codec.encode(li), 64) << "encoding exceeds 6 bits";
    }
}

class CodecRoundTrip : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CodecRoundTrip, DecodeEncodeIdentity)
{
    // Every decodable 6-bit pattern must re-encode to itself (modulo
    // unused symbol codes, which normalize to the INVALID symbol).
    const LiCodec fs = codecFor(8, false);
    const LiCodec ns = codecFor(8, true);
    for (const LiCodec *codec : {&fs, &ns}) {
        const std::uint8_t code = static_cast<std::uint8_t>(GetParam());
        const LocationInfo li = codec->decode(code);
        const std::uint8_t re = codec->encode(li);
        if ((code >> 3) == 0x3 && (code & 0x7) > 1) {
            // Unused symbols normalize to INVALID (011 001).
            EXPECT_EQ(re, 0x19);
        } else {
            EXPECT_EQ(re, code);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(All64Codes, CodecRoundTrip,
                         ::testing::Range(0u, 64u));

TEST(LocationInfo, EncodeDecodeAllLocations)
{
    LiCodec codec = codecFor(4, true);
    for (unsigned n = 0; n < 4; ++n) {
        for (unsigned w = 0; w < 8; ++w) {
            const auto llc = LocationInfo::inLlc(n, w);
            EXPECT_EQ(codec.decode(codec.encode(llc)), llc);
            const auto node = LocationInfo::inNode(n);
            EXPECT_EQ(codec.decode(codec.encode(node)), node);
            const auto l1 = LocationInfo::inL1(w);
            EXPECT_EQ(codec.decode(codec.encode(l1)), l1);
        }
    }
    EXPECT_EQ(codec.decode(codec.encode(LocationInfo::mem())),
              LocationInfo::mem());
    EXPECT_EQ(codec.decode(codec.encode(LocationInfo::invalid())),
              LocationInfo::invalid());
}

TEST(LocationInfo, Predicates)
{
    EXPECT_TRUE(LocationInfo::invalid().isInvalid());
    EXPECT_TRUE(LocationInfo::mem().isMem());
    EXPECT_TRUE(LocationInfo::inL1(0).isLocalCache());
    EXPECT_TRUE(LocationInfo::inL2(0).isLocalCache());
    EXPECT_FALSE(LocationInfo::inLlc(0, 0).isLocalCache());
    EXPECT_FALSE(LocationInfo::inNode(0).isLocalCache());
}

TEST(LiEncoding, NamesTheLimitThatIsExceeded)
{
    SystemParams p;
    EXPECT_EQ(liEncodingError(p), "");
    p.numNodes = 16;
    EXPECT_EQ(liEncodingError(p),
              "LI encoding supports at most 8 nodes, not 16");

    // 001WWW and 010WWW hold three way bits (Table I).
    p = SystemParams{};
    p.l1i.assoc = 16;
    EXPECT_EQ(liEncodingError(p),
              "LI encoding supports at most 8 L1-I ways, not 16");
    p = SystemParams{};
    p.l1d.assoc = 16;
    EXPECT_EQ(liEncodingError(p),
              "LI encoding supports at most 8 L1-D ways, not 16");
    p = SystemParams{};
    p.l2.assoc = 16;  // no L2 (sizeBytes 0): nothing to encode
    EXPECT_EQ(liEncodingError(p), "");
    p.l2.sizeBytes = 256 * 1024;
    EXPECT_EQ(liEncodingError(p),
              "LI encoding supports at most 8 L2 ways, not 16");

    p = SystemParams{};
    p.llc.assoc = 64;
    EXPECT_EQ(liEncodingError(p),
              "LI encoding supports at most 32 total LLC ways, not 64");
}

TEST(LiEncodingDeathTest, CodecRejectsSixteenWayL1)
{
    SystemParams p;
    p.l1d.assoc = 16;
    EXPECT_EXIT(LiCodec{p}, testing::ExitedWithCode(1),
                "at most 8 L1-D ways, not 16");
}

} // namespace
} // namespace d2m
