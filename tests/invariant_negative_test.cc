/**
 * @file
 * Negative tests for the D2M invariant checker (DESIGN.md Section 6):
 * each directed corruption must make checkInvariants() fail with a
 * message naming the broken invariant. D2mTestPeer writes the damage
 * straight into the hierarchy's state, so the checker sees it raw.
 *
 *  1. Deterministic LI          -> "deterministic LI violated"
 *  2. Tracking completeness     -> "unreachable from any metadata LI"
 *  3. Single master             -> "masters"
 *  4. PB soundness              -> "PB bit set for node without MD2"
 *  5. Private exclusivity       -> "private region with multiple PB"
 *  6. Inclusion (MD2/MD3)       -> "without MD2" / "MD3"
 *     MD1 pointer               -> "MD1 entry's MD2 pointer"
 *  7. LI code (Table I)         -> "not encodable in the 6-bit LI code"
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "d2m/d2m_system.hh"
#include "harness/configs.hh"
#include "test_util.hh"

namespace d2m
{

/**
 * Directed corruption of a D2mSystem's private state (the system
 * befriends this struct). Each helper returns false when the target
 * entry does not exist.
 */
struct D2mTestPeer
{
    D2mSystem &sys;

    bool
    corruptNodeLi(NodeId node, std::uint64_t pregion, unsigned idx,
                  LocationInfo li)
    {
        Md2Entry *e2 = sys.md2For(node, pregion, /*charge_energy=*/false);
        if (!e2)
            return false;
        e2->li[idx] = li;
        return true;
    }

    bool
    corruptMd3Li(std::uint64_t pregion, unsigned idx, LocationInfo li)
    {
        Md3Entry *e3 = sys.md3_->probe(pregion);
        if (!e3)
            return false;
        e3->li[idx] = li;
        return true;
    }

    bool
    corruptPrivateBit(NodeId node, std::uint64_t pregion, bool value)
    {
        Md2Entry *e2 = sys.md2For(node, pregion, /*charge_energy=*/false);
        if (!e2)
            return false;
        e2->privateBit = value;
        return true;
    }

    /** Point the MD1 entry that caches @p pregion at the next way of
     * its MD2 set, leaving the MD2 tracking pointer as it was. */
    bool
    redirectMd1Pointer(NodeId node, std::uint64_t pregion)
    {
        Md2Entry *e2 = sys.md2For(node, pregion, /*charge_energy=*/false);
        if (!e2 || !e2->activeInMd1)
            return false;
        Md1Entry &e1 = sys.trackedMd1(node, *e2);
        e1.md2Way = (e1.md2Way + 1) % sys.nodes_[node].md2->assoc();
        return true;
    }

    bool
    corruptMd3Pb(std::uint64_t pregion, std::uint64_t xor_mask)
    {
        Md3Entry *e3 = sys.md3_->probe(pregion);
        if (!e3)
            return false;
        e3->pb ^= xor_mask;
        return true;
    }

    /** Force the master flag on every copy of @p line_addr.
     * @return copies found. */
    unsigned
    setMasterEverywhere(Addr line_addr)
    {
        std::uint32_t scramble = 0;
        if (const Md3Entry *e3 = sys.md3_->probe(sys.regionOf(line_addr)))
            scramble = e3->scramble;
        std::vector<TaglessCache *> arrays;
        for (auto &ctx : sys.nodes_) {
            arrays.push_back(ctx.l1i.get());
            arrays.push_back(ctx.l1d.get());
            if (ctx.l2)
                arrays.push_back(ctx.l2.get());
        }
        for (auto &slice : sys.llc_)
            arrays.push_back(slice.get());
        unsigned count = 0;
        for (TaglessCache *c : arrays) {
            const std::uint32_t set = c->setFor(line_addr, scramble);
            for (std::uint32_t w = 0; w < c->assoc(); ++w) {
                TaglessLine &slot = c->at(set, w);
                if (slot.valid && slot.lineAddr == line_addr) {
                    slot.master = true;
                    ++count;
                }
            }
        }
        return count;
    }

    /** Set the RP of every valid copy of @p line_addr.
     * @return copies found. */
    unsigned
    corruptRp(Addr line_addr, LocationInfo rp)
    {
        unsigned count = 0;
        for (auto &ctx : sys.nodes_) {
            for (TaglessCache *c :
                 {ctx.l1i.get(), ctx.l1d.get(), ctx.l2.get()}) {
                if (!c)
                    continue;
                c->forEachValid([&](std::uint32_t set, std::uint32_t way,
                                    const TaglessLine &line) {
                    if (line.lineAddr == line_addr) {
                        c->at(set, way).rp = rp;
                        ++count;
                    }
                });
            }
        }
        return count;
    }

    bool
    dropMd2Entry(NodeId node, std::uint64_t pregion)
    {
        Md2Entry *e2 = sys.nodes_[node].md2->probe(pregion);
        if (!e2)
            return false;
        e2->valid = false;
        return true;
    }

    bool
    dropMd3Entry(std::uint64_t pregion)
    {
        Md3Entry *e3 = sys.md3_->probe(pregion);
        if (!e3)
            return false;
        e3->valid = false;
        return true;
    }
};

namespace
{

struct Fixture
{
    std::unique_ptr<MemorySystem> owner;
    D2mSystem *sys;
    D2mTestPeer peer;

    explicit Fixture(ConfigKind kind = ConfigKind::D2mNsR)
        : owner(makeSystem(kind, SystemParams{})),
          sys(dynamic_cast<D2mSystem *>(owner.get())), peer{*sys}
    {}

    Addr
    lineAddrOf(Addr va) const
    {
        return sys->pageTable().translate(0, va) >>
               sys->params().lineShift();
    }

    unsigned
    idxOf(Addr va) const
    {
        return static_cast<unsigned>(lineAddrOf(va) &
                                     (sys->params().regionLines - 1));
    }
};

TEST(InvariantNegative, CleanSystemPasses)
{
    Fixture f;
    test::run(*f.sys, 0, test::store(0x1000, 1));
    test::run(*f.sys, 1, test::load(0x9000));
    EXPECT_EQ(test::invariantReport(*f.sys), "");
}

TEST(InvariantNegative, DeterministicLiViolated)
{
    Fixture f;
    const Addr va = 0x1000;
    test::run(*f.sys, 0, test::store(va, 1));
    // The last way of LLC slice 0 is cold after one access: the LI
    // cannot resolve.
    const unsigned last_way = f.sys->liCodec().sliceWays() - 1;
    ASSERT_TRUE(f.peer.corruptNodeLi(0, test::pregionOf(*f.sys, va),
                                     f.idxOf(va),
                                     LocationInfo::inLlc(0, last_way)));
    const std::string why = test::invariantReport(*f.sys);
    EXPECT_NE(why.find("deterministic LI violated"), std::string::npos)
        << why;
}

TEST(InvariantNegative, InvalidLiInMetadata)
{
    Fixture f;
    const Addr va = 0x1000;
    test::run(*f.sys, 0, test::store(va, 1));
    ASSERT_TRUE(f.peer.corruptNodeLi(0, test::pregionOf(*f.sys, va),
                                     f.idxOf(va), LocationInfo::invalid()));
    const std::string why = test::invariantReport(*f.sys);
    EXPECT_NE(why.find("invalid LI in node metadata"), std::string::npos)
        << why;
}

TEST(InvariantNegative, UnreachableSlotDetected)
{
    Fixture f;
    const Addr va = 0x1000;
    test::run(*f.sys, 0, test::store(va, 1));
    // Repointing the LI at memory orphans the valid L1 slot: the
    // completeness pass must flag the leaked capacity.
    ASSERT_TRUE(f.peer.corruptNodeLi(0, test::pregionOf(*f.sys, va),
                                     f.idxOf(va), LocationInfo::mem()));
    const std::string why = test::invariantReport(*f.sys);
    EXPECT_NE(why.find("unreachable from any metadata LI"),
              std::string::npos)
        << why;
}

TEST(InvariantNegative, MultipleMastersDetected)
{
    Fixture f;
    const Addr va = 0x1000;
    test::run(*f.sys, 0, test::store(va, 1));
    test::run(*f.sys, 1, test::load(va));  // second copy in node 1
    ASSERT_GE(f.peer.setMasterEverywhere(f.lineAddrOf(va)), 2u);
    const std::string why = test::invariantReport(*f.sys);
    EXPECT_NE(why.find("masters"), std::string::npos) << why;
}

TEST(InvariantNegative, PbBitWithoutMd2Entry)
{
    Fixture f;
    const Addr va = 0x1000;
    test::run(*f.sys, 0, test::store(va, 1));
    // Node 3 never touched the region: its PB bit must not be set.
    ASSERT_TRUE(f.peer.corruptMd3Pb(test::pregionOf(*f.sys, va),
                                    std::uint64_t(1) << 3));
    const std::string why = test::invariantReport(*f.sys);
    EXPECT_NE(why.find("PB bit set for node without MD2 entry"),
              std::string::npos)
        << why;
}

TEST(InvariantNegative, PrivateRegionWithMultiplePbBits)
{
    Fixture f;
    const Addr va = 0x1000;
    test::run(*f.sys, 0, test::store(va, 1));
    test::run(*f.sys, 1, test::load(va));  // region is now shared
    ASSERT_TRUE(f.peer.corruptPrivateBit(0, test::pregionOf(*f.sys, va),
                                         true));
    const std::string why = test::invariantReport(*f.sys);
    EXPECT_NE(why.find("private region with multiple PB bits"),
              std::string::npos)
        << why;
}

TEST(InvariantNegative, InclusionMd2Dropped)
{
    Fixture f;
    const Addr va = 0x1000;
    test::run(*f.sys, 0, test::store(va, 1));
    ASSERT_TRUE(f.peer.dropMd2Entry(0, test::pregionOf(*f.sys, va)));
    const std::string why = test::invariantReport(*f.sys);
    EXPECT_NE(why.find("without MD2"), std::string::npos) << why;
}

TEST(InvariantNegative, Md1PointerNamesForeignMd2Entry)
{
    Fixture f;
    const Addr va = 0x1000;
    test::run(*f.sys, 0, test::store(va, 1));
    ASSERT_TRUE(f.peer.redirectMd1Pointer(0, test::pregionOf(*f.sys, va)));
    const std::string why = test::invariantReport(*f.sys);
    EXPECT_NE(why.find("node 0: MD1 entry's MD2 pointer names an entry "
                       "that does not track it back"),
              std::string::npos)
        << why;
}

TEST(InvariantNegative, InclusionMd3Dropped)
{
    Fixture f;
    const Addr va = 0x1000;
    test::run(*f.sys, 0, test::store(va, 1));
    ASSERT_TRUE(f.peer.dropMd3Entry(test::pregionOf(*f.sys, va)));
    const std::string why = test::invariantReport(*f.sys);
    EXPECT_NE(why.find("MD3"), std::string::npos) << why;
}

TEST(InvariantNegative, LiOutsideTheSixBitCode)
{
    // Table I's 001WWW names L1 ways 0-7, 000NNN nodes 0-7: L1 way 9
    // and node 9 would come back from the code as way 1 and node 1.
    const Addr va = 0x1000;
    {
        SCOPED_TRACE("MD2 LI");
        Fixture f;
        test::run(*f.sys, 0, test::store(va, 1));
        ASSERT_TRUE(f.peer.corruptNodeLi(0, test::pregionOf(*f.sys, va),
                                         f.idxOf(va),
                                         LocationInfo::inL1(9)));
        const std::string why = test::invariantReport(*f.sys);
        EXPECT_NE(why.find("MD2 LI not encodable in the 6-bit LI code"),
                  std::string::npos)
            << why;
    }
    {
        SCOPED_TRACE("MD3 LI");
        Fixture f;
        test::run(*f.sys, 0, test::store(va, 1));
        ASSERT_TRUE(f.peer.corruptMd3Li(test::pregionOf(*f.sys, va),
                                        f.idxOf(va),
                                        LocationInfo::inNode(9)));
        const std::string why = test::invariantReport(*f.sys);
        EXPECT_NE(why.find("MD3 LI not encodable in the 6-bit LI code"),
                  std::string::npos)
            << why;
    }
    {
        SCOPED_TRACE("RP");
        Fixture f;
        test::run(*f.sys, 0, test::store(va, 1));
        ASSERT_GE(f.peer.corruptRp(f.lineAddrOf(va),
                                   LocationInfo::inNode(9)),
                  1u);
        const std::string why = test::invariantReport(*f.sys);
        EXPECT_NE(why.find("RP not encodable in the 6-bit LI code"),
                  std::string::npos)
            << why;
    }
}

TEST(InvariantNegative, CollectsMultipleViolations)
{
    Fixture f;
    const Addr va1 = 0x1000;
    const Addr va2 = 0x9000;  // different region
    test::run(*f.sys, 0, test::store(va1, 1));
    test::run(*f.sys, 0, test::store(va2, 2));
    ASSERT_TRUE(f.peer.corruptNodeLi(0, test::pregionOf(*f.sys, va1),
                                     f.idxOf(va1), LocationInfo::invalid()));
    ASSERT_TRUE(f.peer.corruptMd3Pb(test::pregionOf(*f.sys, va2),
                                    std::uint64_t(1) << 3));
    const std::string why = test::invariantReport(*f.sys);
    // Both independent violations appear in one report.
    EXPECT_NE(why.find("invalid LI in node metadata"), std::string::npos)
        << why;
    EXPECT_NE(why.find("PB bit set for node without MD2 entry"),
              std::string::npos)
        << why;
    EXPECT_NE(why.find("; "), std::string::npos) << why;
}

} // namespace
} // namespace d2m
