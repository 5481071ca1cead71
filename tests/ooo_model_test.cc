/**
 * @file
 * Tests for the OoO timing approximation: latency sensitivity through
 * the bounded window, front-end stalls on instruction misses (the
 * paper: "the out-of-order processor cannot hide instruction misses"),
 * MSHR merging (late hits), and MLP limits; and a differential test
 * of the MSHR file against a map-based reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "cpu/ooo_model.hh"

namespace d2m
{
namespace
{

CoreParams
smallCore()
{
    CoreParams p;
    p.issueWidth = 2;
    p.robEntries = 32;
    p.mshrs = 4;
    return p;
}

TEST(OooModel, PureComputeIsIssueBound)
{
    OooModel m(smallCore());
    m.issueInstructions(1000);
    EXPECT_EQ(m.finishTime(), 500u);  // 1000 insts / width 2
}

TEST(OooModel, ShortLatencyIsHidden)
{
    OooModel m(smallCore());
    // Loads of latency 4 every 16 instructions: fully hidden by the
    // 32-instruction window.
    for (int i = 0; i < 100; ++i) {
        m.issueInstructions(16);
        m.issueMemAccess(i, 4, false);
    }
    // Only the final in-flight load extends past the issue frontier.
    EXPECT_LE(m.finishTime(), 100u * 8u + 4u);
}

TEST(OooModel, LongMissLatencyIsExposed)
{
    OooModel fast(smallCore()), slow(smallCore());
    for (int i = 0; i < 100; ++i) {
        fast.issueInstructions(16);
        fast.issueMemAccess(i * 64, 40, true);
        slow.issueInstructions(16);
        slow.issueMemAccess(i * 64, 200, true);
    }
    EXPECT_LT(fast.finishTime(), slow.finishTime());
}

TEST(OooModel, WindowBoundsRunAhead)
{
    OooModel m(smallCore());
    // One miss of 1000 cycles, then lots of independent compute: the
    // core can only run 32 instructions ahead before stalling.
    m.issueMemAccess(0, 1000, true);
    m.issueInstructions(3200);
    // Without the window this would take ~1600 cycles; with it, the
    // stall forces at least the miss latency before most of it.
    EXPECT_GE(m.finishTime(), 1000u + (3200u - 32u) / 2u);
}

TEST(OooModel, IFetchMissStallsFrontEnd)
{
    OooModel data(smallCore()), inst(smallCore());
    for (int i = 0; i < 50; ++i) {
        data.issueInstructions(16);
        data.issueMemAccess(i * 64, 30, true, /*is_ifetch=*/false);
        inst.issueInstructions(16);
        inst.issueMemAccess(i * 64, 30, true, /*is_ifetch=*/true);
    }
    // The 30-cycle data miss is hidden by the window; the instruction
    // miss is not hideable at all.
    EXPECT_LT(data.finishTime(), inst.finishTime());
    EXPECT_GE(inst.finishTime(), 50u * 30u);
}

TEST(OooModel, IFetchHitIsFree)
{
    OooModel m(smallCore());
    for (int i = 0; i < 50; ++i) {
        m.issueInstructions(16);
        m.issueMemAccess(i * 64, 2, false, /*is_ifetch=*/true);
    }
    EXPECT_EQ(m.finishTime(), 50u * 8u);
}

TEST(OooModel, LateHitDetection)
{
    OooModel m(smallCore());
    m.issueMemAccess(0x40, 100, true);
    EXPECT_TRUE(m.wouldBeLateHit(0x40));
    EXPECT_FALSE(m.wouldBeLateHit(0x80));
    // After enough compute, the miss completes and the window clears.
    m.issueInstructions(400);
    EXPECT_FALSE(m.wouldBeLateHit(0x40));
}

TEST(OooModel, MergedMissDoesNotPayTwice)
{
    OooModel merged(smallCore()), separate(smallCore());
    // Two misses to the same line back-to-back merge...
    merged.issueMemAccess(0x40, 100, true);
    merged.issueMemAccess(0x40, 100, true);
    merged.issueInstructions(64);
    // ...while two misses to different lines overlap but occupy the
    // window independently.
    separate.issueMemAccess(0x40, 100, true);
    separate.issueMemAccess(0x80, 100, true);
    separate.issueInstructions(64);
    EXPECT_LE(merged.finishTime(), separate.finishTime());
}

TEST(OooModel, MshrsLimitMlp)
{
    CoreParams few = smallCore();
    few.mshrs = 1;
    CoreParams many = smallCore();
    many.mshrs = 16;
    OooModel serial(few), parallel(many);
    for (int i = 0; i < 16; ++i) {
        serial.issueMemAccess(i * 64, 100, true);
        parallel.issueMemAccess(i * 64, 100, true);
    }
    serial.issueInstructions(100);
    parallel.issueInstructions(100);
    // With one MSHR the misses serialize (~16 x 100); with many they
    // overlap inside the window.
    EXPECT_GT(serial.finishTime(), parallel.finishTime() * 4);
}

TEST(OooModel, IFetchMissNeverMakesALateHit)
{
    // A fetch miss stalls issue until its line arrives, so by the time
    // the next access issues the fetch has filled: nothing can merge
    // with it, and a data miss to the line right after is a new miss.
    OooModel m(smallCore());
    m.issueMemAccess(0x40, 300, true, /*is_ifetch=*/true);
    EXPECT_EQ(m.now(), 300u);
    EXPECT_FALSE(m.wouldBeLateHit(0x40));
    m.issueMemAccess(0x40, 300, true, /*is_ifetch=*/true);
    EXPECT_EQ(m.now(), 600u);  // paid in full again, not merged
    EXPECT_FALSE(m.wouldBeLateHit(0x40));
    m.issueMemAccess(0x40, 10, true);
    EXPECT_TRUE(m.wouldBeLateHit(0x40));
    EXPECT_EQ(m.finishTime(), 610u);
}

/**
 * The core model as it was before the MSHR file: every miss's fill
 * goes into a line -> fill map (instruction fetches too), and a FIFO
 * of data-miss fills stands for the MSHRs. Kept verbatim in behaviour
 * as the oracle for the differential test below.
 */
class MapOooModel
{
  public:
    explicit MapOooModel(const CoreParams &params) : params_(params) {}

    Tick now() const { return issueTime_; }

    Tick
    finishTime() const
    {
        Tick t = std::max(issueTime_, lastRetire_);
        for (const auto &e : rob_)
            t = std::max(t, e.complete);
        return t;
    }

    void
    issueInstructions(std::uint64_t count)
    {
        while (count > 0) {
            drainRetired();
            std::uint64_t room = count;
            if (!rob_.empty()) {
                const std::uint64_t used = instSeq_ - rob_.front().instSeq;
                if (used >= params_.robEntries) {
                    const Tick done = rob_.front().complete;
                    issueTime_ = std::max(issueTime_, done);
                    lastRetire_ = std::max(lastRetire_, done);
                    rob_.pop_front();
                    continue;
                }
                room = std::min(room, params_.robEntries - used);
            }
            instSeq_ += room;
            issueTime_ +=
                (room + params_.issueWidth - 1) / params_.issueWidth;
            count -= room;
        }
        drainRetired();
    }

    bool
    wouldBeLateHit(Addr line_addr) const
    {
        auto it = outstanding_.find(line_addr);
        return it != outstanding_.end() && it->second > issueTime_;
    }

    void
    issueMemAccess(Addr line_addr, Cycles latency, bool was_miss,
                   bool is_ifetch)
    {
        if (is_ifetch) {
            if (was_miss) {
                auto fit = outstanding_.find(line_addr);
                if (fit != outstanding_.end() && fit->second > issueTime_) {
                    issueTime_ = fit->second;
                } else {
                    issueTime_ += latency;
                    outstanding_[line_addr] = issueTime_;
                }
                lastRetire_ = std::max(lastRetire_, issueTime_);
                drainWindow();
            }
            return;
        }
        Tick complete = issueTime_ + latency;
        auto it = outstanding_.find(line_addr);
        const bool merged =
            it != outstanding_.end() && it->second > issueTime_;
        if (!was_miss) {
            if (merged && it->second > complete) {
                complete = it->second;
                ++hitWaits_;
            }
        } else if (merged) {
            complete = it->second;
        } else {
            if (inflight_.size() >= params_.mshrs) {
                const Tick free_at = inflight_.front();
                if (free_at > issueTime_) {
                    issueTime_ = free_at;
                    complete = issueTime_ + latency;
                }
                inflight_.pop_front();
            }
            inflight_.push_back(complete);
            outstanding_[line_addr] = complete;
        }
        rob_.push_back(Entry{complete, instSeq_});
        drainWindow();
    }

    /** Data hits whose completion the fill of a miss pushed back. */
    std::uint64_t hitWaits() const { return hitWaits_; }

  private:
    struct Entry
    {
        Tick complete;
        std::uint64_t instSeq;
    };

    void
    drainRetired()
    {
        while (!rob_.empty() && rob_.front().complete <= issueTime_) {
            lastRetire_ = std::max(lastRetire_, rob_.front().complete);
            rob_.pop_front();
        }
    }

    void
    drainWindow()
    {
        while (!rob_.empty()) {
            Entry &front = rob_.front();
            if (front.complete <= issueTime_) {
                lastRetire_ = std::max(lastRetire_, front.complete);
                rob_.pop_front();
                continue;
            }
            if (instSeq_ - front.instSeq > params_.robEntries) {
                issueTime_ = front.complete;
                lastRetire_ = std::max(lastRetire_, front.complete);
                rob_.pop_front();
                continue;
            }
            break;
        }
    }

    CoreParams params_;
    Tick issueTime_ = 0;
    Tick lastRetire_ = 0;
    std::uint64_t instSeq_ = 0;
    std::deque<Entry> rob_;
    std::deque<Tick> inflight_;
    std::unordered_map<Addr, Tick> outstanding_;
    std::uint64_t hitWaits_ = 0;
};

TEST(OooModelDifferential, MshrFileMatchesMapModel)
{
    // Seeded random streams of compute, loads/stores and fetches, hits
    // and misses, latencies 1-400, over a pool of 12 lines so lines
    // repeat while their misses are in flight. After every call both
    // models must agree on the issue time, the finish time and the
    // late-hit answer for every line in the pool.
    constexpr unsigned kLines = 12;
    std::uint64_t seed = 0x0005ull;
    std::uint64_t late_hits = 0;
    std::uint64_t hit_waits = 0;
    for (unsigned mshrs = 1; mshrs <= 16; ++mshrs) {
        for (unsigned rob : {16u, CoreParams{}.robEntries}) {
            SCOPED_TRACE(testing::Message() << "mshrs " << mshrs
                                            << ", rob " << rob
                                            << ", seed " << seed);
            CoreParams p;
            p.robEntries = rob;
            p.mshrs = mshrs;
            OooModel model(p);
            MapOooModel ref(p);
            Rng rng(seed++);
            for (unsigned step = 0; step < 3000; ++step) {
                if (rng.chance(0.4)) {
                    const std::uint64_t n = rng.range(1, 48);
                    model.issueInstructions(n);
                    ref.issueInstructions(n);
                } else {
                    const Addr line = 0x1000 + rng.below(kLines);
                    const Cycles lat = rng.range(1, 400);
                    const bool miss = rng.chance(0.5);
                    const bool ifetch = rng.chance(0.25);
                    late_hits += ref.wouldBeLateHit(line);
                    model.issueMemAccess(line, lat, miss, ifetch);
                    ref.issueMemAccess(line, lat, miss, ifetch);
                }
                ASSERT_EQ(model.now(), ref.now()) << "step " << step;
                ASSERT_EQ(model.finishTime(), ref.finishTime())
                    << "step " << step;
                for (Addr line = 0x1000; line < 0x1000 + kLines; ++line) {
                    ASSERT_EQ(model.wouldBeLateHit(line),
                              ref.wouldBeLateHit(line))
                        << "step " << step << ", line " << line;
                }
            }
            hit_waits += ref.hitWaits();
        }
    }
    // The streams do reach the merge paths, including hits that the
    // map model holds back to the fill and the MSHR file does not.
    EXPECT_GT(late_hits, 1'000u);
    EXPECT_GT(hit_waits, 500u);
}

TEST(OooModel, InstructionCounting)
{
    OooModel m(smallCore());
    m.countInstructions(10);
    m.countInstructions(5);
    EXPECT_EQ(m.instructions(), 15u);
}

} // namespace
} // namespace d2m
