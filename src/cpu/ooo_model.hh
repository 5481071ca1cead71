/**
 * @file
 * A bounded-window out-of-order core timing approximation.
 *
 * The paper simulates "a fairly aggressive OoO CPU" and notes that not
 * all L1 miss latency reduction translates into speedup; this model
 * reproduces that filtering without simulating a pipeline:
 *
 *  - instructions issue at `issueWidth` per cycle;
 *  - a memory access completes `latency` cycles after issue and
 *    retires in order: once the core has issued more than
 *    `robEntries` instructions beyond an incomplete access, issue
 *    stalls until it completes (bounded run-ahead). Short latencies
 *    are hidden, DRAM-class latencies are mostly exposed;
 *  - up to `mshrs` misses overlap (memory-level parallelism);
 *  - accesses to a line with an outstanding miss merge with it
 *    (MSHR merges — Table IV's "late hits").
 *
 * Outstanding data misses live in an MSHR file of `mshrs` {line,
 * fill} slots used as a FIFO: a new miss takes the oldest slot,
 * waiting for that miss's fill first. A lookup scans the file for the
 * line's slot whose fill is still ahead of the issue time. Nothing
 * else is needed to find every mergeable miss, because the issue time
 * never decreases: a slot is only reused once issue has passed its
 * fill, and an instruction-fetch miss, whose fill becomes the issue
 * time itself, can never be merged with and is not stored.
 */

#ifndef D2M_CPU_OOO_MODEL_HH
#define D2M_CPU_OOO_MODEL_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/params.hh"
#include "common/types.hh"

namespace d2m
{

/** Per-core retirement/overlap model. */
class OooModel
{
  public:
    explicit OooModel(const CoreParams &params)
        : params_(params), mshrFile_(params.mshrs)
    {
        assert(params.mshrs > 0);
    }

    /** Current issue time (cycles). */
    Tick now() const { return issueTime_; }

    /** Total cycles consumed so far (retirement frontier). */
    Tick
    finishTime() const
    {
        Tick t = std::max(issueTime_, lastRetire_);
        for (const auto &e : rob_)
            t = std::max(t, e.complete);
        return t;
    }

    /**
     * Account @p count instructions issuing at full width (this
     * includes the memory instructions themselves; memory accesses
     * only add latency, not extra issue slots).
     */
    void
    issueInstructions(std::uint64_t count)
    {
        while (count > 0) {
            drainRetired();
            std::uint64_t room = count;
            if (!rob_.empty()) {
                const std::uint64_t used =
                    instSeq_ - rob_.front().instSeq;
                if (used >= params_.robEntries) {
                    // Window full behind an incomplete access: stall
                    // until it completes.
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

    /**
     * Check whether an access to @p line_addr would merge with an
     * outstanding miss (late hit). Call before the access executes.
     */
    bool
    wouldBeLateHit(Addr line_addr) const
    {
        return pendingFill(line_addr) != 0;
    }

    /**
     * Account one memory access with load-to-use latency @p latency.
     * @param line_addr the accessed line (for MSHR merge tracking)
     * @param was_miss  whether the hierarchy reported an L1 miss
     * @param is_ifetch instruction fetch: a fetch miss starves the
     *        front-end, so the core cannot run ahead past it (the
     *        paper: "the out-of-order processor cannot hide
     *        instruction misses").
     */
    void
    issueMemAccess(Addr line_addr, Cycles latency, bool was_miss,
                   bool is_ifetch = false)
    {
        if (is_ifetch) {
            if (was_miss) {
                // Re-fetch of an in-flight line waits for the fill;
                // any other fetch miss stalls the front end for the
                // full fetch latency.
                const Tick fill = pendingFill(line_addr);
                issueTime_ = fill ? fill : issueTime_ + latency;
                lastRetire_ = std::max(lastRetire_, issueTime_);
                drainWindow();
            }
            return;
        }

        // A hit completes after its own latency, even to a line with
        // a miss in flight: that miss's ROB entry (complete == fill)
        // is older and retires first, so issue has passed the fill
        // before the hit's entry can be retired or stall issue.
        Tick complete = issueTime_ + latency;
        if (was_miss) {
            if (const Tick fill = pendingFill(line_addr)) {
                // MSHR merge: the miss completes with the in-flight one.
                complete = fill;
            } else {
                // New miss: the oldest MSHR frees once its miss has
                // filled.
                Mshr &mshr = mshrFile_[mshrHead_];
                if (mshr.fill > issueTime_) {
                    issueTime_ = mshr.fill;
                    complete = issueTime_ + latency;
                }
                mshr = {line_addr, complete};
                if (++mshrHead_ == mshrFile_.size())
                    mshrHead_ = 0;
            }
        }

        rob_.push_back(Entry{complete, instSeq_});
        drainWindow();
    }

    /** Committed instruction bookkeeping (for IPC reporting). */
    void
    countInstructions(std::uint64_t n)
    {
        instructions_ += n;
    }

    std::uint64_t instructions() const { return instructions_; }

  private:
    struct Entry
    {
        Tick complete;          //!< When the access' data arrives.
        std::uint64_t instSeq;  //!< Instructions issued at its issue.
    };

    /** One outstanding data miss; a slot with fill <= issue time is
     * free (every slot starts free at fill 0). */
    struct Mshr
    {
        Addr line = 0;
        Tick fill = 0;
    };

    /** Fill time of @p line_addr's in-flight miss, or 0 if none. */
    Tick
    pendingFill(Addr line_addr) const
    {
        for (const Mshr &m : mshrFile_) {
            if (m.line == line_addr && m.fill > issueTime_)
                return m.fill;
        }
        return 0;
    }

    /** Retire accesses whose data has arrived. */
    void
    drainRetired()
    {
        while (!rob_.empty() && rob_.front().complete <= issueTime_) {
            lastRetire_ = std::max(lastRetire_, rob_.front().complete);
            rob_.pop_front();
        }
    }

    /**
     * Enforce the bounded instruction window: the core cannot issue
     * more than robEntries instructions past an incomplete access.
     */
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
                // Window full behind an incomplete access: stall.
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
    std::uint64_t instructions_ = 0;
    std::uint64_t instSeq_ = 0;
    std::deque<Entry> rob_;  //!< Incomplete accesses, program order.
    std::vector<Mshr> mshrFile_;  //!< FIFO ring, oldest at mshrHead_.
    std::size_t mshrHead_ = 0;
};

} // namespace d2m

#endif // D2M_CPU_OOO_MODEL_HH
