/**
 * @file
 * Virtual memory substrate: a page table shared by all systems, and a
 * small TLB model.
 *
 * The baselines translate on every access through a per-core L1 TLB;
 * D2M's MD1 is virtually tagged, so it only translates on MD1 misses
 * through TLB2 (paper Section II-A / Figure 1).
 */

#ifndef D2M_MEM_PAGE_TABLE_HH
#define D2M_MEM_PAGE_TABLE_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "common/types.hh"
#include "mem/geometry.hh"
#include "sim/sim_object.hh"

namespace d2m
{

/**
 * Forward page table mapping (asid, vpage) to a physical frame:
 * frame = vpage + asid * 16M. This models huge-page / THP-style
 * allocation where virtual alignment is preserved physically —
 * required for the power-of-two-stride conflict pathology that dynamic
 * indexing targets (Section IV-D; the paper runs full-system Linux
 * where large buffers land in aligned allocations).
 */
class PageTable
{
  public:
    explicit PageTable(unsigned page_shift = 12) : pageShift_(page_shift) {}

    unsigned pageShift() const { return pageShift_; }

    /** Translate @p vaddr in @p asid: arithmetic, no state. */
    Addr
    translate(AsId asid, Addr vaddr) const
    {
        const std::uint64_t vpage = vaddr >> pageShift_;
        const Addr offset = vaddr & ((Addr(1) << pageShift_) - 1);
        const std::uint64_t frame = vpage + (std::uint64_t(asid) << 24);
        return (frame << pageShift_) | offset;
    }

  private:
    unsigned pageShift_;
};

/**
 * A fully-associative, exact-LRU TLB. Models hit/miss behaviour only;
 * the translation itself always comes from the shared PageTable.
 *
 * Entries live in a slot array threaded on a circular doubly-linked
 * recency list and are found through a tag -> slot index, so a lookup
 * is O(1) whatever the capacity: a hit relinks its slot at the front,
 * a miss takes the next unused slot while the TLB fills and the back
 * slot after that. The victim is therefore always the least recently
 * used entry.
 */
class Tlb : public SimObject
{
  public:
    Tlb(std::string name, SimObject *parent, unsigned entries,
        unsigned page_shift = 12)
        : SimObject(std::move(name), parent),
          hits(this, "hits", "TLB hits"),
          misses(this, "misses", "TLB misses (page walks)"),
          entries_(entries), pageShift_(page_shift)
    {
        assert(entries > 0);
    }

    /** @return true on hit; on miss the entry is filled (LRU victim). */
    bool
    lookup(AsId asid, Addr vaddr)
    {
        const std::uint64_t tag =
            (std::uint64_t(asid) << 48) ^ (vaddr >> pageShift_);
        auto it = index_.find(tag);
        if (it != index_.end()) {
            const std::uint32_t s = it->second;
            if (s != slots_[kList].next) {
                unlink(s);
                pushFront(s);
            }
            ++hits;
            return true;
        }
        ++misses;
        std::uint32_t s;
        if (slots_.size() <= entries_) {
            if (slots_.empty()) {
                // Sized once to entries_ + 1 slots (with the sentinel);
                // growth by doubling would nearly double the array.
                slots_.reserve(entries_ + 1);
                slots_.push_back({0, kList, kList});
            }
            s = static_cast<std::uint32_t>(slots_.size());
            slots_.push_back({tag, kList, kList});
        } else {
            s = slots_[kList].prev;
            index_.erase(slots_[s].tag);
            unlink(s);
            slots_[s].tag = tag;
        }
        pushFront(s);
        index_.emplace(tag, s);
        return false;
    }

    stats::Counter hits;
    stats::Counter misses;

  private:
    /** Slot 0 is the list's sentinel: its next is the most recently
     * used entry, its prev the least recently used one. */
    static constexpr std::uint32_t kList = 0;

    struct Slot
    {
        std::uint64_t tag;
        std::uint32_t prev;
        std::uint32_t next;
    };

    void
    unlink(std::uint32_t s)
    {
        const Slot &e = slots_[s];
        slots_[e.prev].next = e.next;
        slots_[e.next].prev = e.prev;
    }

    void
    pushFront(std::uint32_t s)
    {
        const std::uint32_t first = slots_[kList].next;
        slots_[s].prev = kList;
        slots_[s].next = first;
        slots_[first].prev = s;
        slots_[kList].next = s;
    }

    unsigned entries_;
    unsigned pageShift_;
    std::vector<Slot> slots_;
    FlatMap<std::uint64_t, std::uint32_t> index_;
};

} // namespace d2m

#endif // D2M_MEM_PAGE_TABLE_HH
