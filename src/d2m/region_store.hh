/**
 * @file
 * Generic set-associative region store used for MD1, MD2 and MD3.
 *
 * Entries are keyed by a 64-bit region key: the physical region number
 * for MD2/MD3, and a (asid, virtual-region) composite for the
 * virtually-tagged MD1. MD1 evicts by plain LRU; MD2 and MD3 pass an
 * eviction cost to prefer regions that track few cachelines
 * (Section II-A) or have few sharers (MD3).
 *
 * Hot-field SoA layout: the entry structs carry whole LI vectors, so a
 * tag scan over the full Entry array touches one distant cache line
 * per way. The store therefore keeps two packed parallel arrays:
 *  - keys_: the probe mirror, written only by bind(). Probes scan this
 *    packed array and verify candidates against the authoritative
 *    entry (e.valid && e.key), so invalidation paths never have to
 *    maintain the mirror — a stale mirror slot is filtered, and a
 *    false negative is impossible because bind() is the only way an
 *    entry becomes valid for a key.
 *  - stamps_: per-way LRU stamps, handed to the victim functions as a
 *    contiguous slice (no per-eviction pointer-vector fill).
 */

#ifndef D2M_D2M_REGION_STORE_HH
#define D2M_D2M_REGION_STORE_HH

#include <utility>
#include <vector>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "mem/replacement.hh"
#include "sim/sim_object.hh"

namespace d2m
{

/** Set-associative array of region entries of type @p Entry.
 *
 * @p Entry must provide: bool valid and std::uint64_t key.
 * Recency stamps live in the store, not the entry.
 */
template <typename Entry>
class RegionStore : public SimObject
{
  public:
    RegionStore(std::string name, SimObject *parent, std::uint32_t entries,
                std::uint32_t assoc)
        : SimObject(std::move(name), parent)
    {
        fatal_if(entries == 0 || assoc == 0 || entries % assoc != 0,
                 "bad region store geometry %u/%u", entries, assoc);
        fatal_if(assoc > maxRankedWays,
                 "region store associativity %u exceeds %u", assoc,
                 maxRankedWays);
        sets_ = entries / assoc;
        fatal_if(!isPowerOf2(sets_), "region store sets must be 2^k");
        assoc_ = assoc;
        entries_.resize(entries);
        // ~0 is an implausible region key; even if it ever occurred,
        // a mirror match is only a candidate (verified below).
        keys_.resize(entries, ~std::uint64_t{0});
        stamps_.resize(entries);
    }

    /**
     * Hashed set index: XOR-folding the higher key bits keeps
     * power-of-two-strided region sequences from aliasing into a few
     * metadata sets (a fixed hardware hash, as directory/tag arrays
     * commonly use).
     */
    std::uint32_t
    setOf(std::uint64_t key) const
    {
        const std::uint64_t folded =
            key ^ (key >> 10) ^ (key >> 20) ^ (key >> 30);
        return static_cast<std::uint32_t>(folded & (sets_ - 1));
    }

    /** @return the valid entry with @p key, updating recency. */
    Entry *
    find(std::uint64_t key)
    {
        Entry *e = probe(key);
        if (e)
            stamps_[indexOf(*e)] = ++clock_;
        return e;
    }

    /** @return the valid entry with @p key, recency untouched. */
    Entry *
    probe(std::uint64_t key)
    {
        const std::uint32_t base = setOf(key) * assoc_;
        const std::uint64_t *keys = keys_.data() + base;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (keys[w] != key)
                continue;
            Entry &e = entries_[base + w];
            if (e.valid && e.key == key)
                return &e;
        }
        return nullptr;
    }

    const Entry *
    probe(std::uint64_t key) const
    {
        return const_cast<RegionStore *>(this)->probe(key);
    }

    /**
     * Make @p e (a slot of this store) the valid entry for @p key and
     * record the key in the packed probe mirror. Every install must go
     * through here; invalidation paths just clear e.valid.
     */
    void
    bind(Entry &e, std::uint64_t key)
    {
        e.valid = true;
        e.key = key;
        keys_[indexOf(e)] = key;
    }

    /**
     * Choose a victim slot in @p key's set: an invalid slot if there
     * is one, else the LRU entry. The caller must clean out a valid
     * victim before reuse.
     */
    Entry &
    victimFor(std::uint64_t key)
    {
        const std::uint32_t base = setOf(key) * assoc_;
        if (Entry *e = invalidSlot(base))
            return *e;
        return entries_[base + lruVictim(stamps_.data() + base, assoc_)];
    }

    /** As victimFor(key), but a valid victim is chosen by
     * costAwareLruVictim() with the unsigned cost_of(entry). */
    template <typename CostFn>
    Entry &
    victimFor(std::uint64_t key, const CostFn &cost_of)
    {
        const std::uint32_t base = setOf(key) * assoc_;
        if (Entry *e = invalidSlot(base))
            return *e;
        const auto cost = [&](std::uint32_t w) {
            return cost_of(entries_[base + w]);
        };
        return entries_[base +
                        costAwareLruVictim(stamps_.data() + base, assoc_,
                                           cost)];
    }

    /** Stamp @p e as freshly installed. */
    void
    markInstalled(Entry &e)
    {
        stamps_[indexOf(e)] = ++clock_;
    }

    /** Entry at an explicit (set, way) — models TP-style pointers. */
    Entry &
    at(std::uint32_t set, std::uint32_t way)
    {
        return entries_[set * assoc_ + way];
    }

    const Entry &
    at(std::uint32_t set, std::uint32_t way) const
    {
        return entries_[set * assoc_ + way];
    }

    /** (set, way) of @p e within this store. */
    std::pair<std::uint32_t, std::uint32_t>
    positionOf(const Entry &e) const
    {
        const auto idx = indexOf(e);
        return {idx / assoc_, idx % assoc_};
    }

    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (auto &e : entries_) {
            if (e.valid)
                fn(e);
        }
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &e : entries_) {
            if (e.valid)
                fn(e);
        }
    }

    std::uint32_t numSets() const { return sets_; }
    std::uint32_t assoc() const { return assoc_; }

  private:
    std::uint32_t
    indexOf(const Entry &e) const
    {
        return static_cast<std::uint32_t>(&e - entries_.data());
    }

    /** First invalid slot of the set starting at @p base, if any. */
    Entry *
    invalidSlot(std::uint32_t base)
    {
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (!entries_[base + w].valid)
                return &entries_[base + w];
        }
        return nullptr;
    }

    std::uint32_t sets_ = 0;
    std::uint32_t assoc_ = 0;
    std::vector<Entry> entries_;
    /** Packed probe mirror of entry keys (see file comment). */
    std::vector<std::uint64_t> keys_;
    /** Per-way LRU stamps, contiguous per set. */
    std::vector<std::uint64_t> stamps_;
    std::uint64_t clock_ = 0;
};

} // namespace d2m

#endif // D2M_D2M_REGION_STORE_HH
