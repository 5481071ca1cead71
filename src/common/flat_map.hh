/**
 * @file
 * Open-addressing flat hash map for the simulator's hot paths.
 *
 * std::unordered_map allocates one node per element and chases a
 * pointer per probe; the simulator's hottest lookups (golden-memory
 * value checks, DRAM line values, the TLB index) are all
 * small-key/small-value maps hit once or more per simulated access,
 * where that pointer chase dominates. FlatMap stores key/value pairs
 * inline in one power-of-two array with linear probing, so a lookup
 * is a hash, a mask, and a short contiguous scan — one or two cache
 * lines instead of a bucket list walk.
 *
 * Deletion is backward-shift: the entries that follow an erased slot
 * in its probe run move back into the hole whenever their probe path
 * passes through it, so a run never holds a gap and a lookup stops at
 * the first empty slot. With no tombstones the probe load is the live
 * load: the table doubles when live entries would exceed 5/8 of
 * capacity (plain linear probing degrades fast past that — the SIMD
 * group probes that let Swiss tables run at 7/8 are deliberately out
 * of scope here), and sustained insert/erase churn never rehashes.
 *
 * Iterators and element pointers are invalidated by any insert
 * (rehash) and by any erase (the shift moves later entries), like
 * std::unordered_map's under rehash.
 */

#ifndef D2M_COMMON_FLAT_MAP_HH
#define D2M_COMMON_FLAT_MAP_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace d2m
{

/**
 * Fibonacci (multiplicative) key mix. The simulator's hot keys are
 * near-sequential — line addresses, page numbers, region indices —
 * and multiplying by the golden-ratio constant maps arithmetic
 * progressions onto a low-discrepancy sequence, so tables see *fewer*
 * collisions than a perfectly random hash would give (measured ~1.07
 * probes per lookup at 0.5 load vs ~1.5 for SplitMix64) and the probe
 * loop exit stays branch-predictable. The xor-fold makes bits above
 * the multiplier's reach (keys differing only in bits >= ~37, e.g.
 * ASIDs packed high) still land in the low index bits, and the final
 * shift discards the low product bits, which a multiply alone mixes
 * poorly — FlatMap masks the *low* bits of this result.
 */
constexpr std::uint64_t
flatHashMix(std::uint64_t x)
{
    x ^= x >> 32;
    return (x * 0x9e3779b97f4a7c15ull) >> 27;
}

/** Default hasher: integral / enum keys go through flatHashMix. */
template <typename Key>
struct FlatHash
{
    static_assert(std::is_integral_v<Key> || std::is_enum_v<Key>,
                  "provide a custom hasher for non-integral keys");

    std::uint64_t
    operator()(const Key &k) const
    {
        return flatHashMix(static_cast<std::uint64_t>(k));
    }
};

/** Open-addressing hash map with inline storage and linear probing. */
template <typename Key, typename T, typename Hash = FlatHash<Key>>
class FlatMap
{
  public:
    using value_type = std::pair<Key, T>;

    template <bool Const>
    class Iter
    {
        using Owner = std::conditional_t<Const, const FlatMap, FlatMap>;
        using Ref = std::conditional_t<Const, const value_type &,
                                       value_type &>;
        using Ptr = std::conditional_t<Const, const value_type *,
                                       value_type *>;

      public:
        Iter() = default;
        Iter(Owner *owner, std::size_t idx) : owner_(owner), idx_(idx) {}

        /** iterator -> const_iterator conversion. */
        operator Iter<true>() const
            requires(!Const)
        {
            return Iter<true>(owner_, idx_);
        }

        Ref operator*() const { return owner_->slots_[idx_]; }
        Ptr operator->() const { return &owner_->slots_[idx_]; }

        Iter &
        operator++()
        {
            ++idx_;
            idx_ = owner_->nextFull(idx_);
            return *this;
        }

        bool
        operator==(const Iter &o) const
        {
            return idx_ == o.idx_;
        }

      private:
        Owner *owner_ = nullptr;
        std::size_t idx_ = 0;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    FlatMap() = default;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return slots_.size(); }

    void
    clear()
    {
        std::fill(ctrl_.begin(), ctrl_.end(), kEmpty);
        size_ = 0;
    }

    /** Pre-size so @p n entries fit without rehashing. */
    void
    reserve(std::size_t n)
    {
        std::size_t cap = kMinCapacity;
        while (cap * 5 < n * 8)  // mirrors the insertSlot load check
            cap <<= 1;
        if (cap > slots_.size())
            rehash(cap);
    }

    iterator
    find(const Key &key)
    {
        return iterator(this, findIndex(key));
    }

    const_iterator
    find(const Key &key) const
    {
        return const_iterator(this, findIndex(key));
    }

    bool contains(const Key &key) const { return findIndex(key) != npos(); }

    iterator begin() { return iterator(this, nextFull(0)); }
    iterator end() { return iterator(this, npos()); }
    const_iterator begin() const { return const_iterator(this, nextFull(0)); }
    const_iterator end() const { return const_iterator(this, npos()); }

    /**
     * Insert (key, value) unless the key is present.
     * @return {iterator to the entry, true if newly inserted}.
     */
    std::pair<iterator, bool>
    emplace(const Key &key, T value)
    {
        const std::size_t idx = insertSlot(key);
        if (ctrl_[idx] == kFull)
            return {iterator(this, idx), false};
        occupy(idx, key, std::move(value));
        return {iterator(this, idx), true};
    }

    std::pair<iterator, bool>
    insert(const value_type &kv)
    {
        return emplace(kv.first, kv.second);
    }

    /** Value for @p key, default-constructed on first use. */
    T &
    operator[](const Key &key)
    {
        const std::size_t idx = insertSlot(key);
        if (ctrl_[idx] != kFull)
            occupy(idx, key, T{});
        return slots_[idx].second;
    }

    /** @return true when an entry was erased. */
    bool
    erase(const Key &key)
    {
        std::size_t hole = findIndex(key);
        if (hole == npos())
            return false;
        // Backward shift: a later entry of the run moves into the hole
        // when the hole lies on its probe path (home slot up to its
        // slot), which keeps the run gap-free; the table always holds
        // an empty slot, so the scan ends.
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = (hole + 1) & mask; ctrl_[i] == kFull;
             i = (i + 1) & mask) {
            const std::size_t home =
                static_cast<std::size_t>(Hash{}(slots_[i].first)) & mask;
            if (((i - home) & mask) >= ((i - hole) & mask)) {
                slots_[hole] = std::move(slots_[i]);
                hole = i;
            }
        }
        ctrl_[hole] = kEmpty;
        --size_;
        return true;
    }

  private:
    enum : std::uint8_t { kEmpty = 0, kFull = 1 };
    static constexpr std::size_t kMinCapacity = 16;

    std::size_t npos() const { return slots_.size(); }

    std::size_t
    nextFull(std::size_t idx) const
    {
        while (idx < ctrl_.size() && ctrl_[idx] != kFull)
            ++idx;
        return idx;
    }

    std::size_t
    findIndex(const Key &key) const
    {
        if (slots_.empty())
            return npos();
        const std::size_t mask = slots_.size() - 1;
        std::size_t idx = static_cast<std::size_t>(Hash{}(key)) & mask;
        for (;;) {
            if (ctrl_[idx] == kEmpty)
                return npos();
            if (slots_[idx].first == key)
                return idx;
            idx = (idx + 1) & mask;
        }
    }

    /**
     * Slot for inserting @p key: the existing entry's slot when
     * present (ctrl == kFull), else the empty slot that ends its probe
     * run (doubling the table first when it is too loaded).
     */
    std::size_t
    insertSlot(const Key &key)
    {
        if ((size_ + 1) * 8 > slots_.size() * 5)
            rehash(std::max(kMinCapacity, slots_.size() * 2));
        const std::size_t mask = slots_.size() - 1;
        std::size_t idx = static_cast<std::size_t>(Hash{}(key)) & mask;
        while (ctrl_[idx] == kFull && slots_[idx].first != key)
            idx = (idx + 1) & mask;
        return idx;
    }

    void
    occupy(std::size_t idx, const Key &key, T value)
    {
        ctrl_[idx] = kFull;
        slots_[idx].first = key;
        slots_[idx].second = std::move(value);
        ++size_;
    }

    void
    rehash(std::size_t new_cap)
    {
        assert((new_cap & (new_cap - 1)) == 0);
        std::vector<value_type> old_slots = std::move(slots_);
        std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
        slots_.assign(new_cap, value_type{});
        ctrl_.assign(new_cap, kEmpty);
        size_ = 0;
        const std::size_t mask = new_cap - 1;
        for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
            if (old_ctrl[i] != kFull)
                continue;
            std::size_t idx =
                static_cast<std::size_t>(Hash{}(old_slots[i].first)) & mask;
            while (ctrl_[idx] != kEmpty)
                idx = (idx + 1) & mask;
            occupy(idx, old_slots[i].first, std::move(old_slots[i].second));
        }
    }

    std::vector<value_type> slots_;
    std::vector<std::uint8_t> ctrl_;
    std::size_t size_ = 0;  //!< Live (kFull) entries.
};

} // namespace d2m

#endif // D2M_COMMON_FLAT_MAP_HH
