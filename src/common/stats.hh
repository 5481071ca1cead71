/**
 * @file
 * A light-weight statistics package in the spirit of gem5's Stats.
 *
 * Statistics are owned by StatGroup objects which form a naming
 * hierarchy ("system.node0.l1d.hits"). Each statistic registers itself
 * with its group on construction; groups can be dumped recursively.
 */

#ifndef D2M_COMMON_STATS_HH
#define D2M_COMMON_STATS_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace d2m::stats
{

class StatGroup;

/** Base class for a single named statistic. */
class StatBase
{
  public:
    StatBase(StatGroup *parent, std::string name, std::string desc);
    virtual ~StatBase();

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Emit this statistic's value as one JSON value (no name). */
    virtual void printJson(std::ostream &os) const = 0;

    /** Reset to the post-construction state. */
    virtual void reset() = 0;

    /**
     * Scalar used by interval snapshotting (obs/snapshot.hh): a
     * monotonically non-decreasing count whose per-interval deltas are
     * meaningful (counter value, sample count). Resets to 0 with
     * reset().
     */
    virtual std::uint64_t snapshotValue() const = 0;

  private:
    friend class StatGroup;  //!< Clears parent_ on group destruction.

    std::string name_;
    std::string desc_;
    StatGroup *parent_;
};

/** A monotonically increasing (or adjustable) scalar counter. */
class Counter : public StatBase
{
  public:
    Counter(StatGroup *parent, std::string name, std::string desc)
        : StatBase(parent, std::move(name), std::move(desc))
    {}

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t v) { value_ += v; return *this; }

    std::uint64_t value() const { return value_; }

    void printJson(std::ostream &os) const override;
    void reset() override { value_ = 0; }
    std::uint64_t snapshotValue() const override { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A log2-bucketed histogram with percentile readout (HDR-histogram
 * style): each power-of-two range is subdivided into 2^sub_bits
 * linear sub-buckets, bounding the relative quantization error of
 * percentile() by 1 / 2^sub_bits while covering the full uint64 value
 * range in a few hundred buckets. Bucket storage grows on demand, so
 * a histogram that only ever sees small values stays small.
 *
 * Used for distributional metrics the paper argues about in the tail
 * (miss latency, LI indirection depth, NoC delay): a mean hides
 * exactly the p95/p99 behaviour Figs. 5-7 are sensitive to.
 */
class Histogram2 : public StatBase
{
  public:
    Histogram2(StatGroup *parent, std::string name, std::string desc,
               unsigned sub_bits = 4);

    // Inline: sampled once or more per simulated memory access, which
    // makes the out-of-line call visible in whole-run profiles.
    void
    sample(std::uint64_t v, std::uint64_t weight = 1)
    {
        const std::size_t idx = bucketIndex(v);
        if (idx >= buckets_.size()) [[unlikely]]
            buckets_.resize(idx + 1, 0);
        buckets_[idx] += weight;
        samples_ += weight;
        sum_ += static_cast<double>(v) * static_cast<double>(weight);
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    std::uint64_t totalSamples() const { return samples_; }
    double mean() const { return samples_ ? sum_ / samples_ : 0.0; }
    std::uint64_t minValue() const { return samples_ ? min_ : 0; }
    std::uint64_t maxValue() const { return max_; }

    /**
     * Value at percentile @p p in [0, 100]: the upper edge of the
     * bucket holding the rank-ceil(p/100*N) sample (clamped to the
     * observed max), which over-estimates the exact order statistic
     * by at most a factor 1 + 1/2^sub_bits. 0 when empty.
     */
    double percentile(double p) const;

    /** Inclusive value range [lo, hi] covered by bucket @p idx. */
    std::uint64_t bucketLow(std::size_t idx) const;
    std::uint64_t bucketHigh(std::size_t idx) const;
    std::uint64_t bucketCount(std::size_t idx) const
    {
        return idx < buckets_.size() ? buckets_[idx] : 0;
    }
    std::size_t numBuckets() const { return buckets_.size(); }

    void printJson(std::ostream &os) const override;
    void reset() override;
    std::uint64_t snapshotValue() const override { return samples_; }

  private:
    std::size_t
    bucketIndex(std::uint64_t v) const
    {
        // Values below 2^sub_bits get one exact bucket each; above,
        // the top sub_bits bits after the leading one select a linear
        // sub-bucket within the value's power-of-two range.
        if ((v >> subBits_) == 0)
            return static_cast<std::size_t>(v);
        const unsigned k = 63 - static_cast<unsigned>(std::countl_zero(v));
        const unsigned shift = k - subBits_;
        const std::uint64_t sub =
            (v >> shift) & ((std::uint64_t(1) << subBits_) - 1);
        return ((static_cast<std::size_t>(k) - subBits_ + 1)
                << subBits_) +
               static_cast<std::size_t>(sub);
    }

    unsigned subBits_;
    std::vector<std::uint64_t> buckets_;  //!< Grown on demand.
    std::uint64_t samples_ = 0;
    double sum_ = 0.0;
    std::uint64_t min_ = ~std::uint64_t(0);
    std::uint64_t max_ = 0;
};

/**
 * A named collection of statistics and child groups.
 *
 * Groups do not own their children (children are usually members of
 * the owning simulation object); they only hold pointers for dumping.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);
    virtual ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &statName() const { return name_; }

    /** Full dotted path from the root group. */
    std::string fullStatPath() const;

    /**
     * Recursively emit this group as one JSON object: each statistic
     * as "name": value and each child group as "name": {...}, both in
     * stable (sorted-by-name) order, with fixed float precision, so
     * the output is bit-identical across runs.
     */
    void printJson(std::ostream &os) const;

    /** Recursively reset all statistics. Subclasses with non-Stat
     * counters override and chain to the base. */
    virtual void resetStats();

    void addStat(StatBase *stat) { stats_.push_back(stat); }
    void removeStat(StatBase *stat);

    const std::vector<StatBase *> &stats() const { return stats_; }
    const std::vector<StatGroup *> &children() const { return children_; }

  private:
    /** Stats sorted by name (stable JSON ordering). */
    std::vector<const StatBase *> sortedStats() const;
    std::vector<const StatGroup *> sortedChildren() const;

    std::string name_;
    StatGroup *parent_;
    std::vector<StatBase *> stats_;
    std::vector<StatGroup *> children_;
};

} // namespace d2m::stats

#endif // D2M_COMMON_STATS_HH
