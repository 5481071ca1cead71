#include "common/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"
#include "obs/json.hh"

namespace d2m::stats
{

StatBase::StatBase(StatGroup *parent, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc)), parent_(parent)
{
    if (parent_)
        parent_->addStat(this);
}

StatBase::~StatBase()
{
    // Deregister so a stat destroyed before its parent group does not
    // leave a dangling pointer in the group's stat list (the group
    // clears parent_ first when it is the one destroyed early).
    if (parent_)
        parent_->removeStat(this);
}

void
Counter::printJson(std::ostream &os) const
{
    os << json::number(value_);
}

Histogram2::Histogram2(StatGroup *parent, std::string name,
                       std::string desc, unsigned sub_bits)
    : StatBase(parent, std::move(name), std::move(desc)),
      subBits_(sub_bits)
{
    panic_if(sub_bits == 0 || sub_bits > 16,
             "Histogram2 sub_bits must be in [1, 16]");
}

std::uint64_t
Histogram2::bucketLow(std::size_t idx) const
{
    const std::uint64_t m = std::uint64_t(1) << subBits_;
    if (idx < m)
        return idx;
    const std::size_t block = idx >> subBits_;
    const std::uint64_t sub = idx & (m - 1);
    const unsigned shift = static_cast<unsigned>(block) - 1;
    return (m + sub) << shift;
}

std::uint64_t
Histogram2::bucketHigh(std::size_t idx) const
{
    const std::uint64_t m = std::uint64_t(1) << subBits_;
    if (idx < m)
        return idx;
    const unsigned shift = static_cast<unsigned>(idx >> subBits_) - 1;
    return bucketLow(idx) + ((std::uint64_t(1) << shift) - 1);
}

double
Histogram2::percentile(double p) const
{
    if (!samples_)
        return 0.0;
    const double clamped = std::min(std::max(p, 0.0), 100.0);
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(clamped / 100.0 * static_cast<double>(samples_)));
    rank = std::max<std::uint64_t>(rank, 1);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        seen += buckets_[b];
        if (seen >= rank) {
            return static_cast<double>(
                std::min(bucketHigh(b), max_));
        }
    }
    return static_cast<double>(max_);
}

void
Histogram2::printJson(std::ostream &os) const
{
    os << "{\"mean\":" << json::number(mean())
       << ",\"samples\":" << json::number(samples_)
       << ",\"min\":" << json::number(minValue())
       << ",\"max\":" << json::number(max_)
       << ",\"p50\":" << json::number(percentile(50))
       << ",\"p95\":" << json::number(percentile(95))
       << ",\"p99\":" << json::number(percentile(99))
       << ",\"buckets\":[";
    bool first = true;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        if (!buckets_[b])
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "{\"lo\":" << json::number(bucketLow(b))
           << ",\"hi\":" << json::number(bucketHigh(b))
           << ",\"count\":" << json::number(buckets_[b]) << "}";
    }
    os << "]}";
}

void
Histogram2::reset()
{
    buckets_.clear();
    samples_ = 0;
    sum_ = 0.0;
    min_ = ~std::uint64_t(0);
    max_ = 0;
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : name_(std::move(name)), parent_(parent)
{
    if (parent_)
        parent_->children_.push_back(this);
}

StatGroup::~StatGroup()
{
    if (parent_) {
        auto &siblings = parent_->children_;
        siblings.erase(std::remove(siblings.begin(), siblings.end(), this),
                       siblings.end());
    }
    // Orphan surviving members so their later destruction (or stat
    // deregistration) never touches this freed group.
    for (StatBase *stat : stats_)
        stat->parent_ = nullptr;
    for (StatGroup *child : children_)
        child->parent_ = nullptr;
}

void
StatGroup::removeStat(StatBase *stat)
{
    stats_.erase(std::remove(stats_.begin(), stats_.end(), stat),
                 stats_.end());
}

std::string
StatGroup::fullStatPath() const
{
    if (!parent_)
        return name_;
    return parent_->fullStatPath() + "." + name_;
}

std::vector<const StatBase *>
StatGroup::sortedStats() const
{
    std::vector<const StatBase *> out(stats_.begin(), stats_.end());
    std::stable_sort(out.begin(), out.end(),
                     [](const StatBase *a, const StatBase *b) {
                         return a->name() < b->name();
                     });
    return out;
}

std::vector<const StatGroup *>
StatGroup::sortedChildren() const
{
    std::vector<const StatGroup *> out(children_.begin(), children_.end());
    std::stable_sort(out.begin(), out.end(),
                     [](const StatGroup *a, const StatGroup *b) {
                         return a->statName() < b->statName();
                     });
    return out;
}

void
StatGroup::printJson(std::ostream &os) const
{
    os << "{";
    bool first = true;
    for (const auto *stat : sortedStats()) {
        if (!first)
            os << ",";
        first = false;
        os << json::quote(stat->name()) << ":";
        stat->printJson(os);
    }
    for (const auto *child : sortedChildren()) {
        if (!first)
            os << ",";
        first = false;
        os << json::quote(child->statName()) << ":";
        child->printJson(os);
    }
    os << "}";
}

void
StatGroup::resetStats()
{
    for (auto *stat : stats_)
        stat->reset();
    for (auto *child : children_)
        child->resetStats();
}

} // namespace d2m::stats
