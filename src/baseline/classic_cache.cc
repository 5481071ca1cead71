#include "baseline/classic_cache.hh"

#include <utility>

#include "common/logging.hh"
#include "mem/replacement.hh"

namespace d2m
{

ClassicCache::ClassicCache(std::string name, SimObject *parent,
                           std::uint32_t total_lines, std::uint32_t assoc,
                           unsigned line_shift)
    : SimObject(std::move(name), parent),
      geom_(total_lines, assoc, line_shift),
      lines_(total_lines),
      tagMirror_(total_lines, invalidAddr),
      stamps_(total_lines)
{}

ClassicLine *
ClassicCache::lookup(Addr line_addr)
{
    ClassicLine *line = probe(line_addr);
    if (line)
        stamps_[indexOf(*line)] = ++clock_;
    return line;
}

ClassicLine *
ClassicCache::probe(Addr line_addr)
{
    return const_cast<ClassicLine *>(std::as_const(*this).probe(line_addr));
}

const ClassicLine *
ClassicCache::probe(Addr line_addr) const
{
    const std::uint32_t base =
        geom_.setIndex(line_addr << geom_.unitShift()) * geom_.assoc();
    const Addr *tags = tagMirror_.data() + base;
    for (std::uint32_t w = 0; w < geom_.assoc(); ++w) {
        if (tags[w] != line_addr)
            continue;
        // Mirror hits are candidates only: verify against the line.
        const ClassicLine &line = lines_[base + w];
        if (line.valid() && line.lineAddr == line_addr)
            return &line;
    }
    return nullptr;
}

ClassicLine &
ClassicCache::victimFor(Addr line_addr)
{
    const std::uint32_t set = geom_.setIndex(line_addr << geom_.unitShift());
    ClassicLine *const base = &lines_[set * geom_.assoc()];
    for (std::uint32_t w = 0; w < geom_.assoc(); ++w) {
        if (!base[w].valid())
            return base[w];
    }
    return base[lruVictim(stamps_.data() + set * geom_.assoc(),
                          geom_.assoc())];
}

void
ClassicCache::install(ClassicLine &slot, Addr line_addr, Mesi state,
                      std::uint64_t value)
{
    panic_if(slot.valid(), "installing over a valid line; evict first");
    panic_if(state == Mesi::I, "installing an invalid line");
    slot.lineAddr = line_addr;
    slot.state = state;
    slot.value = value;
    slot.dirty = false;
    slot.sharers = 0;
    slot.owner = invalidNode;
    tagMirror_[indexOf(slot)] = line_addr;
    stamps_[indexOf(slot)] = ++clock_;
}

bool
ClassicCache::isMru(const ClassicLine &line) const
{
    const std::uint32_t base =
        geom_.setIndex(line.lineAddr << geom_.unitShift()) * geom_.assoc();
    const std::uint64_t touch = stamps_[indexOf(line)];
    for (std::uint32_t w = 0; w < geom_.assoc(); ++w) {
        const ClassicLine &other = lines_[base + w];
        if (other.valid() && stamps_[base + w] > touch)
            return false;
    }
    return true;
}

} // namespace d2m
