#include "obs/debug.hh"

#include <cstdio>
#include <cstdlib>

#include "common/stats.hh"

namespace d2m::debug
{

std::uint32_t enabledMask = 0;
constinit thread_local Tick curTick = 0;

namespace
{

struct FlagName
{
    Flag flag;
    const char *name;
};

constexpr FlagName kFlagNames[] = {
    {Flag::MD, "MD"},
    {Flag::Coherence, "Coherence"},
    {Flag::NoC, "NoC"},
    {Flag::Replacement, "Replacement"},
    {Flag::NSLLC, "NSLLC"},
    {Flag::Index, "Index"},
    {Flag::Exec, "Exec"},
};

/** Run initFromEnv() before main() so the mask is cached exactly once. */
struct EnvInit
{
    EnvInit() { initFromEnv(); }
} envInit;

} // namespace

const char *
flagName(Flag f)
{
    for (const auto &fn : kFlagNames) {
        if (fn.flag == f)
            return fn.name;
    }
    return "?";
}

const char *
allFlagNames()
{
    return "MD,Coherence,NoC,Replacement,NSLLC,Index,Exec,All";
}

std::uint32_t
parseFlags(const std::string &spec)
{
    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string tok = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (tok.empty())
            continue;  // tolerate "A,,B" and trailing commas
        if (tok == "All" || tok == "all") {
            for (const auto &fn : kFlagNames)
                mask |= static_cast<std::uint32_t>(fn.flag);
            continue;
        }
        bool found = false;
        for (const auto &fn : kFlagNames) {
            if (tok == fn.name) {
                mask |= static_cast<std::uint32_t>(fn.flag);
                found = true;
                break;
            }
        }
        fatal_if(!found, "D2M_DEBUG: unknown debug flag \"%s\" (known: %s)",
                 tok.c_str(), allFlagNames());
    }
    return mask;
}

void
setFlags(std::uint32_t mask)
{
    enabledMask = mask;
}

void
initFromEnv()
{
    const char *spec = std::getenv("D2M_DEBUG");
    enabledMask = spec ? parseFlags(spec) : 0;
}

void
traceLine(Flag f, const stats::StatGroup *obj, const std::string &msg)
{
    const std::string path = obj ? obj->fullStatPath() : "global";
    std::fprintf(stderr, "%10llu: %s: [%s] %s\n",
                 static_cast<unsigned long long>(curTick), path.c_str(),
                 flagName(f), msg.c_str());
}

} // namespace d2m::debug
