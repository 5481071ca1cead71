/**
 * @file
 * Shared helpers for driving memory systems in directed tests, and
 * for naming the files a test writes.
 */

#ifndef D2M_TESTS_TEST_UTIL_HH
#define D2M_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <string>

#include "cpu/mem_system.hh"

namespace d2m::test
{

inline MemAccess
load(Addr vaddr, AsId asid = 0)
{
    MemAccess a;
    a.type = AccessType::LOAD;
    a.vaddr = vaddr;
    a.asid = asid;
    return a;
}

inline MemAccess
store(Addr vaddr, std::uint64_t value, AsId asid = 0)
{
    MemAccess a;
    a.type = AccessType::STORE;
    a.vaddr = vaddr;
    a.asid = asid;
    a.storeValue = value;
    return a;
}

inline MemAccess
ifetch(Addr vaddr, AsId asid = 0)
{
    MemAccess a;
    a.type = AccessType::IFETCH;
    a.vaddr = vaddr;
    a.asid = asid;
    a.instCount = 16;
    return a;
}

/** Execute an access at time 0 and return the result. */
inline AccessResult
run(MemorySystem &sys, NodeId node, const MemAccess &acc, Tick now = 0)
{
    return sys.access(node, acc, now);
}

/** Physical region number of @p vaddr in @p sys. */
inline std::uint64_t
pregionOf(MemorySystem &sys, Addr vaddr, AsId asid = 0)
{
    const Addr paddr = sys.pageTable().translate(asid, vaddr);
    return paddr >> sys.params().regionShift();
}

/**
 * testing::TempDir() + @p name + this process's id: a file or store
 * directory that no concurrent run of the same test binary shares.
 */
inline std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name + "." + std::to_string(::getpid());
}

/** EXPECT-style invariant check helper. */
inline std::string
invariantReport(const MemorySystem &sys)
{
    std::string why;
    return sys.checkInvariants(why) ? std::string() : why;
}

} // namespace d2m::test

#endif // D2M_TESTS_TEST_UTIL_HH
