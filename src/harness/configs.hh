/**
 * @file
 * The five evaluated system configurations (paper Section V-A,
 * Figure 4): Base-2L, Base-3L, D2M-FS, D2M-NS, D2M-NS-R.
 */

#ifndef D2M_HARNESS_CONFIGS_HH
#define D2M_HARNESS_CONFIGS_HH

#include <memory>
#include <string>
#include <vector>

#include "cpu/mem_system.hh"

namespace d2m
{

/** The evaluated configurations. */
enum class ConfigKind
{
    Base2L,  //!< L1 + shared far-side LLC + directory (A57-like).
    Base3L,  //!< Base2L + 256KB private L2 per core.
    D2mFs,   //!< D2M with a far-side LLC.
    D2mNs,   //!< D2M with near-side LLC slices (placement heuristic).
    D2mNsR,  //!< D2M-NS + replication + dynamic indexing.
};

const char *configKindName(ConfigKind kind);

/** All configurations in the paper's plotting order. */
std::vector<ConfigKind> allConfigs();

/** Specialize @p base for @p kind (Table III analogue). */
SystemParams paramsFor(ConfigKind kind, SystemParams base = {});

/**
 * Why @p kind cannot be built on @p base (for the D2M configs, an LI
 * encoding limit; see d2m/location_info.hh), or an empty string if it
 * can. Lets a sweep reject an impossible grid before any cell runs.
 */
std::string configError(ConfigKind kind, const SystemParams &base);

/** Build a ready-to-run system. */
std::unique_ptr<MemorySystem> makeSystem(ConfigKind kind,
                                         const SystemParams &base = {});

} // namespace d2m

#endif // D2M_HARNESS_CONFIGS_HH
