/**
 * @file
 * Campaign sweep manifests (DESIGN.md §13).
 *
 * A manifest declares a whole campaign — grid, run lengths, seed,
 * jobs, store directory, build fingerprint, observability outputs —
 * in one key=value/section file instead of a pile of D2M_* environment
 * variables:
 *
 *   # fig5 nightly
 *   [campaign]
 *   store_dir  = out/store
 *   stats_json = out/results.json
 *   jobs       = 4
 *
 *   [grid]
 *   configs        = Base-2L,D2M-NS-R
 *   suites         = hpc,mobile
 *   insts_per_core = 20000
 *
 * Every key maps 1:1 onto an existing environment knob, and applying
 * a manifest simply seeds the environment — which makes the
 * equivalence guarantee structural: a manifest-driven campaign IS the
 * env-var-driven campaign. Variables already present in the
 * environment win over manifest values (command-line experimentation
 * overrides the file, the file overrides nothing the user said).
 *
 * Parsing is strict in the src/common/env.* tradition: unknown
 * sections or keys, duplicate keys, empty values, and malformed
 * numeric values are fatal() configuration errors with the offending
 * line number, never silent defaults.
 */

#ifndef D2M_HARNESS_MANIFEST_HH
#define D2M_HARNESS_MANIFEST_HH

#include <cstddef>
#include <string>
#include <vector>

namespace d2m
{

/** One key = value assignment from a manifest. */
struct ManifestEntry
{
    std::string section;  //!< Enclosing [section] name.
    std::string key;
    std::string value;
    std::string env;      //!< Mapped D2M_* variable.
    int line = 0;         //!< 1-based source line (diagnostics).
    /** True when the environment already carried this variable and
     * therefore overrode the manifest value (set by applyManifest). */
    bool overridden = false;
};

/** A parsed manifest (validated: every entry maps to a known env). */
struct Manifest
{
    std::string source;  //!< File path (or test label) for messages.
    std::vector<ManifestEntry> entries;
};

/** The recognised "section.key -> env var" mappings. */
struct ManifestKey
{
    const char *section;
    const char *key;
    const char *env;
    bool numeric;  //!< Value validated as a strict unsigned integer.
};

/** Full mapping table (for --help output, docs, and tests). */
const std::vector<ManifestKey> &manifestKeys();

/**
 * Parse manifest @p text. @p source names the input in diagnostics.
 * Unknown section/key, duplicate key, empty value, value for a
 * numeric key that is not a strict unsigned integer, or any syntax
 * error is fatal().
 */
Manifest parseManifestText(const std::string &text,
                           const std::string &source);

/** Read and parse the manifest file at @p path (fatal on IO error). */
Manifest parseManifestFile(const std::string &path);

/**
 * Apply @p m to the process environment: each entry's variable is set
 * to its value unless the environment already defines it (env wins;
 * the entry is flagged overridden). With @p verbose, one summary line
 * per entry goes to stderr. @return the number of entries applied
 * (not overridden).
 */
std::size_t applyManifest(Manifest &m, bool verbose);

} // namespace d2m

#endif // D2M_HARNESS_MANIFEST_HH
