/**
 * @file
 * Declarative machine shapes: the JSON description of one simulated
 * machine (msim-shape-v1).
 *
 * A shape file names every knob of MsConfig (units, per-unit
 * pipeline, ring hop latency, icache and data bank geometry, ARB
 * entries and full policy, predictor kind with RAS and descriptor
 * cache sizes, the optional shared L2 — "l2": null disables it,
 * "l2": {size_bytes, assoc, block_bytes, hit_latency, num_banks,
 * mshrs_per_bank, inclusion} enables it — and bus parameters) or of
 * the ScalarConfig baseline (which takes the same "l2" key), with
 * library defaults for anything omitted. Parsing is strict: unknown
 * or duplicate keys, wrong types, and out-of-range values all throw
 * ConfigError carrying the dotted field path ("dcache.bank_size_bytes"),
 * and every parsed shape passes MsConfig::validate() before it is
 * returned — a typo can never silently simulate a default machine.
 *
 * The parser reads one table row per key: the key, the member it
 * sets, and its integer range or allowed names.
 *
 * Shapes ship as files in <repo>/shapes (one per named preset;
 * overridable with $MSIM_SHAPE_DIR).
 */

#ifndef MSIM_CONFIG_MACHINE_SHAPE_HH
#define MSIM_CONFIG_MACHINE_SHAPE_HH

#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/ms_config.hh"
#include "core/scalar_processor.hh"
#include "sim/runner.hh"

namespace msim::config {

/** Schema identifier of shape files and inline machine objects. */
inline constexpr const char *kShapeSchema = "msim-shape-v1";

/** A malformed shape: carries the dotted path of the bad field. */
class ConfigError : public FatalError
{
  public:
    ConfigError(const std::string &field_path, const std::string &why)
        : FatalError("shape config: " +
                     (field_path.empty() ? why
                                         : field_path + ": " + why)),
          path(field_path), reason(why)
    {
    }

    /** Dotted field path, e.g. "arb.full_policy" ("" = whole doc). */
    std::string path;
    /** The violation, without the path prefix. */
    std::string reason;
};

/** One declarative machine: a multiscalar or scalar configuration. */
struct MachineShape
{
    /** Preset name ("" for anonymous inline machines). */
    std::string name;
    /** True = MsConfig shape, false = ScalarConfig baseline shape. */
    bool multiscalar = true;
    MsConfig ms;
    ScalarConfig scalar;

    bool operator==(const MachineShape &) const = default;
};

/** Parse a shape from JSON text (ParseError becomes ConfigError). */
MachineShape parseShape(const std::string &text);

/** Load and parse one shape file. */
MachineShape loadShapeFile(const std::string &path);

/**
 * The shape preset directory: $MSIM_SHAPE_DIR when set, else the
 * compiled-in <repo>/shapes default.
 */
std::string shapeDir();

/** Sorted preset names (the *.json basenames in shapeDir()). */
std::vector<std::string> listShapeNames();

/**
 * Resolve a shape by preset name or file path and cache the result.
 * Anything containing '/' or ending in ".json" is read as a file;
 * a bare name loads shapeDir()/<name>.json. Unknown presets throw
 * ConfigError listing the available names. Thread-safe.
 */
const MachineShape &resolveShape(const std::string &name_or_path);

/** A RunSpec running @p shape with all other knobs at defaults. */
RunSpec toRunSpec(const MachineShape &shape);

/** Convenience: resolveShape + toRunSpec. */
RunSpec specForShape(const std::string &name_or_path);

} // namespace msim::config

#endif // MSIM_CONFIG_MACHINE_SHAPE_HH
