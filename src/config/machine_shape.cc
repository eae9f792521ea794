#include "config/machine_shape.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.hh"

namespace msim::config {

namespace {

[[noreturn]] void
fail(const std::string &path, const std::string &why)
{
    throw ConfigError(path, why);
}

std::string
joinPath(const std::string &prefix, const std::string &key)
{
    return prefix.empty() ? key : prefix + "." + key;
}

std::uint64_t
requireUint(const json::Value &v, const std::string &path,
            std::uint64_t min, std::uint64_t max)
{
    // Range-check the double before any integer conversion: casting
    // a number such as 1e30 to an integer type is undefined.
    const double d = v.isNumber() ? v.asDouble() : -1;
    if (d < 0 || d != std::floor(d))
        fail(path, "must be a non-negative integer");
    if (d < double(min) || d > double(max)) {
        std::ostringstream got;
        if (d < 0x1p63)
            got << v.asInt();
        else
            got << d;
        fail(path, "must be in [" + std::to_string(min) + ", " +
                       std::to_string(max) + "], got " + got.str());
    }
    return std::uint64_t(v.asInt());
}

bool
requireBool(const json::Value &v, const std::string &path)
{
    if (!v.isBool())
        fail(path, "must be a boolean");
    return v.asBool();
}

std::string
requireString(const json::Value &v, const std::string &path)
{
    if (!v.isString())
        fail(path, "must be a string");
    return v.asString();
}

/** One table row: a key and how its value reaches the config. */
struct Field
{
    std::string_view key;
    std::function<void(const json::Value &, const std::string &)> set;
};

/** Keys that belong elsewhere, each with where (or why not). */
using Hints = std::vector<std::pair<std::string_view, std::string_view>>;

/**
 * Walk one JSON object in document order, dispatching each entry to
 * its row. Unknown keys fail with their dotted path (plus the hint
 * when the key has one), duplicates always fail.
 */
void
walkObject(const json::Value &v, const std::string &prefix,
           const std::vector<Field> &fields, const Hints &hints)
{
    if (!v.isObject())
        fail(prefix.empty() ? "(document)" : prefix,
             "must be a JSON object");
    std::set<std::string> seen;
    for (const auto &[key, value] : v.entries()) {
        const std::string path = joinPath(prefix, key);
        if (!seen.insert(key).second)
            fail(path, "duplicate key");
        const auto field =
            std::find_if(fields.begin(), fields.end(),
                         [&key](const Field &f) { return f.key == key; });
        if (field == fields.end()) {
            const auto hint = std::find_if(
                hints.begin(), hints.end(),
                [&key](const auto &h) { return h.first == key; });
            fail(path, hint != hints.end()
                           ? "unknown key (" + std::string(hint->second) +
                                 ")"
                           : "unknown key");
        }
        field->set(value, path);
    }
}

/** An unsigned integer in [min, max]. */
template <class T>
Field
uintField(std::string_view key, T &dst, unsigned min, unsigned max)
{
    return {key,
            [&dst, min, max](const json::Value &v, const std::string &p) {
                dst = T(requireUint(v, p, min, max));
            }};
}

Field
boolField(std::string_view key, bool &dst)
{
    return {key,
            [&dst](const json::Value &v, const std::string &p) {
                dst = requireBool(v, p);
            }};
}

/** A string naming one of @p choices. */
template <class T>
Field
choiceField(std::string_view key, T &dst,
            std::vector<std::pair<std::string, T>> choices)
{
    return {key,
            [&dst, choices = std::move(choices)](const json::Value &v,
                                                 const std::string &p) {
                const std::string s = requireString(v, p);
                std::string names;
                for (std::size_t i = 0; i < choices.size(); ++i) {
                    if (choices[i].first == s) {
                        dst = choices[i].second;
                        return;
                    }
                    if (i != 0)
                        names += i + 1 == choices.size() ? " or " : ", ";
                    names += "\"" + choices[i].first + "\"";
                }
                fail(p, "must be " + names + ", got \"" + s + "\"");
            }};
}

/** A nested object whose keys are @p fields. */
Field
objectField(std::string_view key, std::vector<Field> fields,
            Hints hints = {})
{
    return {key,
            [fields = std::move(fields), hints = std::move(hints)](
                const json::Value &v, const std::string &p) {
                walkObject(v, p, fields, hints);
            }};
}

Field
puField(PuConfig &pu)
{
    return objectField(
        "pu",
        {
            uintField("issue_width", pu.issueWidth, 1, 2),
            boolField("out_of_order", pu.outOfOrder),
            uintField("window_size", pu.windowSize, 1, 1024),
            uintField("fetch_buffer_size", pu.fetchBufferSize, 1, 1024),
            boolField("intra_branch_predict", pu.intraBranchPredict),
            uintField("branch_predictor_entries",
                      pu.branchPredictorEntries, 1, 1u << 20),
        });
}

Field
cacheField(std::string_view key, Cache::Params &cache)
{
    return objectField(
        key,
        {
            uintField("size_bytes", cache.sizeBytes, 1, 1u << 30),
            uintField("block_bytes", cache.blockBytes, 1, 1u << 20),
            uintField("hit_latency", cache.hitLatency, 0, 1024),
        });
}

/**
 * The "l2" key: null disables the shared L2 (the default machine),
 * an object configures it.
 */
Field
l2Field(std::optional<L2Params> &l2)
{
    return {"l2", [&l2](const json::Value &v, const std::string &p) {
                if (v.isNull()) {
                    l2.reset();
                    return;
                }
                L2Params &c = l2.emplace();
                walkObject(
                    v, p,
                    {
                        uintField("size_bytes", c.sizeBytes, 1, 1u << 30),
                        uintField("assoc", c.assoc, 1, 64),
                        uintField("block_bytes", c.blockBytes, 1, 1u << 20),
                        uintField("hit_latency", c.hitLatency, 0, 1024),
                        uintField("num_banks", c.numBanks, 1, 64),
                        uintField("mshrs_per_bank", c.mshrsPerBank, 1, 1024),
                        choiceField("inclusion", c.inclusion,
                                    {{"inclusive", L2Inclusion::kInclusive},
                                     {"exclusive", L2Inclusion::kExclusive},
                                     {"nine", L2Inclusion::kNine}}),
                    },
                    {{"bank_size_bytes",
                      "the L2 is sized by size_bytes split over num_banks"}});
            }};
}

Field
busField(MemoryBus::Params &bus)
{
    return objectField(
        "bus",
        {
            uintField("first_beat_latency", bus.firstBeatLatency, 1, 4096),
            uintField("extra_beat_latency", bus.extraBeatLatency, 0, 4096),
            uintField("beat_words", bus.beatWords, 1, 64),
        });
}

/**
 * Walk a whole document: @p fields and @p hints of one machine kind
 * plus the header keys (read before the walk, by shapeFromJson) and
 * the hints both kinds share.
 */
void
walkDocument(const json::Value &doc, std::vector<Field> fields,
             Hints hints)
{
    for (const char *key : {"schema", "name", "multiscalar"})
        fields.push_back({key, [](const json::Value &,
                                  const std::string &) {}});
    hints.emplace_back("mshrs_per_bank", "belongs in the l2 block");
    hints.emplace_back("inclusion", "belongs in the l2 block");
    walkObject(doc, "", fields, hints);
}

void
parseMultiscalar(const json::Value &doc, MsConfig &ms)
{
    walkDocument(
        doc,
        {
            uintField("units", ms.numUnits, 1, 64),
            puField(ms.pu),
            uintField("ring_hop_latency", ms.ringHopLatency, 0, 64),
            cacheField("icache", ms.icache),
            objectField(
                "dcache",
                {
                    // 0 is the documented defaulting marker: "use
                    // 2 × units" (MsConfig::effectiveBanks).
                    uintField("num_banks", ms.numBanks, 0, 1024),
                    uintField("bank_size_bytes", ms.bankSizeBytes, 1,
                              1u << 30),
                    uintField("block_bytes", ms.blockBytes, 1, 1u << 20),
                    uintField("hit_latency", ms.dcacheHitLatency, 0, 1024),
                },
                {{"size_bytes", "multiscalar data banks use num_banks "
                                "and bank_size_bytes"}}),
            objectField(
                "arb",
                {
                    uintField("entries_per_bank", ms.arbEntriesPerBank, 1,
                              1u << 20),
                    choiceField("full_policy", ms.arbFullPolicy,
                                {{"squash", ArbFullPolicy::kSquash},
                                 {"stall", ArbFullPolicy::kStall}}),
                }),
            objectField(
                "predictor",
                {
                    choiceField("kind", ms.predictor,
                                {{"pas", "pas"},
                                 {"last", "last"},
                                 {"static", "static"}}),
                    uintField("ras_entries", ms.rasEntries, 1, 1u << 16),
                    uintField("descriptor_cache_entries",
                              ms.descCacheEntries, 1, 1u << 20),
                }),
            l2Field(ms.l2),
            busField(ms.bus),
        },
        {});
}

void
parseScalar(const json::Value &doc, ScalarConfig &sc)
{
    walkDocument(
        doc,
        {
            puField(sc.pu),
            cacheField("icache", sc.icache),
            cacheField("dcache", sc.dcache),
            l2Field(sc.l2),
            busField(sc.bus),
        },
        {
            {"units", "scalar shapes model a single unit"},
            {"ring_hop_latency", "scalar shapes have no forwarding ring"},
            {"arb", "scalar shapes have no ARB"},
            {"predictor", "scalar shapes have no task predictor"},
        });
}

/** Parse a shape from its JSON document (strict; throws ConfigError). */
MachineShape
shapeFromJson(const json::Value &doc)
{
    if (!doc.isObject())
        fail("(document)", "a machine shape must be a JSON object");

    MachineShape shape;
    if (const json::Value *schema = doc.find("schema")) {
        const std::string s = requireString(*schema, "schema");
        if (s != kShapeSchema)
            fail("schema", std::string("expected \"") + kShapeSchema +
                               "\", got \"" + s + "\"");
    }
    if (const json::Value *name = doc.find("name"))
        shape.name = requireString(*name, "name");
    if (const json::Value *ms = doc.find("multiscalar"))
        shape.multiscalar = requireBool(*ms, "multiscalar");

    if (shape.multiscalar)
        parseMultiscalar(doc, shape.ms);
    else
        parseScalar(doc, shape.scalar);
    try {
        if (shape.multiscalar)
            shape.ms.validate();
        else
            shape.scalar.validate();
    } catch (const FatalError &e) {
        fail("", e.what());
    }
    return shape;
}

} // namespace

MachineShape
parseShape(const std::string &text)
{
    json::Value doc;
    try {
        doc = json::Value::parse(text);
    } catch (const json::ParseError &e) {
        fail("(document)", e.what());
    }
    return shapeFromJson(doc);
}

MachineShape
loadShapeFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fail("(document)", "cannot open shape file '" + path + "'");
    std::stringstream ss;
    ss << in.rdbuf();
    try {
        return parseShape(ss.str());
    } catch (const ConfigError &e) {
        // Re-anchor the diagnostic on the file.
        throw ConfigError(e.path, "in " + path + ": " + e.reason);
    }
}

std::string
shapeDir()
{
    if (const char *env = std::getenv("MSIM_SHAPE_DIR"))
        if (*env != '\0')
            return env;
#ifdef MSIM_SHAPE_DIR_DEFAULT
    return MSIM_SHAPE_DIR_DEFAULT;
#else
    return "shapes";
#endif
}

std::vector<std::string>
listShapeNames()
{
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(shapeDir(), ec)) {
        if (entry.path().extension() == ".json")
            names.push_back(entry.path().stem().string());
    }
    std::sort(names.begin(), names.end());
    return names;
}

const MachineShape &
resolveShape(const std::string &name_or_path)
{
    static std::mutex mutex;
    static std::map<std::string, MachineShape> cache;
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(name_or_path);
    if (it != cache.end())
        return it->second;

    const bool is_path =
        name_or_path.find('/') != std::string::npos ||
        (name_or_path.size() > 5 &&
         name_or_path.compare(name_or_path.size() - 5, 5, ".json") ==
             0);
    std::string path = name_or_path;
    if (!is_path) {
        path = shapeDir() + "/" + name_or_path + ".json";
        if (!std::filesystem::exists(path)) {
            std::string known;
            for (const std::string &n : listShapeNames())
                known += (known.empty() ? "" : ", ") + n;
            fail("(document)",
                 "unknown shape preset '" + name_or_path +
                     "' (no " + path + "; available: " +
                     (known.empty() ? "none" : known) + ")");
        }
    }
    return cache.emplace(name_or_path, loadShapeFile(path))
        .first->second;
}

RunSpec
toRunSpec(const MachineShape &shape)
{
    RunSpec spec;
    spec.multiscalar = shape.multiscalar;
    if (shape.multiscalar)
        spec.ms = shape.ms;
    else
        spec.scalar = shape.scalar;
    return spec;
}

RunSpec
specForShape(const std::string &name_or_path)
{
    return toRunSpec(resolveShape(name_or_path));
}

} // namespace msim::config
