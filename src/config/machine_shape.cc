#include "config/machine_shape.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <sstream>

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
    if (!v.isNumber() || v.asDouble() < 0 ||
        double(v.asInt()) != v.asDouble())
        fail(path, "must be a non-negative integer");
    const std::uint64_t u = std::uint64_t(v.asInt());
    if (u < min || u > max)
        fail(path, "must be in [" + std::to_string(min) + ", " +
                       std::to_string(max) + "], got " +
                       std::to_string(u));
    return u;
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

using FieldHandler =
    std::function<void(const json::Value &, const std::string &)>;

/**
 * Walk one JSON object, dispatching each entry to its handler.
 * Unknown keys fail with their dotted path (plus a hint when the key
 * belongs to the other machine kind), duplicates always fail.
 */
void
walkObject(const json::Value &v, const std::string &prefix,
           const std::map<std::string, FieldHandler> &fields,
           const std::map<std::string, std::string> &hints = {})
{
    if (!v.isObject())
        fail(prefix.empty() ? "(document)" : prefix,
             "must be a JSON object");
    std::set<std::string> seen;
    for (const auto &[key, value] : v.entries()) {
        const std::string path = joinPath(prefix, key);
        if (!seen.insert(key).second)
            fail(path, "duplicate key");
        const auto it = fields.find(key);
        if (it == fields.end()) {
            const auto hint = hints.find(key);
            fail(path, hint != hints.end()
                           ? "unknown key (" + hint->second + ")"
                           : "unknown key");
        }
        it->second(value, path);
    }
}

std::map<std::string, FieldHandler>
puFields(PuConfig &pu)
{
    return {
        {"issue_width",
         [&pu](const json::Value &v, const std::string &p) {
             pu.issueWidth = unsigned(requireUint(v, p, 1, 16));
         }},
        {"out_of_order",
         [&pu](const json::Value &v, const std::string &p) {
             pu.outOfOrder = requireBool(v, p);
         }},
        {"window_size",
         [&pu](const json::Value &v, const std::string &p) {
             pu.windowSize = unsigned(requireUint(v, p, 1, 1024));
         }},
        {"fetch_buffer_size",
         [&pu](const json::Value &v, const std::string &p) {
             pu.fetchBufferSize = unsigned(requireUint(v, p, 1, 1024));
         }},
        {"intra_branch_predict",
         [&pu](const json::Value &v, const std::string &p) {
             pu.intraBranchPredict = requireBool(v, p);
         }},
        {"branch_predictor_entries",
         [&pu](const json::Value &v, const std::string &p) {
             pu.branchPredictorEntries =
                 unsigned(requireUint(v, p, 1, 1u << 20));
         }},
    };
}

FieldHandler
cacheHandler(Cache::Params &cache)
{
    return [&cache](const json::Value &v, const std::string &p) {
        walkObject(
            v, p,
            {
                {"size_bytes",
                 [&cache](const json::Value &f, const std::string &fp) {
                     cache.sizeBytes =
                         std::size_t(requireUint(f, fp, 1, 1u << 30));
                 }},
                {"block_bytes",
                 [&cache](const json::Value &f, const std::string &fp) {
                     cache.blockBytes =
                         std::size_t(requireUint(f, fp, 1, 1u << 20));
                 }},
                {"hit_latency",
                 [&cache](const json::Value &f, const std::string &fp) {
                     cache.hitLatency =
                         unsigned(requireUint(f, fp, 0, 1024));
                 }},
            });
    };
}

/**
 * The "l2" key: null disables the shared L2 (the default machine),
 * an object configures it. Writes through @p l2 (an optional owned
 * by MsConfig or ScalarConfig).
 */
FieldHandler
l2Handler(std::optional<L2Params> &l2)
{
    return [&l2](const json::Value &v, const std::string &p) {
        if (v.isNull()) {
            l2.reset();
            return;
        }
        l2.emplace();
        L2Params &params = *l2;
        walkObject(
            v, p,
            {
                {"size_bytes",
                 [&params](const json::Value &f, const std::string &fp) {
                     params.sizeBytes =
                         std::size_t(requireUint(f, fp, 1, 1u << 30));
                 }},
                {"assoc",
                 [&params](const json::Value &f, const std::string &fp) {
                     params.assoc = unsigned(requireUint(f, fp, 1, 64));
                 }},
                {"block_bytes",
                 [&params](const json::Value &f, const std::string &fp) {
                     params.blockBytes =
                         std::size_t(requireUint(f, fp, 1, 1u << 20));
                 }},
                {"hit_latency",
                 [&params](const json::Value &f, const std::string &fp) {
                     params.hitLatency =
                         unsigned(requireUint(f, fp, 0, 1024));
                 }},
                {"num_banks",
                 [&params](const json::Value &f, const std::string &fp) {
                     params.numBanks =
                         unsigned(requireUint(f, fp, 1, 64));
                 }},
                {"mshrs_per_bank",
                 [&params](const json::Value &f, const std::string &fp) {
                     params.mshrsPerBank =
                         unsigned(requireUint(f, fp, 1, 1024));
                 }},
                {"inclusion",
                 [&params](const json::Value &f, const std::string &fp) {
                     const std::string s = requireString(f, fp);
                     if (s == "inclusive")
                         params.inclusion = L2Inclusion::kInclusive;
                     else if (s == "exclusive")
                         params.inclusion = L2Inclusion::kExclusive;
                     else if (s == "nine")
                         params.inclusion = L2Inclusion::kNine;
                     else
                         fail(fp, "must be \"inclusive\", "
                                  "\"exclusive\" or \"nine\", got \"" +
                                      s + "\"");
                 }},
            },
            {{"bank_size_bytes",
              "the L2 is sized by size_bytes split over num_banks"}});
    };
}

FieldHandler
busHandler(MemoryBus::Params &bus)
{
    return [&bus](const json::Value &v, const std::string &p) {
        walkObject(
            v, p,
            {
                {"first_beat_latency",
                 [&bus](const json::Value &f, const std::string &fp) {
                     bus.firstBeatLatency =
                         unsigned(requireUint(f, fp, 1, 4096));
                 }},
                {"extra_beat_latency",
                 [&bus](const json::Value &f, const std::string &fp) {
                     bus.extraBeatLatency =
                         unsigned(requireUint(f, fp, 0, 4096));
                 }},
                {"beat_words",
                 [&bus](const json::Value &f, const std::string &fp) {
                     bus.beatWords =
                         unsigned(requireUint(f, fp, 1, 64));
                 }},
            });
    };
}

void
parseMultiscalar(const json::Value &doc, MachineShape &shape)
{
    MsConfig &ms = shape.ms;
    std::map<std::string, FieldHandler> fields = {
        {"schema", [](const json::Value &, const std::string &) {}},
        {"name", [](const json::Value &, const std::string &) {}},
        {"multiscalar",
         [](const json::Value &, const std::string &) {}},
        {"units",
         [&ms](const json::Value &v, const std::string &p) {
             ms.numUnits = unsigned(requireUint(v, p, 1, 64));
         }},
        {"pu",
         [&ms](const json::Value &v, const std::string &p) {
             walkObject(v, p, puFields(ms.pu));
         }},
        {"ring_hop_latency",
         [&ms](const json::Value &v, const std::string &p) {
             ms.ringHopLatency = unsigned(requireUint(v, p, 0, 64));
         }},
        {"icache", cacheHandler(ms.icache)},
        {"dcache",
         [&ms](const json::Value &v, const std::string &p) {
             walkObject(
                 v, p,
                 {
                     {"num_banks",
                      [&ms](const json::Value &f,
                            const std::string &fp) {
                          // 0 is the documented defaulting marker:
                          // "use 2 × units" (MsConfig::effectiveBanks).
                          ms.numBanks =
                              unsigned(requireUint(f, fp, 0, 1024));
                      }},
                     {"bank_size_bytes",
                      [&ms](const json::Value &f,
                            const std::string &fp) {
                          ms.bankSizeBytes = std::size_t(
                              requireUint(f, fp, 1, 1u << 30));
                      }},
                     {"block_bytes",
                      [&ms](const json::Value &f,
                            const std::string &fp) {
                          ms.blockBytes = std::size_t(
                              requireUint(f, fp, 1, 1u << 20));
                      }},
                     {"hit_latency",
                      [&ms](const json::Value &f,
                            const std::string &fp) {
                          ms.dcacheHitLatency =
                              unsigned(requireUint(f, fp, 0, 1024));
                      }},
                 },
                 {{"size_bytes",
                   "multiscalar data banks use num_banks and "
                   "bank_size_bytes"}});
         }},
        {"arb",
         [&ms](const json::Value &v, const std::string &p) {
             walkObject(
                 v, p,
                 {
                     {"entries_per_bank",
                      [&ms](const json::Value &f,
                            const std::string &fp) {
                          ms.arbEntriesPerBank = unsigned(
                              requireUint(f, fp, 1, 1u << 20));
                      }},
                     {"full_policy",
                      [&ms](const json::Value &f,
                            const std::string &fp) {
                          const std::string s = requireString(f, fp);
                          if (s == "squash")
                              ms.arbFullPolicy = ArbFullPolicy::kSquash;
                          else if (s == "stall")
                              ms.arbFullPolicy = ArbFullPolicy::kStall;
                          else
                              fail(fp, "must be \"squash\" or "
                                       "\"stall\", got \"" + s + "\"");
                      }},
                 });
         }},
        {"predictor",
         [&ms](const json::Value &v, const std::string &p) {
             walkObject(
                 v, p,
                 {
                     {"kind",
                      [&ms](const json::Value &f,
                            const std::string &fp) {
                          const std::string s = requireString(f, fp);
                          if (s != "pas" && s != "last" &&
                              s != "static")
                              fail(fp, "must be \"pas\", \"last\" or "
                                       "\"static\", got \"" + s +
                                       "\"");
                          ms.predictor = s;
                      }},
                     {"ras_entries",
                      [&ms](const json::Value &f,
                            const std::string &fp) {
                          ms.rasEntries = unsigned(
                              requireUint(f, fp, 1, 1u << 16));
                      }},
                     {"descriptor_cache_entries",
                      [&ms](const json::Value &f,
                            const std::string &fp) {
                          ms.descCacheEntries = unsigned(
                              requireUint(f, fp, 1, 1u << 20));
                      }},
                 });
         }},
        {"l2", l2Handler(ms.l2)},
        {"bus", busHandler(ms.bus)},
    };
    const std::map<std::string, std::string> hints = {
        {"mshrs_per_bank", "belongs in the l2 block"},
        {"inclusion", "belongs in the l2 block"},
    };
    walkObject(doc, "", fields, hints);
}

void
parseScalar(const json::Value &doc, MachineShape &shape)
{
    ScalarConfig &sc = shape.scalar;
    std::map<std::string, FieldHandler> fields = {
        {"schema", [](const json::Value &, const std::string &) {}},
        {"name", [](const json::Value &, const std::string &) {}},
        {"multiscalar",
         [](const json::Value &, const std::string &) {}},
        {"pu",
         [&sc](const json::Value &v, const std::string &p) {
             walkObject(v, p, puFields(sc.pu));
         }},
        {"icache", cacheHandler(sc.icache)},
        {"dcache", cacheHandler(sc.dcache)},
        {"l2", l2Handler(sc.l2)},
        {"bus", busHandler(sc.bus)},
    };
    const std::map<std::string, std::string> hints = {
        {"units", "scalar shapes model a single unit"},
        {"ring_hop_latency", "scalar shapes have no forwarding ring"},
        {"arb", "scalar shapes have no ARB"},
        {"predictor", "scalar shapes have no task predictor"},
        {"mshrs_per_bank", "belongs in the l2 block"},
        {"inclusion", "belongs in the l2 block"},
    };
    walkObject(doc, "", fields, hints);
}

json::Value
puToJson(const PuConfig &pu)
{
    json::Value v = json::Value::object();
    v.set("issue_width", json::Value(pu.issueWidth));
    v.set("out_of_order", json::Value(pu.outOfOrder));
    v.set("window_size", json::Value(pu.windowSize));
    v.set("fetch_buffer_size", json::Value(pu.fetchBufferSize));
    v.set("intra_branch_predict",
          json::Value(pu.intraBranchPredict));
    v.set("branch_predictor_entries",
          json::Value(pu.branchPredictorEntries));
    return v;
}

json::Value
cacheToJson(const Cache::Params &cache)
{
    json::Value v = json::Value::object();
    v.set("size_bytes", json::Value(std::uint64_t(cache.sizeBytes)));
    v.set("block_bytes", json::Value(std::uint64_t(cache.blockBytes)));
    v.set("hit_latency", json::Value(cache.hitLatency));
    return v;
}

json::Value
l2ToJson(const std::optional<L2Params> &l2)
{
    if (!l2)
        return json::Value(nullptr);
    json::Value v = json::Value::object();
    v.set("size_bytes", json::Value(std::uint64_t(l2->sizeBytes)));
    v.set("assoc", json::Value(l2->assoc));
    v.set("block_bytes", json::Value(std::uint64_t(l2->blockBytes)));
    v.set("hit_latency", json::Value(l2->hitLatency));
    v.set("num_banks", json::Value(l2->numBanks));
    v.set("mshrs_per_bank", json::Value(l2->mshrsPerBank));
    const char *inclusion = "nine";
    if (l2->inclusion == L2Inclusion::kInclusive)
        inclusion = "inclusive";
    else if (l2->inclusion == L2Inclusion::kExclusive)
        inclusion = "exclusive";
    v.set("inclusion", json::Value(inclusion));
    return v;
}

json::Value
busToJson(const MemoryBus::Params &bus)
{
    json::Value v = json::Value::object();
    v.set("first_beat_latency", json::Value(bus.firstBeatLatency));
    v.set("extra_beat_latency", json::Value(bus.extraBeatLatency));
    v.set("beat_words", json::Value(bus.beatWords));
    return v;
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

    if (shape.multiscalar) {
        parseMultiscalar(doc, shape);
        try {
            shape.ms.validate();
        } catch (const ConfigError &) {
            throw;
        } catch (const FatalError &e) {
            fail("", e.what());
        }
    } else {
        parseScalar(doc, shape);
        try {
            shape.scalar.validate();
        } catch (const ConfigError &) {
            throw;
        } catch (const FatalError &e) {
            fail("", e.what());
        }
    }
    return shape;
}

} // namespace

json::Value
shapeToJson(const MachineShape &shape)
{
    json::Value v = json::Value::object();
    v.set("schema", json::Value(kShapeSchema));
    if (!shape.name.empty())
        v.set("name", json::Value(shape.name));
    v.set("multiscalar", json::Value(shape.multiscalar));
    if (shape.multiscalar) {
        const MsConfig &ms = shape.ms;
        v.set("units", json::Value(ms.numUnits));
        v.set("pu", puToJson(ms.pu));
        v.set("ring_hop_latency", json::Value(ms.ringHopLatency));
        v.set("icache", cacheToJson(ms.icache));
        json::Value dcache = json::Value::object();
        dcache.set("num_banks", json::Value(ms.numBanks));
        dcache.set("bank_size_bytes",
                   json::Value(std::uint64_t(ms.bankSizeBytes)));
        dcache.set("block_bytes",
                   json::Value(std::uint64_t(ms.blockBytes)));
        dcache.set("hit_latency", json::Value(ms.dcacheHitLatency));
        v.set("dcache", std::move(dcache));
        json::Value arb = json::Value::object();
        arb.set("entries_per_bank",
                json::Value(ms.arbEntriesPerBank));
        arb.set("full_policy",
                json::Value(ms.arbFullPolicy == ArbFullPolicy::kSquash
                                ? "squash"
                                : "stall"));
        v.set("arb", std::move(arb));
        json::Value pred = json::Value::object();
        pred.set("kind", json::Value(ms.predictor));
        pred.set("ras_entries", json::Value(ms.rasEntries));
        pred.set("descriptor_cache_entries",
                 json::Value(ms.descCacheEntries));
        v.set("predictor", std::move(pred));
        v.set("l2", l2ToJson(ms.l2));
        v.set("bus", busToJson(ms.bus));
    } else {
        const ScalarConfig &sc = shape.scalar;
        v.set("pu", puToJson(sc.pu));
        v.set("icache", cacheToJson(sc.icache));
        v.set("dcache", cacheToJson(sc.dcache));
        v.set("l2", l2ToJson(sc.l2));
        v.set("bus", busToJson(sc.bus));
    }
    return v;
}

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

bool
shapeEquals(const MachineShape &a, const MachineShape &b)
{
    return shapeToJson(a).dump() == shapeToJson(b).dump();
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
