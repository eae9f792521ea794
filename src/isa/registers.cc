#include "isa/registers.hh"

#include <array>
#include <cctype>

namespace msim::isa {

namespace {

/** Symbolic aliases for the integer registers, by number. */
const std::array<const char *, 32> kIntAliases = {
    "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
    "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
    "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
    "t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
};

std::optional<int>
parseDecimal(std::string_view s)
{
    if (s.empty())
        return std::nullopt;
    int value = 0;
    for (char c : s) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return std::nullopt;
        value = value * 10 + (c - '0');
        if (value > 255)
            return std::nullopt;
    }
    return value;
}

} // namespace

std::optional<RegIndex>
parseRegName(std::string_view name)
{
    if (name.size() < 2 || name[0] != '$')
        return std::nullopt;
    std::string_view body = name.substr(1);

    // Floating point: $fN.
    if (body.size() >= 2 && body[0] == 'f' &&
        std::isdigit(static_cast<unsigned char>(body[1]))) {
        auto n = parseDecimal(body.substr(1));
        if (n && *n < kNumFpRegs)
            return fpReg(*n);
        return std::nullopt;
    }

    // Numeric: $N.
    if (auto n = parseDecimal(body)) {
        if (*n < kNumIntRegs)
            return intReg(*n);
        return std::nullopt;
    }

    // Symbolic alias.
    for (int i = 0; i < kNumIntRegs; ++i) {
        if (body == kIntAliases[size_t(i)])
            return intReg(i);
    }
    // "$fp" collides with no fp register (those need a digit), and is
    // handled by the alias table above.
    return std::nullopt;
}

std::string
regName(RegIndex reg)
{
    if (reg < 0 || reg >= kNumRegs)
        return "$?";
    const bool fp = reg >= kNumIntRegs;
    std::string name = fp ? "$f" : "$";
    name += std::to_string(fp ? int(reg) - kNumIntRegs : int(reg));
    return name;
}

} // namespace msim::isa
