#include "isa/opcodes.hh"

#include "common/logging.hh"

namespace msim::isa {

namespace detail {

void
badOpcode(std::size_t idx)
{
    panic("opInfo: bad opcode ", idx);
}

void
badClass(InstClass cls)
{
    panic("execLatency: bad class ", unsigned(cls));
}

} // namespace detail

std::optional<Opcode>
parseMnemonic(std::string_view mnemonic)
{
    for (std::size_t i = 0; i < kNumOps; ++i) {
        if (mnemonic == kOpTable[i].mnemonic)
            return Opcode(i);
    }
    return std::nullopt;
}

} // namespace msim::isa
