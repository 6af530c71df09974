#include "inst.hh"

#include <algorithm>
#include <cctype>

#include "base/logging.hh"

namespace pacman::isa
{

std::string
condName(Cond cond)
{
    static const char *names[] = {
        "eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc",
        "hi", "ls", "ge", "lt", "gt", "le", "al",
    };
    const auto idx = unsigned(cond);
    PACMAN_ASSERT(idx < 15, "bad condition code %u", idx);
    return names[idx];
}

std::optional<Cond>
parseCondName(const std::string &name)
{
    std::string low(name);
    std::transform(low.begin(), low.end(), low.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    for (unsigned i = 0; i < 15; ++i) {
        if (low == condName(Cond(i)))
            return Cond(i);
    }
    return std::nullopt;
}

std::string
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::ADD: return "add";
      case Opcode::SUB: return "sub";
      case Opcode::AND: return "and";
      case Opcode::ORR: return "orr";
      case Opcode::EOR: return "eor";
      case Opcode::LSLV: return "lslv";
      case Opcode::LSRV: return "lsrv";
      case Opcode::ASRV: return "asrv";
      case Opcode::MUL: return "mul";
      case Opcode::SUBS: return "subs";
      case Opcode::ADDS: return "adds";
      case Opcode::CMP: return "cmp";
      case Opcode::MOVR: return "mov";
      case Opcode::ADDI: return "addi";
      case Opcode::SUBI: return "subi";
      case Opcode::ANDI: return "andi";
      case Opcode::ORRI: return "orri";
      case Opcode::EORI: return "eori";
      case Opcode::LSLI: return "lsli";
      case Opcode::LSRI: return "lsri";
      case Opcode::ASRI: return "asri";
      case Opcode::SUBSI: return "subsi";
      case Opcode::CMPI: return "cmpi";
      case Opcode::MOVZ: return "movz";
      case Opcode::MOVK: return "movk";
      case Opcode::LDR: return "ldr";
      case Opcode::STR: return "str";
      case Opcode::LDRB: return "ldrb";
      case Opcode::STRB: return "strb";
      case Opcode::LDRR: return "ldrr";
      case Opcode::STRR: return "strr";
      case Opcode::B: return "b";
      case Opcode::BL: return "bl";
      case Opcode::BCOND: return "b.cond";
      case Opcode::CBZ: return "cbz";
      case Opcode::CBNZ: return "cbnz";
      case Opcode::BR: return "br";
      case Opcode::BLR: return "blr";
      case Opcode::RET: return "ret";
      case Opcode::BRAA: return "braa";
      case Opcode::BLRAA: return "blraa";
      case Opcode::RETAA: return "retaa";
      case Opcode::PACIA: return "pacia";
      case Opcode::PACIB: return "pacib";
      case Opcode::PACDA: return "pacda";
      case Opcode::PACDB: return "pacdb";
      case Opcode::AUTIA: return "autia";
      case Opcode::AUTIB: return "autib";
      case Opcode::AUTDA: return "autda";
      case Opcode::AUTDB: return "autdb";
      case Opcode::XPAC: return "xpac";
      case Opcode::MRS: return "mrs";
      case Opcode::MSR: return "msr";
      case Opcode::SVC: return "svc";
      case Opcode::ERET: return "eret";
      case Opcode::ISB: return "isb";
      case Opcode::DSB: return "dsb";
      case Opcode::NOP: return "nop";
      case Opcode::HLT: return "hlt";
      case Opcode::BRK: return "brk";
      default: return "?unk?";
    }
}

} // namespace pacman::isa
