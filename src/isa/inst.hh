/**
 * @file
 * PARM64 instruction set: opcodes, condition codes, and the decoded
 * instruction representation shared by the assembler, the CPU model,
 * the disassembler, and the static gadget scanner.
 *
 * PARM64 is a fixed-width 32-bit encoding covering the ARMv8.3 subset
 * the PACMAN attack touches: integer ALU ops, loads/stores, direct and
 * indirect branches, the pac/aut pointer-authentication family,
 * system-register access, syscalls and barriers.
 */

#ifndef PACMAN_ISA_INST_HH
#define PACMAN_ISA_INST_HH

#include <cstdint>
#include <optional>
#include <string>

#include "base/logging.hh"
#include "crypto/pac.hh"
#include "isa/registers.hh"
#include "isa/sysreg.hh"

namespace pacman::isa
{

/** Encoded instruction word. */
using InstWord = uint32_t;

/** Instruction byte size (fixed-width ISA). */
constexpr unsigned InstBytes = 4;

/** ARM-style condition codes for B.cond. */
enum class Cond : uint8_t
{
    EQ = 0,  //!< Z
    NE = 1,  //!< !Z
    CS = 2,  //!< C
    CC = 3,  //!< !C
    MI = 4,  //!< N
    PL = 5,  //!< !N
    VS = 6,  //!< V
    VC = 7,  //!< !V
    HI = 8,  //!< C && !Z
    LS = 9,  //!< !C || Z
    GE = 10, //!< N == V
    LT = 11, //!< N != V
    GT = 12, //!< !Z && N == V
    LE = 13, //!< Z || N != V
    AL = 14, //!< always
};

/** Evaluate @p cond against PSTATE flags. */
inline bool
condHolds(Cond cond, const Pstate &f)
{
    switch (cond) {
      case Cond::EQ: return f.z;
      case Cond::NE: return !f.z;
      case Cond::CS: return f.c;
      case Cond::CC: return !f.c;
      case Cond::MI: return f.n;
      case Cond::PL: return !f.n;
      case Cond::VS: return f.v;
      case Cond::VC: return !f.v;
      case Cond::HI: return f.c && !f.z;
      case Cond::LS: return !f.c || f.z;
      case Cond::GE: return f.n == f.v;
      case Cond::LT: return f.n != f.v;
      case Cond::GT: return !f.z && f.n == f.v;
      case Cond::LE: return f.z || f.n != f.v;
      case Cond::AL: return true;
      default: panic("condHolds: bad condition %u", unsigned(cond));
    }
}

/** Condition mnemonic suffix ("eq", "ne", ...). */
std::string condName(Cond cond);

/** Parse a condition suffix; returns nullopt if unknown. */
std::optional<Cond> parseCondName(const std::string &name);

/**
 * Opcodes. The numeric value is the top byte of the encoding; gaps
 * leave room for growth without renumbering.
 */
enum class Opcode : uint8_t
{
    // --- ALU, register operands (R format: rd, rn, rm) ---
    ADD = 0x01,
    SUB = 0x02,
    AND = 0x03,
    ORR = 0x04,
    EOR = 0x05,
    LSLV = 0x06,
    LSRV = 0x07,
    ASRV = 0x08,
    MUL = 0x09,
    SUBS = 0x0A,   //!< sub, sets NZCV
    ADDS = 0x0B,   //!< add, sets NZCV
    CMP = 0x0C,    //!< SUBS discarding result (no rd write)
    MOVR = 0x0D,   //!< rd := rn

    // --- ALU, immediate (I format: rd, rn, imm14 signed) ---
    ADDI = 0x10,
    SUBI = 0x11,
    ANDI = 0x12,
    ORRI = 0x13,
    EORI = 0x14,
    LSLI = 0x15,
    LSRI = 0x16,
    ASRI = 0x17,
    SUBSI = 0x18,  //!< subi, sets NZCV
    CMPI = 0x19,   //!< SUBSI discarding result

    // --- Wide immediates (M format: rd, hw, imm16) ---
    MOVZ = 0x1C,   //!< rd := imm16 << (16*hw)
    MOVK = 0x1D,   //!< rd[16*hw +: 16] := imm16

    // --- Memory (I format: rt, [rn, #imm14]; R format for reg offset)
    LDR = 0x20,    //!< 64-bit load
    STR = 0x21,    //!< 64-bit store
    LDRB = 0x22,   //!< byte load (zero-extended)
    STRB = 0x23,   //!< byte store
    LDRR = 0x24,   //!< rt := [rn + rm]
    STRR = 0x25,   //!< [rn + rm] := rt

    // --- Direct branches ---
    B = 0x30,      //!< B format: imm24 word offset
    BL = 0x31,     //!< branch with link
    BCOND = 0x32,  //!< C format: cond, imm20 word offset
    CBZ = 0x33,    //!< D format: rt, imm19 word offset
    CBNZ = 0x34,

    // --- Indirect branches (R format, rn = target) ---
    BR = 0x38,
    BLR = 0x39,
    RET = 0x3A,    //!< rn defaults to LR

    // --- Combined authenticate-and-branch (ARMv8.3; rn = signed
    //     target, rm = modifier). A one-instruction verification +
    //     transmission pair. ---
    BRAA = 0x3C,
    BLRAA = 0x3D,
    RETAA = 0x3E,  //!< rn = LR, rm = SP by convention

    // --- Pointer authentication (R format: rd = pointer in/out,
    //     rn = modifier) ---
    PACIA = 0x40,
    PACIB = 0x41,
    PACDA = 0x42,
    PACDB = 0x43,
    AUTIA = 0x48,
    AUTIB = 0x49,
    AUTDA = 0x4A,
    AUTDB = 0x4B,
    XPAC = 0x4F,   //!< strip PAC, no authentication

    // --- System ---
    MRS = 0x50,    //!< S format: rd, sysreg
    MSR = 0x51,    //!< S format: rn(=rd field), sysreg
    SVC = 0x52,    //!< W format: imm16 syscall number
    ERET = 0x53,
    ISB = 0x54,
    DSB = 0x55,
    NOP = 0x56,
    HLT = 0x57,    //!< stop simulation, imm16 = exit code
    BRK = 0x58,    //!< breakpoint exception
};

/** Broad instruction classes used by the pipeline and the scanner. */
enum class InstClass : uint8_t
{
    Alu,
    Load,
    Store,
    BranchDirect,
    BranchCond,
    BranchIndirect,
    PacSign,
    PacAuth,
    System,
    Barrier,
};

/**
 * A decoded instruction. All fields are populated by the decoder;
 * unused fields are zero.
 */
struct Inst
{
    Opcode op = Opcode::NOP;
    RegIndex rd = 0;       //!< destination (or PAC pointer reg, or store data)
    RegIndex rn = 0;       //!< first source / base / modifier / target
    RegIndex rm = 0;       //!< second source / offset
    Cond cond = Cond::AL;  //!< for BCOND
    int64_t imm = 0;       //!< sign-extended immediate (byte offset for
                           //!< branches, already scaled)
    SysReg sysreg = SysReg::CNTPCT_EL0;
    uint8_t hw = 0;        //!< MOVZ/MOVK halfword selector

    bool operator==(const Inst &) const = default;
};

/** Mnemonic for an opcode ("add", "autia", ...). */
std::string opcodeName(Opcode op);

// The opcode predicates below run several times per simulated
// instruction (operand reads, retire classification, PAC key choice),
// so they are defined here for the callers in cpu/ to inline; see
// DESIGN.md §4e before moving any of them back out of line.

/** Classification used by the CPU pipeline and gadget scanner. */
inline InstClass
instClass(Opcode op)
{
    switch (op) {
      case Opcode::LDR:
      case Opcode::LDRB:
      case Opcode::LDRR:
        return InstClass::Load;
      case Opcode::STR:
      case Opcode::STRB:
      case Opcode::STRR:
        return InstClass::Store;
      case Opcode::B:
      case Opcode::BL:
        return InstClass::BranchDirect;
      case Opcode::BCOND:
      case Opcode::CBZ:
      case Opcode::CBNZ:
        return InstClass::BranchCond;
      case Opcode::BR:
      case Opcode::BLR:
      case Opcode::RET:
      case Opcode::BRAA:
      case Opcode::BLRAA:
      case Opcode::RETAA:
        return InstClass::BranchIndirect;
      case Opcode::PACIA:
      case Opcode::PACIB:
      case Opcode::PACDA:
      case Opcode::PACDB:
        return InstClass::PacSign;
      case Opcode::AUTIA:
      case Opcode::AUTIB:
      case Opcode::AUTDA:
      case Opcode::AUTDB:
      case Opcode::XPAC:
        return InstClass::PacAuth;
      case Opcode::MRS:
      case Opcode::MSR:
      case Opcode::SVC:
      case Opcode::ERET:
      case Opcode::HLT:
      case Opcode::BRK:
        return InstClass::System;
      case Opcode::ISB:
      case Opcode::DSB:
        return InstClass::Barrier;
      default:
        return InstClass::Alu;
    }
}

/** True for any load or store. */
inline bool
isMemOp(Opcode op)
{
    const InstClass c = instClass(op);
    return c == InstClass::Load || c == InstClass::Store;
}

/** True for any branch (direct, conditional, indirect). */
inline bool
isBranch(Opcode op)
{
    const InstClass c = instClass(op);
    return c == InstClass::BranchDirect || c == InstClass::BranchCond ||
           c == InstClass::BranchIndirect;
}

/** True for BCOND / CBZ / CBNZ. */
inline bool
isCondBranch(Opcode op)
{
    return instClass(op) == InstClass::BranchCond;
}

/** True for BR / BLR / RET and the authenticating variants. */
inline bool
isIndirectBranch(Opcode op)
{
    return instClass(op) == InstClass::BranchIndirect;
}

/** True for BRAA / BLRAA / RETAA (authenticate-and-branch). */
inline bool
isAuthBranch(Opcode op)
{
    return op == Opcode::BRAA || op == Opcode::BLRAA ||
           op == Opcode::RETAA;
}

/** True for the pac* signing family. */
inline bool
isPacSign(Opcode op)
{
    return instClass(op) == InstClass::PacSign;
}

/** True for the aut* family. */
inline bool
isPacAuth(Opcode op)
{
    return instClass(op) == InstClass::PacAuth && op != Opcode::XPAC;
}

/** Key selector used by a keyed pac/aut opcode. */
inline crypto::PacKeySelect
pacKeyOf(Opcode op)
{
    switch (op) {
      case Opcode::PACIA:
      case Opcode::AUTIA:
        return crypto::PacKeySelect::IA;
      case Opcode::PACIB:
      case Opcode::AUTIB:
        return crypto::PacKeySelect::IB;
      case Opcode::PACDA:
      case Opcode::AUTDA:
        return crypto::PacKeySelect::DA;
      case Opcode::PACDB:
      case Opcode::AUTDB:
        return crypto::PacKeySelect::DB;
      case Opcode::BRAA:
      case Opcode::BLRAA:
      case Opcode::RETAA:
        return crypto::PacKeySelect::IA;
      default:
        panic("pacKeyOf: %s is not a keyed PA opcode",
              opcodeName(op).c_str());
    }
}

/** True if the instruction writes its rd field. */
inline bool
writesRd(const Inst &inst)
{
    switch (inst.op) {
      case Opcode::CMP:
      case Opcode::CMPI:
      case Opcode::STR:
      case Opcode::STRB:
      case Opcode::STRR:
      case Opcode::B:
      case Opcode::BCOND:
      case Opcode::CBZ:
      case Opcode::CBNZ:
      case Opcode::BR:
      case Opcode::RET:
      case Opcode::BRAA:
      case Opcode::RETAA:
      case Opcode::MSR:
      case Opcode::SVC:
      case Opcode::ERET:
      case Opcode::ISB:
      case Opcode::DSB:
      case Opcode::NOP:
      case Opcode::HLT:
      case Opcode::BRK:
        return false;
      case Opcode::BL:
      case Opcode::BLR:
      case Opcode::BLRAA:
        return true; // writes LR
      default:
        return true;
    }
}

/** True if the instruction reads its rn field. */
inline bool
readsRn(const Inst &inst)
{
    switch (inst.op) {
      case Opcode::MOVZ:
      case Opcode::MOVK:
      case Opcode::B:
      case Opcode::BL:
      case Opcode::BCOND:
      case Opcode::SVC:
      case Opcode::ERET:
      case Opcode::ISB:
      case Opcode::DSB:
      case Opcode::NOP:
      case Opcode::HLT:
      case Opcode::BRK:
      case Opcode::MRS:
      case Opcode::CBZ:   // tests rd field
      case Opcode::CBNZ:
      case Opcode::XPAC:  // operates on rd in place
        return false;
      default:
        return true;
    }
}

/** True if the instruction reads its rm field. */
inline bool
readsRm(const Inst &inst)
{
    switch (inst.op) {
      case Opcode::ADD:
      case Opcode::SUB:
      case Opcode::AND:
      case Opcode::ORR:
      case Opcode::EOR:
      case Opcode::LSLV:
      case Opcode::LSRV:
      case Opcode::ASRV:
      case Opcode::MUL:
      case Opcode::SUBS:
      case Opcode::ADDS:
      case Opcode::CMP:
      case Opcode::LDRR:
      case Opcode::STRR:
      case Opcode::BRAA:
      case Opcode::BLRAA:
      case Opcode::RETAA:
        return true;
      default:
        return false;
    }
}

/** True if the instruction reads its rd field as a source. */
inline bool
readsRdAsSource(const Inst &inst)
{
    switch (inst.op) {
      case Opcode::STR:
      case Opcode::STRB:
      case Opcode::STRR:  // store data register
      case Opcode::MOVK:  // read-modify-write of halfword
      case Opcode::CBZ:
      case Opcode::CBNZ:  // tested register lives in the rd field
      case Opcode::PACIA:
      case Opcode::PACIB:
      case Opcode::PACDA:
      case Opcode::PACDB:
      case Opcode::AUTIA:
      case Opcode::AUTIB:
      case Opcode::AUTDA:
      case Opcode::AUTDB:
      case Opcode::XPAC:  // pointer is modified in place
        return true;
      default:
        return false;
    }
}

} // namespace pacman::isa

#endif // PACMAN_ISA_INST_HH
