#include <gtest/gtest.h>

#include <utility>

#include "isa/inst.hh"

namespace pacman::isa
{
namespace
{

TEST(Inst, RegisterNames)
{
    EXPECT_EQ(regName(0), "x0");
    EXPECT_EQ(regName(30), "x30");
    EXPECT_EQ(regName(SP), "sp");
}

TEST(Inst, RegisterParsing)
{
    EXPECT_EQ(parseRegName("x0"), 0);
    EXPECT_EQ(parseRegName("X17"), 17);
    EXPECT_EQ(parseRegName("sp"), SP);
    EXPECT_EQ(parseRegName("lr"), LR);
    EXPECT_EQ(parseRegName("fp"), FP);
    EXPECT_EQ(parseRegName("x31"), -1);
    EXPECT_EQ(parseRegName("y2"), -1);
    EXPECT_EQ(parseRegName("x"), -1);
}

TEST(Inst, CondHolds)
{
    Pstate f;
    f.z = true;
    EXPECT_TRUE(condHolds(Cond::EQ, f));
    EXPECT_FALSE(condHolds(Cond::NE, f));
    EXPECT_TRUE(condHolds(Cond::LE, f));
    f = Pstate{};
    f.n = true;
    EXPECT_TRUE(condHolds(Cond::MI, f));
    EXPECT_TRUE(condHolds(Cond::LT, f)); // n != v
    f.v = true;
    EXPECT_TRUE(condHolds(Cond::GE, f)); // n == v
    EXPECT_TRUE(condHolds(Cond::AL, Pstate{}));
}

TEST(Inst, CondNamesRoundTrip)
{
    for (unsigned i = 0; i < 15; ++i) {
        const Cond c = Cond(i);
        const auto parsed = parseCondName(condName(c));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, c);
    }
    EXPECT_FALSE(parseCondName("zz").has_value());
}

TEST(Inst, Classification)
{
    EXPECT_EQ(instClass(Opcode::LDR), InstClass::Load);
    EXPECT_EQ(instClass(Opcode::STRR), InstClass::Store);
    EXPECT_EQ(instClass(Opcode::B), InstClass::BranchDirect);
    EXPECT_EQ(instClass(Opcode::CBZ), InstClass::BranchCond);
    EXPECT_EQ(instClass(Opcode::RET), InstClass::BranchIndirect);
    EXPECT_EQ(instClass(Opcode::PACIA), InstClass::PacSign);
    EXPECT_EQ(instClass(Opcode::AUTDB), InstClass::PacAuth);
    EXPECT_EQ(instClass(Opcode::SVC), InstClass::System);
    EXPECT_EQ(instClass(Opcode::ISB), InstClass::Barrier);
    EXPECT_EQ(instClass(Opcode::ADD), InstClass::Alu);
}

TEST(Inst, PacPredicates)
{
    EXPECT_TRUE(isPacSign(Opcode::PACDB));
    EXPECT_FALSE(isPacSign(Opcode::AUTDB));
    EXPECT_TRUE(isPacAuth(Opcode::AUTIA));
    EXPECT_FALSE(isPacAuth(Opcode::XPAC)); // strips, never verifies
}

TEST(Inst, PacKeySelection)
{
    EXPECT_EQ(pacKeyOf(Opcode::PACIA), crypto::PacKeySelect::IA);
    EXPECT_EQ(pacKeyOf(Opcode::AUTIB), crypto::PacKeySelect::IB);
    EXPECT_EQ(pacKeyOf(Opcode::PACDA), crypto::PacKeySelect::DA);
    EXPECT_EQ(pacKeyOf(Opcode::AUTDB), crypto::PacKeySelect::DB);
}

TEST(Inst, RegisterUsageStore)
{
    Inst i;
    i.op = Opcode::STR;
    EXPECT_FALSE(writesRd(i));          // stores write memory only
    EXPECT_TRUE(readsRdAsSource(i));    // data register
    EXPECT_TRUE(readsRn(i));            // base register
}

TEST(Inst, RegisterUsagePac)
{
    Inst i;
    i.op = Opcode::AUTDA;
    EXPECT_TRUE(writesRd(i));
    EXPECT_TRUE(readsRdAsSource(i)); // pointer modified in place
    EXPECT_TRUE(readsRn(i));         // modifier
}

TEST(Inst, RegisterUsageBranches)
{
    Inst bl;
    bl.op = Opcode::BL;
    EXPECT_TRUE(writesRd(bl)); // writes LR
    Inst cbz;
    cbz.op = Opcode::CBZ;
    EXPECT_FALSE(writesRd(cbz));
    EXPECT_TRUE(readsRdAsSource(cbz)); // tested register
    Inst br;
    br.op = Opcode::BR;
    EXPECT_FALSE(writesRd(br));
    EXPECT_TRUE(readsRn(br));
}

/** Golden traits of one opcode: what the pipeline and the scanner
 *  read off it. Written out by hand so a slip in the predicates (or in
 *  moving them) fails here rather than as a timing drift. */
struct OpTraits
{
    Opcode op;
    InstClass cls;
    bool rn, rm, rdSrc, wrRd;
};

constexpr OpTraits kGoldenTraits[] = {
    // op              class                      rn     rm     rdSrc  wrRd
    {Opcode::ADD,    InstClass::Alu,            true,  true,  false, true},
    {Opcode::SUB,    InstClass::Alu,            true,  true,  false, true},
    {Opcode::AND,    InstClass::Alu,            true,  true,  false, true},
    {Opcode::ORR,    InstClass::Alu,            true,  true,  false, true},
    {Opcode::EOR,    InstClass::Alu,            true,  true,  false, true},
    {Opcode::LSLV,   InstClass::Alu,            true,  true,  false, true},
    {Opcode::LSRV,   InstClass::Alu,            true,  true,  false, true},
    {Opcode::ASRV,   InstClass::Alu,            true,  true,  false, true},
    {Opcode::MUL,    InstClass::Alu,            true,  true,  false, true},
    {Opcode::SUBS,   InstClass::Alu,            true,  true,  false, true},
    {Opcode::ADDS,   InstClass::Alu,            true,  true,  false, true},
    {Opcode::CMP,    InstClass::Alu,            true,  true,  false, false},
    {Opcode::MOVR,   InstClass::Alu,            true,  false, false, true},
    {Opcode::ADDI,   InstClass::Alu,            true,  false, false, true},
    {Opcode::SUBI,   InstClass::Alu,            true,  false, false, true},
    {Opcode::ANDI,   InstClass::Alu,            true,  false, false, true},
    {Opcode::ORRI,   InstClass::Alu,            true,  false, false, true},
    {Opcode::EORI,   InstClass::Alu,            true,  false, false, true},
    {Opcode::LSLI,   InstClass::Alu,            true,  false, false, true},
    {Opcode::LSRI,   InstClass::Alu,            true,  false, false, true},
    {Opcode::ASRI,   InstClass::Alu,            true,  false, false, true},
    {Opcode::SUBSI,  InstClass::Alu,            true,  false, false, true},
    {Opcode::CMPI,   InstClass::Alu,            true,  false, false, false},
    {Opcode::MOVZ,   InstClass::Alu,            false, false, false, true},
    {Opcode::MOVK,   InstClass::Alu,            false, false, true,  true},
    {Opcode::LDR,    InstClass::Load,           true,  false, false, true},
    {Opcode::STR,    InstClass::Store,          true,  false, true,  false},
    {Opcode::LDRB,   InstClass::Load,           true,  false, false, true},
    {Opcode::STRB,   InstClass::Store,          true,  false, true,  false},
    {Opcode::LDRR,   InstClass::Load,           true,  true,  false, true},
    {Opcode::STRR,   InstClass::Store,          true,  true,  true,  false},
    {Opcode::B,      InstClass::BranchDirect,   false, false, false, false},
    {Opcode::BL,     InstClass::BranchDirect,   false, false, false, true},
    {Opcode::BCOND,  InstClass::BranchCond,     false, false, false, false},
    {Opcode::CBZ,    InstClass::BranchCond,     false, false, true,  false},
    {Opcode::CBNZ,   InstClass::BranchCond,     false, false, true,  false},
    {Opcode::BR,     InstClass::BranchIndirect, true,  false, false, false},
    {Opcode::BLR,    InstClass::BranchIndirect, true,  false, false, true},
    {Opcode::RET,    InstClass::BranchIndirect, true,  false, false, false},
    {Opcode::BRAA,   InstClass::BranchIndirect, true,  true,  false, false},
    {Opcode::BLRAA,  InstClass::BranchIndirect, true,  true,  false, true},
    {Opcode::RETAA,  InstClass::BranchIndirect, true,  true,  false, false},
    {Opcode::PACIA,  InstClass::PacSign,        true,  false, true,  true},
    {Opcode::PACIB,  InstClass::PacSign,        true,  false, true,  true},
    {Opcode::PACDA,  InstClass::PacSign,        true,  false, true,  true},
    {Opcode::PACDB,  InstClass::PacSign,        true,  false, true,  true},
    {Opcode::AUTIA,  InstClass::PacAuth,        true,  false, true,  true},
    {Opcode::AUTIB,  InstClass::PacAuth,        true,  false, true,  true},
    {Opcode::AUTDA,  InstClass::PacAuth,        true,  false, true,  true},
    {Opcode::AUTDB,  InstClass::PacAuth,        true,  false, true,  true},
    {Opcode::XPAC,   InstClass::PacAuth,        false, false, true,  true},
    {Opcode::MRS,    InstClass::System,         false, false, false, true},
    {Opcode::MSR,    InstClass::System,         true,  false, false, false},
    {Opcode::SVC,    InstClass::System,         false, false, false, false},
    {Opcode::ERET,   InstClass::System,         false, false, false, false},
    {Opcode::ISB,    InstClass::Barrier,        false, false, false, false},
    {Opcode::DSB,    InstClass::Barrier,        false, false, false, false},
    {Opcode::NOP,    InstClass::Alu,            false, false, false, false},
    {Opcode::HLT,    InstClass::System,         false, false, false, false},
    {Opcode::BRK,    InstClass::System,         false, false, false, false},
};

TEST(Inst, GoldenTraitsCoverEveryOpcode)
{
    // Every opcode the ISA names appears in the golden table exactly
    // once, so a newly added opcode must be given its traits here.
    for (unsigned v = 0; v < 256; ++v) {
        const Opcode op = Opcode(v);
        unsigned rows = 0;
        for (const OpTraits &t : kGoldenTraits)
            rows += t.op == op;
        if (opcodeName(op) == "?unk?")
            EXPECT_EQ(rows, 0u) << "undefined opcode 0x" << std::hex << v;
        else
            EXPECT_EQ(rows, 1u) << opcodeName(op);
    }
}

TEST(Inst, GoldenTraits)
{
    for (const OpTraits &t : kGoldenTraits) {
        SCOPED_TRACE(opcodeName(t.op));
        Inst inst;
        inst.op = t.op;
        EXPECT_EQ(instClass(t.op), t.cls);
        EXPECT_EQ(readsRn(inst), t.rn);
        EXPECT_EQ(readsRm(inst), t.rm);
        EXPECT_EQ(readsRdAsSource(inst), t.rdSrc);
        EXPECT_EQ(writesRd(inst), t.wrRd);

        EXPECT_EQ(isMemOp(t.op), t.cls == InstClass::Load ||
                                     t.cls == InstClass::Store);
        EXPECT_EQ(isBranch(t.op), t.cls == InstClass::BranchDirect ||
                                      t.cls == InstClass::BranchCond ||
                                      t.cls == InstClass::BranchIndirect);
        EXPECT_EQ(isCondBranch(t.op), t.cls == InstClass::BranchCond);
        EXPECT_EQ(isIndirectBranch(t.op),
                  t.cls == InstClass::BranchIndirect);
        EXPECT_EQ(isPacSign(t.op), t.cls == InstClass::PacSign);
        EXPECT_EQ(isPacAuth(t.op),
                  t.cls == InstClass::PacAuth && t.op != Opcode::XPAC);
        EXPECT_EQ(isAuthBranch(t.op), t.op == Opcode::BRAA ||
                                          t.op == Opcode::BLRAA ||
                                          t.op == Opcode::RETAA);
    }
}

TEST(Inst, GoldenPacKeys)
{
    using crypto::PacKeySelect;
    const std::pair<Opcode, PacKeySelect> keyed[] = {
        {Opcode::PACIA, PacKeySelect::IA}, {Opcode::PACIB, PacKeySelect::IB},
        {Opcode::PACDA, PacKeySelect::DA}, {Opcode::PACDB, PacKeySelect::DB},
        {Opcode::AUTIA, PacKeySelect::IA}, {Opcode::AUTIB, PacKeySelect::IB},
        {Opcode::AUTDA, PacKeySelect::DA}, {Opcode::AUTDB, PacKeySelect::DB},
        {Opcode::BRAA, PacKeySelect::IA},  {Opcode::BLRAA, PacKeySelect::IA},
        {Opcode::RETAA, PacKeySelect::IA},
    };
    for (const auto &[op, key] : keyed)
        EXPECT_EQ(pacKeyOf(op), key) << opcodeName(op);
}

TEST(Inst, CondHoldsEveryFlagCombination)
{
    // Each condition against all 16 NZCV states, checked against the
    // architectural definitions written independently of condHolds().
    for (unsigned bits = 0; bits < 16; ++bits) {
        Pstate f;
        f.n = bits & 8;
        f.z = bits & 4;
        f.c = bits & 2;
        f.v = bits & 1;
        SCOPED_TRACE(bits);
        const bool expect[15] = {
            f.z,  !f.z, f.c,  !f.c, f.n,  !f.n, f.v, !f.v,
            f.c && !f.z,     !f.c || f.z,
            f.n == f.v,      f.n != f.v,
            !f.z && f.n == f.v, f.z || f.n != f.v,
            true,
        };
        for (unsigned c = 0; c < 15; ++c)
            EXPECT_EQ(condHolds(Cond(c), f), expect[c]) << condName(Cond(c));
    }
}

TEST(Inst, SysRegNamesParse)
{
    EXPECT_EQ(parseSysRegName("cntpct_el0"), int(SysReg::CNTPCT_EL0));
    EXPECT_EQ(parseSysRegName("PMC0"), int(SysReg::PMC0));
    EXPECT_EQ(parseSysRegName("apdakeylo_el1"),
              int(SysReg::APDAKEY_LO));
    EXPECT_EQ(parseSysRegName("nope"), -1);
}

TEST(Inst, SysRegEl0Gating)
{
    EXPECT_TRUE(sysRegEl0Readable(SysReg::CNTPCT_EL0));
    EXPECT_TRUE(sysRegEl0Readable(SysReg::CNTFRQ_EL0));
    EXPECT_FALSE(sysRegEl0Readable(SysReg::PMC0));
    EXPECT_FALSE(sysRegEl0Readable(SysReg::APIAKEY_LO));
}

} // namespace
} // namespace pacman::isa
