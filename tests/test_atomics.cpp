/**
 * @file
 * Scoped atomics and fences across the stack: textual-IR round trips
 * and parse errors, verifier rejections of ill-formed orderings,
 * microcode round trips of the atomic opcode family, codegen lowering,
 * end-to-end simulator semantics (including byte-identity across
 * sim_threads), the race sanitizer's scoped-atomic exemption, the
 * static race analyzer's Synchronized downgrade, and Cfg postdominator
 * behaviour for blocks whose terminators sit next to fences/atomics.
 */

#include <gtest/gtest.h>

#include "analysis/cfg.hpp"
#include "analysis/race_analysis.hpp"
#include "analysis/verify.hpp"
#include "arch/microcode.hpp"
#include "common/logging.hpp"
#include "compiler/codegen.hpp"
#include "ir/builder.hpp"
#include "ir/parser.hpp"
#include "sim/device.hpp"
#include "sim/race_sanitizer.hpp"

namespace lmi {
namespace {

using namespace ir;

IrModule
module(IrFunction f)
{
    IrModule m;
    m.functions.push_back(std::move(f));
    return m;
}

bool
hasDiag(const std::vector<analysis::Diagnostic>& diags,
        const std::string& needle)
{
    for (const analysis::Diagnostic& d : diags)
        if (d.message.find(needle) != std::string::npos)
            return true;
    return false;
}

/** Kernel exercising every atomic flavour on one i32 buffer. */
IrFunction
atomicZoo()
{
    IrFunction f =
        IrBuilder::makeKernel("zoo", {{"buf", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto buf = b.param(0);
    auto one = b.constInt(1);
    b.atomicRmw(AtomicOp::Add, buf, one, MemOrder::Relaxed,
                MemScope::Gpu);
    b.atomicRmw(AtomicOp::Max, b.gep(buf, one), b.gtid(),
                MemOrder::AcqRel, MemScope::Sys);
    b.atomicCas(b.gep(buf, b.constInt(2)), b.constInt(0), one,
                MemOrder::AcqRel, MemScope::Gpu);
    auto v = b.atomicLoad(b.gep(buf, b.constInt(3)),
                          MemOrder::Acquire, MemScope::Cta);
    b.fence(MemOrder::AcqRel, MemScope::Gpu);
    b.atomicStore(b.gep(buf, b.constInt(4)), v, MemOrder::Release,
                  MemScope::Gpu);
    b.ret();
    return f;
}

// ---------------------------------------------------------------------
// Textual IR.
// ---------------------------------------------------------------------

TEST(AtomicIr, RoundTripsEveryFlavour)
{
    const IrFunction f = atomicZoo();
    const std::string once = f.toString();
    EXPECT_NE(once.find("atomicrmw.add.relaxed.gpu"),
              std::string::npos)
        << once;
    EXPECT_NE(once.find("atomicrmw.max.acqrel.sys"),
              std::string::npos);
    EXPECT_NE(once.find("atomiccas.acqrel.gpu"), std::string::npos);
    EXPECT_NE(once.find("atomicld.acquire.cta"), std::string::npos);
    EXPECT_NE(once.find("fence.acqrel.gpu"), std::string::npos);
    EXPECT_NE(once.find("atomicst.release.gpu"), std::string::npos);
    const IrFunction parsed = parseFunction(once);
    EXPECT_EQ(parsed.toString(), once);
}

TEST(AtomicIr, ParseRejectsMalformedSuffixes)
{
    auto kernel = [](const std::string& body) {
        return "define void @f(ptr<4> %p) {\nentry:\n" + body +
               "\n  ret\n}\n";
    };
    // Unknown RMW operation.
    EXPECT_THROW(
        parseFunction(kernel("  %v:i64 = atomicrmw.bogus.relaxed.gpu "
                             "%p, 1")),
        FatalError);
    // Missing scope component.
    EXPECT_THROW(
        parseFunction(kernel("  %v:i64 = atomicrmw.add.relaxed %p, 1")),
        FatalError);
    // Unknown scope.
    EXPECT_THROW(
        parseFunction(kernel("  fence.acqrel.warp")), FatalError);
    // Bare fence with no ordering.
    EXPECT_THROW(parseFunction(kernel("  fence")), FatalError);
}

// ---------------------------------------------------------------------
// Verifier.
// ---------------------------------------------------------------------

TEST(AtomicVerify, CleanAtomicKernelPasses)
{
    EXPECT_TRUE(analysis::verifyFunction(atomicZoo()).empty());
}

TEST(AtomicVerify, RejectsRelaxedFence)
{
    IrFunction f = IrBuilder::makeKernel("f", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    b.fence(MemOrder::AcqRel, MemScope::Gpu);
    b.ret();
    // Weaken the well-formed fence behind the builder's back.
    for (ValueId v = 0; v < f.values.size(); ++v)
        if (f.inst(v).op == IrOp::Fence)
            f.inst(v).order = MemOrder::Relaxed;
    EXPECT_TRUE(hasDiag(analysis::verifyFunction(f),
                        "fence with relaxed ordering"));
}

TEST(AtomicVerify, RejectsAcquireStoreAndReleaseLoad)
{
    IrFunction f = IrBuilder::makeKernel("f", {{"p", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto p = b.param(0);
    auto v = b.atomicLoad(p, MemOrder::Acquire, MemScope::Gpu);
    b.atomicStore(p, v, MemOrder::Release, MemScope::Gpu);
    b.ret();
    for (ValueId i = 0; i < f.values.size(); ++i) {
        if (f.inst(i).op == IrOp::AtomicLoad)
            f.inst(i).order = MemOrder::Release;
        if (f.inst(i).op == IrOp::AtomicStore)
            f.inst(i).order = MemOrder::Acquire;
    }
    const auto diags = analysis::verifyFunction(f);
    EXPECT_TRUE(hasDiag(diags, "atomicst with an acquire component"));
    EXPECT_TRUE(hasDiag(diags, "atomicld with a release component"));
}

TEST(AtomicVerify, RejectsIsaInternalRmwOps)
{
    for (AtomicOp aop :
         {AtomicOp::Cas, AtomicOp::Ld, AtomicOp::St}) {
        IrFunction f =
            IrBuilder::makeKernel("f", {{"p", Type::ptr(4)}});
        IrBuilder b(f);
        b.setInsertPoint(b.block("entry"));
        b.atomicRmw(AtomicOp::Add, b.param(0), b.constInt(1),
                    MemOrder::Relaxed, MemScope::Gpu);
        b.ret();
        for (ValueId i = 0; i < f.values.size(); ++i)
            if (f.inst(i).op == IrOp::AtomicRmw)
                f.inst(i).aop = aop;
        EXPECT_TRUE(hasDiag(analysis::verifyFunction(f),
                            "ISA-internal operation"))
            << atomicOpName(aop);
    }
}

// ---------------------------------------------------------------------
// Microcode.
// ---------------------------------------------------------------------

TEST(AtomicMicrocode, RoundTripsAtomicFamily)
{
    const struct
    {
        Opcode op;
        AtomicOp aop;
        MemScope scope;
        MemOrder order;
        int16_t offset;
        uint8_t width;
    } cases[] = {
        {Opcode::ATOMG, AtomicOp::Add, MemScope::Gpu,
         MemOrder::Relaxed, 0, 4},
        {Opcode::ATOMG, AtomicOp::Xor, MemScope::Sys,
         MemOrder::AcqRel, -0x80, 8},
        {Opcode::ATOMS, AtomicOp::Max, MemScope::Cta,
         MemOrder::Acquire, 0x40, 4},
        {Opcode::ATOMG, AtomicOp::St, MemScope::Gpu,
         MemOrder::Release, 4, 4},
        {Opcode::ATOMG, AtomicOp::Ld, MemScope::Gpu,
         MemOrder::Acquire, 8, 4},
        {Opcode::CASG, AtomicOp::Cas, MemScope::Gpu,
         MemOrder::AcqRel, 0, 4},
        {Opcode::CASS, AtomicOp::Cas, MemScope::Cta,
         MemOrder::Relaxed, 0, 8},
    };
    for (const auto& c : cases) {
        Instruction inst;
        inst.op = c.op;
        inst.dst = 5;
        inst.src[0] = Operand::reg(2);
        inst.src[1] = Operand::reg(3);
        if (c.op == Opcode::CASG || c.op == Opcode::CASS)
            inst.src[2] = Operand::reg(4);
        inst.aop = c.aop;
        inst.scope = c.scope;
        inst.order = c.order;
        inst.imm_offset = c.offset;
        inst.width = c.width;
        ASSERT_TRUE(isEncodable(inst)) << opcodeName(c.op);

        const Instruction back = unpackMicrocode(packMicrocode(inst));
        EXPECT_EQ(back.op, c.op);
        EXPECT_EQ(back.aop, c.aop) << opcodeName(c.op);
        EXPECT_EQ(back.scope, c.scope);
        EXPECT_EQ(back.order, c.order);
        EXPECT_EQ(back.imm_offset, c.offset);
        EXPECT_EQ(back.width, c.width);
    }
}

TEST(AtomicMicrocode, RoundTripsMembar)
{
    Instruction inst;
    inst.op = Opcode::MEMBAR;
    inst.dst = -1;
    inst.scope = MemScope::Sys;
    inst.order = MemOrder::AcqRel;
    const Instruction back = unpackMicrocode(packMicrocode(inst));
    EXPECT_EQ(back.op, Opcode::MEMBAR);
    EXPECT_EQ(back.scope, MemScope::Sys);
    EXPECT_EQ(back.order, MemOrder::AcqRel);
}

// ---------------------------------------------------------------------
// Codegen.
// ---------------------------------------------------------------------

TEST(AtomicCodegen, LowersToAtomicOpcodeFamily)
{
    const CompiledKernel ck =
        compileKernel(module(atomicZoo()), "zoo", CodegenOptions{});
    unsigned atomg = 0, casg = 0, membar = 0;
    for (const auto& inst : ck.program.code) {
        atomg += inst.op == Opcode::ATOMG;
        casg += inst.op == Opcode::CASG;
        membar += inst.op == Opcode::MEMBAR;
    }
    // add, max, ld, st lower to ATOMG (the ld/st cta/gpu variants
    // included); the CAS to CASG; the fence to MEMBAR.
    EXPECT_GE(atomg, 4u);
    EXPECT_EQ(casg, 1u);
    EXPECT_EQ(membar, 1u);
}

// ---------------------------------------------------------------------
// Simulator semantics.
// ---------------------------------------------------------------------

/** Every thread atomically adds 1 to cell 0 and maxes cell 1 with its
 *  gtid; thread-0-of-device CAS-claims cell 2. */
IrModule
contendKernel()
{
    IrFunction f =
        IrBuilder::makeKernel("contend", {{"buf", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto buf = b.param(0);
    b.atomicRmw(AtomicOp::Add, buf, b.constInt(1), MemOrder::Relaxed,
                MemScope::Gpu);
    b.atomicRmw(AtomicOp::Max, b.gep(buf, b.constInt(1)), b.gtid(),
                MemOrder::Relaxed, MemScope::Gpu);
    b.atomicCas(b.gep(buf, b.constInt(2)), b.constInt(0),
                b.iadd(b.gtid(), b.constInt(1)), MemOrder::AcqRel,
                MemScope::Gpu);
    b.ret();
    return module(std::move(f));
}

TEST(AtomicSim, GlobalContention)
{
    Device dev;
    const unsigned blocks = 4, threads = 64;
    const uint64_t buf = dev.cudaMalloc(64);
    const CompiledKernel k = dev.compile(contendKernel(), "contend");
    const RunResult r = dev.launch(k, blocks, threads, {buf});
    ASSERT_FALSE(r.faulted());
    EXPECT_EQ(dev.peek32(buf), blocks * threads);
    EXPECT_EQ(dev.peek32(buf + 4), blocks * threads - 1);
    // Exactly one CAS won; the winner's gtid+1 is in [1, n].
    const uint32_t winner = dev.peek32(buf + 8);
    EXPECT_GE(winner, 1u);
    EXPECT_LE(winner, blocks * threads);
}

/** Per-block shared counter at cta scope, published per block. */
IrModule
sharedCountKernel()
{
    IrFunction f =
        IrBuilder::makeKernel("shcount", {{"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto cnt = b.sharedBuffer("cnt", 4, 4);
    b.atomicRmw(AtomicOp::Add, cnt, b.constInt(1), MemOrder::Relaxed,
                MemScope::Cta);
    b.barrier();
    auto is0 = b.icmp(CmpOp::EQ, b.tid(), b.constInt(0));
    auto then = b.block("publish");
    auto done = b.block("done");
    b.br(is0, then, done);
    b.setInsertPoint(then);
    b.atomicStore(b.gep(b.param(0), b.ctaid()), b.atomicLoad(cnt),
                  MemOrder::Release, MemScope::Gpu);
    b.jump(done);
    b.setInsertPoint(done);
    b.ret();
    return module(std::move(f));
}

TEST(AtomicSim, SharedCtaCounter)
{
    Device dev;
    const unsigned blocks = 3, threads = 96;
    const uint64_t out = dev.cudaMalloc(blocks * 4);
    const CompiledKernel k = dev.compile(sharedCountKernel(), "shcount");
    const RunResult r = dev.launch(k, blocks, threads, {out});
    ASSERT_FALSE(r.faulted());
    for (unsigned i = 0; i < blocks; ++i)
        EXPECT_EQ(dev.peek32(out + 4 * i), threads) << "block " << i;
}

TEST(AtomicSim, ByteIdenticalAcrossSimThreads)
{
    auto runWith = [](unsigned sim_threads, std::vector<uint32_t>* mem,
                      uint64_t* cycles) {
        Device dev;
        dev.setSimThreads(sim_threads);
        const uint64_t buf = dev.cudaMalloc(64);
        const CompiledKernel k =
            dev.compile(contendKernel(), "contend");
        const RunResult r = dev.launch(k, 4, 64, {buf});
        ASSERT_FALSE(r.faulted());
        *cycles = r.cycles;
        mem->clear();
        for (unsigned i = 0; i < 16; ++i)
            mem->push_back(dev.peek32(buf + 4 * i));
    };
    std::vector<uint32_t> serial, parallel;
    uint64_t serial_cycles = 0, parallel_cycles = 0;
    runWith(1, &serial, &serial_cycles);
    for (unsigned threads : {2u, 4u}) {
        SCOPED_TRACE("sim_threads=" + std::to_string(threads));
        runWith(threads, &parallel, &parallel_cycles);
        EXPECT_EQ(parallel, serial);
        EXPECT_EQ(parallel_cycles, serial_cycles);
    }
}

// ---------------------------------------------------------------------
// Race sanitizer: scoped-atomic exemption.
// ---------------------------------------------------------------------

/** Feed @p san one global 4-byte store event. */
void
storeEvent(RaceSanitizer& san, uint32_t block, uint32_t warp,
           uint32_t gtid, uint64_t pc, uint64_t addr, bool is_atomic,
           MemScope scope = MemScope::Cta)
{
    MemEvent e;
    e.kind = MemEvent::Kind::Store;
    e.is_atomic = is_atomic;
    e.scope = scope;
    e.block = block;
    e.warp = warp;
    e.gtid = gtid;
    e.pc = pc;
    e.addr = addr;
    san.onEvent(e);
}

TEST(AtomicSanitizer, ScopedAtomicPairsDoNotConflict)
{
    RaceSanitizer san;
    // Same-block pair, both atomic at cta scope: synchronizes.
    storeEvent(san, /*block=*/0, /*warp=*/0, /*gtid=*/0, /*pc=*/0, 0x1000,
               /*is_atomic=*/true, MemScope::Cta);
    storeEvent(san, 0, 1, 32, 4, 0x1000, true, MemScope::Cta);
    EXPECT_EQ(san.conflictCount(), 0u);
    // Cross-block pair at cta scope: insufficient, a race.
    storeEvent(san, 1, 0, 64, 8, 0x1000, true, MemScope::Cta);
    EXPECT_EQ(san.conflictCount(), 1u);
}

TEST(AtomicSanitizer, DeviceScopeCoversCrossBlock)
{
    RaceSanitizer san;
    storeEvent(san, 0, 0, 0, 0, 0x2000, true, MemScope::Gpu);
    storeEvent(san, 1, 0, 64, 4, 0x2000, true, MemScope::Sys);
    EXPECT_EQ(san.conflictCount(), 0u);
    // Atomic against a plain access still races.
    storeEvent(san, 2, 0, 128, 8, 0x2000, /*is_atomic=*/false);
    EXPECT_GE(san.conflictCount(), 1u);
}

// ---------------------------------------------------------------------
// Static race analysis: Synchronized downgrade.
// ---------------------------------------------------------------------

TEST(AtomicRaceAnalysis, DeviceScopeAtomicsSynchronize)
{
    IrFunction f =
        IrBuilder::makeKernel("k", {{"buf", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    // Every thread RMWs the same cell: conflicting, but synchronized.
    b.atomicRmw(AtomicOp::Add, b.param(0), b.constInt(1),
                MemOrder::Relaxed, MemScope::Gpu);
    b.ret();
    const analysis::RaceReport r = analysis::analyzeRaces(f);
    EXPECT_EQ(r.provenRacy(), 0u);
    EXPECT_EQ(r.unknown(), 0u);
    EXPECT_GE(r.synchronized(), 1u);
    EXPECT_TRUE(r.diagnostics.empty());
}

TEST(AtomicRaceAnalysis, CtaScopeGlobalAtomicsStillFlagged)
{
    IrFunction f =
        IrBuilder::makeKernel("k", {{"buf", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    // cta scope cannot order cross-block global conflicts.
    b.atomicRmw(AtomicOp::Add, b.param(0), b.constInt(1),
                MemOrder::Relaxed, MemScope::Cta);
    b.ret();
    const analysis::RaceReport r = analysis::analyzeRaces(f);
    EXPECT_EQ(r.synchronized(), 0u);
    EXPECT_GE(r.provenRacy() + r.unknown(), 1u);
}

TEST(AtomicRaceAnalysis, CtaScopeSufficesOnSharedMemory)
{
    IrFunction f = IrBuilder::makeKernel("k", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto cnt = b.sharedBuffer("cnt", 4, 4);
    b.atomicRmw(AtomicOp::Add, cnt, b.constInt(1), MemOrder::Relaxed,
                MemScope::Cta);
    b.ret();
    const analysis::RaceReport r = analysis::analyzeRaces(f);
    EXPECT_EQ(r.provenRacy(), 0u);
    EXPECT_GE(r.synchronized(), 1u);
}

TEST(AtomicRaceAnalysis, AtomicAgainstPlainStoreStillRaces)
{
    IrFunction f =
        IrBuilder::makeKernel("k", {{"buf", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    b.atomicRmw(AtomicOp::Add, b.param(0), b.constInt(1),
                MemOrder::Relaxed, MemScope::Gpu);
    b.store(b.param(0), b.constInt(7)); // plain store, same cell
    b.ret();
    const analysis::RaceReport r = analysis::analyzeRaces(f);
    EXPECT_GE(r.provenRacy(), 1u);
}

// ---------------------------------------------------------------------
// Cfg postdominators with fences/atomics against terminators.
// ---------------------------------------------------------------------

TEST(CfgAtomics, FenceOnlyBlockKeepsPostdomChain)
{
    // entry -> fencer -> exit, where fencer holds only a fence + br.
    IrFunction f =
        IrBuilder::makeKernel("k", {{"p", Type::ptr(4)}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto fencer = b.block("fencer");
    auto exit = b.block("exit");
    b.setInsertPoint(entry);
    b.atomicStore(b.param(0), b.constInt(1), MemOrder::Release,
                  MemScope::Gpu);
    b.jump(fencer);
    b.setInsertPoint(fencer);
    b.fence(MemOrder::AcqRel, MemScope::Gpu);
    b.jump(exit);
    b.setInsertPoint(exit);
    b.ret();

    const analysis::Cfg cfg = analysis::Cfg::build(f);
    EXPECT_TRUE(cfg.postDominates(exit, entry));
    EXPECT_TRUE(cfg.postDominates(fencer, entry));
    EXPECT_TRUE(cfg.postDominates(exit, fencer));
    EXPECT_FALSE(cfg.postDominates(entry, fencer));
    EXPECT_TRUE(analysis::verifyFunction(f).empty());
}

TEST(CfgAtomics, AtomicArmsOfDiamondDontPostdominateEachOther)
{
    // Diamond whose arms end in an atomic right before the branch;
    // neither arm postdominates the entry, the merge does.
    IrFunction f =
        IrBuilder::makeKernel("k", {{"p", Type::ptr(4)}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto lhs = b.block("lhs");
    auto rhs = b.block("rhs");
    auto merge = b.block("merge");
    b.setInsertPoint(entry);
    auto is0 = b.icmp(CmpOp::EQ, b.tid(), b.constInt(0));
    b.br(is0, lhs, rhs);
    b.setInsertPoint(lhs);
    b.atomicRmw(AtomicOp::Add, b.param(0), b.constInt(1),
                MemOrder::AcqRel, MemScope::Gpu);
    b.jump(merge);
    b.setInsertPoint(rhs);
    b.atomicCas(b.param(0), b.constInt(0), b.constInt(1),
                MemOrder::AcqRel, MemScope::Gpu);
    b.jump(merge);
    b.setInsertPoint(merge);
    b.fence(MemOrder::Acquire, MemScope::Gpu);
    b.ret();

    const analysis::Cfg cfg = analysis::Cfg::build(f);
    EXPECT_TRUE(cfg.postDominates(merge, entry));
    EXPECT_FALSE(cfg.postDominates(lhs, entry));
    EXPECT_FALSE(cfg.postDominates(rhs, entry));
    EXPECT_TRUE(cfg.postDominates(merge, lhs));
    EXPECT_TRUE(cfg.postDominates(merge, rhs));
    // A fence-terminated merge block is its own immediate region: the
    // postdominator tree must still be exit -> merge -> entry.
    EXPECT_EQ(cfg.ipdom[entry], int(merge));
}

} // namespace
} // namespace lmi
