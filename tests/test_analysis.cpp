/**
 * @file
 * Unit and end-to-end tests for the static-analysis pipeline: the IR
 * verifier (malformed-IR fixtures), the interval domain (widening,
 * wrap-around saturation), the range analysis's safety classification,
 * the lint rules, and the elision path (proven-safe checks skipped,
 * seeded out-of-bounds accesses still caught via the UNKNOWN fallback).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "analysis/analysis.hpp"
#include "analysis/cfg.hpp"
#include "arch/microcode.hpp"
#include "compiler/codegen.hpp"
#include "ir/builder.hpp"
#include "mechanisms/registry.hpp"
#include "security/coverage.hpp"
#include "sim/device.hpp"
#include "workloads/attacks.hpp"
#include "workloads/workloads.hpp"

namespace lmi {
namespace {

using namespace ir;
using analysis::AnalysisLevel;
using analysis::Diagnostic;
using analysis::Interval;
using analysis::SafetyClass;
using analysis::Severity;

bool
hasDiag(const std::vector<Diagnostic>& diags, const std::string& needle)
{
    for (const Diagnostic& d : diags)
        if (d.message.find(needle) != std::string::npos)
            return true;
    return false;
}

IrModule
singleKernelModule(IrFunction f)
{
    IrModule m;
    m.functions.push_back(std::move(f));
    return m;
}

// ---------------------------------------------------------------------
// IR verifier: malformed-IR fixtures.
// ---------------------------------------------------------------------

TEST(Verify, CleanKernelHasNoDiagnostics)
{
    IrFunction f = IrBuilder::makeKernel(
        "clean", {{"in", Type::ptr(4)}, {"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto t = b.gtid();
    auto v = b.load(b.gep(b.param(0), t));
    b.store(b.gep(b.param(1), t), v);
    b.ret();
    EXPECT_TRUE(analysis::verifyFunction(f).empty());
}

TEST(Verify, RejectsEmptyBlock)
{
    IrFunction f = IrBuilder::makeKernel("empty", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    b.ret();
    f.blocks.push_back({"dead", {}});
    EXPECT_TRUE(hasDiag(analysis::verifyFunction(f), "is empty"));
}

TEST(Verify, RejectsMissingTerminator)
{
    IrFunction f = IrBuilder::makeKernel("noterm", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    b.constInt(7);
    EXPECT_TRUE(hasDiag(analysis::verifyFunction(f),
                        "does not end in a terminator"));
}

TEST(Verify, RejectsTerminatorMidBlock)
{
    IrFunction f = IrBuilder::makeKernel("midterm", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    b.ret();
    b.constInt(7); // appended after the terminator
    EXPECT_TRUE(hasDiag(analysis::verifyFunction(f),
                        "terminator in the middle"));
}

TEST(Verify, RejectsDoubleScheduledValue)
{
    IrFunction f = IrBuilder::makeKernel("twice", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto c = b.constInt(7);
    b.ret();
    f.blocks[0].insts.insert(f.blocks[0].insts.begin(), c);
    EXPECT_TRUE(hasDiag(analysis::verifyFunction(f),
                        "scheduled more than once"));
}

TEST(Verify, RejectsPhiInEntryBlock)
{
    IrFunction f = IrBuilder::makeKernel("entryphi", {});
    IrBuilder b(f);
    auto entry = b.block("entry");
    b.setInsertPoint(entry);
    auto c = b.constInt(1);
    b.phi(Type::i64(), {{c, entry}});
    b.ret();
    EXPECT_TRUE(hasDiag(analysis::verifyFunction(f),
                        "phi in the entry block"));
}

TEST(Verify, RejectsPhiAfterNonPhi)
{
    IrFunction f = IrBuilder::makeKernel("latephi", {});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto body = b.block("body");
    b.setInsertPoint(entry);
    auto c = b.constInt(1);
    b.jump(body);
    b.setInsertPoint(body);
    // The builder auto-leads phis, so force the malformation by hand:
    // schedule a non-phi ahead of the phi after construction.
    b.phi(Type::i64(), {{c, entry}});
    b.constInt(2);
    b.ret();
    std::swap(f.blocks[body].insts[0], f.blocks[body].insts[1]);
    EXPECT_TRUE(hasDiag(analysis::verifyFunction(f),
                        "phi does not lead block"));
}

TEST(Verify, RejectsPhiFromNonPredecessor)
{
    IrFunction f = IrBuilder::makeKernel("badpred", {});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto body = b.block("body");
    auto stranger = b.block("stranger");
    b.setInsertPoint(entry);
    auto c = b.constInt(1);
    b.jump(body);
    b.setInsertPoint(body);
    b.phi(Type::i64(), {{c, stranger}});
    b.ret();
    b.setInsertPoint(stranger);
    b.ret();
    const auto diags = analysis::verifyFunction(f);
    EXPECT_TRUE(hasDiag(diags, "is not a predecessor"));
    EXPECT_TRUE(hasDiag(diags, "misses incoming value"));
}

TEST(Verify, RejectsPhiIncomingTypeMismatch)
{
    IrFunction f = IrBuilder::makeKernel("mistyped", {});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto body = b.block("body");
    b.setInsertPoint(entry);
    auto c = b.constFloat(1.0);
    b.jump(body);
    b.setInsertPoint(body);
    b.phi(Type::i64(), {{c, entry}});
    b.ret();
    EXPECT_TRUE(hasDiag(analysis::verifyFunction(f), "has type f32"));
}

TEST(Verify, RejectsUseNotDominatedByDef)
{
    IrFunction f = IrBuilder::makeKernel("nodom", {{"n", Type::i64()}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto then_bb = b.block("then");
    auto else_bb = b.block("else");
    b.setInsertPoint(entry);
    auto n = b.param(0);
    auto c = b.icmp(CmpOp::LT, n, b.constInt(4));
    b.br(c, then_bb, else_bb);
    b.setInsertPoint(then_bb);
    auto x = b.constInt(42);
    b.ret();
    b.setInsertPoint(else_bb);
    b.iadd(x, x); // x defined only on the then path
    b.ret();
    EXPECT_TRUE(hasDiag(analysis::verifyFunction(f),
                        "not dominated by its definition"));
}

TEST(Verify, RejectsComparisonConsumedByArithmetic)
{
    IrFunction f = IrBuilder::makeKernel("cmpuse", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto c = b.icmp(CmpOp::EQ, b.constInt(1), b.constInt(2));
    b.iadd(c, b.constInt(1)); // the backend cannot materialize c
    b.ret();
    EXPECT_TRUE(hasDiag(analysis::verifyFunction(f),
                        "icmp results may only guard branches"));
}

TEST(Verify, RejectsBranchGuardThatIsNotAComparison)
{
    IrFunction f = IrBuilder::makeKernel("badguard", {});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto t = b.block("t");
    auto e = b.block("e");
    b.setInsertPoint(entry);
    b.br(b.constInt(1), t, e);
    b.setInsertPoint(t);
    b.ret();
    b.setInsertPoint(e);
    b.ret();
    EXPECT_TRUE(hasDiag(analysis::verifyFunction(f),
                        "is not a comparison"));
}

TEST(Verify, RejectsFloatOperandInIntegerArithmetic)
{
    // The exact latent malformation the workload generator carried:
    // xor-folding an f32 chain into an integer without a bit cast.
    IrFunction f = IrBuilder::makeKernel("floatmix", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto x = b.constInt(1);
    auto fv = b.constFloat(1.5);
    b.ixor(x, fv);
    b.ret();
    EXPECT_TRUE(hasDiag(analysis::verifyFunction(f),
                        "has non-integer type f32"));

    // fbits makes the same fold type-correct.
    IrFunction g = IrBuilder::makeKernel("bitsmix", {});
    IrBuilder bg(g);
    bg.setInsertPoint(bg.block("entry"));
    bg.ixor(bg.constInt(1), bg.fbits(bg.constFloat(1.5)));
    bg.ret();
    EXPECT_TRUE(analysis::verifyFunction(g).empty());
}

TEST(Verify, RejectsAddOfTwoPointers)
{
    IrFunction f = IrBuilder::makeKernel(
        "twoptr", {{"a", Type::ptr(4)}, {"b", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    b.iadd(b.param(0), b.param(1));
    b.ret();
    EXPECT_TRUE(hasDiag(analysis::verifyFunction(f),
                        "two pointer operands"));
}

TEST(Verify, RejectsRetValueInVoidFunction)
{
    IrFunction f = IrBuilder::makeKernel("voidret", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    b.retVal(b.constInt(1));
    EXPECT_TRUE(hasDiag(analysis::verifyFunction(f),
                        "ret with a value in a void function"));
}

TEST(Verify, ModuleRejectsCallToUnknownFunction)
{
    IrFunction f = IrBuilder::makeKernel("caller", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    b.call("nothere", Type::voidTy(), {});
    b.ret();
    EXPECT_TRUE(hasDiag(analysis::verifyModule(singleKernelModule(
                            std::move(f))),
                        "call to unknown function"));
}

TEST(Verify, LmiInvariantsAreOptIn)
{
    IrFunction f = IrBuilder::makeKernel("casty", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto p = b.intToPtr(b.constInt(0x1000), Type::ptr(4));
    b.ptrToInt(p);
    b.ret();
    EXPECT_TRUE(analysis::verifyFunction(f).empty());
    analysis::VerifyOptions opts;
    opts.lmi_invariants = true;
    const auto diags = analysis::verifyFunction(f, opts);
    EXPECT_TRUE(hasDiag(diags, "inttoptr"));
    EXPECT_TRUE(hasDiag(diags, "ptrtoint"));
}

// ---------------------------------------------------------------------
// Interval domain.
// ---------------------------------------------------------------------

TEST(Interval, JoinIsTheHull)
{
    const Interval a = Interval::range(0, 10);
    const Interval b = Interval::range(5, 20);
    EXPECT_EQ(a.join(b), Interval::range(0, 20));
    EXPECT_EQ(Interval::range(-3, 1).join(Interval::of(7)),
              Interval::range(-3, 7));
}

TEST(Interval, WideningJumpsGrowingBoundsToInfinity)
{
    const Interval old = Interval::range(0, 10);
    const Interval grown = old.widen(old.join(Interval::range(0, 11)));
    EXPECT_EQ(grown.lo, 0);
    EXPECT_EQ(grown.hi, INT64_MAX);
    // A stable bound stays put.
    EXPECT_EQ(old.widen(old), old);
}

TEST(Interval, WrapAroundSaturatesToFull)
{
    // The simulated ALU wraps mod 2^64; a clamped interval would be
    // unsound, so any possible overflow degrades to full.
    EXPECT_TRUE(Interval::add(Interval::of(INT64_MAX), Interval::of(1))
                    .isFull());
    EXPECT_TRUE(Interval::sub(Interval::of(INT64_MIN), Interval::of(1))
                    .isFull());
    EXPECT_TRUE(
        Interval::mul(Interval::of(INT64_MAX / 2), Interval::of(3))
            .isFull());
    EXPECT_TRUE(Interval::shl(Interval::of(1), Interval::of(63)).isFull());
    // In-range arithmetic stays exact.
    EXPECT_EQ(Interval::add(Interval::range(1, 2), Interval::range(3, 4)),
              Interval::range(4, 6));
}

TEST(Interval, MaskingBoundsAnyValue)
{
    EXPECT_EQ(Interval::and_(Interval::full(), Interval::of(15)),
              Interval::range(0, 15));
    EXPECT_EQ(Interval::orLike(Interval::range(0, 5),
                               Interval::range(0, 9)),
              Interval::range(0, 15));
    // A negative operand defeats the signed reading of a shift.
    EXPECT_TRUE(Interval::shr(Interval::range(-1, 5), Interval::of(1))
                    .isFull());
}

// ---------------------------------------------------------------------
// Range analysis: safety classification.
// ---------------------------------------------------------------------

TEST(RangeAnalysis, ConstantInBoundsGepIsProvenSafe)
{
    IrFunction f = IrBuilder::makeKernel("inb", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto buf = b.alloca_(256, 4);
    auto slot = b.gep(buf, b.constInt(3)); // offset 12 of 256
    b.store(slot, b.constInt(1, Type::i32()));
    b.ret();
    const analysis::RangeAnalysis ra = analysis::analyzeRanges(f);
    EXPECT_EQ(ra.safety.at(slot), SafetyClass::ProvenSafe);
    EXPECT_TRUE(ra.diagnostics.empty());
}

TEST(RangeAnalysis, ParamPointerGepIsUnknown)
{
    IrFunction f = IrBuilder::makeKernel("unk", {{"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto slot = b.gep(b.param(0), b.gtid());
    b.store(slot, b.constInt(1, Type::i32()));
    b.ret();
    const analysis::RangeAnalysis ra = analysis::analyzeRanges(f);
    EXPECT_EQ(ra.safety.at(slot), SafetyClass::Unknown);
}

TEST(RangeAnalysis, ConstantEscapeIsProvenViolating)
{
    IrFunction f = IrBuilder::makeKernel("oob", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto buf = b.alloca_(256, 4);
    auto bad = b.gep(buf, b.constInt(128)); // offset 512, extent 256
    b.store(bad, b.constInt(1, Type::i32()));
    b.ret();
    const analysis::RangeAnalysis ra = analysis::analyzeRanges(f);
    EXPECT_EQ(ra.safety.at(bad), SafetyClass::ProvenViolating);
    ASSERT_FALSE(ra.diagnostics.empty());
    EXPECT_EQ(ra.diagnostics[0].severity, Severity::Error);
    EXPECT_TRUE(hasDiag(ra.diagnostics, "provably escapes"));
}

TEST(RangeAnalysis, MaskedLoopIndexIsProvenSafeDespiteWidening)
{
    // i widens to +inf around the loop, but i & 15 stays in [0, 15],
    // so the tile access is proven even with an unknown trip count.
    IrFunction f = IrBuilder::makeKernel("loop", {{"n", Type::i64()}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto body = b.block("body");
    auto exit = b.block("exit");
    b.setInsertPoint(entry);
    auto n = b.param(0);
    auto zero = b.constInt(0);
    auto buf = b.alloca_(256, 4);
    b.jump(body);
    b.setInsertPoint(body);
    auto i = b.phi(Type::i64(), {{zero, entry}});
    auto idx = b.iand(i, b.constInt(15));
    auto slot = b.gep(buf, idx); // offsets [0, 60] of 256
    b.store(slot, b.constInt(1, Type::i32()));
    auto next = b.iadd(i, b.constInt(1));
    f.inst(i).ops.push_back(next);
    f.inst(i).phi_blocks.push_back(body);
    auto more = b.icmp(CmpOp::LT, next, n);
    b.br(more, body, exit);
    b.setInsertPoint(exit);
    b.ret();

    const analysis::RangeAnalysis ra = analysis::analyzeRanges(f);
    EXPECT_EQ(ra.safety.at(slot), SafetyClass::ProvenSafe);
    // The unmasked induction variable itself is widened to top (the
    // increment overflows once the upper bound hits +inf), not proven.
    EXPECT_TRUE(ra.ranges.at(i).isFull());
}

TEST(RangeAnalysis, ZeroDeltaIsProvenSafeForAnyProvenance)
{
    // Adding zero is an identity update: bit-identical result whatever
    // the input pointer is, so even a parameter pointer qualifies.
    IrFunction f = IrBuilder::makeKernel("ident", {{"p", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto moved = b.ptrAddBytes(b.param(0), b.constInt(0));
    b.store(moved, b.constInt(1, Type::i32()));
    b.ret();
    const analysis::RangeAnalysis ra = analysis::analyzeRanges(f);
    EXPECT_EQ(ra.safety.at(moved), SafetyClass::ProvenSafe);
}

TEST(RangeAnalysis, SaturatedAllocationIsNeverProven)
{
    // Larger than the codec maximum: extent 0, nothing provable.
    IrFunction f = IrBuilder::makeKernel("sat", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto buf = b.alloca_(uint64_t(1) << 34, 4);
    auto slot = b.gep(buf, b.constInt(1));
    b.store(slot, b.constInt(1, Type::i32()));
    b.ret();
    const analysis::RangeAnalysis ra = analysis::analyzeRanges(f);
    EXPECT_EQ(ra.safety.at(slot), SafetyClass::Unknown);
}

// ---------------------------------------------------------------------
// Lint.
// ---------------------------------------------------------------------

TEST(Lint, WarnsOnPointerPhiMixingAllocations)
{
    IrFunction f = IrBuilder::makeKernel("mix", {{"n", Type::i64()}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto t = b.block("t");
    auto e = b.block("e");
    auto m = b.block("m");
    b.setInsertPoint(entry);
    auto a1 = b.alloca_(64, 4);
    auto a2 = b.alloca_(64, 4);
    auto c = b.icmp(CmpOp::LT, b.param(0), b.constInt(4));
    b.br(c, t, e);
    b.setInsertPoint(t);
    b.jump(m);
    b.setInsertPoint(e);
    b.jump(m);
    b.setInsertPoint(m);
    auto p = b.phi(f.inst(a1).type, {{a1, t}, {a2, e}});
    b.store(p, b.constInt(1, Type::i32()));
    b.ret();
    EXPECT_TRUE(hasDiag(analysis::lintFunction(f),
                        "merges 2 distinct allocations"));
}

TEST(Lint, WarnsOnExtentSaturation)
{
    IrFunction f = IrBuilder::makeKernel("big", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    b.alloca_(uint64_t(1) << 34, 4);
    b.ret();
    EXPECT_TRUE(hasDiag(analysis::lintFunction(f),
                        "the extent saturates to an invalid encoding"));
}

// ---------------------------------------------------------------------
// Pipeline driver + compiler integration.
// ---------------------------------------------------------------------

TEST(AnalysisPipeline, VerifierErrorsStopLaterPasses)
{
    IrFunction f = IrBuilder::makeKernel("stop", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    b.ixor(b.constInt(1), b.constFloat(1.5)); // malformed
    b.ret();
    analysis::AnalysisOptions opts;
    opts.level = AnalysisLevel::Full;
    const analysis::AnalysisReport report = analysis::analyzeFunction(f,
                                                                      opts);
    EXPECT_GT(report.errors(), 0u);
    EXPECT_TRUE(report.safety.empty());
}

TEST(AnalysisPipeline, CompileKernelRejectsMalformedIr)
{
    IrFunction f = IrBuilder::makeKernel("badk", {{"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    b.ixor(b.constInt(1), b.constFloat(1.5));
    b.ret();
    CodegenOptions opts;
    opts.analysis_level = AnalysisLevel::Verify;
    EXPECT_THROW(compileKernel(singleKernelModule(std::move(f)), "badk",
                               opts),
                 CompileError);
}

TEST(AnalysisPipeline, ElideMechanismRejectsProvenViolation)
{
    IrFunction f = IrBuilder::makeKernel("escape", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto buf = b.alloca_(256, 4);
    b.store(b.gep(buf, b.constInt(128)), b.constInt(1, Type::i32()));
    b.ret();
    Device dev(makeMechanism(MechanismKind::LmiElide));
    EXPECT_THROW(dev.compile(singleKernelModule(std::move(f)), "escape"),
                 CompileError);
}

TEST(AnalysisPipeline, ProvenSafeOpsGetTheElideHint)
{
    IrFunction f = IrBuilder::makeKernel("hinted",
                                         {{"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto buf = b.alloca_(256, 4);
    auto safe = b.gep(buf, b.constInt(3));
    b.store(safe, b.constInt(1, Type::i32()));
    auto unknown = b.gep(b.param(0), b.gtid());
    b.store(unknown, b.constInt(2, Type::i32()));
    b.ret();
    CodegenOptions opts;
    opts.lmi = true;
    opts.stack_policy = AllocPolicy::Pow2Aligned;
    opts.analysis_level = AnalysisLevel::Full;
    const CompiledKernel ck =
        compileKernel(singleKernelModule(std::move(f)), "hinted", opts);
    EXPECT_GE(ck.report.proven_safe, 1u);
    EXPECT_GE(ck.report.unknown, 1u);
    unsigned elided = 0, kept = 0;
    for (const Instruction& inst : ck.program.code) {
        if (!inst.hints.active)
            continue;
        (inst.hints.elide_check ? elided : kept)++;
        // The E bit survives the 128-bit microcode round trip.
        EXPECT_EQ(unpackMicrocode(packMicrocode(inst)).hints.elide_check,
                  inst.hints.elide_check);
    }
    EXPECT_GE(elided, 1u);
    EXPECT_GE(kept, 1u);
}

TEST(Microcode, ElisionBitRoundTrips)
{
    Instruction inst;
    inst.op = Opcode::IADD;
    inst.dst = 4;
    inst.src[0] = Operand::reg(5);
    inst.src[1] = Operand::reg(6);
    inst.hints = {true, 1, true};
    const Microcode mc = packMicrocode(inst);
    EXPECT_TRUE(mc.elisionBit());
    const Instruction back = unpackMicrocode(mc);
    EXPECT_TRUE(back.hints.active);
    EXPECT_TRUE(back.hints.elide_check);
    inst.hints.elide_check = false;
    EXPECT_FALSE(packMicrocode(inst).elisionBit());
}

// ---------------------------------------------------------------------
// End-to-end: every workload verifies; elision preserves semantics.
// ---------------------------------------------------------------------

TEST(AnalysisEndToEnd, AllWorkloadKernelsVerifyClean)
{
    analysis::AnalysisOptions opts;
    opts.level = AnalysisLevel::Full;
    for (const WorkloadProfile& profile : workloadSuite()) {
        const IrModule m = buildWorkloadKernel(profile);
        const IrFunction flat = inlineCalls(m, *m.find(profile.name));
        const analysis::AnalysisReport report =
            analysis::analyzeFunction(flat, opts);
        EXPECT_TRUE(report.diagnostics.empty())
            << profile.name << ": "
            << (report.diagnostics.empty()
                    ? ""
                    : report.diagnostics[0].toString());
        EXPECT_GT(report.proven_safe, 0u) << profile.name;
    }
}

TEST(AnalysisEndToEnd, ElisionKeepsWorkloadResultsByteIdentical)
{
    const WorkloadProfile& profile = findWorkload("lud_cuda");
    WorkloadProfile p = profile;
    p.grid_blocks = 8;
    const uint64_t elems = p.elements();

    auto run = [&](MechanismKind kind, std::vector<uint32_t>* out_data,
                   uint64_t* elided) {
        Device dev(makeMechanism(kind));
        const uint64_t in = dev.cudaMalloc(elems * 4 + 64);
        const uint64_t out = dev.cudaMalloc(elems * 4 + 64);
        std::vector<uint32_t> seed(elems);
        for (uint64_t i = 0; i < elems; ++i)
            seed[i] = uint32_t(i * 2654435761u + 99u);
        dev.memcpyHtoD(in, seed.data(), elems * 4);
        const CompiledKernel k = dev.compile(buildWorkloadKernel(p),
                                             p.name);
        const RunResult r = dev.launch(k, p.grid_blocks, p.block_threads,
                                       {in, out, elems});
        EXPECT_FALSE(r.faulted());
        out_data->resize(elems);
        dev.memcpyDtoH(out_data->data(), out, elems * 4);
        *elided = dev.stats().counter("ocu.checks_elided");
    };

    std::vector<uint32_t> lmi_out, elide_out;
    uint64_t lmi_elided = 0, elide_elided = 0;
    run(MechanismKind::Lmi, &lmi_out, &lmi_elided);
    run(MechanismKind::LmiElide, &elide_out, &elide_elided);
    EXPECT_EQ(lmi_elided, 0u);
    EXPECT_GT(elide_elided, 0u);
    EXPECT_EQ(lmi_out, elide_out);
}

TEST(AnalysisEndToEnd, SeededOobStillFaultsUnderElision)
{
    // A parameter pointer has unknown provenance, so its checks are
    // never elided: the OCU still poisons the escaped pointer and the
    // dereference faults.
    IrFunction f = IrBuilder::makeKernel(
        "oob", {{"out", Type::ptr(4)}, {"n", Type::i64()}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto bad = b.gep(b.param(0), b.param(1));
    b.store(bad, b.constInt(0xDEAD, Type::i32()));
    b.ret();

    Device dev(makeMechanism(MechanismKind::LmiElide));
    const uint64_t out = dev.cudaMalloc(1024);
    const CompiledKernel k =
        dev.compile(singleKernelModule(std::move(f)), "oob");
    const RunResult r = dev.launch(k, 1, 32, {out, 1 << 20});
    EXPECT_TRUE(r.faulted());
}

TEST(AnalysisEndToEnd, ElisionNeverRegressesSecurityDetection)
{
    // Each case's lmi cell is followed by its lmi+elide cell.
    const CoverageMatrix matrix =
        runCoverage({MechanismKind::Lmi, MechanismKind::LmiElide},
                    {ExecutionTier::Detailed});
    for (size_t i = 0; i + 1 < matrix.cells.size(); i += 2)
        EXPECT_EQ(matrix.cells[i].detected, matrix.cells[i + 1].detected)
            << matrix.cells[i].attack;
}

// ---------------------------------------------------------------------
// CFG dominance/postdominance edge cases.
// ---------------------------------------------------------------------

TEST(Cfg, UnreachableBlockHasNoRpoPositionAndVacuousDominance)
{
    // entry -> exit, plus an orphan block no edge reaches.
    IrFunction f = IrBuilder::makeKernel("orphan", {});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto exit = b.block("exit");
    auto orphan = b.block("orphan");

    b.setInsertPoint(entry);
    b.jump(exit);
    b.setInsertPoint(exit);
    b.ret();
    b.setInsertPoint(orphan);
    b.ret();

    const analysis::Cfg cfg = analysis::Cfg::build(f);
    EXPECT_TRUE(cfg.reachable(entry));
    EXPECT_TRUE(cfg.reachable(exit));
    EXPECT_FALSE(cfg.reachable(orphan));
    EXPECT_EQ(cfg.rpo_index[orphan], -1);
    EXPECT_EQ(cfg.idom[orphan], -1);
    // LLVM convention: everything dominates an unreachable block.
    EXPECT_TRUE(cfg.dominates(entry, orphan));
    EXPECT_TRUE(cfg.dominates(exit, orphan));
    // But the orphan dominates no reachable block (except vacuously
    // itself), and never postdominates the entry.
    EXPECT_FALSE(cfg.dominates(orphan, entry));
    EXPECT_TRUE(cfg.dominates(orphan, orphan));
    EXPECT_FALSE(cfg.postDominates(orphan, entry));
}

TEST(Cfg, SingleBlockSelfLoopPostdominatesOnlyItself)
{
    // entry -> loop; loop -> loop | exit. The self-loop block is on a
    // cycle but still reaches the exit, so exit postdominates it; the
    // loop block postdominates neither entry's other successors nor
    // anything below it.
    IrFunction f = IrBuilder::makeKernel("selfloop", {{"n", Type::i64()}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto loop = b.block("loop");
    auto exit = b.block("exit");

    b.setInsertPoint(entry);
    auto n = b.param(0);
    b.jump(loop);

    b.setInsertPoint(loop);
    auto i = b.phi(Type::i64(), {{b.constInt(0), entry}});
    auto next = b.iadd(i, b.constInt(1));
    f.inst(i).ops.push_back(next);
    f.inst(i).phi_blocks.push_back(loop);
    auto cont = b.icmp(CmpOp::LT, next, n);
    b.br(cont, loop, exit);

    b.setInsertPoint(exit);
    b.ret();

    const analysis::Cfg cfg = analysis::Cfg::build(f);
    EXPECT_TRUE(cfg.reaches_exit[loop]);
    EXPECT_TRUE(cfg.dominates(loop, exit));
    EXPECT_TRUE(cfg.postDominates(exit, loop));
    EXPECT_TRUE(cfg.postDominates(loop, entry));
    EXPECT_TRUE(cfg.postDominates(loop, loop));
    EXPECT_FALSE(cfg.postDominates(entry, loop));
    // The self edge must appear in both adjacency directions.
    EXPECT_NE(std::find(cfg.succs[loop].begin(), cfg.succs[loop].end(),
                        loop),
              cfg.succs[loop].end());
    EXPECT_NE(std::find(cfg.preds[loop].begin(), cfg.preds[loop].end(),
                        loop),
              cfg.preds[loop].end());
}

TEST(Cfg, InfiniteSelfLoopPostdominatedOnlyByItself)
{
    // entry -> spin; spin -> spin. No exit is reachable from spin.
    IrFunction f = IrBuilder::makeKernel("spin", {});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto spin = b.block("spin");

    b.setInsertPoint(entry);
    b.jump(spin);
    b.setInsertPoint(spin);
    b.jump(spin);

    const analysis::Cfg cfg = analysis::Cfg::build(f);
    EXPECT_FALSE(cfg.reaches_exit[spin]);
    EXPECT_EQ(cfg.ipdom[spin], -1);
    EXPECT_TRUE(cfg.postDominates(spin, spin));
    EXPECT_FALSE(cfg.postDominates(entry, spin));
    EXPECT_FALSE(cfg.postDominates(spin, entry));
}

TEST(Cfg, PhiFreeDiamondMergePostdominatesBothArms)
{
    // entry -> {left, right} -> merge -> (ret). Neither arm carries a
    // phi; dominance and postdominance must still see the diamond.
    IrFunction f = IrBuilder::makeKernel("diamond", {{"n", Type::i64()}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto left = b.block("left");
    auto right = b.block("right");
    auto merge = b.block("merge");

    b.setInsertPoint(entry);
    auto cond = b.icmp(CmpOp::LT, b.param(0), b.constInt(10));
    b.br(cond, left, right);

    b.setInsertPoint(left);
    b.jump(merge);
    b.setInsertPoint(right);
    b.jump(merge);
    b.setInsertPoint(merge);
    b.ret();

    const analysis::Cfg cfg = analysis::Cfg::build(f);
    EXPECT_TRUE(cfg.dominates(entry, merge));
    EXPECT_FALSE(cfg.dominates(left, merge));
    EXPECT_FALSE(cfg.dominates(right, merge));
    EXPECT_EQ(cfg.idom[merge], int(entry));
    EXPECT_TRUE(cfg.postDominates(merge, entry));
    EXPECT_TRUE(cfg.postDominates(merge, left));
    EXPECT_TRUE(cfg.postDominates(merge, right));
    EXPECT_FALSE(cfg.postDominates(left, entry));
    EXPECT_FALSE(cfg.postDominates(right, entry));
    // ipdom of both arms is the merge; ipdom of the merge is the
    // virtual exit (-1).
    EXPECT_EQ(cfg.ipdom[left], int(merge));
    EXPECT_EQ(cfg.ipdom[right], int(merge));
    EXPECT_EQ(cfg.ipdom[merge], -1);
}

// ---------------------------------------------------------------------
// Safety oracle: temporal automaton, field windows, verdict lattice.
// ---------------------------------------------------------------------

using analysis::AccessVerdict;

/** Verdict of the single access performed through @p build's last
 *  store. Convenience: run the oracle, return the verdict of the only
 *  access whose id matches @p access. */
analysis::AccessWitness
witnessOf(const IrFunction& f, ValueId access)
{
    const analysis::SafetyOracleReport report = analysis::analyzeSafety(f);
    auto it = report.accesses.find(access);
    EXPECT_TRUE(it != report.accesses.end());
    return it == report.accesses.end() ? analysis::AccessWitness{}
                                       : it->second;
}

TEST(Oracle, StoreBeforeFreeIsProvenSafe)
{
    IrFunction f = IrBuilder::makeKernel("prefree", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto p = b.malloc_(b.constInt(256), 4);
    b.store(b.gep(p, b.constInt(3)), b.constInt(1, Type::i32()));
    const ValueId access = f.blocks[0].insts[f.blocks[0].insts.size() - 1];
    b.free_(p);
    b.ret();
    EXPECT_EQ(witnessOf(f, access).verdict, AccessVerdict::ProvenSafe);
}

TEST(Oracle, StoreAfterFreeIsTemporalUaf)
{
    IrFunction f = IrBuilder::makeKernel("postfree", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto p = b.malloc_(b.constInt(256), 4);
    b.free_(p);
    b.store(b.gep(p, b.constInt(0)), b.constInt(1, Type::i32()));
    const ValueId access = f.blocks[0].insts[f.blocks[0].insts.size() - 1];
    b.ret();
    const analysis::AccessWitness w = witnessOf(f, access);
    EXPECT_EQ(w.verdict, AccessVerdict::TemporalUAF);
    // The witness names the invalidating free.
    EXPECT_NE(w.invalidated_by, kNoValue);
    EXPECT_EQ(f.inst(w.invalidated_by).op, IrOp::Free);
}

TEST(Oracle, StoreAfterScopeEndIsTemporalUaf)
{
    IrFunction f = IrBuilder::makeKernel("postscope", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto buf = b.alloca_(256, 4);
    // Hand-plant the ScopeEnd the inliner would emit for a callee
    // frame.
    IrInst scope_end;
    scope_end.op = IrOp::ScopeEnd;
    scope_end.type = Type::voidTy();
    scope_end.ops = {buf};
    f.values.push_back(scope_end);
    f.blocks[0].insts.push_back(ValueId(f.values.size() - 1));
    b.store(b.gep(buf, b.constInt(0)), b.constInt(1, Type::i32()));
    const ValueId access = f.blocks[0].insts[f.blocks[0].insts.size() - 1];
    b.ret();
    EXPECT_EQ(witnessOf(f, access).verdict, AccessVerdict::TemporalUAF);
}

TEST(Oracle, FreeInOneBranchJoinsToUnknown)
{
    // Invalidated (then-branch) ⊔ Live (else-branch) = Top: the access
    // after the merge is neither provably dead nor provably live.
    IrFunction f =
        IrBuilder::makeKernel("branchfree", {{"c", Type::i64()}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto then_bb = b.block("then");
    auto else_bb = b.block("else");
    auto merge = b.block("merge");
    b.setInsertPoint(entry);
    auto p = b.malloc_(b.constInt(256), 4);
    auto c = b.icmp(CmpOp::NE, b.param(0), b.constInt(0));
    b.br(c, then_bb, else_bb);
    b.setInsertPoint(then_bb);
    b.free_(p);
    b.jump(merge);
    b.setInsertPoint(else_bb);
    b.jump(merge);
    b.setInsertPoint(merge);
    b.store(b.gep(p, b.constInt(0)), b.constInt(1, Type::i32()));
    const ValueId access =
        f.blocks[merge].insts[f.blocks[merge].insts.size() - 1];
    b.ret();
    EXPECT_EQ(witnessOf(f, access).verdict, AccessVerdict::Unknown);
}

TEST(Oracle, FreeInBothBranchesIsTemporalUaf)
{
    IrFunction f =
        IrBuilder::makeKernel("bothfree", {{"c", Type::i64()}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto then_bb = b.block("then");
    auto else_bb = b.block("else");
    auto merge = b.block("merge");
    b.setInsertPoint(entry);
    auto p = b.malloc_(b.constInt(256), 4);
    auto c = b.icmp(CmpOp::NE, b.param(0), b.constInt(0));
    b.br(c, then_bb, else_bb);
    b.setInsertPoint(then_bb);
    b.free_(p);
    b.jump(merge);
    b.setInsertPoint(else_bb);
    b.free_(p);
    b.jump(merge);
    b.setInsertPoint(merge);
    b.store(b.gep(p, b.constInt(0)), b.constInt(1, Type::i32()));
    const ValueId access =
        f.blocks[merge].insts[f.blocks[merge].insts.size() - 1];
    b.ret();
    EXPECT_EQ(witnessOf(f, access).verdict, AccessVerdict::TemporalUAF);
}

TEST(Oracle, ReallocInOneBranchOnlyJoinsToUnknown)
{
    // free on both paths, but only one path re-mallocs: the site joins
    // Invalidated ⊔ Reallocated = still dead — the access is a UAF
    // either way. The one-branch-realloc edge case from the issue.
    IrFunction f =
        IrBuilder::makeKernel("branchrealloc", {{"c", Type::i64()}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto then_bb = b.block("then");
    auto else_bb = b.block("else");
    auto merge = b.block("merge");
    b.setInsertPoint(entry);
    auto p = b.malloc_(b.constInt(256), 4);
    b.free_(p);
    auto c = b.icmp(CmpOp::NE, b.param(0), b.constInt(0));
    b.br(c, then_bb, else_bb);
    b.setInsertPoint(then_bb);
    auto q = b.malloc_(b.constInt(256), 4); // may reuse p's chunk
    b.store(b.gep(q, b.constInt(0)), b.constInt(1, Type::i32()));
    b.jump(merge);
    b.setInsertPoint(else_bb);
    b.jump(merge);
    b.setInsertPoint(merge);
    b.store(b.gep(p, b.constInt(0)), b.constInt(2, Type::i32()));
    const ValueId access =
        f.blocks[merge].insts[f.blocks[merge].insts.size() - 1];
    b.ret();
    EXPECT_EQ(witnessOf(f, access).verdict, AccessVerdict::TemporalUAF);
}

TEST(Oracle, LoopCarriedFreeJoinsToUnknown)
{
    // Live (entry edge) ⊔ Invalidated (back edge after the in-loop
    // free) = Top: the in-loop access before the free is not provably
    // safe — on iteration 2 it dereferences the pointer freed by
    // iteration 1. The loop-carried Invalidated ⊔ Live edge case.
    IrFunction f = IrBuilder::makeKernel("loopfree", {{"n", Type::i64()}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto loop = b.block("loop");
    auto exit = b.block("exit");
    b.setInsertPoint(entry);
    auto p = b.malloc_(b.constInt(256), 4);
    b.jump(loop);
    b.setInsertPoint(loop);
    auto i = b.phi(Type::i64(), {{b.constInt(0), entry}});
    b.store(b.gep(p, b.constInt(0)), b.constInt(1, Type::i32()));
    const ValueId access =
        f.blocks[loop].insts[f.blocks[loop].insts.size() - 1];
    b.free_(p);
    auto next = b.iadd(i, b.constInt(1));
    f.inst(i).ops.push_back(next);
    f.inst(i).phi_blocks.push_back(loop);
    auto done = b.icmp(CmpOp::LT, next, b.param(0));
    b.br(done, loop, exit);
    b.setInsertPoint(exit);
    b.ret();
    EXPECT_EQ(witnessOf(f, access).verdict, AccessVerdict::Unknown);
}

TEST(Oracle, FieldOverflowInsideAllocationIsSubObject)
{
    IrFunction f = IrBuilder::makeKernel("fieldoob", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto obj = b.alloca_(256, 4);
    auto field = b.fieldPtr(obj, 64, 16);
    b.store(b.gep(field, b.constInt(5)), b.constInt(1, Type::i32()));
    const ValueId access = f.blocks[0].insts[f.blocks[0].insts.size() - 1];
    b.ret();
    const analysis::AccessWitness w = witnessOf(f, access);
    EXPECT_EQ(w.verdict, AccessVerdict::SubObjectOOB);
    EXPECT_TRUE(w.has_field);
    EXPECT_EQ(w.field_lo, 64u);
    EXPECT_EQ(w.field_size, 16u);
}

TEST(Oracle, FieldEscapeBeyondAllocationIsSpatial)
{
    // Escaping the whole allocation dominates the field verdict.
    IrFunction f = IrBuilder::makeKernel("fieldspatial", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto obj = b.alloca_(256, 4);
    auto field = b.fieldPtr(obj, 64, 16);
    b.store(b.gep(field, b.constInt(64)), b.constInt(1, Type::i32()));
    const ValueId access = f.blocks[0].insts[f.blocks[0].insts.size() - 1];
    b.ret();
    EXPECT_EQ(witnessOf(f, access).verdict, AccessVerdict::SpatialOOB);
}

TEST(Oracle, PaddingStoreIsSpatialWithinPadding)
{
    // malloc(192) pads to 256: byte 196 escapes the requested size but
    // stays inside the pow2 chunk — the witness records the refinement
    // whole-allocation mechanisms are blind to.
    IrFunction f = IrBuilder::makeKernel("padding", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto p = b.malloc_(b.constInt(192), 4);
    b.store(b.gep(p, b.constInt(49)), b.constInt(1, Type::i32()));
    const ValueId access = f.blocks[0].insts[f.blocks[0].insts.size() - 1];
    b.ret();
    const analysis::AccessWitness w = witnessOf(f, access);
    EXPECT_EQ(w.verdict, AccessVerdict::SpatialOOB);
    EXPECT_TRUE(w.within_padding);
}

TEST(Oracle, ParamPointerAccessIsUnknown)
{
    IrFunction f =
        IrBuilder::makeKernel("parampt", {{"buf", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    b.store(b.gep(b.param(0), b.constInt(0)), b.constInt(1, Type::i32()));
    const ValueId access = f.blocks[0].insts[f.blocks[0].insts.size() - 1];
    b.ret();
    EXPECT_EQ(witnessOf(f, access).verdict, AccessVerdict::Unknown);
}

TEST(Oracle, OracleLevelSurfacesViolationDiagnostics)
{
    // AnalysisLevel::Oracle folds verdicts into the pipeline report as
    // Severity::Violation diagnostics; lint adds no temporal finding
    // of its own.
    IrFunction f = IrBuilder::makeKernel("pipeline_uaf", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto p = b.malloc_(b.constInt(256), 4);
    b.free_(p);
    b.store(b.gep(p, b.constInt(0)), b.constInt(1, Type::i32()));
    b.ret();
    analysis::AnalysisOptions aopts;
    aopts.level = AnalysisLevel::Oracle;
    const analysis::AnalysisReport report = analysis::analyzeFunction(f, aopts);
    EXPECT_EQ(report.oracle_uaf, 1u);
    size_t violations = 0, lint_warnings = 0;
    for (const Diagnostic& d : report.diagnostics) {
        violations += d.severity == Severity::Violation;
        lint_warnings +=
            d.severity == Severity::Warning && d.pass == "lint";
    }
    EXPECT_EQ(violations, 1u);
    EXPECT_EQ(lint_warnings, 0u);
}

// ---------------------------------------------------------------------
// Attack-suite properties: twins and tier/thread invariance.
// ---------------------------------------------------------------------

TEST(AttackSuite, EveryBenignTwinIsProvenSafe)
{
    for (const AttackScenario& scenario : attackSuite()) {
        if (scenario.category)
            continue; // Table III cases have no benign twins yet
        const IrModule m = scenario.build(/*benign=*/true);
        const IrFunction flat = inlineCalls(m, *m.find(scenario.kernel));
        const analysis::SafetyOracleReport report =
            analysis::analyzeSafety(flat);
        EXPECT_TRUE(report.allProvenSafe())
            << scenario.name << ": benign twin not fully proven safe";
    }
}

TEST(AttackSuite, EveryAttackCarriesItsPlantedVerdict)
{
    // A case expected Unknown must not be proven violating either:
    // the oracle may prove no more than the corpus records.
    for (const AttackScenario& scenario : attackSuite()) {
        if (scenario.kernel.empty()) {
            EXPECT_EQ(scenario.expected, AccessVerdict::Unknown)
                << scenario.name << ": host-only case";
            continue;
        }
        const IrModule m = scenario.build(/*benign=*/false);
        const IrFunction flat = inlineCalls(m, *m.find(scenario.kernel));
        const analysis::SafetyOracleReport report =
            analysis::analyzeSafety(flat);
        if (scenario.expected == AccessVerdict::Unknown)
            EXPECT_EQ(report.count(AccessVerdict::SpatialOOB) +
                          report.count(AccessVerdict::SubObjectOOB) +
                          report.count(AccessVerdict::TemporalUAF),
                      0u)
                << scenario.name << ": oracle proved an unrecorded "
                                    "violation";
        else
            EXPECT_GE(report.count(scenario.expected), 1u)
                << scenario.name << ": oracle missed the planted "
                << analysis::accessVerdictName(scenario.expected);
    }
}

TEST(AttackSuite, DetectionInvariantAcrossTiersAndSimThreads)
{
    // Dynamic outcome (fault or clean, compiler rejection) for each
    // (case, variant, mechanism) must not depend on the engine tier or
    // the per-launch worker count (LMI_SIM_THREADS, which every launch
    // without an explicit count inherits). Representative mechanism
    // slice to keep runtime bounded.
    const std::vector<MechanismKind> kinds = {
        MechanismKind::Baseline, MechanismKind::Lmi,
        MechanismKind::LmiElide};
    const char* env = std::getenv("LMI_SIM_THREADS");
    const std::string saved = env ? env : "";
    std::vector<CoverageMatrix> runs;
    for (const char* threads : {"1", "2"}) {
        setenv("LMI_SIM_THREADS", threads, 1);
        runs.push_back(runCoverage(kinds));
    }
    if (env)
        setenv("LMI_SIM_THREADS", saved.c_str(), 1);
    else
        unsetenv("LMI_SIM_THREADS");

    const std::vector<CoverageCell>& cells = runs[0].cells;
    ASSERT_EQ(runs[1].cells.size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        // Each detailed cell is followed by its functional cell.
        const CoverageCell& detailed = cells[i & ~size_t(1)];
        const CoverageCell& c = cells[i];
        const CoverageCell& two_threads = runs[1].cells[i];
        SCOPED_TRACE(c.attack + '/' + (c.benign ? "benign" : "attack") +
                     " under " + mechanismKindName(c.mechanism) +
                     " tier=" + executionTierName(c.tier));
        EXPECT_EQ(c.detected, detailed.detected);
        EXPECT_EQ(c.compile_rejected, detailed.compile_rejected);
        EXPECT_EQ(two_threads.detected, c.detected);
        EXPECT_EQ(two_threads.compile_rejected, c.compile_rejected);
        EXPECT_EQ(two_threads.fault, c.fault);
    }
}

} // namespace
} // namespace lmi
