/**
 * @file
 * End-to-end protection-mechanism tests: violation kernels executed on
 * the simulator under each mechanism, asserting who detects what (the
 * behaviour behind Tables II/III) and that benign kernels stay clean.
 */

#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "mechanisms/dbi.hpp"
#include "mechanisms/gpushield.hpp"
#include "mechanisms/lmi_mechanism.hpp"
#include "mechanisms/registry.hpp"
#include "mechanisms/software.hpp"
#include "sim/device.hpp"

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

/** Writes buf[idx] = 1 for a single thread; idx is a kernel parameter. */
IrModule
pokeKernel()
{
    IrFunction f = IrBuilder::makeKernel(
        "poke", {{"buf", Type::ptr(4)}, {"idx", Type::i64()}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto buf = b.param(0);
    auto idx = b.param(1);
    auto one = b.constInt(1, Type::i32());
    b.store(b.gep(buf, idx), one);
    b.ret();
    return module(std::move(f));
}

RunResult
runPoke(Device& dev, uint64_t buf, uint64_t idx)
{
    const CompiledKernel k = dev.compile(pokeKernel(), "poke");
    return dev.launch(k, 1, 1, {buf, idx});
}

TEST(MechLmi, InBoundsIsClean)
{
    Device dev(makeMechanism(MechanismKind::Lmi));
    const uint64_t buf = dev.cudaMalloc(64 * 4); // 256 B: exact extent
    const RunResult r = runPoke(dev, buf, 63);
    EXPECT_FALSE(r.faulted());
    EXPECT_EQ(dev.peek32(buf + 63 * 4), 1u);
}

TEST(MechLmi, AdjacentGlobalOverflowDetected)
{
    Device dev(makeMechanism(MechanismKind::Lmi));
    const uint64_t buf = dev.cudaMalloc(64 * 4);
    const RunResult r = runPoke(dev, buf, 64); // one past the end
    ASSERT_TRUE(r.faulted());
    EXPECT_TRUE(r.aborted);
    EXPECT_EQ(r.faults[0].kind, FaultKind::SpatialOverflow);
    // Delayed termination: the write must NOT have landed.
    EXPECT_EQ(dev.peek32(buf + 64 * 4), 0u);
}

TEST(MechLmi, NonAdjacentGlobalOverflowDetected)
{
    Device dev(makeMechanism(MechanismKind::Lmi));
    const uint64_t buf = dev.cudaMalloc(64 * 4);
    const RunResult r = runPoke(dev, buf, 4096);
    ASSERT_TRUE(r.faulted());
    EXPECT_EQ(r.faults[0].kind, FaultKind::SpatialOverflow);
}

TEST(MechLmi, UseAfterFreeDetected)
{
    Device dev(makeMechanism(MechanismKind::Lmi));
    uint64_t buf = dev.cudaMalloc(1024);
    const uint64_t stale = buf; // a copy made before the free
    ASSERT_FALSE(dev.cudaFree(buf).has_value());
    // After cudaFree the runtime cleared the handle's extent.
    EXPECT_FALSE(PointerCodec::isValid(buf));
    const RunResult r = runPoke(dev, buf, 0);
    ASSERT_TRUE(r.faulted());
    EXPECT_EQ(r.faults[0].kind, FaultKind::UseAfterFree);

    // The copied pointer still carries a valid extent: base LMI misses
    // it (Fig. 11's documented limitation).
    const RunResult r2 = runPoke(dev, stale, 0);
    EXPECT_FALSE(r2.faulted());
}

TEST(MechLmiLiveness, CopiedPointerUafCaught)
{
    Device dev(makeMechanism(MechanismKind::LmiLiveness));
    uint64_t buf = dev.cudaMalloc(1024);
    const uint64_t stale = buf;
    ASSERT_FALSE(dev.cudaFree(buf).has_value());
    const RunResult r = runPoke(dev, stale, 0);
    ASSERT_TRUE(r.faulted());
    EXPECT_EQ(r.faults[0].kind, FaultKind::UseAfterFree);
}

TEST(MechLmi, StackOverflowDetected)
{
    // One thread indexes its stack buffer out of bounds.
    IrFunction f = IrBuilder::makeKernel("stack_oob", {{"idx", Type::i64()}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto buf = b.alloca_(256, 4);
    auto idx = b.param(0);
    b.store(b.gep(buf, idx), b.constInt(7, Type::i32()));
    b.ret();
    IrModule m = module(std::move(f));

    Device dev(makeMechanism(MechanismKind::Lmi));
    const CompiledKernel k = dev.compile(m, "stack_oob");
    EXPECT_FALSE(dev.launch(k, 1, 1, {63}).faulted());
    const RunResult bad = dev.launch(k, 1, 1, {64});
    ASSERT_TRUE(bad.faulted());
    EXPECT_EQ(bad.faults[0].kind, FaultKind::SpatialOverflow);
}

TEST(MechLmi, SharedOverflowDetected)
{
    IrFunction f = IrBuilder::makeKernel("sh_oob", {{"idx", Type::i64()}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto tile = b.sharedBuffer("tile", 256, 4);
    auto idx = b.param(0);
    b.store(b.gep(tile, idx), b.constInt(3, Type::i32()));
    b.ret();
    IrModule m = module(std::move(f));

    Device dev(makeMechanism(MechanismKind::Lmi));
    const CompiledKernel k = dev.compile(m, "sh_oob");
    EXPECT_FALSE(dev.launch(k, 1, 32, {10}).faulted());
    EXPECT_TRUE(dev.launch(k, 1, 32, {70}).faulted());
}

TEST(MechLmi, DeviceHeapOverflowAndUafDetected)
{
    // malloc(300) -> 512 B under LMI; index 128 (of i32) is OOB.
    IrFunction f = IrBuilder::makeKernel("heap_oob", {{"idx", Type::i64()}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto buf = b.malloc_(b.constInt(300), 4);
    auto idx = b.param(0);
    b.store(b.gep(buf, idx), b.constInt(1, Type::i32()));
    b.free_(buf);
    // Use-after-free through the (nullified) pointer.
    auto v = b.load(b.gep(buf, b.constInt(0)));
    b.store(b.gep(buf, b.constInt(1)), v);
    b.ret();
    IrModule m = module(std::move(f));

    Device dev(makeMechanism(MechanismKind::Lmi));
    const CompiledKernel k = dev.compile(m, "heap_oob");
    // In-bounds store, then the UAF after free must fault.
    const RunResult uaf = dev.launch(k, 1, 1, {3});
    ASSERT_TRUE(uaf.faulted());
    EXPECT_EQ(uaf.faults[0].kind, FaultKind::UseAfterFree);

    // OOB store faults before the free is even reached.
    Device dev2(makeMechanism(MechanismKind::Lmi));
    const CompiledKernel k2 = dev2.compile(m, "heap_oob");
    const RunResult oob = dev2.launch(k2, 1, 1, {128});
    ASSERT_TRUE(oob.faulted());
    EXPECT_EQ(oob.faults[0].kind, FaultKind::SpatialOverflow);
}

TEST(MechLmi, UseAfterScopeDetected)
{
    // helper() returns a pointer to its dead stack buffer.
    IrModule m;
    {
        IrFunction helper = IrBuilder::makeKernel("helper", {});
        helper.ret_type = Type::ptr(4, MemSpace::Local);
        IrBuilder b(helper);
        b.setInsertPoint(b.block("entry"));
        auto buf = b.alloca_(256, 4);
        b.store(b.gep(buf, b.constInt(0)), b.constInt(5, Type::i32()));
        b.retVal(buf);
        m.functions.push_back(std::move(helper));
    }
    {
        IrFunction kernel = IrBuilder::makeKernel("uas", {{"out", Type::ptr(4)}});
        IrBuilder b(kernel);
        b.setInsertPoint(b.block("entry"));
        auto p = b.call("helper", Type::ptr(4, MemSpace::Local), {});
        auto v = b.load(b.gep(p, b.constInt(0)));
        b.store(b.gep(b.param(0), b.constInt(0)), v);
        b.ret();
        m.functions.push_back(std::move(kernel));
    }

    Device dev(makeMechanism(MechanismKind::Lmi));
    const uint64_t out = dev.cudaMalloc(256);
    const CompiledKernel k = dev.compile(m, "uas");
    const RunResult r = dev.launch(k, 1, 1, {out});
    ASSERT_TRUE(r.faulted());
    EXPECT_EQ(r.faults[0].kind, FaultKind::UseAfterScope);
}

TEST(MechLmi, FalsePositiveFreeLoopIdiom)
{
    // Fig. 14: ptr walks one past the end but never dereferences there.
    IrFunction f = IrBuilder::makeKernel("walk", {{"buf", Type::ptr(4)}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto header = b.block("header");
    auto body = b.block("body");
    auto exit = b.block("exit");

    b.setInsertPoint(entry);
    auto start = b.param(0);
    auto n = b.constInt(64);
    // The phi's entry value must be defined in entry, not header.
    auto zero = b.constInt(0);
    b.jump(header);

    b.setInsertPoint(header);
    auto i = b.phi(Type::i64(), {{zero, entry}});
    // Rebuild the moving pointer each iteration (ptr = start + i).
    auto cond = b.icmp(CmpOp::LT, i, n);
    b.br(cond, body, exit);

    b.setInsertPoint(body);
    auto ptr = b.gep(start, i);
    auto v = b.load(ptr);
    b.store(ptr, b.iadd(v, b.constInt(1)));
    auto next = b.iadd(i, b.constInt(1));
    f.inst(i).ops.push_back(next);
    f.inst(i).phi_blocks.push_back(body);
    b.jump(header);

    b.setInsertPoint(exit);
    // The final gep computes one-past-the-end without dereferencing.
    b.gep(start, n);
    b.ret();

    Device dev(makeMechanism(MechanismKind::Lmi));
    const uint64_t buf = dev.cudaMalloc(64 * 4);
    const CompiledKernel k = dev.compile(module(std::move(f)), "walk");
    const RunResult r = dev.launch(k, 1, 1, {buf});
    EXPECT_FALSE(r.faulted()) << faultKindName(r.faults[0].kind);
    EXPECT_EQ(dev.peek32(buf), 1u);
}

TEST(MechGpuShield, GlobalDetectedButStackFineGrainedMissed)
{
    Device dev(makeMechanism(MechanismKind::GpuShield));
    const uint64_t buf = dev.cudaMalloc(64 * 4);
    // Fine-grained global OOB: detected (bounds table).
    const RunResult r = runPoke(dev, buf, 64);
    ASSERT_TRUE(r.faulted());
    EXPECT_EQ(r.faults[0].kind, FaultKind::RegionOverflow);

    // Stack intra-region overflow: missed (coarse region check).
    IrFunction f = IrBuilder::makeKernel("stack_oob", {{"idx", Type::i64()}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto sbuf = b.alloca_(256, 4);
    b.store(b.gep(sbuf, b.param(0)), b.constInt(7, Type::i32()));
    b.ret();
    Device dev2(makeMechanism(MechanismKind::GpuShield));
    const CompiledKernel k = dev2.compile(module(std::move(f)), "stack_oob");
    EXPECT_FALSE(dev2.launch(k, 1, 1, {64}).faulted());   // within stack
    EXPECT_TRUE(dev2.launch(k, 1, 1, {1 << 20}).faulted()); // beyond stack
}

TEST(MechGpuShield, NoTemporalSafety)
{
    Device dev(makeMechanism(MechanismKind::GpuShield));
    uint64_t buf = dev.cudaMalloc(1024);
    const uint64_t stale = buf;
    ASSERT_FALSE(dev.cudaFree(buf).has_value());
    EXPECT_FALSE(runPoke(dev, stale, 0).faulted());
}

TEST(MechGmod, AdjacentWriteCaughtAtKernelEnd)
{
    Device dev(makeMechanism(MechanismKind::Gmod));
    const uint64_t buf = dev.cudaMalloc(64 * 4);
    const RunResult r = runPoke(dev, buf, 64);
    // Canary: no abort mid-run, fault reported by the end-of-kernel sweep.
    EXPECT_FALSE(r.aborted);
    ASSERT_TRUE(r.faulted());
    EXPECT_EQ(r.faults[0].kind, FaultKind::CanaryCorruption);
}

TEST(MechGmod, NonAdjacentWriteMissed)
{
    Device dev(makeMechanism(MechanismKind::Gmod));
    const uint64_t buf = dev.cudaMalloc(64 * 4);
    const RunResult r = runPoke(dev, buf, 4096); // jumps over the canary
    EXPECT_FALSE(r.faulted());
}

TEST(MechCuCatch, GlobalAndCopiedUafDetected)
{
    Device dev(makeMechanism(MechanismKind::CuCatch));
    uint64_t buf = dev.cudaMalloc(64 * 4);
    EXPECT_FALSE(runPoke(dev, buf, 10).faulted());
    const RunResult oob = runPoke(dev, buf, 64);
    ASSERT_TRUE(oob.faulted());
    EXPECT_EQ(oob.faults[0].kind, FaultKind::SpatialOverflow);

    const uint64_t stale = buf;
    ASSERT_FALSE(dev.cudaFree(buf).has_value());
    const RunResult uaf = runPoke(dev, stale, 0);
    ASSERT_TRUE(uaf.faulted());
    EXPECT_EQ(uaf.faults[0].kind, FaultKind::UseAfterFree);
}

TEST(MechCuCatch, DeviceHeapUnprotected)
{
    IrFunction f = IrBuilder::makeKernel("heap_oob", {{"idx", Type::i64()}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto buf = b.malloc_(b.constInt(300), 4);
    b.store(b.gep(buf, b.param(0)), b.constInt(1, Type::i32()));
    b.ret();
    Device dev(makeMechanism(MechanismKind::CuCatch));
    const CompiledKernel k = dev.compile(module(std::move(f)), "heap_oob");
    // Far out-of-bounds heap write: cuCatch does not cover kernel malloc.
    EXPECT_FALSE(dev.launch(k, 1, 1, {4096}).faulted());
}

TEST(MechBaggy, SoftwareCheckTrapsOnOverflowingGep)
{
    Device dev(makeMechanism(MechanismKind::BaggySw));
    const uint64_t buf = dev.cudaMalloc(64 * 4);
    EXPECT_FALSE(runPoke(dev, buf, 63).faulted());
    const RunResult r = runPoke(dev, buf, 64);
    ASSERT_TRUE(r.faulted());
    EXPECT_EQ(r.faults[0].kind, FaultKind::SpatialOverflow);
}

TEST(MechBaggy, SlowerThanLmi)
{
    // Same workload, LMI vs software Baggy: baggy must cost more cycles.
    auto run = [](MechanismKind kind) {
        Device dev(makeMechanism(kind));
        const uint64_t buf = dev.cudaMalloc(4096 * 4);
        IrFunction f = IrBuilder::makeKernel("touch", {{"b", Type::ptr(4)}});
        IrBuilder b(f);
        b.setInsertPoint(b.block("entry"));
        auto p = b.param(0);
        auto t = b.gtid();
        b.store(b.gep(p, t), t);
        b.ret();
        IrModule m;
        m.functions.push_back(std::move(f));
        const CompiledKernel k = dev.compile(m, "touch");
        return dev.launch(k, 8, 128, {buf}).cycles;
    };
    const uint64_t lmi_cycles = run(MechanismKind::Lmi);
    const uint64_t baggy_cycles = run(MechanismKind::BaggySw);
    EXPECT_GT(baggy_cycles, lmi_cycles);
}

TEST(MechMemcheck, TripwireHitAndJitCost)
{
    Device dev(makeMechanism(MechanismKind::MemcheckDbi));
    const uint64_t buf = dev.cudaMalloc(64 * 4);
    const RunResult r = runPoke(dev, buf, 64); // lands in the red zone
    ASSERT_TRUE(r.faulted());
    EXPECT_EQ(r.faults[0].kind, FaultKind::TripwireHit);

    // Instrumentation makes the binary much larger.
    Device dev2(makeMechanism(MechanismKind::MemcheckDbi));
    Device base;
    const CompiledKernel ck = dev2.compile(pokeKernel(), "poke");
    const CompiledKernel cb = base.compile(pokeKernel(), "poke");
    EXPECT_GT(ck.program.code.size(), cb.program.code.size() + 50);
}

TEST(MechLmiDbi, DetectsOverflowWithoutHardware)
{
    Device dev(makeMechanism(MechanismKind::LmiDbi));
    const uint64_t buf = dev.cudaMalloc(64 * 4);
    EXPECT_FALSE(runPoke(dev, buf, 63).faulted());
    EXPECT_TRUE(runPoke(dev, buf, 64).faulted());
}

TEST(MechRegistry, NamesAndConstruction)
{
    for (MechanismKind kind :
         {MechanismKind::Baseline, MechanismKind::Lmi,
          MechanismKind::LmiLiveness, MechanismKind::GpuShield,
          MechanismKind::BaggySw, MechanismKind::Gmod,
          MechanismKind::CuCatch, MechanismKind::MemcheckDbi,
          MechanismKind::LmiDbi}) {
        auto mech = makeMechanism(kind);
        ASSERT_NE(mech, nullptr);
        EXPECT_EQ(mech->name(), mechanismKindName(kind));
    }
}

TEST(MechLmi, OverheadIsSmallOnComputeKernel)
{
    auto run = [](MechanismKind kind) {
        Device dev(makeMechanism(kind));
        const uint64_t buf = dev.cudaMalloc(64 * 1024);
        IrFunction f = IrBuilder::makeKernel("compute", {{"b", Type::ptr(4)}});
        IrBuilder b(f);
        b.setInsertPoint(b.block("entry"));
        auto p = b.param(0);
        auto t = b.gtid();
        auto x = b.load(b.gep(p, t));
        for (int i = 0; i < 20; ++i)
            x = b.iadd(b.imul(x, b.constInt(3)), b.constInt(1));
        b.store(b.gep(p, t), x);
        b.ret();
        IrModule m;
        m.functions.push_back(std::move(f));
        const CompiledKernel k = dev.compile(m, "compute");
        return dev.launch(k, 16, 128, {buf}).cycles;
    };
    const double base = double(run(MechanismKind::Baseline));
    const double with_lmi = double(run(MechanismKind::Lmi));
    // LMI's cost: a handful of extent-encode instructions + 3-cycle OCU
    // latency on pointer geps. Must be small (paper: 0.22% average; allow
    // slack for this tiny kernel).
    EXPECT_LT((with_lmi - base) / base, 0.10);
}

} // namespace
} // namespace lmi


namespace lmi {
namespace {

TEST(MechLmi, HostMemcpyBoundsChecked)
{
    Device dev(makeMechanism(MechanismKind::Lmi));
    const uint64_t buf = dev.cudaMalloc(256); // exact extent
    std::vector<uint8_t> payload(300, 0xAB);

    // In-bounds transfer passes.
    EXPECT_FALSE(dev.memcpyHtoD(buf, payload.data(), 256).has_value());

    // Overflowing transfer is refused before any byte is written.
    const MaybeFault f = dev.memcpyHtoD(buf, payload.data(), 300);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->kind, FaultKind::SpatialOverflow);
    EXPECT_EQ(dev.peek32(buf + 256), 0u); // nothing landed past the end

    // Transfers through a freed handle are refused too.
    uint64_t handle = buf;
    ASSERT_FALSE(dev.cudaFree(handle).has_value());
    const MaybeFault g = dev.memcpyDtoH(payload.data(), handle, 16);
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(g->kind, FaultKind::InvalidExtent);
}

TEST(MechLmi, BaselineMemcpyUnchecked)
{
    Device dev;
    const uint64_t buf = dev.cudaMalloc(256);
    std::vector<uint8_t> payload(300, 0xCD);
    EXPECT_FALSE(dev.memcpyHtoD(buf, payload.data(), 300).has_value());
}

TEST(MechLmi, OcuLatencyKnob)
{
    LmiMechanism::Options opts;
    opts.ocu_latency = 9;
    LmiMechanism mech(opts);
    Instruction hinted;
    hinted.op = Opcode::IADD;
    hinted.hints = {true, 0};
    Instruction plain;
    plain.op = Opcode::IADD;
    EXPECT_EQ(mech.extraIntLatency(hinted), 9u);
    EXPECT_EQ(mech.extraIntLatency(plain), 0u);
}

} // namespace
} // namespace lmi
