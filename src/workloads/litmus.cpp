#include "workloads/litmus.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "ir/builder.hpp"
#include "sim/device.hpp"
#include "sim/mem_event.hpp"

namespace lmi {

namespace {

using ir::BlockId;
using ir::IrBuilder;
using ir::IrFunction;
using ir::IrModule;
using ir::IrParam;
using ir::Type;
using ir::ValueId;

IrModule
finish(IrFunction f)
{
    IrModule m;
    m.functions.push_back(std::move(f));
    return m;
}

/**
 * Mirror a watched value into a simulator-visible result cell. A
 * release.gpu atomic store writes memory directly (no store buffer),
 * so the mirrors add no flush interleavings to the checker's state
 * space and cannot perturb the litmus shape's watched loads.
 */
void
storeResult(IrBuilder& b, ValueId buf, int64_t cell, ValueId v)
{
    b.atomicStore(b.gep(buf, b.constInt(cell)), v, MemOrder::Release,
                  MemScope::Gpu);
}

/**
 * Message passing: block 0 stores data then raises a flag; block 1
 * reads the flag then the data. Cells: data=0, flag=1, r_flag=2,
 * r_data=3. The weak outcome is (flag=1, data=0).
 */
IrModule
mpModule(MemOrder write_order, MemScope write_scope, MemOrder read_order,
         MemScope read_scope)
{
    IrFunction f =
        IrBuilder::makeKernel("litmus", {{"buf", Type::ptr(4)}});
    IrBuilder b(f);
    const BlockId entry = b.block("entry");
    const BlockId writer = b.block("writer");
    const BlockId reader = b.block("reader");
    const BlockId done = b.block("done");

    b.setInsertPoint(entry);
    const ValueId buf = b.param(0);
    const ValueId data = b.gep(buf, b.constInt(0));
    const ValueId flag = b.gep(buf, b.constInt(1));
    b.br(b.icmp(CmpOp::EQ, b.ctaid(), b.constInt(0)), writer, reader);

    b.setInsertPoint(writer);
    b.atomicStore(data, b.constInt(1), MemOrder::Relaxed, MemScope::Gpu);
    b.atomicStore(flag, b.constInt(1), write_order, write_scope);
    b.jump(done);

    b.setInsertPoint(reader);
    const ValueId rf = b.atomicLoad(flag, read_order, read_scope);
    const ValueId rd =
        b.atomicLoad(data, MemOrder::Relaxed, MemScope::Gpu);
    storeResult(b, buf, 2, rf);
    storeResult(b, buf, 3, rd);
    b.jump(done);

    b.setInsertPoint(done);
    b.ret();
    return finish(std::move(f));
}

IrModule
mpRelaxed()
{
    return mpModule(MemOrder::Relaxed, MemScope::Gpu, MemOrder::Relaxed,
                    MemScope::Gpu);
}

IrModule
mpReleaseGpu()
{
    return mpModule(MemOrder::Release, MemScope::Gpu, MemOrder::Acquire,
                    MemScope::Gpu);
}

IrModule
mpScopeMismatch()
{
    // Release/acquire handshake at cta scope between *different*
    // blocks: the ordering does not reach the peer, so the weak
    // outcome stays reachable and the pair is a scope-mismatch race.
    return mpModule(MemOrder::Release, MemScope::Cta, MemOrder::Acquire,
                    MemScope::Cta);
}

/**
 * Store buffering: each block stores its own cell then loads the
 * other's. Cells: x=0, y=1, r0=2 (block 0's read of y), r1=3. The
 * weak outcome is (0, 0).
 */
IrModule
sbModule(bool fenced)
{
    IrFunction f =
        IrBuilder::makeKernel("litmus", {{"buf", Type::ptr(4)}});
    IrBuilder b(f);
    const BlockId entry = b.block("entry");
    const BlockId a0 = b.block("a0");
    const BlockId a1 = b.block("a1");
    const BlockId done = b.block("done");

    b.setInsertPoint(entry);
    const ValueId buf = b.param(0);
    const ValueId x = b.gep(buf, b.constInt(0));
    const ValueId y = b.gep(buf, b.constInt(1));
    b.br(b.icmp(CmpOp::EQ, b.ctaid(), b.constInt(0)), a0, a1);

    b.setInsertPoint(a0);
    b.atomicStore(x, b.constInt(1), MemOrder::Relaxed, MemScope::Gpu);
    if (fenced)
        b.fence(MemOrder::AcqRel, MemScope::Gpu);
    const ValueId r0 =
        b.atomicLoad(y, MemOrder::Relaxed, MemScope::Gpu);
    storeResult(b, buf, 2, r0);
    b.jump(done);

    b.setInsertPoint(a1);
    b.atomicStore(y, b.constInt(1), MemOrder::Relaxed, MemScope::Gpu);
    if (fenced)
        b.fence(MemOrder::AcqRel, MemScope::Gpu);
    const ValueId r1 =
        b.atomicLoad(x, MemOrder::Relaxed, MemScope::Gpu);
    storeResult(b, buf, 3, r1);
    b.jump(done);

    b.setInsertPoint(done);
    b.ret();
    return finish(std::move(f));
}

IrModule
sbRelaxed()
{
    return sbModule(false);
}

IrModule
sbFenced()
{
    return sbModule(true);
}

/**
 * IRIW: two writers touch independent cells; two readers observe them
 * in opposite orders. Cells: x=0, y=1, r2x=2, r2y=3, r3y=4, r3x=5.
 * The weak outcome (1,0,1,0) means the readers disagree on the write
 * order — forbidden once the loads acquire (multi-copy atomicity).
 */
IrModule
iriwModule(MemOrder load_order)
{
    IrFunction f =
        IrBuilder::makeKernel("litmus", {{"buf", Type::ptr(4)}});
    IrBuilder b(f);
    const BlockId entry = b.block("entry");
    const BlockId wx = b.block("write_x");
    const BlockId n1 = b.block("n1");
    const BlockId wy = b.block("write_y");
    const BlockId n2 = b.block("n2");
    const BlockId rxy = b.block("read_xy");
    const BlockId ryx = b.block("read_yx");
    const BlockId done = b.block("done");

    b.setInsertPoint(entry);
    const ValueId buf = b.param(0);
    const ValueId x = b.gep(buf, b.constInt(0));
    const ValueId y = b.gep(buf, b.constInt(1));
    const ValueId c = b.ctaid();
    b.br(b.icmp(CmpOp::EQ, c, b.constInt(0)), wx, n1);

    b.setInsertPoint(wx);
    b.atomicStore(x, b.constInt(1), MemOrder::Relaxed, MemScope::Gpu);
    b.jump(done);

    b.setInsertPoint(n1);
    b.br(b.icmp(CmpOp::EQ, c, b.constInt(1)), wy, n2);

    b.setInsertPoint(wy);
    b.atomicStore(y, b.constInt(1), MemOrder::Relaxed, MemScope::Gpu);
    b.jump(done);

    b.setInsertPoint(n2);
    b.br(b.icmp(CmpOp::EQ, c, b.constInt(2)), rxy, ryx);

    b.setInsertPoint(rxy);
    const ValueId r2x = b.atomicLoad(x, load_order, MemScope::Gpu);
    const ValueId r2y = b.atomicLoad(y, load_order, MemScope::Gpu);
    storeResult(b, buf, 2, r2x);
    storeResult(b, buf, 3, r2y);
    b.jump(done);

    b.setInsertPoint(ryx);
    const ValueId r3y = b.atomicLoad(y, load_order, MemScope::Gpu);
    const ValueId r3x = b.atomicLoad(x, load_order, MemScope::Gpu);
    storeResult(b, buf, 4, r3y);
    storeResult(b, buf, 5, r3x);
    b.jump(done);

    b.setInsertPoint(done);
    b.ret();
    return finish(std::move(f));
}

IrModule
iriwRelaxed()
{
    return iriwModule(MemOrder::Relaxed);
}

IrModule
iriwAcquire()
{
    return iriwModule(MemOrder::Acquire);
}

/**
 * LMI temporal scenario: thread 0 device-mallocs a buffer, publishes
 * it through shared memory across a block barrier, then frees it;
 * thread 32 (the second warp) stores through the published pointer.
 * Without a second barrier the free races the use — the checker must
 * find an interleaving where the store lands in freed memory. With the
 * second barrier (synced=true) the use happens-before the free in
 * every interleaving. Runs under Baseline so the witness never faults;
 * under the LMI mechanism the same race is what extent invalidation
 * catches at the access point.
 */
IrModule
uafModule(bool synced)
{
    IrFunction f =
        IrBuilder::makeKernel("litmus", {{"buf", Type::ptr(4)}});
    IrBuilder b(f);
    const BlockId entry = b.block("entry");
    const BlockId alloc_bb = b.block("alloc");
    const BlockId join0 = b.block("join0");
    const BlockId use_bb = b.block("use");
    const BlockId join1 = b.block("join1");
    const BlockId free_bb = b.block("free");
    const BlockId done = b.block("done");

    b.setInsertPoint(entry);
    const ValueId mail = b.sharedBuffer("mail", 8, 8);
    const ValueId t = b.tid();
    b.br(b.icmp(CmpOp::EQ, t, b.constInt(0)), alloc_bb, join0);

    b.setInsertPoint(alloc_bb);
    const ValueId p = b.malloc_(b.constInt(64), 4);
    b.store(mail, b.ptrToInt(p));
    b.jump(join0);

    b.setInsertPoint(join0);
    b.barrier();
    const ValueId pp = b.intToPtr(b.load(mail), Type::ptr(4));
    b.br(b.icmp(CmpOp::EQ, t, b.constInt(32)), use_bb, join1);

    b.setInsertPoint(use_bb);
    b.store(pp, b.constInt(1));
    b.jump(join1);

    b.setInsertPoint(join1);
    if (synced)
        b.barrier();
    b.br(b.icmp(CmpOp::EQ, t, b.constInt(0)), free_bb, done);

    b.setInsertPoint(free_bb);
    b.free_(pp);
    b.jump(done);

    b.setInsertPoint(done);
    b.ret();
    return finish(std::move(f));
}

IrModule
uafRace()
{
    return uafModule(false);
}

IrModule
uafSync()
{
    return uafModule(true);
}

} // namespace

const std::vector<LitmusTest>&
litmusSuite()
{
    static const std::vector<LitmusTest> suite = [] {
        std::vector<LitmusTest> s;

        LitmusTest mp_relaxed;
        mp_relaxed.name = "mp_relaxed";
        mp_relaxed.description =
            "message passing, relaxed flag: weak (1,0) reachable";
        mp_relaxed.build = &mpRelaxed;
        mp_relaxed.result_cells = {2, 3};
        mp_relaxed.allowed_weak = {{1, 0}};
        s.push_back(mp_relaxed);

        LitmusTest mp_rel;
        mp_rel.name = "mp_release_gpu";
        mp_rel.description =
            "message passing, release.gpu/acquire.gpu: (1,0) forbidden";
        mp_rel.build = &mpReleaseGpu;
        mp_rel.result_cells = {2, 3};
        mp_rel.forbidden = {{1, 0}};
        s.push_back(mp_rel);

        LitmusTest mp_scope;
        mp_scope.name = "mp_scope_mismatch";
        mp_scope.description = "cta-scope handshake across blocks: weak "
                               "(1,0) reachable, scope-mismatch race";
        mp_scope.build = &mpScopeMismatch;
        mp_scope.result_cells = {2, 3};
        mp_scope.allowed_weak = {{1, 0}};
        mp_scope.expect_race = true;
        s.push_back(mp_scope);

        LitmusTest sb_relaxed;
        sb_relaxed.name = "sb_relaxed";
        sb_relaxed.description =
            "store buffering, relaxed: weak (0,0) reachable";
        sb_relaxed.build = &sbRelaxed;
        sb_relaxed.result_cells = {2, 3};
        sb_relaxed.allowed_weak = {{0, 0}};
        s.push_back(sb_relaxed);

        LitmusTest sb_fenced;
        sb_fenced.name = "sb_fenced";
        sb_fenced.description =
            "store buffering, fence.acq_rel.gpu: (0,0) forbidden";
        sb_fenced.build = &sbFenced;
        sb_fenced.result_cells = {2, 3};
        sb_fenced.forbidden = {{0, 0}};
        s.push_back(sb_fenced);

        LitmusTest iriw_relaxed;
        iriw_relaxed.name = "iriw_relaxed";
        iriw_relaxed.description =
            "IRIW, relaxed loads: readers may disagree (1,0,1,0)";
        iriw_relaxed.build = &iriwRelaxed;
        iriw_relaxed.blocks = 4;
        iriw_relaxed.result_cells = {2, 3, 4, 5};
        iriw_relaxed.allowed_weak = {{1, 0, 1, 0}};
        s.push_back(iriw_relaxed);

        LitmusTest iriw_acq;
        iriw_acq.name = "iriw_acquire";
        iriw_acq.description =
            "IRIW, acquire loads: (1,0,1,0) forbidden";
        iriw_acq.build = &iriwAcquire;
        iriw_acq.blocks = 4;
        iriw_acq.result_cells = {2, 3, 4, 5};
        iriw_acq.forbidden = {{1, 0, 1, 0}};
        s.push_back(iriw_acq);

        LitmusTest uaf_race;
        uaf_race.name = "lmi_uaf_race";
        uaf_race.description = "device free races a published-pointer "
                               "store: checker finds the UAF";
        uaf_race.build = &uafRace;
        uaf_race.blocks = 1;
        uaf_race.block_threads = 64;
        uaf_race.expect_uaf = true;
        s.push_back(uaf_race);

        LitmusTest uaf_sync;
        uaf_sync.name = "lmi_uaf_sync";
        uaf_sync.description = "free ordered after the use by a second "
                               "barrier: no UAF in any interleaving";
        uaf_sync.build = &uafSync;
        uaf_sync.blocks = 1;
        uaf_sync.block_threads = 64;
        s.push_back(uaf_sync);

        return s;
    }();
    return suite;
}

const LitmusTest&
findLitmus(const std::string& name)
{
    for (const LitmusTest& t : litmusSuite())
        if (t.name == name)
            return t;
    lmi_fatal("unknown litmus test '%s'", name.c_str());
}

LitmusResult
runLitmus(const LitmusTest& test, uint64_t bound)
{
    LitmusResult r;
    r.name = test.name;

    // Baseline mechanism: plain addresses, so the checker's address
    // matching and the kernel's published raw pointers both work.
    Device dev;
    const ir::IrModule m = test.build();
    const CompiledKernel kernel = dev.compile(m, "litmus");
    const uint64_t buf = dev.cudaMalloc(test.buffer_bytes);

    MemEventLog log;
    LaunchOptions opt;
    opt.observer = &log;
    const RunResult run =
        dev.launch(kernel, test.blocks, test.block_threads, {buf}, opt);
    if (run.aborted)
        lmi_fatal("litmus %s faulted in the simulator: %s",
                  test.name.c_str(),
                  run.faults.empty() ? "(no fault record)"
                                     : run.faults[0].detail.c_str());

    for (uint32_t cell : test.result_cells)
        r.sim_outcome.push_back(dev.peek32(buf + uint64_t(cell) * 4));
    r.events = log.events().size();

    analysis::ModelCheckConfig cfg;
    cfg.max_executions = bound;
    r.report = analysis::modelCheck(log.events(), cfg);

    r.sim_outcome_forbidden =
        std::find(test.forbidden.begin(), test.forbidden.end(),
                  r.sim_outcome) != test.forbidden.end();
    r.forbidden_reached = false;
    for (const auto& tuple : test.forbidden)
        r.forbidden_reached |= r.report.sawOutcome(tuple);
    r.weak_found = !test.allowed_weak.empty();
    for (const auto& tuple : test.allowed_weak)
        r.weak_found &= r.report.sawOutcome(tuple);
    for (const auto& f : r.report.faults)
        r.uaf_found |=
            f.kind == analysis::ModelCheckFault::Kind::UseAfterFreeLoad ||
            f.kind == analysis::ModelCheckFault::Kind::UseAfterFreeStore;
    for (const auto& race : r.report.races)
        r.race_found |= race.scope_mismatch;

    r.pass = !r.sim_outcome_forbidden && !r.forbidden_reached &&
             r.uaf_found == test.expect_uaf &&
             r.race_found == test.expect_race &&
             (test.allowed_weak.empty() || r.weak_found);

    if (!r.pass)
        r.verdict = "MISMATCH";
    else if (test.expect_uaf)
        r.verdict = "uaf-found";
    else if (!test.forbidden.empty())
        r.verdict = "forbidden-absent";
    else if (!test.allowed_weak.empty())
        r.verdict = "weak-found";
    else
        r.verdict = "clean";
    return r;
}

std::vector<LitmusResult>
runLitmusSuite(uint64_t bound)
{
    std::vector<LitmusResult> results;
    for (const LitmusTest& t : litmusSuite())
        results.push_back(runLitmus(t, bound));
    return results;
}

} // namespace lmi
