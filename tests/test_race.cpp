/**
 * @file
 * Tests for the barrier-aware static race analyzer
 * (analysis/race_analysis.hpp) and the dynamic race sanitizer
 * (sim/race_sanitizer.hpp): verdicts on hand-built fixtures, the
 * clean/seeded workload suite sweep, and the sanitizer's conflict rule
 * exercised both directly and through full simulated launches.
 */

#include <gtest/gtest.h>

#include "analysis/race_analysis.hpp"
#include "compiler/codegen.hpp"
#include "ir/builder.hpp"
#include "sim/device.hpp"
#include "sim/race_sanitizer.hpp"
#include "workloads/workloads.hpp"

namespace lmi {
namespace {

using namespace ir;
using analysis::RaceAnalysisOptions;
using analysis::RaceReport;
using analysis::RaceVerdict;

IrModule
module(IrFunction f)
{
    IrModule m;
    m.functions.push_back(std::move(f));
    return m;
}

RaceReport
analyze(const IrFunction& f, unsigned block_threads = 64,
        unsigned grid_blocks = 2)
{
    RaceAnalysisOptions opts;
    opts.block_threads = block_threads;
    opts.grid_blocks = grid_blocks;
    return analysis::analyzeRaces(f, opts);
}

// ---------------------------------------------------------------------
// Static analyzer: fixtures.
// ---------------------------------------------------------------------

TEST(RaceAnalysis, TidIndexedStoresAreProvenDisjoint)
{
    IrFunction f = IrBuilder::makeKernel(
        "disjoint", {{"in", Type::ptr(4)}, {"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto t = b.gtid();
    auto v = b.load(b.gep(b.param(0), t));
    b.store(b.gep(b.param(1), t), v);
    b.ret();

    const RaceReport r = analyze(f);
    EXPECT_EQ(r.provenRacy(), 0u);
    EXPECT_EQ(r.unknown(), 0u);
    EXPECT_GT(r.provenDisjoint(), 0u);
    EXPECT_TRUE(r.divergent_barriers.empty());
    EXPECT_TRUE(r.diagnostics.empty());
}

TEST(RaceAnalysis, BroadcastStoreIsProvenRacy)
{
    // Every thread stores to out[0]: a definite same-address witness.
    IrFunction f = IrBuilder::makeKernel("bcast", {{"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto t = b.tid();
    b.store(b.gep(b.param(0), b.constInt(0)), t);
    b.ret();

    const RaceReport r = analyze(f);
    EXPECT_GE(r.provenRacy(), 1u);
    EXPECT_FALSE(r.diagnostics.empty());
}

TEST(RaceAnalysis, NeighborExchangeNeedsTheBarrier)
{
    // tile[t] = in[t]; (barrier?); out[t] = tile[t + 1]. Without the
    // barrier, thread t's load collides with thread t+1's store — a
    // definite witness one thread-delta away. With it, the two accesses
    // sit in different barrier epochs and cannot happen in parallel.
    auto build = [](bool with_barrier) {
        IrFunction f = IrBuilder::makeKernel(
            "exch", {{"in", Type::ptr(4)}, {"out", Type::ptr(4)}});
        IrBuilder b(f);
        b.setInsertPoint(b.block("entry"));
        auto tile = b.sharedBuffer("tile", 65 * 4, 4);
        auto t = b.tid();
        auto g = b.gtid();
        b.store(b.gep(tile, t), b.load(b.gep(b.param(0), g)));
        if (with_barrier)
            b.barrier();
        auto n1 = b.iadd(t, b.constInt(1));
        b.store(b.gep(b.param(1), g), b.load(b.gep(tile, n1)));
        b.ret();
        return f;
    };

    const RaceReport racy = analyze(build(false));
    EXPECT_GE(racy.provenRacy(), 1u);

    const RaceReport clean = analyze(build(true));
    EXPECT_EQ(clean.provenRacy(), 0u);
    EXPECT_EQ(clean.unknown(), 0u);
}

TEST(RaceAnalysis, BarrierUnderTidDependentControlIsDivergent)
{
    IrFunction f = IrBuilder::makeKernel("divbar", {{"out", Type::ptr(4)}});
    IrBuilder b(f);
    auto entry = b.block("entry");
    auto bar = b.block("bar");
    auto done = b.block("done");

    b.setInsertPoint(entry);
    auto t = b.tid();
    auto even = b.icmp(CmpOp::EQ, b.iand(t, b.constInt(1)), b.constInt(0));
    b.br(even, bar, done);
    b.setInsertPoint(bar);
    b.barrier();
    b.jump(done);
    b.setInsertPoint(done);
    b.store(b.gep(b.param(0), t), t);
    b.ret();

    const RaceReport r = analyze(f);
    EXPECT_EQ(r.divergent_barriers.size(), 1u);
    EXPECT_FALSE(r.diagnostics.empty());
}

TEST(RaceAnalysis, DataDependentIndexIsUnknownNotRacy)
{
    // out[in[t]] = t: the index is a loaded value the analyzer cannot
    // bound, so the store pair must stay Unknown (sanitizer territory),
    // never ProvenRacy (no definite witness) and never ProvenDisjoint.
    IrFunction f = IrBuilder::makeKernel(
        "gather", {{"in", Type::ptr(4)}, {"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto t = b.gtid();
    auto idx = b.load(b.gep(b.param(0), t));
    b.store(b.gep(b.param(1), idx), t);
    b.ret();

    const RaceReport r = analyze(f);
    EXPECT_EQ(r.provenRacy(), 0u);
    EXPECT_GE(r.unknown(), 1u);
}

TEST(RaceAnalysis, DistinctParamsDoNotAliasByDefault)
{
    // in[t+1] load vs out[t] store would collide if in == out; the
    // GPUVerify-style array abstraction assumes they do not.
    IrFunction f = IrBuilder::makeKernel(
        "shift", {{"in", Type::ptr(4)}, {"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto t = b.gtid();
    auto v = b.load(b.gep(b.param(0), b.iadd(t, b.constInt(1))));
    b.store(b.gep(b.param(1), t), v);
    b.ret();

    const RaceReport lax = analyze(f);
    EXPECT_EQ(lax.provenRacy(), 0u);
    EXPECT_EQ(lax.unknown(), 0u);

    RaceAnalysisOptions strict;
    strict.block_threads = 64;
    strict.grid_blocks = 2;
    strict.assume_param_noalias = false;
    const RaceReport r = analysis::analyzeRaces(f, strict);
    EXPECT_GE(r.unknown(), 1u) << "a maybe-aliasing cross-param pair "
                                  "must not be proven disjoint";
}

// ---------------------------------------------------------------------
// Static analyzer: the workload suite is the acceptance gate.
// ---------------------------------------------------------------------

TEST(RaceAnalysis, CleanWorkloadSuiteIsFullyProvenDisjoint)
{
    for (const WorkloadProfile& p : workloadSuite()) {
        const IrModule m = buildWorkloadKernel(p);
        const IrFunction flat = inlineCalls(m, *m.find(p.name));
        RaceAnalysisOptions opts;
        opts.block_threads = p.block_threads;
        opts.grid_blocks = p.grid_blocks;
        const RaceReport r = analysis::analyzeRaces(flat, opts);
        EXPECT_EQ(r.provenRacy(), 0u) << p.name;
        EXPECT_EQ(r.unknown(), 0u) << p.name;
        EXPECT_TRUE(r.divergent_barriers.empty()) << p.name;
    }
}

TEST(RaceAnalysis, EverySeededVariantIsFlagged)
{
    for (const SeededWorkload& sw : raceSeededVariants()) {
        const IrModule m = buildWorkloadKernel(sw.profile, sw.seed);
        const IrFunction flat = inlineCalls(m, *m.find(sw.profile.name));
        RaceAnalysisOptions opts;
        opts.block_threads = sw.profile.block_threads;
        opts.grid_blocks = sw.profile.grid_blocks;
        const RaceReport r = analysis::analyzeRaces(flat, opts);
        EXPECT_TRUE(r.provenRacy() > 0 || !r.divergent_barriers.empty())
            << sw.name;
    }
}

// ---------------------------------------------------------------------
// Dynamic sanitizer: conflict rule, exercised directly.
// ---------------------------------------------------------------------

/** Feed @p s one access event, as the engine's LSU would. */
void
feedAccess(RaceSanitizer& s, MemSpace space, uint32_t block, uint32_t warp,
           uint32_t gtid, uint64_t pc, uint64_t addr, unsigned width,
           bool is_store)
{
    MemEvent e;
    e.kind = is_store ? MemEvent::Kind::Store : MemEvent::Kind::Load;
    e.space = space;
    e.block = block;
    e.warp = warp;
    e.gtid = gtid;
    e.pc = pc;
    e.addr = addr;
    e.width = uint8_t(width);
    s.onEvent(e);
}

/** Feed @p s one non-access event. */
void
feed(RaceSanitizer& s, MemEvent::Kind kind, uint32_t block,
     uint64_t addr = 0, uint64_t value = 0)
{
    MemEvent e;
    e.kind = kind;
    e.block = block;
    e.addr = addr;
    e.value = value;
    s.onEvent(e);
}

TEST(RaceSanitizer, SameWarpAccessesNeverConflict)
{
    RaceSanitizer s;
    feedAccess(s, MemSpace::Shared, 0, 0, 0, 10, 0x40, 4, true);
    feedAccess(s, MemSpace::Shared, 0, 0, 1, 11, 0x40, 4, true);
    feedAccess(s, MemSpace::Shared, 0, 0, 2, 12, 0x40, 4, false);
    EXPECT_EQ(s.conflictCount(), 0u);
}

TEST(RaceSanitizer, CrossWarpSameEpochStoreConflicts)
{
    RaceSanitizer s;
    feedAccess(s, MemSpace::Shared, 0, 0, 0, 10, 0x40, 4, true);
    feedAccess(s, MemSpace::Shared, 0, 1, 32, 11, 0x40, 4, true);
    EXPECT_EQ(s.conflictCount(), 1u);
    ASSERT_EQ(s.reports().size(), 1u);
    EXPECT_EQ(s.reports()[0].warp, 1u);
    EXPECT_EQ(s.reports()[0].other_warp, 0u);
    EXPECT_TRUE(s.reports()[0].is_store);
}

TEST(RaceSanitizer, LoadLoadNeverConflicts)
{
    RaceSanitizer s;
    feedAccess(s, MemSpace::Global, 0, 0, 0, 10, 0x100, 4, false);
    feedAccess(s, MemSpace::Global, 1, 0, 64, 11, 0x100, 4, false);
    EXPECT_EQ(s.conflictCount(), 0u);
}

TEST(RaceSanitizer, BarrierEpochOrdersCrossWarpAccesses)
{
    RaceSanitizer s;
    feedAccess(s, MemSpace::Shared, 0, 0, 0, 10, 0x40, 4, true);
    feed(s, MemEvent::Kind::BarrierRelease, 0);
    feedAccess(s, MemSpace::Shared, 0, 1, 32, 11, 0x40, 4, false);
    EXPECT_EQ(s.conflictCount(), 0u);

    // A second store in the *new* epoch conflicts with the epoch-1 load
    // from the other warp.
    feedAccess(s, MemSpace::Shared, 0, 0, 0, 12, 0x40, 4, true);
    EXPECT_EQ(s.conflictCount(), 1u);
}

TEST(RaceSanitizer, CrossBlockGlobalConflictIgnoresBarriers)
{
    RaceSanitizer s;
    feedAccess(s, MemSpace::Global, 0, 0, 0, 10, 0x200, 4, true);
    feed(s, MemEvent::Kind::BarrierRelease, 0);
    feed(s, MemEvent::Kind::BarrierRelease, 1);
    feedAccess(s, MemSpace::Global, 1, 0, 64, 11, 0x200, 4, true);
    EXPECT_EQ(s.conflictCount(), 1u);
}

TEST(RaceSanitizer, DeviceAllocForgetsRecycledShadow)
{
    RaceSanitizer s;
    feedAccess(s, MemSpace::Global, 0, 0, 0, 10, 0x300, 4, true);
    feed(s, MemEvent::Kind::Malloc, 0, 0x300, 64);
    feedAccess(s, MemSpace::Global, 1, 0, 64, 11, 0x300, 4, true);
    EXPECT_EQ(s.conflictCount(), 0u);
}

TEST(RaceSanitizer, BlockRetireDropsSharedShadowAndEpoch)
{
    RaceSanitizer s;
    feedAccess(s, MemSpace::Shared, 0, 0, 0, 10, 0x40, 4, true);
    EXPECT_EQ(s.wordsTracked(), 1u);
    feed(s, MemEvent::Kind::BlockRetire, 0);
    EXPECT_EQ(s.wordsTracked(), 0u);
    // A new resident block with the same id starts clean.
    feedAccess(s, MemSpace::Shared, 0, 1, 32, 11, 0x40, 4, true);
    EXPECT_EQ(s.conflictCount(), 0u);
}

TEST(RaceSanitizer, WideAccessChecksEveryWord)
{
    RaceSanitizer s;
    feedAccess(s, MemSpace::Global, 0, 0, 0, 10, 0x400, 8, true);
    feedAccess(s, MemSpace::Global, 0, 1, 32, 11, 0x404, 4, true);
    EXPECT_EQ(s.conflictCount(), 1u);
}

// ---------------------------------------------------------------------
// Dynamic sanitizer: full launches through the simulator.
// ---------------------------------------------------------------------

TEST(RaceSanitizer, CleanLaunchHasNoConflictsAndIdenticalOutput)
{
    // tile[t] = in[t]; barrier; out[t] = tile[63 - t], twice: once
    // plain, once sanitized. Outputs and timing must match exactly and
    // the sanitizer must stay silent (cross-warp reads are ordered by
    // the barrier epoch).
    auto build = [] {
        IrFunction f = IrBuilder::makeKernel(
            "rev", {{"in", Type::ptr(4)}, {"out", Type::ptr(4)}});
        IrBuilder b(f);
        b.setInsertPoint(b.block("entry"));
        auto tile = b.sharedBuffer("tile", 64 * 4, 4);
        auto t = b.tid();
        b.store(b.gep(tile, t), b.load(b.gep(b.param(0), t)));
        b.barrier();
        b.store(b.gep(b.param(1), t),
                b.load(b.gep(tile, b.isub(b.constInt(63), t))));
        b.ret();
        return module(std::move(f));
    };

    const unsigned n = 64;
    auto run = [&](RaceSanitizer* sanitizer, ExecutionTier tier) {
        Device dev;
        const uint64_t in = dev.cudaMalloc(n * 4);
        const uint64_t out = dev.cudaMalloc(n * 4);
        for (unsigned i = 0; i < n; ++i)
            dev.poke32(in + 4 * i, 100 + i);
        const CompiledKernel k = dev.compile(build(), "rev");
        LaunchOptions opts;
        opts.observer = sanitizer;
        opts.tier = tier;
        const RunResult r = dev.launch(k, 1, n, {in, out}, opts);
        std::vector<uint32_t> result;
        for (unsigned i = 0; i < n; ++i)
            result.push_back(dev.peek32(out + 4 * i));
        return std::make_pair(r, result);
    };

    // Both tiers feed the sanitizer from the same LSU routine.
    for (const ExecutionTier tier :
         {ExecutionTier::Detailed, ExecutionTier::Functional}) {
        SCOPED_TRACE(executionTierName(tier));
        RaceSanitizer sanitizer;
        const auto plain = run(nullptr, tier);
        const auto watched = run(&sanitizer, tier);
        EXPECT_FALSE(plain.first.faulted());
        EXPECT_FALSE(watched.first.faulted());
        EXPECT_EQ(plain.second, watched.second);
        EXPECT_EQ(plain.first.cycles, watched.first.cycles);
        EXPECT_EQ(sanitizer.conflictCount(), 0u);
        EXPECT_GT(sanitizer.wordsTracked(), 0u);
    }
}

TEST(RaceSanitizer, BroadcastLaunchReportsCrossWarpConflicts)
{
    IrFunction f = IrBuilder::makeKernel("bcast", {{"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    b.store(b.gep(b.param(0), b.constInt(0)), b.tid());
    b.ret();

    const IrModule m = module(std::move(f));
    for (const ExecutionTier tier :
         {ExecutionTier::Detailed, ExecutionTier::Functional}) {
        SCOPED_TRACE(executionTierName(tier));
        Device dev;
        const uint64_t out = dev.cudaMalloc(256);
        const CompiledKernel k = dev.compile(m, "bcast");
        RaceSanitizer sanitizer;
        LaunchOptions opts;
        opts.observer = &sanitizer;
        opts.tier = tier;
        const RunResult r = dev.launch(k, 1, 64, {out}, opts);
        EXPECT_FALSE(r.faulted());
        EXPECT_GT(sanitizer.conflictCount(), 0u);
        ASSERT_FALSE(sanitizer.reports().empty());
        EXPECT_EQ(sanitizer.reports()[0].space, MemSpace::Global);
    }
}

} // namespace
} // namespace lmi
