/**
 * @file
 * Allocation-churn tests: the allocator under
 * adversarial alloc/free traffic, and the kernel-level churn pair
 * whose frees cross SMs and wait for the owner's slice-boundary drain.
 */

#include <gtest/gtest.h>

#include "alloc/msg_heap.hpp"
#include "ir/builder.hpp"
#include "sim/device.hpp"
#include "workloads/churn.hpp"

namespace lmi {
namespace {

using namespace ir;

/** Fill + drain table geometry shared by the kernel-level tests. */
constexpr unsigned kRounds = 4;
constexpr unsigned kBlocks = 4; ///< must be even (XOR pairing)
constexpr unsigned kThreads = 32;
constexpr unsigned kSlots = kBlocks * kThreads * kRounds;

TEST(Churn, BasketRunsAreDeterministic)
{
    for (const ChurnSpec& spec : churnBasket()) {
        const ChurnSpec s = scaleChurnSpec(spec, 0.05);
        const ChurnResult a = runChurn(s);
        const ChurnResult b = runChurn(s);
        EXPECT_EQ(a.digest, b.digest) << s.name;
        EXPECT_EQ(a.allocs, b.allocs) << s.name;
        EXPECT_EQ(a.remote_drained, b.remote_drained) << s.name;
        EXPECT_EQ(a.footprint, b.footprint) << s.name;
        EXPECT_EQ(a.unexpected_faults, 0u) << s.name;
        EXPECT_EQ(a.oom, 0u) << s.name;
    }
}

TEST(Churn, CrossSmSpecExercisesRemoteQueues)
{
    const ChurnSpec s =
        scaleChurnSpec(findChurnSpec("heap_cross_sm_pow2"), 0.1);
    const ChurnResult r = runChurn(s);
    // Half the frees are issued by a random context; with 16 contexts
    // nearly all of those are foreign and wait for the owner's drain.
    EXPECT_GT(r.remote_posted, r.frees / 4);
    EXPECT_GT(r.remote_posted, 0u);
    EXPECT_EQ(r.remote_drained, r.remote_posted); // final drain replays all
}

TEST(Churn, StaleFreeClassificationUnderChurn)
{
    // The temporal spec replays retired handles; every replay must be
    // caught (DoubleFree/InvalidFree) or land on a re-carved extent —
    // never fault a live free. The caught count is part of the
    // deterministic contract.
    const ChurnSpec s = scaleChurnSpec(findChurnSpec("heap_temporal"), 0.2);
    const ChurnResult a = runChurn(s);
    const ChurnResult b = runChurn(s);
    EXPECT_GT(a.stale_faults, 0u);
    EXPECT_EQ(a.stale_faults, b.stale_faults);
    EXPECT_EQ(a.unexpected_faults, 0u);
}

TEST(Churn, ExhaustionRecoversThroughRemoteDrain)
{
    // Region sized for exactly two slabs of the 4 KiB class. Context 1
    // frees blocks it does not own; the frees park until ctx 0's drain.
    // The alloc slow path must drain the pending frees and retry before
    // reporting exhaustion.
    MessageHeap a({.role = HeapRole::Host,
                   .region_base = 0x10000000,
                   .region_size = 128 * 1024,
                   .contexts = 2});
    std::vector<uint64_t> ptrs;
    for (;;) {
        const uint64_t p = a.alloc(0, 0, 4096);
        if (!p)
            break;
        ptrs.push_back(p);
    }
    ASSERT_EQ(ptrs.size(), 32u); // 128 KiB / 4 KiB
    for (uint64_t p : ptrs)
        ASSERT_FALSE(a.free(1, p).has_value());
    EXPECT_GT(a.remotePending(), 0u);
    // No explicit drainRemote: the alloc path must recover on its own.
    const uint64_t p = a.alloc(0, 0, 4096);
    EXPECT_NE(p, 0u);
    EXPECT_EQ(a.remotePending(), 0u);
}

TEST(Churn, DoubleFreeStaysClassifiedAfterReuse)
{
    MessageHeap heap({.role = HeapRole::Device});
    const uint64_t p = heap.alloc(0, 0, 64);
    ASSERT_FALSE(heap.free(0, p).has_value());
    // Re-carve the same chunk, then replay the stale free twice: the
    // first lands on the reallocated (live) extent and succeeds — the
    // UAF-realloc hazard — and the second is a DoubleFree again.
    const uint64_t q = heap.alloc(0, 0, 64);
    ASSERT_EQ(q, p);
    ASSERT_FALSE(heap.free(0, p).has_value());
    const MaybeFault dbl = heap.free(0, p);
    ASSERT_TRUE(dbl.has_value());
    EXPECT_EQ(dbl->kind, FaultKind::DoubleFree);
}

/** Compile the churn fill/drain pair against @p dev. */
struct ChurnKernels
{
    CompiledKernel fill;
    CompiledKernel drain;
};

ChurnKernels
compileChurn(Device& dev)
{
    return {dev.compile(buildChurnFillKernel(kRounds), "churn_fill"),
            dev.compile(buildChurnDrainKernel(kRounds, kThreads),
                        "churn_drain")};
}

TEST(Churn, CrossSmRemoteFreeAfterOwningBlockExits)
{
    Device dev;
    const uint64_t table = dev.cudaMalloc(kSlots * 8);
    ASSERT_NE(table, 0u);
    const ChurnKernels k = compileChurn(dev);

    // Launch 1: every thread allocates kRounds blocks, frees the odd
    // rounds locally, and publishes the even-round pointers.
    const RunResult fill = dev.launch(k.fill, kBlocks, kThreads, {table});
    ASSERT_FALSE(fill.faulted());
    EXPECT_GT(dev.heapAllocator().liveReservedBytes(), 0u);

    // Launch 2: the owning blocks are long gone; neighbour blocks (on
    // other SMs) free the published pointers. Every free is foreign, so
    // the chunks return to their owners at the slice-boundary drain.
    const RunResult drain = dev.launch(k.drain, kBlocks, kThreads, {table});
    ASSERT_FALSE(drain.faulted());
    EXPECT_EQ(dev.heapAllocator().liveReservedBytes(), 0u);
    const MessageHeap::RemoteStats& rs =
        dev.heapAllocator().remoteStats();
    EXPECT_GT(rs.posted, 0u);
    EXPECT_EQ(rs.drained, rs.posted);
}

TEST(Churn, KernelChurnByteIdenticalAcrossSimThreads)
{
    struct Snapshot
    {
        std::vector<uint64_t> table;
        uint64_t live = 0, footprint = 0, groups = 0;
        uint64_t posted = 0, drained = 0;
        uint64_t mallocs = 0, frees = 0;
    };
    auto run = [&](unsigned threads) {
        Device dev;
        dev.setSimThreads(threads);
        const uint64_t table = dev.cudaMalloc(kSlots * 8);
        const ChurnKernels k = compileChurn(dev);
        const RunResult fill =
            dev.launch(k.fill, kBlocks, kThreads, {table});
        EXPECT_FALSE(fill.faulted());
        Snapshot s;
        for (unsigned i = 0; i < kSlots; ++i)
            s.table.push_back(dev.peek64(table + 8ull * i));
        const RunResult drain =
            dev.launch(k.drain, kBlocks, kThreads, {table});
        EXPECT_FALSE(drain.faulted());
        const MessageHeap& core = dev.heapAllocator();
        s.live = core.liveReservedBytes();
        s.footprint = core.footprintBytes();
        s.groups = core.groupCount();
        s.posted = core.remoteStats().posted;
        s.drained = core.remoteStats().drained;
        s.mallocs = dev.stats().counter("alloc.heap.mallocs");
        s.frees = dev.stats().counter("alloc.heap.frees");
        return s;
    };
    const Snapshot one = run(1);
    for (unsigned threads : {2u, 4u}) {
        const Snapshot s = run(threads);
        EXPECT_EQ(s.table, one.table) << threads << " sim threads";
        EXPECT_EQ(s.live, one.live);
        EXPECT_EQ(s.footprint, one.footprint);
        EXPECT_EQ(s.groups, one.groups);
        EXPECT_EQ(s.posted, one.posted);
        EXPECT_EQ(s.drained, one.drained);
        EXPECT_EQ(s.mallocs, one.mallocs);
        EXPECT_EQ(s.frees, one.frees);
    }
    EXPECT_EQ(one.live, 0u);
    EXPECT_GT(one.posted, 0u);
}

TEST(Churn, GroupAccountingAcrossFreeReallocInOneKernel)
{
    // Satellite: Fig. 5 group accounting when one kernel frees a chunk
    // and re-mallocs it. The group must be reused (no new group, no
    // footprint growth) and the stale extent re-minted, not leaked.
    IrFunction f =
        IrBuilder::makeKernel("frr", {{"out", Type::ptr(8)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto out = b.param(0);
    auto p = b.malloc_(b.constInt(64), 4);
    b.store(b.gep(p, b.constInt(0)), b.constInt(7, Type::i32()));
    b.free_(p);
    auto q = b.malloc_(b.constInt(64), 4);
    b.store(b.gep(q, b.constInt(0)), b.constInt(9, Type::i32()));
    b.free_(q);
    b.store(b.gep(out, b.constInt(0)), b.ptrToInt(p));
    b.store(b.gep(out, b.constInt(1)), b.ptrToInt(q));
    b.ret();
    IrModule m;
    m.functions.push_back(std::move(f));

    Device dev;
    const uint64_t out_buf = dev.cudaMalloc(16);
    const CompiledKernel k = dev.compile(m, "frr");
    const RunResult r = dev.launch(k, 1, 1, {out_buf});
    ASSERT_FALSE(r.faulted());

    const uint64_t pa = dev.peek64(out_buf);
    const uint64_t qa = dev.peek64(out_buf + 8);
    EXPECT_EQ(pa, qa); // LIFO cache hands the same chunk back
    const MessageHeap& heap = dev.heapAllocator();
    EXPECT_EQ(heap.groupCount(), 1u);
    EXPECT_EQ(heap.liveReservedBytes(), 0u);
    const MessageHeap::Extent* e = heap.extentAt(pa);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->epoch, 1u); // re-minted, not a fresh record
    EXPECT_FALSE(e->live);
    EXPECT_EQ(dev.stats().counter("alloc.heap.mallocs"), 2u);
    EXPECT_EQ(dev.stats().counter("alloc.heap.frees"), 2u);
    EXPECT_EQ(dev.stats().counter("alloc.heap.groups"), 1u);
}

} // namespace
} // namespace lmi
