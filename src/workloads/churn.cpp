#include "workloads/churn.hpp"

#include <chrono>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "ir/builder.hpp"

namespace lmi {

using namespace ir;

namespace {

/** FNV-1a fold of one 64-bit value into the run digest. */
uint64_t
fold(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

struct Handle
{
    uint64_t ptr;
    uint32_t owner;
};

/**
 * The driver loop. The RNG draw order is part of the workload
 * definition (every allocator revision must see the identical op
 * stream for the throughput comparison to mean anything), so nothing
 * here may consume randomness conditionally on allocator behaviour
 * except the documented stale-free alias retirement.
 */
ChurnResult
drive(const ChurnSpec& s, unsigned drain_interval, MessageHeap& heap)
{
    // tid = ctx*64 puts each context's allocations in its own warp
    // shard, like distinct warps on distinct SMs (the host role has no
    // shards and ignores it).
    auto mal = [&](uint32_t ctx, uint64_t size) {
        return heap.alloc(ctx, ctx * 64, size);
    };
    auto fre = [&](uint32_t ctx, uint64_t ptr) {
        return heap.free(ctx, ptr).has_value() ? 1 : 0;
    };
    Rng rng(s.seed);
    std::vector<Handle> live, stale;
    live.reserve(s.live_target + 1);
    ChurnResult r;
    r.ops = s.ops;
    r.digest = 0xcbf29ce484222325ull;

    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t op = 0; op < s.ops; ++op) {
        const bool do_alloc =
            live.size() < s.live_target &&
            (live.empty() || rng.chance(0.55));
        const uint32_t ctx = uint32_t(rng.below(s.contexts));
        if (do_alloc) {
            const ChurnMix& m = s.mix[rng.below(s.mix.size())];
            const uint64_t size = rng.range(m.lo, m.hi);
            const uint64_t ptr = mal(ctx, size);
            r.digest = fold(r.digest, ptr);
            if (ptr)
                live.push_back({ptr, ctx});
            else
                ++r.oom;
            ++r.allocs;
        } else if (s.stale_free > 0 && !stale.empty() &&
                   rng.chance(s.stale_free)) {
            // Replay a dangling handle: usually caught as DoubleFree
            // (or InvalidFree once the range was re-carved), but when
            // the allocator has handed the chunk back out the free
            // *succeeds* against the new owner — the classic
            // free-through-stale-pointer hazard. Retire the aliased
            // live handle so bookkeeping stays truthful.
            const Handle h = stale[rng.below(stale.size())];
            const int fault = fre(uint32_t(rng.below(s.contexts)), h.ptr);
            r.digest = fold(r.digest, uint64_t(fault));
            if (fault) {
                ++r.stale_faults;
            } else {
                const uint64_t base = PointerCodec::addressOf(h.ptr);
                for (size_t i = 0; i < live.size(); ++i) {
                    if (PointerCodec::addressOf(live[i].ptr) == base) {
                        live[i] = live.back();
                        live.pop_back();
                        break;
                    }
                }
            }
        } else {
            const size_t i = rng.below(live.size());
            const Handle h = live[i];
            live[i] = live.back();
            live.pop_back();
            const uint32_t fctx = rng.chance(s.cross_free)
                                      ? uint32_t(rng.below(s.contexts))
                                      : h.owner;
            const int fault = fre(fctx, h.ptr);
            r.digest = fold(r.digest, uint64_t(fault));
            if (fault)
                ++r.unexpected_faults;
            ++r.frees;
            if (stale.size() < 64 && rng.chance(0.1))
                stale.push_back(h);
        }
        if (drain_interval && (op + 1) % drain_interval == 0)
            heap.drainRemote();
    }
    heap.drainRemote();
    const auto t1 = std::chrono::steady_clock::now();
    r.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    r.live_at_end = live.size();

    r.live_reserved = heap.liveReservedBytes();
    r.footprint = heap.footprintBytes();
    r.peak_footprint = heap.peakFootprintBytes();
    r.cached_blocks = heap.cachedBlocks();
    r.groups = heap.groupCount();
    r.slabs = heap.slabCount();
    r.extents = heap.extentCount();
    r.remote_posted = heap.remoteStats().posted;
    r.remote_drained = heap.remoteStats().drained;
    r.drain_calls = heap.remoteStats().drain_calls;
    r.fragmentation =
        r.footprint > 0 ? 1.0 - double(r.live_reserved) / double(r.footprint)
                        : 0.0;
    return r;
}

} // namespace

const std::vector<ChurnSpec>&
churnBasket()
{
    // Fixed basket. Sizes/probabilities pick out the allocator's hot
    // paths: sizeclass cache hits (small), slab vs chunk carving
    // (mixed), heavy remote-free traffic (cross_sm at 16 contexts,
    // half the frees foreign), the host allocator's packed and pow2
    // rounding, and extent-epoch churn under stale frees (temporal).
    static const std::vector<ChurnSpec> basket = {
        {"heap_small_packed", true, AllocPolicy::Packed, false, 400000,
         8, 2048, {{8, 80}, {81, 1024}}, 0.2, 0.0, 0xC0A1},
        {"heap_mixed_packed", true, AllocPolicy::Packed, false, 400000,
         8, 2048, {{16, 1024}, {1025, 16384}}, 0.3, 0.0, 0xC0A2},
        {"heap_cross_sm_pow2", true, AllocPolicy::Pow2Aligned, true,
         400000, 16, 4096, {{16, 4096}}, 0.5, 0.0, 0xC0A3},
        {"global_packed", false, AllocPolicy::Packed, false, 400000, 1,
         1024, {{256, 262144}}, 0.0, 0.0, 0xC0A4},
        {"global_pow2", false, AllocPolicy::Pow2Aligned, true, 400000, 1,
         1024, {{256, 262144}}, 0.0, 0.0, 0xC0A5},
        {"heap_temporal", true, AllocPolicy::Packed, false, 200000, 8,
         1024, {{32, 2048}}, 0.25, 0.05, 0xC0A6},
    };
    return basket;
}

const ChurnSpec&
findChurnSpec(const std::string& name)
{
    for (const ChurnSpec& s : churnBasket())
        if (s.name == name)
            return s;
    lmi_fatal("unknown churn spec '%s'", name.c_str());
}

ChurnSpec
scaleChurnSpec(const ChurnSpec& spec, double scale)
{
    ChurnSpec s = spec;
    s.ops = uint64_t(double(s.ops) * scale);
    if (s.ops < 1000)
        s.ops = 1000;
    return s;
}

ChurnResult
runChurn(const ChurnSpec& spec, unsigned drain_interval)
{
    if (spec.mix.empty() || spec.contexts == 0)
        lmi_fatal("churn spec '%s' needs a size mix and >= 1 context",
                  spec.name.c_str());
    MessageHeap heap({.role = spec.device_heap ? HeapRole::Device
                                               : HeapRole::Host,
                      .policy = spec.policy,
                      .encode_extent = spec.encode_extent,
                      .contexts = spec.contexts});
    return drive(spec, drain_interval, heap);
}

namespace {

/** Per-round request sizes: both Fig. 5 chunk units, pow2 boundaries,
 *  and one spill into the large-chunk band. */
constexpr uint64_t kRoundSize[8] = {48, 200, 96, 1500, 64, 3000, 128, 80};

} // namespace

ir::IrModule
buildChurnFillKernel(unsigned rounds)
{
    if (rounds == 0)
        lmi_fatal("churn_fill needs rounds >= 1");
    IrFunction f =
        IrBuilder::makeKernel("churn_fill", {{"table", Type::ptr(8)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto table = b.param(0);
    auto t = b.gtid();
    auto slot0 = b.imul(t, b.constInt(int64_t(rounds)));
    for (unsigned r = 0; r < rounds; ++r) {
        const uint64_t size = kRoundSize[r % 8];
        auto p = b.malloc_(b.constInt(int64_t(size)), 4);
        // Touch the block so the allocation is observable memory, not
        // just extent-table state.
        b.store(b.gep(p, b.constInt(0)),
                b.constInt(int64_t(r) + 1, Type::i32()));
        auto slot = b.gep(table, b.iadd(slot0, b.constInt(int64_t(r))));
        if (r % 2 == 1) {
            // Odd rounds: local churn — free on the allocating SM and
            // publish an empty slot.
            b.free_(p);
            b.store(slot, b.constInt(0));
        } else {
            // Even rounds: publish the pointer for the drain kernel.
            b.store(slot, b.ptrToInt(p));
        }
    }
    b.ret();
    verify(f);
    IrModule m;
    m.functions.push_back(std::move(f));
    return m;
}

ir::IrModule
buildChurnDrainKernel(unsigned rounds, unsigned block_threads)
{
    if (rounds == 0)
        lmi_fatal("churn_drain needs rounds >= 1");
    if (block_threads == 0 || (block_threads & (block_threads - 1)) != 0)
        lmi_fatal("churn_drain needs a power-of-two block size, got %u",
                  block_threads);
    IrFunction f =
        IrBuilder::makeKernel("churn_drain", {{"table", Type::ptr(8)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto table = b.param(0);
    // XOR flips the low bit of the *block* index: thread t frees what
    // its neighbour block allocated, so (with blocks on distinct SMs)
    // every free is remote and waits for the owner's next drain.
    auto victim = b.ixor(b.gtid(), b.constInt(int64_t(block_threads)));
    auto slot0 = b.imul(victim, b.constInt(int64_t(rounds)));
    for (unsigned r = 0; r < rounds; r += 2) {
        // Only even rounds published a pointer; odd slots hold 0 and
        // are skipped at the IR level (no branch needed).
        auto slot = b.gep(table, b.iadd(slot0, b.constInt(int64_t(r))));
        b.free_(b.intToPtr(b.load(slot), Type::ptr(4)));
    }
    b.ret();
    verify(f);
    IrModule m;
    m.functions.push_back(std::move(f));
    return m;
}

} // namespace lmi
