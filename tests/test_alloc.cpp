/**
 * @file
 * Unit tests for the allocator stack: the heap in its Host (cudaMalloc)
 * and Device (Fig. 5 in-kernel malloc) roles, the exported allocator
 * stat surface, and the static layout engine.
 */

#include <map>
#include <string>

#include <gtest/gtest.h>

#include "alloc/layout.hpp"
#include "alloc/msg_heap.hpp"
#include "arch/mem_map.hpp"
#include "common/bitutil.hpp"
#include "common/logging.hpp"
#include "ir/builder.hpp"
#include "mechanisms/registry.hpp"
#include "sim/device.hpp"

namespace lmi {
namespace {

/** A heap in @p role; the LMI policy also encodes extents. */
MessageHeap::Config
heapConfig(HeapRole role, AllocPolicy policy = AllocPolicy::Packed)
{
    return {.role = role,
            .policy = policy,
            .encode_extent = policy == AllocPolicy::Pow2Aligned};
}

const MessageHeap::Config kHost = heapConfig(HeapRole::Host);
const MessageHeap::Config kHostLmi =
    heapConfig(HeapRole::Host, AllocPolicy::Pow2Aligned);
const MessageHeap::Config kDevice = heapConfig(HeapRole::Device);

TEST(GlobalAllocator, PackedReservesAlignedRequest)
{
    MessageHeap a(kHost); // packed
    const uint64_t p = a.alloc(0, 0, 1000);
    ASSERT_NE(p, 0u);
    EXPECT_EQ(p % 256, 0u); // cudaMalloc's 256 B alignment
    const AllocBlock* b = a.findLive(p);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->requested, 1000u);
    EXPECT_EQ(b->reserved, 1024u); // rounded to 256 B granule
}

TEST(GlobalAllocator, Pow2ReturnsEncodedSizeAlignedPointer)
{
    MessageHeap a(kHostLmi);
    const uint64_t p = a.alloc(0, 0, 5000); // -> 8192
    ASSERT_NE(p, 0u);
    EXPECT_TRUE(PointerCodec::isValid(p));
    const PointerCodec codec;
    EXPECT_EQ(codec.sizeOf(p), 8192u);
    EXPECT_EQ(PointerCodec::addressOf(p) % 8192, 0u);
}

TEST(GlobalAllocator, FragmentationAccounting)
{
    MessageHeap packed(kHost);
    MessageHeap aligned(kHostLmi);
    // The Fig. 4 pathology: 2^n + header-epsilon requests double under
    // pow2 alignment.
    const uint64_t req = 1024 * 1024 + 64;
    packed.alloc(0, 0, req);
    aligned.alloc(0, 0, req);
    EXPECT_EQ(packed.liveReservedBytes(), alignUp(req, 256));
    EXPECT_EQ(aligned.liveReservedBytes(), 2 * 1024 * 1024u);
}

TEST(GlobalAllocator, PeakTracksHighWaterMark)
{
    MessageHeap a(kHost);
    const uint64_t p1 = a.alloc(0, 0, 4096);
    const uint64_t p2 = a.alloc(0, 0, 4096);
    EXPECT_EQ(a.peakReservedBytes(), 8192u);
    ASSERT_FALSE(a.free(0, p1).has_value());
    ASSERT_FALSE(a.free(0, p2).has_value());
    EXPECT_EQ(a.liveReservedBytes(), 0u);
    EXPECT_EQ(a.peakReservedBytes(), 8192u);
}

TEST(GlobalAllocator, SizeclassReuseAndEpochStamping)
{
    MessageHeap a(kHost);
    const uint64_t p1 = a.alloc(0, 0, 4096);
    const uint64_t p2 = a.alloc(0, 0, 4096);
    const uint64_t p3 = a.alloc(0, 0, 4096);
    ASSERT_FALSE(a.free(0, p2).has_value());
    // Same-size reallocation pops the freed block off the sizeclass
    // cache (LIFO), re-minting the extent with a bumped epoch.
    const uint64_t p4 = a.alloc(0, 0, 4096);
    EXPECT_EQ(p4, p2);
    const MessageHeap::Extent* e = a.extentAt(p4);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->epoch, 1u);
    EXPECT_TRUE(e->live);
    ASSERT_FALSE(a.free(0, p1).has_value());
    ASSERT_FALSE(a.free(0, p3).has_value());
    ASSERT_FALSE(a.free(0, p4).has_value());
    // Huge blocks bypass the sizeclass layer and coalesce in the range
    // allocator: allocate, free, and the same span is reusable.
    const uint64_t h1 = a.alloc(0, 0, 1024 * 1024);
    ASSERT_NE(h1, 0u);
    ASSERT_FALSE(a.free(0, h1).has_value());
    const uint64_t h2 = a.alloc(0, 0, 1024 * 1024);
    EXPECT_EQ(h2, h1);
}

TEST(GlobalAllocator, DoubleFreeAndInvalidFree)
{
    MessageHeap a(kHost);
    const uint64_t p = a.alloc(0, 0, 512);
    ASSERT_FALSE(a.free(0, p).has_value());
    const MaybeFault dbl = a.free(0, p);
    ASSERT_TRUE(dbl.has_value());
    EXPECT_EQ(dbl->kind, FaultKind::DoubleFree);

    const MaybeFault inv = a.free(0, 0xDEAD000);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(inv->kind, FaultKind::InvalidFree);
}

TEST(GlobalAllocator, FreeAcceptsEncodedInteriorBase)
{
    MessageHeap a(kHostLmi);
    const uint64_t p = a.alloc(0, 0, 1024);
    ASSERT_FALSE(a.free(0, p).has_value());
    EXPECT_EQ(a.liveReservedBytes(), 0u);
}

TEST(GlobalAllocator, FindLiveLocatesInteriorAddresses)
{
    MessageHeap a(kHost);
    const uint64_t p = a.alloc(0, 0, 4096);
    EXPECT_NE(a.findLive(p + 100), nullptr);
    EXPECT_EQ(a.findLive(p + 4096), nullptr);
}

TEST(GlobalAllocator, ExhaustionReturnsNull)
{
    MessageHeap::Config cfg = kHost;
    cfg.region_base = 0x1000000;
    cfg.region_size = 4096;
    MessageHeap a(cfg);
    EXPECT_NE(a.alloc(0, 0, 4096), 0u);
    EXPECT_EQ(a.alloc(0, 0, 1), 0u);
}

TEST(DeviceHeap, ChunkRoundingMatchesFig5)
{
    MessageHeap heap(kDevice);
    // Small request -> 80 B chunk multiples.
    const uint64_t p = heap.alloc(0, 0, 100);
    ASSERT_NE(p, 0u);
    EXPECT_EQ(heap.liveReservedBytes(), 160u); // 2 x 80 B
    // Large request -> 2208 B chunk multiples.
    const uint64_t q = heap.alloc(0, 0, 3000);
    ASSERT_NE(q, 0u);
    EXPECT_EQ(heap.liveReservedBytes(), 160u + 2 * 2208u);
}

TEST(DeviceHeap, BaselineFragmentationUpToFiftyPct)
{
    MessageHeap heap(kDevice);
    // 81 bytes occupies two 80 B chunks: ~49% internal fragmentation,
    // the paper's §IV-E observation.
    const uint64_t p = heap.alloc(0, 0, 81);
    ASSERT_NE(p, 0u);
    const double frag =
        1.0 - double(heap.liveRequestedBytes()) / heap.liveReservedBytes();
    EXPECT_NEAR(frag, 0.49, 0.02);
}

TEST(DeviceHeap, ThreadsInDifferentWarpsUseDifferentGroups)
{
    MessageHeap heap(kDevice);
    const uint64_t p0 = heap.alloc(0, 0, 64);   // warp 0
    const uint64_t p1 = heap.alloc(0, 32, 64);  // warp 1
    const uint64_t p2 = heap.alloc(0, 1, 64);   // warp 0 again
    ASSERT_NE(p0, 0u);
    ASSERT_NE(p1, 0u);
    EXPECT_EQ(heap.groupCount(), 2u);
    // Warp 0's two buffers are adjacent chunks of one group.
    EXPECT_EQ(p2, p0 + 80);
}

TEST(DeviceHeap, Pow2PolicyEncodesExtent)
{
    MessageHeap heap(heapConfig(HeapRole::Device, AllocPolicy::Pow2Aligned));
    const uint64_t p = heap.alloc(0, 3, 300);
    ASSERT_NE(p, 0u);
    EXPECT_TRUE(PointerCodec::isValid(p));
    const PointerCodec codec;
    EXPECT_EQ(codec.sizeOf(p), 512u);
    EXPECT_EQ(PointerCodec::addressOf(p) % 512, 0u);
}

TEST(DeviceHeap, FreeFaults)
{
    MessageHeap heap(kDevice);
    const uint64_t p = heap.alloc(0, 0, 64);
    ASSERT_FALSE(heap.free(0, p).has_value());
    const MaybeFault dbl = heap.free(0, p);
    ASSERT_TRUE(dbl.has_value());
    EXPECT_EQ(dbl->kind, FaultKind::DoubleFree);
    const MaybeFault inv = heap.free(0, kHeapBase + 0x100000);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(inv->kind, FaultKind::InvalidFree);
}

TEST(DeviceHeap, ChunkReuseAfterFree)
{
    MessageHeap heap(kDevice);
    const uint64_t p = heap.alloc(0, 0, 64);
    ASSERT_FALSE(heap.free(0, p).has_value());
    const uint64_t q = heap.alloc(0, 0, 64);
    EXPECT_EQ(q, p); // delayed-UAF substrate: memory is reassigned
}

TEST(DeviceHeap, GroupAccountingAcrossFreeRealloc)
{
    // Free-then-realloc of the same extent must reuse the open buffer
    // group (no second group, no footprint growth) and re-mint the
    // extent record in place.
    MessageHeap heap(kDevice);
    const uint64_t p = heap.alloc(0, 0, 64);
    ASSERT_NE(p, 0u);
    const uint64_t footprint = heap.footprintBytes();
    ASSERT_FALSE(heap.free(0, p).has_value());
    const uint64_t q = heap.alloc(0, 0, 64);
    EXPECT_EQ(q, p);
    EXPECT_EQ(heap.groupCount(), 1u);
    EXPECT_EQ(heap.footprintBytes(), footprint);
    EXPECT_EQ(heap.liveReservedBytes(), 80u);
    const MessageHeap::Extent* e = heap.extentAt(q);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->epoch, 1u);
    EXPECT_TRUE(e->live);
}

TEST(DeviceHeap, FindLive)
{
    MessageHeap heap(kDevice);
    const uint64_t p = heap.alloc(0, 0, 100);
    const AllocBlock* hit = heap.findLive(p + 50);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->base, p);
    EXPECT_EQ(heap.findLive(p + 4096), nullptr);
}

TEST(Layout, PackedIsTight)
{
    const RegionLayout l = layoutBuffers(
        {{"a", 100}, {"b", 24}, {"c", 8}}, AllocPolicy::Packed);
    EXPECT_EQ(l.buffers[0].offset, 0u);
    EXPECT_EQ(l.buffers[1].offset, 112u); // 100 -> 112 (16B align)
    EXPECT_EQ(l.buffers[2].offset, 144u);
    EXPECT_EQ(l.total_bytes, 160u);
}

TEST(Layout, Pow2AlignsEachBuffer)
{
    const RegionLayout l = layoutBuffers(
        {{"a", 100}, {"b", 1000}}, AllocPolicy::Pow2Aligned);
    // b (1024) placed first at 0, a (256) after it.
    EXPECT_EQ(l.find("b").offset, 0u);
    EXPECT_EQ(l.find("b").reserved, 1024u);
    EXPECT_EQ(l.find("a").offset, 1024u);
    EXPECT_EQ(l.find("a").reserved, 256u);
    EXPECT_EQ(l.required_alignment, 1024u);
    EXPECT_EQ(l.total_bytes % l.required_alignment, 0u);
}

TEST(Layout, Pow2OffsetsAreSizeAligned)
{
    const RegionLayout l = layoutBuffers(
        {{"a", 300}, {"b", 600}, {"c", 5000}, {"d", 70}},
        AllocPolicy::Pow2Aligned);
    for (const auto& b : l.buffers)
        EXPECT_EQ(b.offset % b.reserved, 0u) << b.name;
}

TEST(Layout, FindUnknownBufferIsFatal)
{
    const RegionLayout l = layoutBuffers({{"a", 8}}, AllocPolicy::Packed);
    EXPECT_THROW(l.find("zzz"), FatalError);
}

/** A kernel that mallocs @p bytes, stores to it, frees it @p frees times. */
ir::IrModule
mallocFreeKernel(int64_t bytes, unsigned frees)
{
    using namespace ir;
    IrFunction f = IrBuilder::makeKernel("mf", {{"out", Type::ptr(8)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto p = b.malloc_(b.constInt(bytes), 4);
    b.store(b.gep(p, b.constInt(0)), b.constInt(7, Type::i32()));
    for (unsigned i = 0; i < frees; ++i)
        b.free_(p);
    b.ret();
    IrModule m;
    m.functions.push_back(std::move(f));
    return m;
}

/** Every exported `alloc.*` counter of @p dev. */
std::map<std::string, uint64_t>
allocCounters(Device& dev)
{
    std::map<std::string, uint64_t> out;
    for (const auto& [name, value] : dev.stats().counters())
        if (name.rfind("alloc.", 0) == 0)
            out[name] = value;
    return out;
}

/**
 * The allocator stat surface exported as sweep-JSON `counters`: host
 * allocations count on success with reserved/requested bytes, the
 * device heap counts malloc attempts and buffer groups, and under
 * quarantine the heap (not the host) still counts frees.
 */
TEST(AllocStats, ExportedCountersPerRole)
{
    struct Case
    {
        MechanismKind mech;
        std::map<std::string, uint64_t> expected;
    };
    const Case cases[] = {
        {MechanismKind::Baseline,
         {{"alloc.global.allocs", 2},
          {"alloc.global.frees", 1},
          {"alloc.global.requested_bytes", 6000},
          {"alloc.global.reserved_bytes", 1024 + 5120},
          {"alloc.heap.frees", 2},
          {"alloc.heap.groups", 1},
          {"alloc.heap.mallocs", 2}}},
        {MechanismKind::LmiLiveness,
         {{"alloc.global.allocs", 2},
          {"alloc.global.quarantined_bytes", 1024},
          {"alloc.global.requested_bytes", 6000},
          {"alloc.global.reserved_bytes", 1024 + 8192},
          {"alloc.heap.frees", 2},
          {"alloc.heap.mallocs", 2}}},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(mechanismKindName(c.mech));
        Device dev(makeMechanism(c.mech));
        uint64_t a = dev.cudaMalloc(1000);
        const uint64_t b = dev.cudaMalloc(5000);
        ASSERT_NE(a, 0u);
        ASSERT_NE(b, 0u);
        uint64_t stale = a;
        ASSERT_FALSE(dev.cudaFree(a).has_value());
        EXPECT_TRUE(dev.cudaFree(stale).has_value()); // host double free

        const CompiledKernel once =
            dev.compile(mallocFreeKernel(100, 1), "mf");
        EXPECT_FALSE(dev.launch(once, 1, 1, {b}).faulted());
        const CompiledKernel twice =
            dev.compile(mallocFreeKernel(64, 2), "mf");
        EXPECT_TRUE(dev.launch(twice, 1, 1, {b}).faulted()); // device
        EXPECT_EQ(allocCounters(dev), c.expected);
    }
}

} // namespace
} // namespace lmi
