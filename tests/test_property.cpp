/**
 * @file
 * Randomized property tests over the core invariants:
 *
 *  - microcode pack/unpack is the identity on every encodable
 *    instruction (randomized over opcodes, operands, hints, offsets);
 *  - the OCU never poisons an in-bounds update and always poisons an
 *    out-of-bounds one, for random buffers and offsets;
 *  - allocators never hand out overlapping live blocks, alignment and
 *    extent invariants hold under random alloc/free interleavings, and
 *    accounting stays consistent;
 *  - the liveness tracker's view matches a reference set under random
 *    traffic;
 *  - the 2^n layout engine never overlaps buffers and always size-aligns.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

// GCC 12's -Wrestrict false-positives on libstdc++'s inlined string
// append inside gtest assertion expansions (GCC bug 105651); harmless
// here, but it breaks the -Werror lint build.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

#include "alloc/layout.hpp"
#include "alloc/msg_heap.hpp"
#include "arch/microcode.hpp"
#include "common/rng.hpp"
#include "core/liveness.hpp"
#include "core/ocu.hpp"

namespace lmi {
namespace {

TEST(Property, MicrocodeRoundTripRandomized)
{
    Rng rng(0xC0DE);
    const Opcode ops[] = {Opcode::IADD,  Opcode::IADD3, Opcode::ISUB,
                          Opcode::IMUL,  Opcode::IMAD,  Opcode::IMNMX,
                          Opcode::SHL,   Opcode::SHR,   Opcode::LOP_AND,
                          Opcode::LOP_OR, Opcode::LOP_XOR, Opcode::MOV,
                          Opcode::ISETP, Opcode::FADD,  Opcode::FMUL,
                          Opcode::FFMA,  Opcode::LDG,   Opcode::STG,
                          Opcode::LDS,   Opcode::STS,   Opcode::LDL,
                          Opcode::STL,   Opcode::BAR,   Opcode::NOP};

    unsigned tested = 0;
    for (unsigned trial = 0; trial < 5000; ++trial) {
        Instruction inst;
        inst.op = ops[rng.below(std::size(ops))];
        inst.dst = int(rng.below(240));
        inst.guard_pred = rng.chance(0.2) ? int(rng.below(8)) : kNoPred;
        inst.guard_neg = rng.chance(0.5);
        inst.cmp = CmpOp(rng.below(6));
        inst.width = rng.chance(0.5) ? 4 : 8;
        inst.imm_offset = int64_t(rng.range(0, 1 << 20)) -
                          int64_t(1 << 19);
        inst.hints.active = rng.chance(0.3) && isIntAlu(inst.op);
        inst.hints.pointer_operand = rng.below(2);

        const unsigned nsrc = rng.below(unsigned(kMaxSrcs) + 1);
        for (unsigned i = 0; i < nsrc; ++i) {
            switch (rng.below(3)) {
              case 0:
                inst.src[i] = Operand::reg(unsigned(rng.below(240)));
                break;
              case 1:
                inst.src[i] = Operand::imm(rng.below(0xFFFFFFFFull));
                break;
              case 2:
                inst.src[i] = Operand::cbank(rng.below(0x800) * 8);
                break;
            }
        }
        if (!isEncodable(inst))
            continue; // e.g. two wide immediates — rejection is correct
        ++tested;

        const Instruction back = unpackMicrocode(packMicrocode(inst));
        ASSERT_EQ(back.op, inst.op);
        ASSERT_EQ(back.dst, inst.dst);
        ASSERT_EQ(back.guard_pred, inst.guard_pred);
        ASSERT_EQ(back.guard_neg, inst.guard_neg);
        ASSERT_EQ(back.cmp, inst.cmp);
        ASSERT_EQ(back.width, inst.width);
        ASSERT_EQ(back.imm_offset, inst.imm_offset);
        ASSERT_EQ(back.hints.active, inst.hints.active);
        if (inst.hints.active) {
            ASSERT_EQ(back.hints.pointer_operand,
                      inst.hints.pointer_operand);
        }
        for (unsigned i = 0; i < kMaxSrcs; ++i) {
            ASSERT_EQ(back.src[i].kind, inst.src[i].kind);
            ASSERT_EQ(back.src[i].value, inst.src[i].value);
        }
    }
    EXPECT_GT(tested, 3000u) << "too few encodable samples";
}

TEST(Property, OcuBoundaryRandomized)
{
    Rng rng(0xBEEF);
    const PointerCodec codec;
    Ocu ocu(codec);
    for (unsigned trial = 0; trial < 20000; ++trial) {
        const unsigned e = unsigned(rng.range(1, 20));
        const uint64_t size = codec.sizeForExtent(e);
        const uint64_t base = size * rng.range(1, 64);
        const uint64_t inner = rng.below(size);
        const uint64_t ptr = codec.encode(base + inner, size);

        // In-bounds update: never a violation.
        const uint64_t in_target = base + rng.below(size);
        const OcuResult ok = ocu.check(ptr, (ptr & kExtentMask) | in_target);
        ASSERT_FALSE(ok.violation)
            << "e=" << e << " base=" << base << " tgt=" << in_target;

        // Out-of-bounds update: always a violation.
        const bool above = rng.chance(0.5);
        const uint64_t out_target =
            above ? base + size + rng.below(size * 2)
                  : base - 1 - rng.below(std::min<uint64_t>(base - 1,
                                                            size));
        const OcuResult bad =
            ocu.check(ptr, (ptr & kExtentMask) | (out_target & kAddressMask));
        ASSERT_TRUE(bad.violation)
            << "e=" << e << " base=" << base << " tgt=" << out_target;
        ASSERT_EQ(PointerCodec::extentOf(bad.out), kPoisonSpatial);
    }
}

TEST(Property, GlobalAllocatorRandomTrafficInvariants)
{
    for (AllocPolicy policy :
         {AllocPolicy::Packed, AllocPolicy::Pow2Aligned}) {
        SCOPED_TRACE(policy == AllocPolicy::Packed ? "packed" : "pow2");
        MessageHeap alloc(
            {.role = HeapRole::Host,
             .policy = policy,
             .encode_extent = policy == AllocPolicy::Pow2Aligned});
        const PointerCodec codec;

        Rng rng(1234);
        std::map<uint64_t, uint64_t> live; // base -> reserved
        std::vector<uint64_t> handles;
        uint64_t expected_reserved = 0;

        for (unsigned step = 0; step < 4000; ++step) {
            if (handles.empty() || rng.chance(0.6)) {
                const uint64_t size = rng.range(1, 256 * 1024);
                const uint64_t ptr = alloc.alloc(0, 0, size);
                ASSERT_NE(ptr, 0u);
                const uint64_t base = PointerCodec::addressOf(ptr);
                const AllocBlock* block = alloc.findLive(base);
                ASSERT_NE(block, nullptr);
                ASSERT_EQ(block->base, base);
                ASSERT_GE(block->reserved, size);

                if (policy == AllocPolicy::Pow2Aligned) {
                    ASSERT_TRUE(PointerCodec::isValid(ptr));
                    ASSERT_EQ(codec.sizeOf(ptr), block->reserved);
                    ASSERT_EQ(base % block->reserved, 0u);
                }
                // No overlap with any live block.
                auto next = live.lower_bound(base);
                if (next != live.end()) {
                    ASSERT_LE(base + block->reserved, next->first);
                }
                if (next != live.begin()) {
                    auto prev = std::prev(next);
                    ASSERT_LE(prev->first + prev->second, base);
                }
                live[base] = block->reserved;
                handles.push_back(ptr);
                expected_reserved += block->reserved;
            } else {
                const size_t victim = rng.below(handles.size());
                const uint64_t ptr = handles[victim];
                const uint64_t base =
                    policy == AllocPolicy::Pow2Aligned
                        ? codec.baseOf(ptr)
                        : PointerCodec::addressOf(ptr);
                expected_reserved -= live.at(base);
                live.erase(base);
                ASSERT_FALSE(alloc.free(0, ptr).has_value());
                handles.erase(handles.begin() + long(victim));
            }
            ASSERT_EQ(alloc.liveReservedBytes(), expected_reserved);
        }
    }
}

TEST(Property, LivenessMatchesReferenceSet)
{
    Rng rng(77);
    LivenessTracker tracker;
    const PointerCodec codec;
    std::set<uint64_t> reference; // live bases
    std::vector<std::pair<uint64_t, uint64_t>> live; // (ptr, size)
    uint64_t cursor = uint64_t(1) << 32;

    for (unsigned step = 0; step < 3000; ++step) {
        if (live.empty() || rng.chance(0.55)) {
            const uint64_t size = uint64_t(256) << rng.below(8);
            cursor = alignUp(cursor, size);
            const uint64_t ptr = codec.encode(cursor, size);
            cursor += size;
            tracker.onMalloc(ptr);
            reference.insert(codec.baseOf(ptr));
            live.emplace_back(ptr, size);
        } else {
            const size_t victim = rng.below(live.size());
            const auto [ptr, size] = live[victim];
            ASSERT_FALSE(tracker.onFree(ptr).has_value());
            reference.erase(codec.baseOf(ptr));
            live.erase(live.begin() + long(victim));
        }
        ASSERT_EQ(tracker.membershipEntries(), reference.size());
        // Spot-check membership through interior pointers.
        if (!live.empty()) {
            const auto [ptr, size] = live[rng.below(live.size())];
            ASSERT_TRUE(tracker.isLive(ptr + rng.below(size)));
        }
    }
}

TEST(Property, LayoutNeverOverlapsRandomized)
{
    Rng rng(99);
    for (unsigned trial = 0; trial < 300; ++trial) {
        std::vector<BufferSpec> specs;
        const unsigned n = unsigned(rng.range(1, 12));
        for (unsigned i = 0; i < n; ++i)
            specs.push_back({"b" + std::to_string(i),
                             rng.range(1, 64 * 1024)});
        for (AllocPolicy policy :
             {AllocPolicy::Packed, AllocPolicy::Pow2Aligned}) {
            const RegionLayout layout = layoutBuffers(specs, policy);
            std::vector<std::pair<uint64_t, uint64_t>> spans;
            for (const auto& b : layout.buffers) {
                ASSERT_GE(b.reserved, b.requested);
                ASSERT_LE(b.offset + b.reserved, layout.total_bytes);
                if (policy == AllocPolicy::Pow2Aligned) {
                    ASSERT_EQ(b.offset % b.reserved, 0u) << b.name;
                }
                spans.emplace_back(b.offset, b.offset + b.reserved);
            }
            std::sort(spans.begin(), spans.end());
            for (size_t i = 1; i < spans.size(); ++i)
                ASSERT_LE(spans[i - 1].second, spans[i].first);
        }
    }
}

TEST(Property, PointerCodecAlignedSizeIsMonotonic)
{
    const PointerCodec codec;
    uint64_t prev = 0;
    for (uint64_t size = 1; size <= (1 << 22); size += 997) {
        const uint64_t aligned = codec.alignedSize(size);
        ASSERT_GE(aligned, size);
        ASSERT_GE(aligned, prev >= size ? 0 : prev);
        ASSERT_TRUE(isPow2(aligned));
        prev = aligned;
    }
}

} // namespace
} // namespace lmi
