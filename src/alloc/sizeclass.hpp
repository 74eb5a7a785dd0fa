/**
 * @file
 * Sizeclass machinery and Fig. 5 chunk geometry for the allocator.
 *
 * Every recyclable block belongs to exactly one sizeclass, identified
 * by its reserved (rounded) byte size. Rounding preserves the three
 * historical policies bit-for-bit:
 *
 *  - Fig. 5 chunked (device heap, Packed): multiples of the 80-byte
 *    small chunk for requests <= 1024 bytes, multiples of the
 *    2208-byte large chunk above, with requests needing more than one
 *    group (128 chunks) placed as dedicated "huge" blocks rounded to a
 *    chunk multiple.
 *  - Packed (host cudaMalloc): alignUp(max(size,1), 256).
 *  - Pow2Aligned (LMI): PointerCodec::alignedSize — next power of two
 *    >= K, size-aligned so the extent fits in pointer bits.
 *
 * Blocks whose reserved size exceeds kMaxSlabBlock bypass sizeclass
 * freelists entirely and are carved/coalesced directly in the range
 * allocator ("huge" class). The ceiling is generous (256 KiB) because
 * the heap is simulated: a freelisted block costs one list entry, not
 * resident memory, and host-side cudaMalloc churn lives in the
 * 64-256 KiB band where first-fit hole scans would dominate.
 */

#pragma once

#include <cstdint>
#include <unordered_map>

namespace lmi {

/** Sentinel class index for range-allocator-direct (huge) blocks. */
inline constexpr uint32_t kHugeClass = UINT32_MAX;

/** Largest reserved size served from slab freelists (non-chunked). */
inline constexpr uint64_t kMaxSlabBlock = 256 * 1024;

/** Target slab footprint: a slab holds ~kSlabBytes/reserved blocks. */
inline constexpr uint64_t kSlabBytes = 64 * 1024;

// Fig. 5 chunk geometry of the CUDA in-kernel allocator (paper §IV-E).
/** Chunk unit for requests up to kSmallChunkLimit bytes. */
inline constexpr uint64_t kSmallChunk = 80;
/** Chunk unit for larger requests. */
inline constexpr uint64_t kLargeChunk = 2208;
inline constexpr uint64_t kSmallChunkLimit = 1024;
/** Chunks per buffer group; longer runs get dedicated placement. */
inline constexpr unsigned kChunksPerGroup = 128;
/** Bytes of group header shared by a group's buffers. */
inline constexpr uint64_t kGroupHeader = 128;

constexpr uint64_t
chunkUnitFor(uint64_t size)
{
    return size <= kSmallChunkLimit ? kSmallChunk : kLargeChunk;
}

/**
 * Registry of sizeclasses, created on demand. Indices are assigned in
 * first-seen order, which is deterministic because every mutation of
 * the allocator happens in canonical op order.
 */
class SizeClassRegistry
{
  public:
    /** Class for @p reserved bytes, creating it on first sight. */
    uint32_t
    classFor(uint64_t reserved)
    {
        return index_.try_emplace(reserved, uint32_t(index_.size()))
            .first->second;
    }

  private:
    std::unordered_map<uint64_t, uint32_t> index_;
};

} // namespace lmi
