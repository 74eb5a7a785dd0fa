/**
 * @file
 * The allocator: one serial heap serving both the host cudaMalloc()/
 * cudaFree() model (paper §V-B "Global Memory") and the in-kernel
 * malloc()/free() model (paper §IV-E, Fig. 5; §V-B "Heap Memory").
 *
 * The paper needs two placement policies, not two allocators:
 *
 *  - Packed, the baseline. A Host heap packs 256-byte-aligned blocks
 *    (the documented cudaMalloc minimum alignment), so 2^n + eps bytes
 *    reserve 2^n + 256. A Device heap rounds to Fig. 5 chunk units:
 *    multiples of 80 bytes for small requests and 2208 bytes for
 *    larger ones, carved from shared-header buffer groups sharded by
 *    warp — the pre-existing fragmentation of up to ~50% that makes
 *    LMI's rounding cheap in comparison.
 *  - Pow2Aligned, LMI. Both roles round to the next power of two >= K,
 *    size-aligned, so the returned pointer can carry its extent.
 *
 * The role fixes everything else: chunking, packed alignment, fault
 * strings and the exported stat surface (`alloc.global.*` for Host,
 * `alloc.heap.*` for Device).
 *
 * Structure (snmalloc-style, adapted to a deterministic simulator):
 *
 *  - An **epoch-stamped extent table**: one record per address range,
 *    ordered by base in a std::map (stable node addresses, O(log n)
 *    containment lookup). Reusing a range bumps its epoch and mints a
 *    fresh allocation id, so LMI bounds minting, fault attribution and
 *    the safety oracle's Live/Invalidated/Reallocated views survive
 *    arbitrary churn without unbounded history growth.
 *  - **Sizeclass-segregated freelists with per-context caches**: each
 *    context (an SM, or a churn driver's client) owns LIFO caches of
 *    recycled blocks, spilling to a shared central freelist when they
 *    overflow. The common alloc/free path is O(1).
 *  - **Remote frees**: a free issued by a context that does not own the
 *    block retires the extent record immediately (fault checks are
 *    synchronous) but parks the range in its owner's pending list
 *    until drainRemote(), which replays it in canonical (from, seq)
 *    order — at slice boundaries in the simulator — so placement stays
 *    byte-identical at every `sim_threads` count.
 *  - A first-fit coalescing **range allocator** underneath, carving
 *    slabs (Fig. 5 buffer groups in chunked mode) and serving "huge"
 *    blocks directly.
 *
 * Threading contract: all mutations (alloc/free/drainRemote) are
 * serial — the simulator performs them on the commit thread in
 * canonical op order. Lookups (findLive/findAny) are concurrent-read-
 * safe while no mutation runs, which is how the protection mechanisms
 * call them from SM worker threads mid-slice.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "alloc/range_alloc.hpp"
#include "alloc/sizeclass.hpp"
#include "common/stats.hpp"
#include "core/fault.hpp"
#include "core/pointer.hpp"

namespace lmi {

/** Block placement policy. */
enum class AllocPolicy : uint8_t {
    Packed,     ///< baseline: 256B packing (host), Fig. 5 chunks (device)
    Pow2Aligned ///< LMI: size rounded to 2^n and size-aligned
};

/** Which runtime allocator a heap models. */
enum class HeapRole : uint8_t {
    Host,  ///< cudaMalloc/cudaFree over the global region
    Device ///< in-kernel malloc/free over the device-heap region
};

/** One allocation record, as the mechanisms and tests see it. */
struct AllocBlock
{
    uint64_t base = 0;      ///< start VA (extent-stripped)
    uint64_t requested = 0; ///< bytes the caller asked for
    uint64_t reserved = 0;  ///< bytes the allocator consumed
    bool live = false;      ///< false after free
    uint64_t id = 0;        ///< monotonically increasing allocation id
};

/** Per-context local cache capacity (blocks per sizeclass). */
inline constexpr size_t kCacheCap = 64;

class MessageHeap
{
  public:
    /** Extent-table record: an AllocBlock plus reuse lineage. */
    struct Extent : AllocBlock
    {
        uint32_t epoch = 0;       ///< times this range has been re-minted
        uint32_t owner = 0;       ///< context whose freelists recycle it
        uint32_t cls = kHugeClass;
    };

    struct Config
    {
        HeapRole role = HeapRole::Host;
        AllocPolicy policy = AllocPolicy::Packed;
        /** Managed region; a zero size selects the role's region of the
         *  memory map (global minus the heap, or the heap). */
        uint64_t region_base = 0;
        uint64_t region_size = 0;
        /** Encode the LMI extent into returned pointers (Pow2Aligned). */
        bool encode_extent = false;
        /**
         * One-time allocation (Markus/FFmalloc style, §XII-C): freed
         * ranges are never recycled, so stale aliases can never point
         * at a new owner.
         */
        bool quarantine_frees = false;
        /** Contexts with private caches (one per SM). */
        unsigned contexts = 1;
    };

    /** Remote-free counters (bench/bench_alloc_throughput). */
    struct RemoteStats
    {
        uint64_t posted = 0;      ///< remote frees issued
        uint64_t drained = 0;     ///< frees replayed by drains
        uint64_t drain_calls = 0; ///< drains that found work
    };

    explicit MessageHeap(Config config, StatRegistry* stats = nullptr);

    /**
     * Context @p ctx (thread @p tid for warp-shard locality) allocates
     * @p size bytes. @return the (possibly extent-encoded) pointer, or
     * 0 on exhaustion.
     */
    uint64_t alloc(uint32_t ctx, uint32_t tid, uint64_t size);

    /**
     * Context @p ctx frees @p ptr. The extent is retired synchronously;
     * a block owned by another context is recycled at the next drain.
     * @return InvalidFree/DoubleFree faults; nullopt on success.
     */
    MaybeFault free(uint32_t ctx, uint64_t ptr);

    /**
     * Replay all pending remote frees in canonical (from, seq) order.
     * Called at slice boundaries (and by the alloc slow path before
     * reporting exhaustion).
     */
    void drainRemote();

    /** Find the live extent containing @p addr. */
    const Extent* findLive(uint64_t addr) const;

    /** Find the extent (live or retired) containing @p addr — the
     *  allocator's ground truth for fault classification. */
    const Extent* findAny(uint64_t addr) const;

    /** Exact-base lookup (live or retired). */
    const Extent* extentAt(uint64_t base) const;

    uint64_t liveReservedBytes() const { return live_reserved_; }
    uint64_t liveRequestedBytes() const { return live_requested_; }
    /** Peak of the sum of reserved bytes (Fig. 4 RSS proxy). */
    uint64_t peakReservedBytes() const { return peak_reserved_; }

    /** Fig. 5 buffer groups opened so far (chunked mode). */
    size_t groupCount() const { return group_count_; }
    /** Non-chunked slabs carved so far. */
    size_t slabCount() const { return slab_count_; }
    /** Extent-table records currently held. */
    size_t extentCount() const { return extents_.size(); }

    /** Bytes carved out of the region (slabs + groups + huge blocks). */
    uint64_t footprintBytes() const { return footprint_; }
    uint64_t peakFootprintBytes() const { return peak_footprint_; }
    /** Recycled blocks parked in caches + central freelists. */
    uint64_t cachedBlocks() const { return cached_blocks_; }
    /** Remote frees still waiting for a drain. */
    uint64_t remotePending() const
    {
        return remote_stats_.posted - remote_stats_.drained;
    }

    const RemoteStats& remoteStats() const { return remote_stats_; }

  private:
    /** Rounded shape of one request. */
    struct Shape
    {
        uint64_t reserved = 0;
        uint64_t align = 0;
        uint32_t cls = kHugeClass;
        uint64_t chunk = 0;
        unsigned chunks = 0;
    };

    /** Chunked-mode bump group (a Fig. 5 buffer group being filled). */
    struct OpenGroup
    {
        uint64_t base = 0;   ///< storage start (after header)
        uint64_t chunk = 0;  ///< chunk unit
        unsigned cursor = 0; ///< chunks carved so far
    };

    /** Non-chunked bump slab for one sizeclass. */
    struct OpenSlab
    {
        uint64_t cursor = 0;
        uint64_t end = 0;
    };

    /** One remote free awaiting its owner's drain. */
    struct RemoteMsg
    {
        uint64_t base = 0; ///< extent base being returned to its owner
        uint32_t cls = 0;  ///< sizeclass index (owner-side freelist key)
        uint32_t from = 0; ///< freeing context
        uint64_t seq = 0;  ///< per-`from` monotonic stamp
    };

    struct CtxState
    {
        /** [cls] -> LIFO of recycled block bases. */
        std::vector<std::vector<uint64_t>> cache;
        /** [shard*2 + unit] -> open chunked groups. */
        std::vector<std::vector<OpenGroup>> groups;
        /** [cls] -> open bump slab. */
        std::vector<OpenSlab> open;
        /** Remote frees of blocks this context owns, in post order. */
        std::vector<RemoteMsg> pending;
        uint64_t next_seq = 0;
    };

    bool chunked() const
    {
        return config_.role == HeapRole::Device &&
               config_.policy == AllocPolicy::Packed;
    }
    bool encodes() const
    {
        return config_.policy == AllocPolicy::Pow2Aligned &&
               config_.encode_extent;
    }
    void count(const std::string& name, uint64_t delta = 1);

    Shape shapeFor(uint64_t size);
    uint64_t acquire(uint32_t ctx, uint32_t tid, const Shape& s);
    uint64_t carveFromGroup(uint32_t ctx, uint32_t tid, const Shape& s);
    uint64_t carveFromSlab(uint32_t ctx, const Shape& s);
    uint64_t carveRange(uint64_t bytes, uint64_t align);
    void pushLocal(uint32_t ctx, uint32_t cls, uint64_t base);
    void mintExtent(uint64_t base, const Shape& s, uint32_t ctx,
                    uint64_t requested);

    Config config_;
    StatRegistry* stats_;
    RangeAllocator range_;
    SizeClassRegistry classes_;
    /** Extent table: base -> record, ranges never overlapping. */
    std::map<uint64_t, Extent> extents_;
    std::vector<CtxState> ctx_;
    /** [cls] -> overflow freelist shared by all contexts. */
    std::vector<std::vector<uint64_t>> central_;

    uint64_t live_reserved_ = 0;
    uint64_t live_requested_ = 0;
    uint64_t peak_reserved_ = 0;
    uint64_t footprint_ = 0;
    uint64_t peak_footprint_ = 0;
    uint64_t cached_blocks_ = 0;
    size_t group_count_ = 0;
    size_t slab_count_ = 0;
    uint64_t next_id_ = 1;
    RemoteStats remote_stats_;
};

} // namespace lmi
