/**
 * @file
 * Allocation-churn workload family for the allocator (MessageHeap).
 *
 * Two layers:
 *
 *  - **Allocator-level churn** (`runChurn`): a deterministic
 *    alloc/free driver hammering a MessageHeap of either role directly
 *    — millions of operations, mixed sizeclasses, cross-context frees
 *    that exercise the remote-free replay, and optional stale frees
 *    that land on retired or reallocated extents (the temporal-safety
 *    churn the extent table's epoch stamping exists for).
 *    `churnBasket()` is the fixed 6-spec basket tracked by
 *    bench/bench_alloc_throughput.
 *
 *  - **Kernel-level churn** (`buildChurnFillKernel` /
 *    `buildChurnDrainKernel`): a pair of IR kernels that malloc from
 *    inside one launch, publish the pointers through a global table,
 *    and free them from *shifted* thread indices in a second launch —
 *    so frees are issued by a different SM than the allocating one and
 *    wait for the owner's slice-boundary drain. Used by the
 *    byte-identity tests: results must be identical for every
 *    `sim_threads` value.
 *
 * Everything random flows through the seeded SplitMix64 Rng; the same
 * spec always produces the same operation sequence, the same pointer
 * stream, and the same `digest`.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/msg_heap.hpp"
#include "ir/ir.hpp"

namespace lmi {

/** One uniform size band; requests draw a band, then a size in it. */
struct ChurnMix
{
    uint64_t lo = 0;
    uint64_t hi = 0;
};

/** One churn scenario (deterministic given the seed). */
struct ChurnSpec
{
    std::string name;
    /** Device role (in-kernel malloc) vs Host role (cudaMalloc). */
    bool device_heap = true;
    AllocPolicy policy = AllocPolicy::Packed;
    bool encode_extent = false;
    uint64_t ops = 0;
    /** Allocator contexts (SMs / runner jobs) issuing ops. */
    unsigned contexts = 1;
    /** Steady-state live-block population the driver aims for. */
    unsigned live_target = 0;
    std::vector<ChurnMix> mix;
    /** P(free issued by a random context instead of the owner). */
    double cross_free = 0.0;
    /** P(a free op replays a stale (already freed) handle). */
    double stale_free = 0.0;
    uint64_t seed = 0;
};

/** Everything a churn run measures. */
struct ChurnResult
{
    uint64_t ops = 0;
    uint64_t allocs = 0;
    uint64_t frees = 0;
    uint64_t oom = 0;          ///< allocs that returned 0
    uint64_t stale_faults = 0; ///< stale frees caught (Double/InvalidFree)
    uint64_t unexpected_faults = 0; ///< live frees that faulted (bug)
    uint64_t live_at_end = 0;

    /** End-state allocator occupancy. */
    uint64_t live_reserved = 0;
    uint64_t footprint = 0;
    uint64_t peak_footprint = 0;
    uint64_t cached_blocks = 0;
    uint64_t groups = 0;
    uint64_t slabs = 0;
    uint64_t extents = 0;

    /** Remote-free counters. */
    uint64_t remote_posted = 0;
    uint64_t remote_drained = 0;
    uint64_t drain_calls = 0;

    /** 1 - live_reserved/footprint: carved bytes not backing live data
     *  (caches + retired extents awaiting reuse). */
    double fragmentation = 0.0;
    double wall_ms = 0.0;

    /** FNV-1a over every returned pointer and fault kind: two runs of
     *  the same spec must agree bit-for-bit. */
    uint64_t digest = 0;

    double
    opsPerSec() const
    {
        return wall_ms > 0.0 ? double(ops) / (wall_ms / 1000.0) : 0.0;
    }
};

/**
 * The tracked 6-spec basket: small/mixed/cross-SM device-heap churn,
 * packed and pow2 global churn, and a temporal (stale-free) scenario.
 */
const std::vector<ChurnSpec>& churnBasket();

/** Find a basket spec by name; throws FatalError when unknown. */
const ChurnSpec& findChurnSpec(const std::string& name);

/**
 * Run @p spec against a freshly constructed allocator. Remote frees
 * are drained every @p drain_interval operations (the slice-boundary
 * model) and once at the end.
 */
ChurnResult runChurn(const ChurnSpec& spec, unsigned drain_interval = 256);

/** Scale a spec's op count (fractional @p scale shortens CI runs). */
ChurnSpec scaleChurnSpec(const ChurnSpec& spec, double scale);

/**
 * Kernel-level churn, phase 1: every thread performs @p rounds
 * malloc(+store) operations; odd rounds free immediately (local
 * churn), even rounds publish the pointer to `table[gtid*rounds + r]`
 * (0 in odd slots).
 *
 * Kernel: `churn_fill(table: ptr<8>)`.
 */
ir::IrModule buildChurnFillKernel(unsigned rounds);

/**
 * Kernel-level churn, phase 2: every thread frees the *neighbouring
 * block's* published pointers — victim gtid = gtid XOR
 * @p block_threads (must be a power of two; launch an even number of
 * blocks) — so each free lands on an SM that does not own the chunk
 * and is recycled only at the owner's next drain.
 *
 * Kernel: `churn_drain(table: ptr<8>)`.
 */
ir::IrModule buildChurnDrainKernel(unsigned rounds,
                                   unsigned block_threads);

} // namespace lmi
