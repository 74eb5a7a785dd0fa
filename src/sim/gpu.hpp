/**
 * @file
 * The cycle-level GPU engine.
 *
 * Functional-plus-timing simulation of the Table IV machine:
 *
 *  - blocks are distributed round-robin over SMs and executed in
 *    residency-limited waves;
 *  - each SM runs four greedy-then-oldest (GTO) warp schedulers over its
 *    resident warps, with a per-warp register scoreboard deciding
 *    readiness;
 *  - SIMT divergence uses a reconvergence stack (continue the lower-PC
 *    path, merge when the live path reaches the pushed PC);
 *  - memory instructions coalesce per-warp into line transactions that
 *    probe a per-SM L1, a device-wide L2, and a bandwidth-modeled HBM;
 *  - the active ProtectionMechanism is invoked at the OCU point (hinted
 *    integer results), the LSU point (every access), allocation events,
 *    and kernel end.
 *
 * Execution model — slice-synchronous, deterministically parallel:
 *
 * SMs only interact through global memory, the shared L2 and the device
 * heap. Execution therefore proceeds in fixed slices of kSliceCycles
 * cycles. Within a slice every SM steps privately against a frozen view
 * of the shared state: global stores go to a per-SM copy-on-write page
 * overlay and a store log, L2 lookups are read-only probes against the
 * frozen tag array (plus the SM's own lines touched this slice), and
 * device malloc/free park the issuing warp. At the slice barrier a
 * single thread commits everything in canonical (sm_id, seq) order:
 * store logs replay into the base memory, L2 probes replay through the
 * real LRU array, heap ops execute and unpark their warps, and the
 * earliest fault (by cycle, then SM id, then issue order) aborts the
 * launch. Because each SM's slice depends only on its own state and the
 * frozen shared snapshot, and the commit order is fixed, results are
 * byte-identical for every `sim_threads` value — the worker pool only
 * changes which host thread steps which SM. See DESIGN.md
 * ("Deterministic parallel execution").
 *
 * Hot-path engineering (see DESIGN.md):
 *
 *  - a per-instruction decode table (InstDesc) resolves operand kinds,
 *    scoreboard register lists, and constant-bank reads once per launch
 *    instead of once per lane per dynamic instruction;
 *  - the per-lane register file is laid out register-major (SoA), so the
 *    lane loop of one instruction walks contiguous memory, and holds
 *    only the registers the program names (renumbered densely into a
 *    private copy of the code);
 *  - each SM's arenas and first wave of blocks are set up by its first
 *    slice, on whichever worker steps it, not serially before the pool
 *    starts;
 *  - each warp caches its issue-readiness cycle (Warp::ready_at),
 *    refreshed only where its inputs change, so the GTO pick and the
 *    stall fast-forward read one field per warp;
 *  - per-thread local and per-block shared memories live in dense,
 *    residency-bounded per-SM arenas reused across waves (slots are
 *    zero-reset on reuse), replacing per-access hash-map lookups; a
 *    local slot is a LocalMemory with line-sized (128 B) pages, since
 *    each of a launch's threads touches only a few dozen stack bytes
 *    and a 4 KiB page per thread would dominate peak memory;
 *  - the SM loop is gated by live/barrier/retire counters so block
 *    retirement scans, admission and barrier release run only on the
 *    cycles where they can act, and per-scheduler sleep targets allow
 *    exact stall fast-forward across slice boundaries;
 *  - coalescer transaction lists use a per-SM reusable scratch buffer.
 */

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "arch/isa.hpp"
#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/launch_options.hpp"
#include "sim/mechanism.hpp"
#include "sim/mem_event.hpp"
#include "sim/memory.hpp"
#include "sim/result.hpp"

namespace lmi {

/** One kernel launch request: the grid, the kernel parameters and the
 *  caller's options (tier, thread budget, dynamic shared memory,
 *  observer). */
struct Launch
{
    unsigned grid_blocks = 1;
    unsigned block_threads = 32;
    std::vector<uint64_t> params;
    LaunchOptions options;
};

/**
 * Effective worker count for @p config: sim_threads if nonzero, else
 * the LMI_SIM_THREADS environment variable, else 1 (unset and 0 both
 * mean 1). Throws FatalError naming the variable when it is set to
 * anything but a decimal unsigned integer. (The simulator additionally
 * caps the count at the number of active SMs per launch.)
 */
unsigned resolveSimThreads(const GpuConfig& config);

/**
 * Executes one launch. Construct per launch.
 */
class GpuSim
{
  public:
    GpuSim(const GpuConfig& config, ProtectionMechanism& mech,
           SparseMemory& global_mem, MessageHeap& heap,
           const Program& program, Launch launch);
    ~GpuSim(); // out of line: members of internal (incomplete) types

    /** Run to completion (or first fault) and return the result. */
    RunResult run();

  private:
    struct Warp;
    struct BlockCtx;
    struct SmCtx;
    struct InstDesc;
    struct ResolvedSrc;
    class GlobalMemView;
    class WorkerPool;

    /**
     * Slice length in cycles: the granularity at which SMs observe each
     * other's global stores, L2 fills and heap operations. Part of the
     * canonical machine semantics (identical for every thread count),
     * not a tuning knob.
     */
    static constexpr uint64_t kSliceCycles = 256;

    /**
     * Cross-slice write tracking for one global page: the last slice
     * anyone stored to it, who (−1 = more than one SM in that slice),
     * and the most recent slice a *different* SM than `writer` did. A
     * per-SM overlay page synced through slice S is stale iff a write
     * it would not have produced itself landed after S.
     */
    struct PageStamp
    {
        uint64_t slice = 0;       ///< last slice with a store (0 = never)
        uint64_t other_slice = 0; ///< last store by someone != writer
        int32_t writer = -1;      ///< sole writer in `slice`, or -1
    };

    void buildDecodeTable();
    ResolvedSrc resolveSrc(const Warp& warp, const InstDesc& d,
                           unsigned idx) const;
    /** Step one SM privately up to the end of slice @p slice_no,
     *  dispatching to the detailed or functional stepper per the
     *  launch tier. */
    void stepSmSlice(SmCtx& sm, uint64_t slice_no);
    /** The cycle-level stepper (the reference machine). */
    void stepSmSliceDetailed(SmCtx& sm, uint64_t slice_no);
    /**
     * The functional stepper: executes up to one slice budget of
     * warp instructions round-robin with full architectural
     * and mechanism semantics but no timing, then pins the SM clock to
     * the slice boundary. Shares commitSlice with the detailed path,
     * so cross-SM visibility and determinism guarantees carry over.
     */
    void stepSmSliceFunctional(SmCtx& sm, uint64_t slice_no);
    /** Run @p warp functionally until it blocks or @p budget hits 0. */
    void runWarpFunctional(SmCtx& sm, Warp& warp, uint64_t& budget);
    /** Functional tier's stand-in for the wall-clock max-cycle: the
     *  issue bound of the busiest SM. */
    uint64_t estimateCycles(const std::vector<SmCtx>& sms) const;
    /**
     * Single-threaded slice barrier: replay store logs and L2 probes,
     * execute deferred heap ops, resolve the fault winner — all in
     * canonical (sm_id, seq) order. @return true when the launch
     * aborts on a fault.
     */
    bool commitSlice(std::vector<SmCtx>& sms, uint64_t slice_no);
    unsigned resolveThreads(unsigned used_sms) const;
    /** One issue step; @p kFunctional skips the timing model. The
     *  false instantiation is the historical detailed issue path. */
    template <bool kFunctional> void issueWarpT(SmCtx& sm, Warp& warp);
    /**
     * The LSU, one routine for both tiers: per lane, the mechanism
     * check (faults pend here), the architectural load/store, the
     * observers and the Fig. 1 region counters. The detailed
     * instantiation also collects coalesced lines and runs lsuTiming;
     * the functional one compiles all timing out, so memory contents
     * and faults are tier-invariant by construction.
     */
    template <bool kFunctional>
    void executeMemory(SmCtx& sm, Warp& warp, const Instruction& inst);
    /** Detailed-tier LSU timing for the lines executeMemory collected:
     *  port occupancy, L1/L2/DRAM latency, destination ready cycle. */
    void lsuTiming(SmCtx& sm, Warp& warp, const Instruction& inst,
                   MemSpace space, unsigned extra, unsigned serialized);
    /**
     * Scoped atomic execution (ATOM*, CAS*); @p kFunctional skips the
     * result latency. Shared-memory atomics are SM-private and execute
     * immediately; global atomics run their mechanism checks now but
     * defer the read-modify-write to the slice barrier (shared,
     * order-dependent state — same treatment as heap ops), parking the
     * warp until then.
     */
    template <bool kFunctional>
    void executeAtomic(SmCtx& sm, Warp& warp, const Instruction& inst);
    /** The mechanism's view of one LSU access (per-lane fields unset). */
    MemAccess lsuAccess(const SmCtx& sm, const Instruction& inst,
                        MemSpace space, bool writes, unsigned width) const;
    /**
     * The one emission point for executed accesses (loads, stores and
     * atomics in every space, both tiers; callers check obs_).
     * @p value / @p value2 are the store value / RMW operand / CAS
     * desired and the loaded value / CAS expected.
     */
    void observeAccess(SmCtx& sm, const Warp& warp, const Instruction& inst,
                       MemSpace space, uint32_t gtid, uint64_t addr,
                       unsigned width, bool writes, uint64_t value,
                       uint64_t value2);
    /** The emission point for every other event (barrier arrival and
     *  release, fence, block retire, device malloc/free): stamps the SM
     *  id on @p e. Callers check obs_; barrier and fence seqs are drawn
     *  only when an observer is attached. */
    void logEvent(const SmCtx& sm, MemEvent e);
    void admitBlocks(SmCtx& sm);
    void retireBlocks(SmCtx& sm);
    void markWarpDone(SmCtx& sm, Warp& warp);
    void releaseBarriers(SmCtx& sm);
    /** Earliest cycle @p warp can issue; cached in Warp::ready_at. */
    uint64_t warpReadyAt(const Warp& warp) const;
    /** Queue @p fault as this SM's pending fault and stop its slice. */
    void pendFault(SmCtx& sm, Fault fault);

    const GpuConfig& config_;
    ProtectionMechanism& mech_;
    SparseMemory& global_mem_;
    MessageHeap& heap_;
    const Program& program_;
    Launch launch_;
    /** launch_.options.observer: null on every unobserved launch. */
    LaunchObserver* const obs_;

    /** program_.code with registers renumbered densely (0..nregs_-1);
     *  decode and issue read this copy. */
    std::vector<Instruction> code_;
    /** Distinct registers the program names: rows per register file. */
    unsigned nregs_ = 0;
    unsigned warps_per_block_ = 0;
    bool uses_local_ = false; ///< any local-memory instruction
    uint64_t dyn_shared_base_ = 0;
    std::vector<uint8_t> cbank_;
    CacheModel l2_;
    RunResult result_;

    /** Per-instruction predecoded operand/scoreboard metadata. */
    std::vector<InstDesc> idesc_;

    /** Global-page write stamps, updated only at slice barriers. */
    std::unordered_map<uint64_t, PageStamp> page_stamps_;
};

} // namespace lmi
