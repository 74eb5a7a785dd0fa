/**
 * @file
 * Benchmark suite (paper Table V), reproduced as profile-driven
 * synthetic kernels.
 *
 * The paper drives MacSim with NVBit traces of 28 real CUDA benchmarks
 * (Rodinia, Tango, FasterTransformer, autonomous-driving models). Those
 * binaries and traces are unavailable offline, so each benchmark is
 * replaced by a kernel generated from a profile capturing exactly the
 * characteristics the paper's results depend on:
 *
 *  - the memory-region instruction mix (global/shared/local — Fig. 1);
 *  - the host allocation-size spectrum (2^n-alignment fragmentation —
 *    Fig. 4);
 *  - the coalescing behaviour of global accesses (GPUShield's RCache
 *    pain point — Fig. 12: needle, LSTM);
 *  - the pointer-arithmetic-to-LDST ratio (the DBI check ratio —
 *    Fig. 13: gaussian 67.14 vs swin 28.13);
 *  - compute intensity (Baggy Bounds' worst case is compute-bound code).
 *
 * DESIGN.md documents this substitution.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/ir.hpp"
#include "sim/device.hpp"

namespace lmi {

/** One benchmark profile (a row of Table V). */
struct WorkloadProfile
{
    std::string name;
    std::string suite; ///< Rodinia / Tango / FasterTransformer / AD

    // --- Launch geometry ----------------------------------------------
    unsigned grid_blocks = 80;
    unsigned block_threads = 256;
    /** Elements each thread processes (grid-stride iterations). */
    unsigned elems_per_thread = 4;

    // --- Instruction mix ------------------------------------------------
    /** Compute (IMAD/FFMA) operations per element. */
    unsigned compute_iters = 8;
    /** Fraction of compute that is floating point. */
    double fp_ratio = 0.5;
    /**
     * Extra pointer-arithmetic operations per element beyond the
     * mandatory address computations (drives the Fig. 13 check ratio).
     */
    unsigned ptr_chain = 0;

    // --- Region mix (Fig. 1) ---------------------------------------------
    /** Shared-memory tile accesses per element (0 = none). */
    unsigned shared_accesses = 0;
    /** Bytes of static shared tile (per block). */
    uint64_t shared_tile_bytes = 0;
    /** Local (stack) buffer accesses per element (0 = none). */
    unsigned local_accesses = 0;
    /** Bytes of per-thread stack buffer. */
    uint64_t local_buf_bytes = 0;

    // --- Global access pattern --------------------------------------------
    /** Scattered (uncoalesced) global indexing instead of streaming. */
    bool scattered = false;
    /**
     * Elements the scatter hash is confined to (0 = whole buffer).
     * A small window keeps the uncoalesced stream L1-resident — the
     * needle/LSTM pattern where the L1 D$ hits but GPUShield's RCache
     * thrashes (Fig. 12).
     */
    uint64_t scatter_window_elems = 0;
    /**
     * Address-formation (hinted pointer) operations emitted per memory
     * access beyond the GEP itself, mirroring the IADD/IMOV address
     * recomputation real SASS carries. These are the instructions the
     * software Baggy baseline must check.
     */
    unsigned addr_ops_per_access = 3;

    // --- Device-heap usage --------------------------------------------------
    /** Per-thread kernel malloc/free pairs (0 = none). */
    unsigned heap_allocs = 0;
    uint64_t heap_alloc_bytes = 256;

    // --- Host allocations (Fig. 4) -----------------------------------------
    /** cudaMalloc request sizes issued before the launch. The first two
     *  requests back the kernel's in/out buffers and must each be at
     *  least elems * 4 bytes. */
    std::vector<uint64_t> host_allocs;

    /** Total data elements (derived): grid*block*elems. */
    uint64_t
    elements() const
    {
        return uint64_t(grid_blocks) * block_threads * elems_per_thread;
    }
};

/** The full Table V suite in paper order (28 entries). */
const std::vector<WorkloadProfile>& workloadSuite();

/** Profiles evaluated in Fig. 13 (AD excluded, as in the paper). */
std::vector<WorkloadProfile> dbiWorkloads();

/** Find a profile by name (fatal if absent). */
const WorkloadProfile& findWorkload(const std::string& name);

/**
 * Race seeds: deliberate concurrency bugs injected into the generated
 * kernel, used to validate the static race analyzer and the dynamic
 * race sanitizer against known-bad ground truth.
 */
enum class RaceSeed : uint8_t {
    None,
    /** Drop the barriers between the shared-tile store and the
     *  neighbour-slot load: the classic missing-__syncthreads() race. */
    SharedMissingBarrier,
    /** Every thread stores the same shared slot (WAW broadcast race). */
    SharedBroadcast,
    /** Every thread stores the same global out element (grid-wide WAW). */
    GlobalStride0,
    /** Barrier under a lane-divergent branch (tid parity). */
    BarrierDivergence,
};

const char* raceSeedName(RaceSeed seed);

/** One race-seeded variant of a clean suite profile. */
struct SeededWorkload
{
    std::string name; ///< "<profile>+<seed>"
    RaceSeed seed = RaceSeed::None;
    WorkloadProfile profile;
};

/** The race-seeded validation variants (one per RaceSeed kind). */
std::vector<SeededWorkload> raceSeededVariants();

/** Generate the benchmark kernel for @p profile. */
ir::IrModule buildWorkloadKernel(const WorkloadProfile& profile);

/** Generate the kernel with a deliberate race seeded in. */
ir::IrModule buildWorkloadKernel(const WorkloadProfile& profile,
                                 RaceSeed seed);

/** Result of one workload execution. */
struct WorkloadRun
{
    RunResult result;
    /** Peak reserved bytes in the host allocator after the setup. */
    uint64_t peak_reserved = 0;
};

/**
 * Allocate the profile's host buffers on @p dev, then compile and launch
 * the kernel. Scale factors < 1.0 shrink the launch geometry for
 * expensive (DBI) configurations. A non-None @p seed launches the
 * race-seeded kernel variant instead of the clean one. @p options is
 * forwarded to Device::launch — execution tier, trace sink, race
 * sanitizer.
 */
WorkloadRun runWorkload(Device& dev, const WorkloadProfile& profile,
                        double scale = 1.0,
                        RaceSeed seed = RaceSeed::None,
                        const LaunchOptions& options = {});

} // namespace lmi
