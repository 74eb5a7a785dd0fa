#include "workloads/workloads.hpp"

#include <cmath>

#include "common/bitutil.hpp"
#include "common/logging.hpp"
#include "ir/builder.hpp"

namespace lmi {

using namespace ir;

namespace {

/**
 * Host-allocation spectra for the Fig. 4 fragmentation experiment.
 * Sizes are chosen to reproduce each benchmark's measured RSS overhead
 * under 2^n rounding: exact powers of two cost nothing, 2^n + header
 * sizes nearly double, and generic sizes land in between.
 */
std::vector<uint64_t>
pow2ExactAllocs(uint64_t unit)
{
    return {unit, unit, 2 * unit, 4 * unit};
}

std::vector<uint64_t>
pow2PlusHeaderAllocs(uint64_t unit, unsigned exact_fraction_of_8)
{
    // `exact_fraction_of_8` of every 8 buffers are exact powers of two;
    // the rest carry a 64-byte header that doubles their footprint.
    std::vector<uint64_t> sizes;
    for (unsigned i = 0; i < 8; ++i) {
        if (i < exact_fraction_of_8)
            sizes.push_back(unit);
        else
            sizes.push_back(unit + 64);
    }
    return sizes;
}

std::vector<uint64_t>
genericAllocs(uint64_t base, double fill)
{
    // Buffers at `fill` of their power-of-two bucket: overhead 1/fill - 1.
    std::vector<uint64_t> sizes;
    for (unsigned i = 0; i < 4; ++i)
        sizes.push_back(uint64_t(double(base << i) * fill));
    return sizes;
}

WorkloadProfile
base(const std::string& name, const std::string& suite)
{
    WorkloadProfile p;
    p.name = name;
    p.suite = suite;
    p.grid_blocks = 240;
    p.block_threads = 256;
    p.elems_per_thread = 2;
    return p;
}

std::vector<WorkloadProfile>
buildSuite()
{
    std::vector<WorkloadProfile> suite;

    // ---------------- Rodinia ----------------
    {
        auto p = base("backprop", "Rodinia");
        p.compute_iters = 6;
        p.fp_ratio = 0.7;
        p.shared_accesses = 2;
        p.shared_tile_bytes = 4096;
        // Fig. 4: 85.9% fragmentation — mostly 2^n+header buffers.
        p.host_allocs = pow2PlusHeaderAllocs(512 * kKiB, 1);
        suite.push_back(p);
    }
    {
        auto p = base("bfs", "Rodinia");
        p.compute_iters = 3;
        p.fp_ratio = 0.0;
        p.scattered = true; // frontier expansion is irregular
        p.host_allocs = genericAllocs(256 * kKiB, 0.85);
        suite.push_back(p);
    }
    {
        auto p = base("dwt2d", "Rodinia");
        p.compute_iters = 10;
        p.fp_ratio = 0.8;
        p.local_accesses = 2;
        p.local_buf_bytes = 512;
        p.host_allocs = genericAllocs(512 * kKiB, 0.8);
        suite.push_back(p);
    }
    {
        auto p = base("gaussian", "Rodinia");
        // Heavily integer-bound elimination indexing: the Fig. 13
        // check-to-LDST outlier (67.14).
        p.compute_iters = 52;
        p.fp_ratio = 0.02;
        p.host_allocs = genericAllocs(1 * kMiB, 0.9);
        suite.push_back(p);
    }
    {
        auto p = base("hotspot", "Rodinia");
        p.compute_iters = 12;
        p.fp_ratio = 0.9;
        p.shared_accesses = 3;
        p.shared_tile_bytes = 8192;
        // Fig. 4: negligible fragmentation — power-of-two grids.
        p.host_allocs = pow2ExactAllocs(1 * kMiB);
        suite.push_back(p);
    }
    {
        auto p = base("lavaMD", "Rodinia");
        // Compute-bound n-body-in-a-box: Baggy's bad case.
        p.compute_iters = 48;
        p.fp_ratio = 0.85;
        p.local_accesses = 3;
        p.local_buf_bytes = 1024;
        p.host_allocs = genericAllocs(512 * kKiB, 0.95);
        suite.push_back(p);
    }
    {
        auto p = base("lud_cuda", "Rodinia");
        // Shared-memory dominated (>80% of accesses, Fig. 1).
        p.compute_iters = 6;
        p.fp_ratio = 0.8;
        p.shared_accesses = 8;
        p.shared_tile_bytes = 16 * kKiB;
        p.host_allocs = genericAllocs(1 * kMiB, 0.95);
        suite.push_back(p);
    }
    {
        auto p = base("needle", "Rodinia");
        // Shared-heavy with scattered global traffic: GPUShield's 42.5%
        // case; Fig. 4's 92.9% fragmentation outlier.
        p.compute_iters = 4;
        p.fp_ratio = 0.1;
        p.shared_accesses = 7;
        p.shared_tile_bytes = 16 * kKiB;
        p.scattered = true;
        p.addr_ops_per_access = 1; // tight inner loop: little spare ALU
        p.scatter_window_elems = 8192; // 32 KiB: L1-resident, uncoalesced
        // Fig. 4's 92.9%: seven 2^n+header buffers plus one small exact.
        p.host_allocs = pow2PlusHeaderAllocs(1 * kMiB, 0);
        p.host_allocs.push_back(512 * kKiB);
        suite.push_back(p);
    }
    {
        auto p = base("nn", "Rodinia");
        p.compute_iters = 4;
        p.fp_ratio = 0.9;
        p.host_allocs = genericAllocs(256 * kKiB, 0.8);
        suite.push_back(p);
    }
    {
        auto p = base("particlefilter_float", "Rodinia");
        p.compute_iters = 16;
        p.fp_ratio = 0.9;
        p.local_accesses = 4;
        p.local_buf_bytes = 2048;
        p.host_allocs = genericAllocs(512 * kKiB, 0.8);
        suite.push_back(p);
    }
    {
        auto p = base("particlefilter_naive", "Rodinia");
        p.compute_iters = 12;
        p.fp_ratio = 0.6;
        p.local_accesses = 6;
        p.local_buf_bytes = 2048;
        p.scattered = true;
        p.host_allocs = genericAllocs(512 * kKiB, 0.8);
        suite.push_back(p);
    }
    {
        auto p = base("pathfinder", "Rodinia");
        p.compute_iters = 5;
        p.fp_ratio = 0.2;
        p.shared_accesses = 4;
        p.shared_tile_bytes = 8192;
        p.host_allocs = genericAllocs(1 * kMiB, 0.85);
        suite.push_back(p);
    }
    {
        auto p = base("sc_gpu", "Rodinia");
        p.compute_iters = 8;
        p.fp_ratio = 0.5;
        p.scattered = true;
        p.host_allocs = genericAllocs(512 * kKiB, 0.78);
        suite.push_back(p);
    }
    {
        auto p = base("srad_v1", "Rodinia");
        p.compute_iters = 14;
        p.fp_ratio = 0.9;
        p.host_allocs = pow2ExactAllocs(2 * kMiB);
        suite.push_back(p);
    }
    {
        auto p = base("srad_v2", "Rodinia");
        p.compute_iters = 14;
        p.fp_ratio = 0.9;
        p.shared_accesses = 2;
        p.shared_tile_bytes = 8192;
        p.host_allocs = pow2ExactAllocs(2 * kMiB);
        suite.push_back(p);
    }

    // ---------------- Tango (DNN kernels) ----------------
    {
        auto p = base("AlexNet", "Tango");
        p.compute_iters = 20;
        p.fp_ratio = 0.95;
        p.shared_accesses = 3;
        p.shared_tile_bytes = 16 * kKiB;
        p.host_allocs = genericAllocs(2 * kMiB, 0.82);
        suite.push_back(p);
    }
    {
        auto p = base("CifarNet", "Tango");
        p.compute_iters = 16;
        p.fp_ratio = 0.95;
        p.shared_accesses = 2;
        p.shared_tile_bytes = 8 * kKiB;
        p.host_allocs = genericAllocs(1 * kMiB, 0.82);
        suite.push_back(p);
    }
    {
        auto p = base("GRU", "Tango");
        p.compute_iters = 10;
        p.fp_ratio = 0.9;
        p.scattered = true; // gather-heavy recurrent indexing
        p.host_allocs = genericAllocs(1 * kMiB, 0.9);
        suite.push_back(p);
    }
    {
        auto p = base("LSTM", "Tango");
        // Uncoalesced gate gathers: GPUShield's 24.0% case.
        p.compute_iters = 12;
        p.fp_ratio = 0.9;
        p.scattered = true;
        p.addr_ops_per_access = 1;
        p.scatter_window_elems = 4096;
        p.elems_per_thread = 3;
        p.host_allocs = genericAllocs(1 * kMiB, 0.9);
        suite.push_back(p);
    }

    // ---------------- FasterTransformer ----------------
    {
        auto p = base("bert", "FasterTransformer");
        // Global-memory dominated (Fig. 1).
        p.compute_iters = 24;
        p.fp_ratio = 0.95;
        p.elems_per_thread = 3;
        p.host_allocs = genericAllocs(4 * kMiB, 0.88);
        suite.push_back(p);
    }
    {
        auto p = base("decoding", "FasterTransformer");
        p.compute_iters = 18;
        p.fp_ratio = 0.9;
        p.elems_per_thread = 3;
        p.host_allocs = genericAllocs(4 * kMiB, 0.88);
        suite.push_back(p);
    }
    {
        auto p = base("swin", "FasterTransformer");
        // Window attention: integer-rich windowed indexing gives the
        // moderate check ratio of Fig. 13 (28.13).
        p.compute_iters = 44;
        p.fp_ratio = 0.45;
        p.shared_accesses = 1;
        p.shared_tile_bytes = 8 * kKiB;
        p.host_allocs = genericAllocs(2 * kMiB, 0.85);
        suite.push_back(p);
    }
    {
        auto p = base("wenet_decoder", "FasterTransformer");
        p.compute_iters = 14;
        p.fp_ratio = 0.9;
        p.host_allocs = genericAllocs(2 * kMiB, 0.85);
        suite.push_back(p);
    }
    {
        auto p = base("wenet_encoder", "FasterTransformer");
        p.compute_iters = 16;
        p.fp_ratio = 0.9;
        p.shared_accesses = 1;
        p.shared_tile_bytes = 4 * kKiB;
        p.host_allocs = genericAllocs(2 * kMiB, 0.85);
        suite.push_back(p);
    }

    // ---------------- Autonomous Driving ----------------
    {
        auto p = base("BEVerse", "AD");
        p.compute_iters = 22;
        p.fp_ratio = 0.95;
        p.elems_per_thread = 3;
        p.shared_accesses = 2;
        p.shared_tile_bytes = 8 * kKiB;
        p.host_allocs = genericAllocs(4 * kMiB, 0.86);
        suite.push_back(p);
    }
    {
        auto p = base("DETR", "AD");
        p.compute_iters = 24;
        p.fp_ratio = 0.95;
        p.host_allocs = genericAllocs(4 * kMiB, 0.86);
        suite.push_back(p);
    }
    {
        auto p = base("MOTR", "AD");
        p.compute_iters = 20;
        p.fp_ratio = 0.92;
        p.scattered = true; // track association gathers
        p.host_allocs = genericAllocs(4 * kMiB, 0.86);
        suite.push_back(p);
    }
    {
        auto p = base("segformer", "AD");
        p.compute_iters = 22;
        p.fp_ratio = 0.95;
        p.shared_accesses = 2;
        p.shared_tile_bytes = 8 * kKiB;
        p.host_allocs = genericAllocs(4 * kMiB, 0.86);
        suite.push_back(p);
    }

    if (suite.size() != 28)
        lmi_panic("workload suite must have 28 entries (Table V)");
    return suite;
}

} // namespace

const std::vector<WorkloadProfile>&
workloadSuite()
{
    static const std::vector<WorkloadProfile> suite = buildSuite();
    return suite;
}

std::vector<WorkloadProfile>
dbiWorkloads()
{
    std::vector<WorkloadProfile> out;
    for (const auto& p : workloadSuite())
        if (p.suite != "AD") // excluded in the paper (NVBit issues)
            out.push_back(p);
    return out;
}

const WorkloadProfile&
findWorkload(const std::string& name)
{
    for (const auto& p : workloadSuite())
        if (p.name == name)
            return p;
    lmi_fatal("no workload named '%s'", name.c_str());
}

const char*
raceSeedName(RaceSeed seed)
{
    switch (seed) {
    case RaceSeed::None: return "none";
    case RaceSeed::SharedMissingBarrier: return "shared-missing-barrier";
    case RaceSeed::SharedBroadcast: return "shared-broadcast";
    case RaceSeed::GlobalStride0: return "global-stride0";
    case RaceSeed::BarrierDivergence: return "barrier-divergence";
    }
    return "?";
}

std::vector<SeededWorkload>
raceSeededVariants()
{
    // One variant per seed kind, each on a base profile that exercises
    // the seeded code path (shared tiles for the shared races, global
    // streaming for the stride-0 WAW). Geometry is kept multi-warp so
    // every seeded race has cross-warp dynamic witnesses the sanitizer
    // can observe (intra-warp pairs execute in lockstep).
    std::vector<SeededWorkload> out;
    auto add = [&](const char* profile, RaceSeed seed) {
        SeededWorkload sw;
        sw.seed = seed;
        sw.profile = findWorkload(profile);
        sw.name = sw.profile.name + "+" + raceSeedName(seed);
        out.push_back(std::move(sw));
    };
    add("backprop", RaceSeed::SharedMissingBarrier);
    add("hotspot", RaceSeed::SharedBroadcast);
    add("bert", RaceSeed::GlobalStride0);
    add("lud_cuda", RaceSeed::BarrierDivergence);
    return out;
}

// ---------------------------------------------------------------------
// Kernel generator
// ---------------------------------------------------------------------

IrModule
buildWorkloadKernel(const WorkloadProfile& p)
{
    return buildWorkloadKernel(p, RaceSeed::None);
}

IrModule
buildWorkloadKernel(const WorkloadProfile& p, RaceSeed seed)
{
    IrFunction f = IrBuilder::makeKernel(
        p.name, {{"in", Type::ptr(4)}, {"out", Type::ptr(4)},
                 {"n", Type::i64()}});
    IrBuilder b(f);

    auto entry = b.block("entry");
    auto header = b.block("loop.header");
    auto body = b.block("loop.body");
    auto exit = b.block("exit");

    // --- entry ---------------------------------------------------------
    b.setInsertPoint(entry);
    auto in = b.param(0);
    auto out = b.param(1);
    auto t = b.gtid();
    auto total = b.imul(b.ntid(), b.nctaid());
    auto zero = b.constInt(0);
    auto elems = b.constInt(int64_t(p.elems_per_thread));

    ValueId tile = kNoValue;
    ValueId tile_mask = kNoValue;
    if (p.shared_tile_bytes > 0) {
        tile = b.sharedBuffer("tile", p.shared_tile_bytes, 4);
        tile_mask = b.constInt(int64_t(p.shared_tile_bytes / 4 - 1));
    }
    ValueId lbuf = kNoValue;
    ValueId lbuf_mask = kNoValue;
    if (p.local_buf_bytes > 0) {
        lbuf = b.alloca_(p.local_buf_bytes, 4);
        lbuf_mask = b.constInt(int64_t(p.local_buf_bytes / 4 - 1));
    }
    // Scatter hash mask: largest power of two <= total elements,
    // optionally confined to an L1-resident window.
    const uint64_t n_elems = p.elements();
    uint64_t window = uint64_t(1) << log2Floor(n_elems);
    if (p.scatter_window_elems > 0)
        window = std::min(window, p.scatter_window_elems);
    auto scatter_mask = b.constInt(int64_t(window - 1));
    auto tid_in_block = b.tid();
    // Address-recomputation helper: GEP plus the profile's extra
    // pointer operations (checked sites for SW schemes, OCU sites for
    // LMI). The recomputations are issue-slot work off the access's
    // dependency chain, like the redundant address math real SASS
    // carries after CSE boundaries.
    auto addr = [&](ValueId base_ptr, ValueId index) {
        ValueId ptr = b.gep(base_ptr, index);
        for (unsigned a = 0; a < p.addr_ops_per_access; ++a)
            b.ptrAddBytes(ptr, zero);
        return ptr;
    };
    b.jump(header);

    // --- loop header ------------------------------------------------------
    b.setInsertPoint(header);
    auto e = b.phi(Type::i64(), {{zero, entry}});
    auto cond = b.icmp(CmpOp::LT, e, elems);
    b.br(cond, body, exit);

    // --- loop body ---------------------------------------------------------
    b.setInsertPoint(body);
    // Index: streaming (coalesced grid-stride) or hash-scattered.
    auto stream_idx = b.iadd(t, b.imul(e, total));
    ValueId idx = stream_idx;
    if (p.scattered) {
        auto hashed = b.imul(stream_idx, b.constInt(0x9E3779B1));
        idx = b.iand(hashed, scatter_mask);
    }

    ValueId x = b.load(addr(in, idx));

    // Optional extra pointer-arithmetic chain (net displacement zero).
    if (p.ptr_chain > 0) {
        auto plus = b.constInt(4);
        auto minus = b.constInt(-4);
        ValueId ptr = b.gep(in, idx);
        for (unsigned c = 0; c < p.ptr_chain; ++c)
            ptr = b.ptrAddBytes(ptr, (c % 2 == 0) ? plus : minus);
        if (p.ptr_chain % 2 == 1)
            ptr = b.ptrAddBytes(ptr, minus);
        x = b.iadd(x, b.load(ptr));
    }

    // Shared-memory tile traffic: each round is a publish/consume phase
    // pair — every thread stores its slot, a barrier publishes the
    // tile, every thread reads its neighbour's slot, and a second
    // barrier closes the epoch before the next round's stores (and the
    // next loop trip) may overwrite it. The SharedMissingBarrier seed
    // drops both barriers, recreating the classic missing-
    // __syncthreads() neighbour race; SharedBroadcast keeps the
    // barriers but aims every store at slot 0 (a WAW race no barrier
    // fixes).
    if (tile != kNoValue) {
        for (unsigned s = 0; s < p.shared_accesses; ++s) {
            auto slot = b.iand(b.iadd(tid_in_block,
                                      b.constInt(int64_t(s) * 7)),
                               tile_mask);
            if (seed == RaceSeed::SharedBroadcast)
                slot = zero;
            b.store(addr(tile, slot), x);
            if (seed != RaceSeed::SharedMissingBarrier)
                b.barrier();
            auto nslot = b.iand(b.iadd(slot, b.constInt(1)), tile_mask);
            x = b.load(addr(tile, nslot));
            if (seed != RaceSeed::SharedMissingBarrier)
                b.barrier();
        }
    }

    // Per-thread stack traffic.
    if (lbuf != kNoValue) {
        for (unsigned l = 0; l < p.local_accesses; ++l) {
            auto slot = b.iand(b.iadd(e, b.constInt(int64_t(l) * 3)),
                               lbuf_mask);
            b.store(addr(lbuf, slot), x);
            x = b.load(addr(lbuf, slot));
        }
    }

    // Compute: interleaved integer and floating-point chains.
    const unsigned fp_iters = unsigned(std::lround(p.compute_iters *
                                                   p.fp_ratio));
    const unsigned int_iters = p.compute_iters - fp_iters;
    auto three = b.constInt(3);
    auto one_c = b.constInt(1);
    for (unsigned i = 0; i < int_iters; ++i)
        x = b.iadd(b.imul(x, three), one_c);
    if (fp_iters > 0) {
        ValueId fv = b.constFloat(1.5);
        auto scale = b.constFloat(1.0001);
        auto bias = b.constFloat(0.25);
        for (unsigned i = 0; i < fp_iters; ++i)
            fv = b.ffma(fv, scale, bias);
        // Fold the float chain back (bit mix keeps the dependence);
        // fbits reinterprets the float register so the xor stays
        // integer-typed.
        x = b.ixor(x, b.fbits(fv));
    }

    // Device-heap usage.
    for (unsigned h = 0; h < p.heap_allocs; ++h) {
        auto hp = b.malloc_(b.constInt(int64_t(p.heap_alloc_bytes)), 4);
        b.store(b.gep(hp, zero), x);
        x = b.load(b.gep(hp, zero));
        b.free_(hp);
    }

    // Barrier divergence seed: a barrier guarded by the lane parity,
    // so half of every warp arrives and half does not.
    BlockId tail_block = body;
    if (seed == RaceSeed::BarrierDivergence) {
        auto div_bar = b.block("div.bar");
        auto div_cont = b.block("div.cont");
        auto parity = b.iand(tid_in_block, b.constInt(1));
        auto even = b.icmp(CmpOp::EQ, parity, zero);
        b.br(even, div_bar, div_cont);
        b.setInsertPoint(div_bar);
        b.barrier();
        b.jump(div_cont);
        b.setInsertPoint(div_cont);
        tail_block = div_cont;
    }

    // Output: always a streaming store — each (thread, trip) owns a
    // unique element, so the write set is disjoint by construction even
    // for scatter profiles (whose *loads* stay hash-scattered). The
    // GlobalStride0 seed collapses every store onto element 0 instead.
    ValueId out_idx = stream_idx;
    if (seed == RaceSeed::GlobalStride0)
        out_idx = zero;
    b.store(addr(out, out_idx), x);

    auto next = b.iadd(e, b.constInt(1));
    f.inst(e).ops.push_back(next);
    f.inst(e).phi_blocks.push_back(tail_block);
    b.jump(header);

    // --- exit ----------------------------------------------------------------
    b.setInsertPoint(exit);
    b.ret();

    verify(f);
    IrModule m;
    m.functions.push_back(std::move(f));
    return m;
}

WorkloadRun
runWorkload(Device& dev, const WorkloadProfile& profile, double scale,
            RaceSeed seed, const LaunchOptions& options)
{
    WorkloadProfile p = profile;
    if (scale < 1.0) {
        p.grid_blocks = std::max(1u, unsigned(p.grid_blocks * scale));
        p.block_threads =
            std::max(32u, unsigned(p.block_threads * scale));
    } else if (scale > 1.0) {
        // Upscale lengthens each thread's element loop instead of
        // widening the grid: the footprint grows past the modelled
        // caches while occupancy and the block schedule stay
        // identical, so a larger scale changes the working set and
        // run length, not the launch shape.
        p.elems_per_thread =
            std::max(1u, unsigned(p.elems_per_thread * scale));
    }

    // Host allocations: the first two back the kernel's in/out buffers.
    const uint64_t needed = p.elements() * 4 + 64;
    std::vector<uint64_t> sizes = p.host_allocs;
    while (sizes.size() < 2)
        sizes.push_back(needed);
    sizes[0] = std::max(sizes[0], needed);
    sizes[1] = std::max(sizes[1], needed);

    std::vector<uint64_t> ptrs;
    for (uint64_t s : sizes) {
        const uint64_t ptr = dev.cudaMalloc(s);
        if (ptr == 0)
            lmi_fatal("%s: device memory exhausted", p.name.c_str());
        ptrs.push_back(ptr);
    }

    const CompiledKernel kernel =
        dev.compile(buildWorkloadKernel(p, seed), p.name);
    WorkloadRun run;
    std::vector<uint64_t> params = {ptrs[0], ptrs[1], p.elements()};
    run.result = dev.launch(kernel, p.grid_blocks, p.block_threads,
                            std::move(params), options);
    run.peak_reserved = dev.globalAllocator().peakReservedBytes();
    return run;
}

} // namespace lmi
