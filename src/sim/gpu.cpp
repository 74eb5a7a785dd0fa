#include "sim/gpu.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "common/bitutil.hpp"
#include "common/cli.hpp"
#include "common/logging.hpp"
#include "common/stats.hpp"
#include "sim/trace.hpp"

namespace lmi {

namespace {

/** Physical base used to interleave per-thread local memory for timing. */
constexpr uint64_t kLocalPhysBase = uint64_t(1) << 50;

double
asDouble(uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

uint64_t
asBits(double d)
{
    uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
}

bool
evalCmp(CmpOp cmp, int64_t a, int64_t b)
{
    switch (cmp) {
      case CmpOp::EQ: return a == b;
      case CmpOp::NE: return a != b;
      case CmpOp::LT: return a < b;
      case CmpOp::LE: return a <= b;
      case CmpOp::GT: return a > b;
      case CmpOp::GE: return a >= b;
    }
    return false;
}

} // namespace

unsigned
resolveSimThreads(const GpuConfig& config)
{
    if (config.sim_threads)
        return config.sim_threads;
    unsigned v = 0;
    const char* env = std::getenv("LMI_SIM_THREADS");
    if (env && !parseUnsigned(env, &v))
        lmi_fatal("LMI_SIM_THREADS='%s' is not an unsigned integer", env);
    return std::max(v, 1u);
}

// ---------------------------------------------------------------------
// Internal structures
// ---------------------------------------------------------------------

/**
 * One SM's view of global memory during a slice.
 *
 * Reads come from a copy-on-write page overlay backed by the frozen
 * base SparseMemory (via the const peekPage path — the base is never
 * mutated while workers run). Stores land in the overlay (so the SM
 * reads its own writes) and append to a byte-accurate log that the
 * slice barrier replays into the base in canonical SM order.
 *
 * Overlay pages persist across slices to avoid re-copying the working
 * set every kSliceCycles. Cross-slice coherence uses the owner stamps
 * GpuSim maintains per written page (updated only at barriers): on the
 * first touch of an overlay page in a slice, the stamp tells whether
 * any *other* SM stored to the page since this overlay was last synced
 * — if so the page is re-copied from the (already committed) base.
 */
class GpuSim::GlobalMemView
{
  public:
    /** One deferred store, replayed at the slice barrier. */
    struct StoreRec
    {
        uint64_t addr;
        uint64_t value;
        uint32_t width;
    };

    void
    init(SparseMemory* base,
         const std::unordered_map<uint64_t, PageStamp>* stamps,
         uint32_t sm_id)
    {
        base_ = base;
        stamps_ = stamps;
        sm_id_ = sm_id;
    }

    void
    beginSlice(uint64_t slice_no)
    {
        cur_slice_ = slice_no;
        // The barrier may have changed the base and the stamps: drop
        // the intra-slice page caches.
        r_idx_ = kNoPage;
        w_idx_ = kNoPage;
        // Overlays are a pure cache once their stores are committed;
        // bound the retained footprint (streaming kernels write pages
        // they never revisit). Depends only on SM-local state, so the
        // drop happens identically under every thread count.
        if (overlays_.size() > kMaxOverlayPages)
            overlays_.clear();
    }

    uint64_t
    read(uint64_t addr, unsigned n)
    {
        const uint64_t off = addr % SparseMemory::kPageBytes;
        if (off + n <= SparseMemory::kPageBytes) {
            const uint8_t* p = readablePage(addr / SparseMemory::kPageBytes);
            if (!p)
                return 0;
            uint64_t v = 0;
            std::memcpy(&v, p + off, n);
            return v;
        }
        // Page-crossing read (rare): assemble byte-wise.
        uint64_t v = 0;
        for (unsigned i = 0; i < n; ++i) {
            const uint64_t a = addr + i;
            const uint8_t* p = readablePage(a / SparseMemory::kPageBytes);
            const uint8_t b = p ? p[a % SparseMemory::kPageBytes] : 0;
            v |= uint64_t(b) << (8 * i);
        }
        return v;
    }

    void
    write(uint64_t addr, uint64_t value, unsigned n)
    {
        const uint64_t off = addr % SparseMemory::kPageBytes;
        if (off + n <= SparseMemory::kPageBytes) {
            std::memcpy(writablePage(addr / SparseMemory::kPageBytes) + off,
                        &value, n);
        } else {
            for (unsigned i = 0; i < n; ++i) {
                const uint64_t a = addr + i;
                writablePage(a / SparseMemory::kPageBytes)
                    [a % SparseMemory::kPageBytes] =
                        uint8_t(value >> (8 * i));
            }
        }
        log_.push_back({addr, value, n});
    }

    const std::vector<StoreRec>& log() const { return log_; }
    void clearLog() { log_.clear(); }

  private:
    struct Overlay
    {
        std::unique_ptr<std::array<uint8_t, SparseMemory::kPageBytes>> data;
        /** Base-image slice this overlay was last copied at. */
        uint64_t synced_slice = 0;
        /** Last slice the stamp was checked (once per slice suffices:
         *  stamps only change at barriers). */
        uint64_t checked_slice = 0;
    };

    static constexpr uint64_t kNoPage = ~uint64_t(0);
    /** Retained-overlay bound: 512 pages = 2 MiB per SM. */
    static constexpr size_t kMaxOverlayPages = 512;

    const uint8_t*
    readablePage(uint64_t page)
    {
        if (page == r_idx_)
            return r_ptr_;
        const uint8_t* p;
        auto it = overlays_.find(page);
        if (it != overlays_.end()) {
            validate(it->second, page);
            p = it->second.data->data();
        } else {
            p = base_->peekPage(page);
        }
        r_idx_ = page;
        r_ptr_ = p;
        return p;
    }

    uint8_t*
    writablePage(uint64_t page)
    {
        if (page == w_idx_)
            return w_ptr_;
        auto [it, fresh] = overlays_.try_emplace(page);
        Overlay& ov = it->second;
        if (fresh) {
            ov.data =
                std::make_unique<std::array<uint8_t,
                                            SparseMemory::kPageBytes>>();
            copyFromBase(ov, page);
        } else {
            validate(ov, page);
        }
        w_idx_ = page;
        w_ptr_ = ov.data->data();
        // Reads of this page must now see the overlay.
        r_idx_ = page;
        r_ptr_ = w_ptr_;
        return w_ptr_;
    }

    /** Re-copy from base if another SM stored to @p page since this
     *  overlay was synced. Checked at most once per slice. */
    void
    validate(Overlay& ov, uint64_t page)
    {
        if (ov.checked_slice == cur_slice_)
            return;
        ov.checked_slice = cur_slice_;
        auto it = stamps_->find(page);
        if (it == stamps_->end())
            return;
        const PageStamp& st = it->second;
        const uint64_t foreign =
            (st.writer >= 0 && uint32_t(st.writer) == sm_id_)
                ? st.other_slice
                : st.slice;
        if (foreign > ov.synced_slice)
            copyFromBase(ov, page);
    }

    void
    copyFromBase(Overlay& ov, uint64_t page)
    {
        const uint8_t* bp = base_->peekPage(page);
        if (bp)
            std::memcpy(ov.data->data(), bp, SparseMemory::kPageBytes);
        else
            std::memset(ov.data->data(), 0, SparseMemory::kPageBytes);
        // The base holds every commit through the previous slice.
        ov.synced_slice = cur_slice_ - 1;
        ov.checked_slice = cur_slice_;
    }

    SparseMemory* base_ = nullptr;
    const std::unordered_map<uint64_t, PageStamp>* stamps_ = nullptr;
    uint32_t sm_id_ = 0;
    uint64_t cur_slice_ = 0;
    std::unordered_map<uint64_t, Overlay> overlays_;
    std::vector<StoreRec> log_;
    /** One-entry page caches, valid within a slice. */
    uint64_t r_idx_ = kNoPage;
    uint64_t w_idx_ = kNoPage;
    const uint8_t* r_ptr_ = nullptr;
    uint8_t* w_ptr_ = nullptr;
};

struct GpuSim::Warp
{
    uint32_t block = 0;        ///< global block id
    uint32_t warp_in_block = 0;
    uint32_t first_gtid = 0;
    uint32_t lanes = 32;       ///< threads in this warp
    uint64_t pc = 0;
    uint32_t active = 0;       ///< current-path mask
    uint32_t exited = 0;
    uint16_t rstride = 32;     ///< register-file row stride (= warp size)
    uint32_t local_slot = 0;   ///< local-arena slot (lane memories)
    SparseMemory* shared = nullptr; ///< this block's shared-arena slot
    /** Register file, register-major (SoA): row r holds all lanes of r,
     *  so the per-instruction lane loop walks contiguous memory. */
    std::vector<uint64_t> regs;
    std::array<uint32_t, kNumPredRegs> preds{};
    std::vector<uint64_t> reg_ready;      ///< per-register ready cycle
    std::array<uint64_t, kNumPredRegs> pred_ready{};
    std::vector<std::pair<uint64_t, uint32_t>> stack; ///< (pc, mask)
    uint64_t stall_until = 0;
    /**
     * Cached warpReadyAt(*this), read by the detailed tier's GTO pick,
     * sleep scan and stall fast-forward. Its inputs (done, at_barrier,
     * heap_pending, stall_until, pc and the scoreboards) change only in
     * issueWarpT on this warp, at barrier release, at heap/atomic
     * unpark in commitSlice and at admission; each of those refreshes
     * it. The functional tier never reads it.
     */
    uint64_t ready_at = 0;
    bool at_barrier = false;
    /** Parked on a device malloc/free or a global atomic until the
     *  slice barrier executes the deferred operation. */
    bool heap_pending = false;
    /** PC of the BAR this warp is parked on (valid while at_barrier). */
    uint64_t barrier_pc = 0;
    bool done = false;

    uint64_t&
    reg(unsigned lane, unsigned r)
    {
        return regs[size_t(r) * rstride + lane];
    }

    uint64_t
    regv(unsigned lane, unsigned r) const
    {
        return regs[size_t(r) * rstride + lane];
    }

    uint64_t* regRow(unsigned r) { return regs.data() + size_t(r) * rstride; }

    const uint64_t*
    regRow(unsigned r) const
    {
        return regs.data() + size_t(r) * rstride;
    }
};

struct GpuSim::BlockCtx
{
    uint32_t block_id = 0;
    unsigned num_warps = 0;
    unsigned done_warps = 0;
    uint32_t first_warp = 0;   ///< index of the block's first warp in SmCtx
    uint32_t shared_slot = 0;  ///< shared-arena slot backing this block
};

struct GpuSim::SmCtx
{
    /** A device malloc/free, deferred to the slice barrier (the heap
     *  allocator is shared, order-dependent state). */
    struct HeapOp
    {
        bool is_malloc = false;
        uint32_t warp = 0;        ///< index into SmCtx::warps
        uint64_t cycle = 0;       ///< issue cycle
        uint64_t seq = 0;         ///< per-SM event order
        int16_t dst = -1;         ///< malloc result register
        uint32_t active = 0;      ///< active mask at issue
        /** Per-lane operand: requested size (malloc) or pointer (free). */
        std::array<uint64_t, 32> vals{};
    };

    /** A global-memory atomic (ATOMG/CASG), deferred to the slice
     *  barrier: per-SM overlays would lose cross-SM read-modify-write
     *  atomicity within a slice, so the operation executes against the
     *  base memory in canonical (sm, seq) order. Addresses are already
     *  mechanism-checked and translated at issue. */
    struct AtomOp
    {
        bool is_cas = false;
        AtomicOp aop = AtomicOp::Add;
        uint8_t width = 4;
        uint32_t warp = 0;        ///< index into SmCtx::warps
        uint64_t cycle = 0;       ///< issue cycle
        uint64_t seq = 0;         ///< per-SM event order
        int16_t dst = -1;         ///< old-value result register (-1: St)
        uint32_t active = 0;      ///< active mask at issue
        std::array<uint64_t, 32> addrs{}; ///< translated per-lane address
        std::array<uint64_t, 32> vals{};  ///< RMW operand / CAS desired
        std::array<uint64_t, 32> cmps{};  ///< CAS expected
    };

    /** A fault raised during the slice; the barrier picks the winner by
     *  (cycle, sm_id, seq). */
    struct PendingFault
    {
        uint64_t cycle = 0;
        uint64_t seq = 0;
        Fault fault;
    };

    /** Per-SM result counters, summed in SM order at run end. */
    struct Counters
    {
        uint64_t instructions = 0;
        uint64_t thread_instructions = 0;
        uint64_t ldg = 0, stg = 0, lds = 0, sts = 0, ldl = 0, stl = 0;
        uint64_t l1_hits = 0, l1_misses = 0;
        uint64_t l2_hits = 0, l2_misses = 0;
        uint64_t dram_accesses = 0;
    };

    unsigned sm_id = 0;
    uint64_t cycle = 0;
    /** LSU port occupancy: memory instructions serialize here. */
    uint64_t lsu_busy_until = 0;
    CacheModel l1;
    /** This SM's share of HBM bandwidth (own queue, so SM clocks stay
     *  decoupled). */
    std::unique_ptr<DramModel> dram;
    std::vector<uint32_t> pending_blocks; ///< global block ids to run
    size_t next_block = 0;
    std::vector<Warp> warps;              ///< resident warps
    std::vector<BlockCtx> blocks;         ///< resident blocks
    std::vector<int> last_issued;         ///< per scheduler: warp index
    /** Per-scheduler ascending indices of not-yet-done warps. Done
     *  entries are skipped during scans and pruned at block retirement,
     *  so scheduler walks stay O(resident) instead of O(ever admitted). */
    std::vector<std::vector<uint32_t>> sched_live;
    /** Per scheduler: earliest cycle any of its warps can issue, set
     *  by a full scan that found nothing ready. While it lies in the
     *  future the scheduler is skipped outright — warp readiness only
     *  moves earlier on barrier release, block admission or heap-op
     *  completion, all of which clear the whole array. */
    std::vector<uint64_t> sched_sleep;
    unsigned live_warps = 0;       ///< warps admitted and not done
    unsigned at_barrier_warps = 0; ///< warps parked on a barrier
    unsigned heap_pending_warps = 0; ///< warps parked on a heap/atomic op
    bool started = false;          ///< arenas sized, first wave admitted
    bool retire_pending = false;   ///< some block completed all warps
    bool finished = false;         ///< all blocks retired
    bool stopped = false;          ///< faulted; awaiting the barrier
    uint64_t idle_guard = 0;       ///< consecutive no-progress cycles

    /** Flat memory arenas: residency bounds cap live blocks/warps, so
     *  one dense slot pool per SM serves its whole share of the launch.
     *  Slots are zero-reset when (re)assigned, preserving "fresh memory
     *  reads zero". Per-SM (not launch-global) so worker threads never
     *  share them. */
    std::vector<SparseMemory> shared_arena;
    std::vector<LocalMemory> local_arena; ///< line-sized pages (memory.hpp)
    std::vector<uint32_t> shared_free;
    std::vector<uint32_t> local_free;

    /** Reusable coalescer scratch. */
    std::vector<uint64_t> lines_scratch;

    /** Private global-memory view (overlay + store log). */
    GlobalMemView gview;
    /** L1-missed line addresses in access order, replayed through the
     *  shared L2 at the barrier. */
    std::vector<uint64_t> l2_log;
    /** Lines this SM already took an L2 probe decision on this slice
     *  (present after the first touch, whatever the frozen array said). */
    std::unordered_set<uint64_t> own_lines;
    std::vector<HeapOp> heap_q;
    std::vector<AtomOp> atom_q;
    std::vector<PendingFault> fault_q;
    Counters cnt;
    uint64_t event_seq = 0;

    SmCtx(const GpuConfig& cfg)
        : l1(cfg.l1_size, cfg.l1_assoc, cfg.line_bytes),
          last_issued(cfg.schedulers_per_sm, -1),
          sched_live(cfg.schedulers_per_sm),
          sched_sleep(cfg.schedulers_per_sm, 0)
    {
    }

    /**
     * Size the arenas to this SM's actual share of the launch — the
     * residency caps only matter when enough blocks are pending to hit
     * them, and a kernel with no local-memory instructions needs no
     * local slot storage at all (slot ids are still handed out, they
     * just index nothing).
     */
    void
    initArenas(const GpuConfig& cfg, unsigned warps_per_block,
               bool uses_local)
    {
        const uint32_t resident_blocks = uint32_t(
            std::min<size_t>(cfg.max_blocks_per_sm, pending_blocks.size()));
        const uint32_t resident_warps =
            std::min(cfg.max_warps_per_sm,
                     resident_blocks * warps_per_block);
        shared_arena.resize(resident_blocks);
        shared_free.reserve(resident_blocks);
        for (uint32_t s = 0; s < resident_blocks; ++s)
            shared_free.push_back(s);
        if (uses_local)
            local_arena.resize(size_t(resident_warps) * cfg.warp_size);
        local_free.reserve(resident_warps);
        for (uint32_t s = 0; s < resident_warps; ++s)
            local_free.push_back(s);
    }
};

/**
 * Predecoded per-instruction metadata: operand kinds (with constant-bank
 * reads folded — the bank is written once at launch), scoreboard source
 * registers, and the destination/guard fields the readiness check needs.
 * Built once per launch so the issue path never re-inspects Operands.
 */
struct GpuSim::InstDesc
{
    struct Src
    {
        enum class K : uint8_t { Const, Reg, Special };
        K kind = K::Const;
        uint16_t reg = 0;
        SpecialReg sr = SpecialReg::TidX;
        uint64_t constv = 0;
    };

    /** Issue-path dispatch class: control, memory, or ALU datapath. */
    enum class Kind : uint8_t { Ctrl, Mem, Alu };

    Src src[kMaxSrcs];
    int16_t src_reg[kMaxSrcs] = {-1, -1, -1}; ///< scoreboard reads
    int16_t dst = -1;
    int16_t guard_pred = -1;
    Kind kind = Kind::Alu;
    bool is_isetp = false;
    bool is_mem = false;
    bool is_store = false;
    MemSpace space = MemSpace::Global; ///< valid when is_mem
    unsigned alu_latency = 0;          ///< base latency for the ALU path
};

/**
 * One source operand resolved against a concrete warp: either a pointer
 * to a register-major row, or a lane-affine value base + stride * lane
 * (every SpecialReg is affine in the lane index; immediates and c-bank
 * reads are the stride-0 case).
 */
struct GpuSim::ResolvedSrc
{
    const uint64_t* row = nullptr;
    uint64_t base = 0;
    uint64_t stride = 0;

    uint64_t
    get(unsigned lane) const
    {
        return row ? row[lane] : base + stride * lane;
    }
};

/**
 * Epoch-based worker pool, reused across slices.
 *
 * runSlice() publishes the slice number under the mutex, wakes the
 * workers, and participates itself; every participant (workers and the
 * calling thread) pulls SM indices from one atomic ticket until the
 * list is exhausted, then the caller waits for the stragglers. Dynamic
 * ticket assignment is legal because a slice's per-SM work depends only
 * on that SM's own state and the frozen shared snapshot — which thread
 * steps which SM cannot affect results.
 *
 * Each worker installs a StatShard for its lifetime, so mechanism-side
 * StatSlot bumps stay thread-private; the owner flushes the shards
 * (commutative sums, merged by name) after shutdown().
 */
class GpuSim::WorkerPool
{
  public:
    WorkerPool(GpuSim& sim, std::vector<SmCtx>& sms, unsigned threads)
        : sim_(sim), sms_(sms), shards_(threads)
    {
        workers_.reserve(threads - 1);
        for (unsigned i = 1; i < threads; ++i)
            workers_.emplace_back([this, i] { workerMain(i); });
    }

    ~WorkerPool()
    {
        shutdown();
    }

    /** Shard for the coordinating (calling) thread. */
    StatShard& mainShard() { return shards_[0]; }

    void
    runSlice(uint64_t slice_no)
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            slice_no_ = slice_no;
            ticket_.store(0, std::memory_order_relaxed);
            active_ = unsigned(workers_.size());
            ++epoch_;
        }
        cv_start_.notify_all();
        drain(slice_no);
        std::unique_lock<std::mutex> lock(m_);
        cv_done_.wait(lock, [this] { return active_ == 0; });
    }

    void
    shutdown()
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            stop_ = true;
        }
        cv_start_.notify_all();
        for (std::thread& t : workers_)
            if (t.joinable())
                t.join();
        workers_.clear();
    }

    /** Merge every shard's counts into their registries (call after
     *  shutdown(), from one thread). */
    void
    flushShards()
    {
        for (StatShard& shard : shards_)
            shard.flush();
    }

  private:
    void
    drain(uint64_t slice_no)
    {
        for (;;) {
            const uint32_t i =
                ticket_.fetch_add(1, std::memory_order_relaxed);
            if (i >= sms_.size())
                return;
            sim_.stepSmSlice(sms_[i], slice_no);
        }
    }

    void
    workerMain(unsigned idx)
    {
        StatShardScope shard(shards_[idx]);
        uint64_t seen = 0;
        for (;;) {
            uint64_t slice_no;
            {
                std::unique_lock<std::mutex> lock(m_);
                cv_start_.wait(lock, [this, seen] {
                    return stop_ || epoch_ != seen;
                });
                if (stop_)
                    return;
                seen = epoch_;
                slice_no = slice_no_;
            }
            drain(slice_no);
            {
                std::lock_guard<std::mutex> lock(m_);
                if (--active_ == 0)
                    cv_done_.notify_one();
            }
        }
    }

    GpuSim& sim_;
    std::vector<SmCtx>& sms_;
    std::vector<StatShard> shards_; ///< [0] = main, [1..] = workers
    std::vector<std::thread> workers_;
    std::mutex m_;
    std::condition_variable cv_start_, cv_done_;
    uint64_t epoch_ = 0;
    uint64_t slice_no_ = 0;
    unsigned active_ = 0;
    bool stop_ = false;
    std::atomic<uint32_t> ticket_{0};
};

// ---------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------

GpuSim::GpuSim(const GpuConfig& config, ProtectionMechanism& mech,
               SparseMemory& global_mem, MessageHeap& heap,
               const Program& program, Launch launch)
    : config_(config),
      mech_(mech),
      global_mem_(global_mem),
      heap_(heap),
      program_(program),
      launch_(std::move(launch)),
      obs_(launch_.options.observer),
      l2_(config.l2_size, config.l2_assoc, config.line_bytes)
{
    // Dense register numbering: the file gets one row per register the
    // program names, not one per index up to the highest (codegen's
    // scratch R249 would otherwise give every instrumented kernel 250
    // rows). Registers are independent and start at zero, so the
    // renaming cannot change results. Decode and issue read the private
    // copy; program_ (disassembly, the mechanism's view) stays as
    // compiled. ISETP's dst names a predicate, not a register.
    program_.validate();
    code_ = program_.code;
    std::array<bool, kNumRegs> named{};
    for (const Instruction& inst : code_) {
        if (inst.dst >= 0 && inst.op != Opcode::ISETP)
            named[unsigned(inst.dst)] = true;
        for (const Operand& src : inst.src)
            if (src.isReg())
                named[src.value] = true;
    }
    std::array<unsigned, kNumRegs> dense{};
    for (unsigned r = 0; r < kNumRegs; ++r)
        if (named[r])
            dense[r] = nregs_++;
    for (Instruction& inst : code_) {
        if (inst.dst >= 0 && inst.op != Opcode::ISETP)
            inst.dst = int(dense[unsigned(inst.dst)]);
        for (Operand& src : inst.src)
            if (src.isReg())
                src.value = dense[src.value];
    }
    warps_per_block_ =
        (launch_.block_threads + config_.warp_size - 1) / config_.warp_size;

    // Constant bank: stack pointer (Fig. 7), dynamic-shared base, and
    // kernel parameters.
    cbank_.assign(Program::kParamBase + 8 * launch_.params.size() + 8, 0);
    const uint64_t stack_top = config_.stack_top;
    std::memcpy(cbank_.data() + Program::kStackPtrOffset, &stack_top, 8);
    {
        // The driver places the dynamic pool after the static buffers;
        // under pointer-encoding mechanisms it aligns the pool and hands
        // out a coarse extent over it (paper §IX-A).
        uint64_t dyn_base = program_.static_shared_bytes;
        uint64_t dyn_ptr = dyn_base;
        if (launch_.options.dynamic_shared_bytes > 0) {
            const PointerCodec codec;
            if (mech_.encodePointers()) {
                const uint64_t aligned =
                    codec.alignedSize(launch_.options.dynamic_shared_bytes);
                dyn_base = alignUp(dyn_base, aligned);
                dyn_ptr = codec.encode(dyn_base,
                                       launch_.options.dynamic_shared_bytes);
            }
        }
        dyn_shared_base_ = dyn_base;
        std::memcpy(cbank_.data() + Program::kDynSharedOffset, &dyn_ptr, 8);
    }
    for (size_t i = 0; i < launch_.params.size(); ++i)
        std::memcpy(cbank_.data() + Program::kParamBase + 8 * i,
                    &launch_.params[i], 8);

    buildDecodeTable();
}

GpuSim::~GpuSim() = default;

void
GpuSim::buildDecodeTable()
{
    idesc_.resize(code_.size());
    for (size_t i = 0; i < code_.size(); ++i) {
        const Instruction& inst = code_[i];
        InstDesc& d = idesc_[i];
        for (unsigned s = 0; s < kMaxSrcs; ++s) {
            const Operand& op = inst.src[s];
            InstDesc::Src& ds = d.src[s];
            switch (op.kind) {
              case Operand::Kind::None:
                break; // Const 0
              case Operand::Kind::Reg:
                ds.kind = InstDesc::Src::K::Reg;
                ds.reg = uint16_t(op.value);
                d.src_reg[s] = int16_t(op.value);
                break;
              case Operand::Kind::Imm:
                ds.constv = op.value;
                break;
              case Operand::Kind::CBank: {
                uint64_t v = 0;
                if (op.value + 8 <= cbank_.size())
                    std::memcpy(&v, cbank_.data() + op.value, 8);
                ds.constv = v;
                break;
              }
              case Operand::Kind::Special:
                ds.kind = InstDesc::Src::K::Special;
                ds.sr = SpecialReg(op.value);
                break;
            }
        }
        d.dst = int16_t(inst.dst);
        d.guard_pred = int16_t(inst.guard_pred);
        d.is_isetp = inst.op == Opcode::ISETP;
        d.is_mem = isMemory(inst.op);
        if (d.is_mem) {
            d.is_store = isStore(inst.op);
            d.space = memSpaceOf(inst.op);
            uses_local_ = uses_local_ || d.space == MemSpace::Local;
        }
        switch (inst.op) {
          case Opcode::BRA:
          case Opcode::EXIT:
          case Opcode::TRAP:
          case Opcode::BAR:
          case Opcode::NOP:
          case Opcode::RET:
          case Opcode::MALLOC:
          case Opcode::FREE:
          case Opcode::MEMBAR:
            d.kind = InstDesc::Kind::Ctrl;
            break;
          default:
            d.kind = d.is_mem ? InstDesc::Kind::Mem : InstDesc::Kind::Alu;
            break;
        }
        d.alu_latency = isFpAlu(inst.op)
                            ? (inst.op == Opcode::MUFU
                                   ? config_.sfu_latency
                                   : config_.fp_latency)
                            : config_.int_latency;
    }
}

// ---------------------------------------------------------------------
// Operand evaluation
// ---------------------------------------------------------------------

GpuSim::ResolvedSrc
GpuSim::resolveSrc(const Warp& warp, const InstDesc& d, unsigned idx) const
{
    const InstDesc::Src& s = d.src[idx];
    ResolvedSrc r;
    switch (s.kind) {
      case InstDesc::Src::K::Const:
        r.base = s.constv;
        break;
      case InstDesc::Src::K::Reg:
        r.row = warp.regs.data() + size_t(s.reg) * warp.rstride;
        break;
      case InstDesc::Src::K::Special:
        switch (s.sr) {
          case SpecialReg::TidX:
            r.base = uint64_t(warp.warp_in_block) * config_.warp_size;
            r.stride = 1;
            break;
          case SpecialReg::TidY:      break;
          case SpecialReg::CtaIdX:    r.base = warp.block; break;
          case SpecialReg::CtaIdY:    break;
          case SpecialReg::NTidX:     r.base = launch_.block_threads; break;
          case SpecialReg::NTidY:     r.base = 1; break;
          case SpecialReg::NCtaIdX:   r.base = launch_.grid_blocks; break;
          case SpecialReg::LaneId:    r.stride = 1; break;
          case SpecialReg::WarpId:    r.base = warp.warp_in_block; break;
          case SpecialReg::SmId:      break;
          case SpecialReg::GlobalTid:
            r.base = warp.first_gtid;
            r.stride = 1;
            break;
        }
        break;
    }
    return r;
}

void
GpuSim::pendFault(SmCtx& sm, Fault fault)
{
    sm.fault_q.push_back({sm.cycle, sm.event_seq++, std::move(fault)});
    sm.stopped = true;
}

// ---------------------------------------------------------------------
// Memory execution
// ---------------------------------------------------------------------

MemAccess
GpuSim::lsuAccess(const SmCtx& sm, const Instruction& inst, MemSpace space,
                  bool writes, unsigned width) const
{
    MemAccess access;
    access.space = space;
    access.is_store = writes;
    access.width = uint8_t(width);
    access.imm_offset = inst.imm_offset;
    access.sm = sm.sm_id;
    access.frame_base = config_.stack_top - program_.frame_bytes;
    access.stack_top = config_.stack_top;
    access.shared_limit =
        dyn_shared_base_ + launch_.options.dynamic_shared_bytes;
    return access;
}

void
GpuSim::observeAccess(SmCtx& sm, const Warp& warp, const Instruction& inst,
                      MemSpace space, uint32_t gtid, uint64_t addr,
                      unsigned width, bool writes, uint64_t value,
                      uint64_t value2)
{
    const bool atomic = isAtomic(inst.op);
    // Plain or atomic load/store, unless an RMW or CAS.
    MemEvent::Kind kind =
        writes ? MemEvent::Kind::Store : MemEvent::Kind::Load;
    if (inst.op == Opcode::CASG || inst.op == Opcode::CASS)
        kind = MemEvent::Kind::Cas;
    else if (atomic && inst.aop != AtomicOp::Ld && inst.aop != AtomicOp::St)
        kind = MemEvent::Kind::Rmw;
    MemEvent e{.kind = kind, .width = uint8_t(width), .space = space,
               .block = warp.block, .warp = warp.warp_in_block,
               .gtid = gtid, .pc = warp.pc, .seq = sm.event_seq++,
               .cycle = sm.cycle, .addr = addr, .value = value,
               .value2 = value2};
    if (atomic) {
        e.is_atomic = true;
        e.aop = inst.aop;
        e.scope = inst.scope;
        e.order = inst.order;
    }
    logEvent(sm, e);
}

void
GpuSim::logEvent(const SmCtx& sm, MemEvent e)
{
    e.sm = sm.sm_id;
    obs_->onEvent(e);
}

template <bool kFunctional>
void
GpuSim::executeMemory(SmCtx& sm, Warp& warp, const Instruction& inst)
{
    const InstDesc& d = idesc_[warp.pc];
    const MemSpace space = d.space;
    const bool is_store = d.is_store;
    const unsigned addr_reg = unsigned(inst.src[0].value);

    unsigned extra = 0;
    unsigned serialized = 0;
    std::vector<uint64_t>& lines = sm.lines_scratch;
    lines.clear();

    const uint64_t total_threads =
        uint64_t(launch_.grid_blocks) * launch_.block_threads;

    const uint64_t* addr_row = warp.regRow(addr_reg);
    const ResolvedSrc store_val =
        is_store ? resolveSrc(warp, d, 1) : ResolvedSrc{};
    uint64_t* const dst_row =
        (!is_store && inst.dst >= 0) ? warp.regRow(unsigned(inst.dst))
                                     : nullptr;
    LocalMemory* const local_base =
        sm.local_arena.empty()
            ? nullptr // kernel has no local-memory instructions
            : sm.local_arena.data() +
                  size_t(warp.local_slot) * config_.warp_size;

    MemAccess access = lsuAccess(sm, inst, space, is_store, inst.width);

    for (unsigned lane = 0; lane < warp.lanes; ++lane) {
        if (!(warp.active & (1u << lane)))
            continue;
        const uint32_t gtid = warp.first_gtid + lane;

        access.reg_value = addr_row[lane];
        access.gtid = gtid;

        MemCheck check = mech_.onMemAccess(access);
        if (check.fault) {
            pendFault(sm, *check.fault);
            return;
        }
        extra = std::max(extra, check.extra_cycles);
        serialized += check.serialize_cycles;

        // Architectural access. Global goes through the SM's private
        // view (frozen base + own-store overlay); shared and local are
        // SM-private arenas accessed directly.
        const uint64_t addr = check.address;
        auto accessIn = [&](auto& mem) {
            if (is_store)
                mem.write(addr, store_val.get(lane), inst.width);
            else
                dst_row[lane] = mem.read(addr, inst.width);
        };
        switch (space) {
          case MemSpace::Global:
            accessIn(sm.gview);
            break;
          case MemSpace::Shared:
            accessIn(*warp.shared);
            break;
          case MemSpace::Local:
            accessIn(local_base[lane]);
            break;
          case MemSpace::Constant:
            lmi_panic("constant space reached the LSU");
        }

        if (obs_)
            observeAccess(sm, warp, inst, space, gtid, addr, inst.width,
                          is_store, is_store ? store_val.get(lane) : 0,
                          is_store ? 0 : dst_row[lane]);

        if constexpr (!kFunctional) {
            if (space != MemSpace::Shared) {
                uint64_t probe_addr = addr;
                if (space == MemSpace::Local) {
                    // Interleave per-thread words so that lane-uniform
                    // offsets coalesce, as the hardware's local-memory
                    // mapping does.
                    const uint64_t word = (addr - kLocalBase) >> 2;
                    probe_addr = kLocalPhysBase +
                                 (word * total_threads + gtid) * 4 +
                                 (addr & 3);
                }
                const uint64_t line = probe_addr / config_.line_bytes;
                // Coalesced warps hit the previous lane's line almost
                // every time; only fall back to the full scan when they
                // don't.
                if (lines.empty() || lines.back() != line) {
                    if (std::find(lines.begin(), lines.end(), line) ==
                        lines.end())
                        lines.push_back(line);
                }
            }
        }
    }

    // Region profile (Fig. 1).
    switch (inst.op) {
      case Opcode::LDG: ++sm.cnt.ldg; break;
      case Opcode::STG: ++sm.cnt.stg; break;
      case Opcode::LDS: ++sm.cnt.lds; break;
      case Opcode::STS: ++sm.cnt.sts; break;
      case Opcode::LDL: ++sm.cnt.ldl; break;
      case Opcode::STL: ++sm.cnt.stl; break;
      default: break;
    }

    if constexpr (!kFunctional)
        lsuTiming(sm, warp, inst, space, extra, serialized);
}

void
GpuSim::lsuTiming(SmCtx& sm, Warp& warp, const Instruction& inst,
                  MemSpace space, unsigned extra, unsigned serialized)
{
    // The LSU port is occupied for one slot per transaction plus any
    // per-transaction check serialization (single-ported bounds/check
    // structures) — this is a throughput cost shared by every warp on
    // the SM, on top of the per-instruction latency.
    const std::vector<uint64_t>& lines = sm.lines_scratch;
    const unsigned ntrans = lines.empty() ? 1 : unsigned(lines.size());
    const unsigned occupancy = ntrans + serialized;
    const uint64_t start = std::max(sm.cycle, sm.lsu_busy_until);
    sm.lsu_busy_until = start + occupancy;
    const unsigned queue_wait = unsigned(start - sm.cycle);

    unsigned latency;
    if (space == MemSpace::Shared) {
        latency = config_.shared_latency + extra + queue_wait;
    } else {
        unsigned worst = config_.l1_latency;
        for (uint64_t line : lines) {
            const uint64_t byte_addr = line * config_.line_bytes;
            unsigned lat = config_.l1_latency;
            if (sm.l1.access(byte_addr)) {
                ++sm.cnt.l1_hits;
            } else {
                ++sm.cnt.l1_misses;
                lat += config_.l2_latency;
                // L2 decision against the slice-frozen tag array, plus
                // the lines this SM itself already pulled in this
                // slice. The barrier replays l2_log through the real
                // LRU state in canonical SM order.
                sm.l2_log.push_back(byte_addr);
                const bool l2_hit = sm.own_lines.count(line) != 0 ||
                                    l2_.probe(byte_addr);
                sm.own_lines.insert(line);
                if (l2_hit) {
                    ++sm.cnt.l2_hits;
                } else {
                    ++sm.cnt.l2_misses;
                    lat += sm.dram->access(sm.cycle);
                    ++sm.cnt.dram_accesses;
                }
            }
            worst = std::max(worst, lat);
        }
        latency = worst + (ntrans - 1) * config_.coalesce_serialize +
                  extra + queue_wait;
    }

    if (!isStore(inst.op) && inst.dst >= 0)
        warp.reg_ready[unsigned(inst.dst)] = sm.cycle + latency;
    // Stores retire through the write queue; the warp itself moves on.
}

// maskToWidth/applyAtomicRmw (arch/isa.hpp) are shared with the model
// checker so both replay the same RMW data function.

template <bool kFunctional>
void
GpuSim::executeAtomic(SmCtx& sm, Warp& warp, const Instruction& inst)
{
    const InstDesc& d = idesc_[warp.pc];
    const MemSpace space = d.space;
    const bool is_cas =
        inst.op == Opcode::CASG || inst.op == Opcode::CASS;
    const unsigned width = inst.width ? inst.width : 4;
    // Everything except a pure atomic load writes memory.
    const bool writes = is_cas || inst.aop != AtomicOp::Ld;

    const uint64_t* addr_row = warp.regRow(unsigned(inst.src[0].value));
    // Value operands: RMW operand / CAS expected, and CAS desired.
    const ResolvedSrc v1 = inst.src[1].kind != Operand::Kind::None
                               ? resolveSrc(warp, d, 1)
                               : ResolvedSrc{};
    const ResolvedSrc v2 = is_cas ? resolveSrc(warp, d, 2) : ResolvedSrc{};
    uint64_t* const dst_row =
        inst.dst >= 0 ? warp.regRow(unsigned(inst.dst)) : nullptr;

    MemAccess access = lsuAccess(sm, inst, space, writes, width);

    SmCtx::AtomOp op;
    if (space == MemSpace::Global) {
        op.is_cas = is_cas;
        op.aop = is_cas ? AtomicOp::Cas : inst.aop;
        op.width = uint8_t(width);
        op.warp = uint32_t(&warp - sm.warps.data());
        op.cycle = sm.cycle;
        op.seq = sm.event_seq++;
        op.dst = int16_t(inst.dst);
        op.active = warp.active;
    }

    unsigned extra = 0;
    for (unsigned lane = 0; lane < warp.lanes; ++lane) {
        if (!(warp.active & (1u << lane)))
            continue;
        const uint32_t gtid = warp.first_gtid + lane;
        access.reg_value = addr_row[lane];
        access.gtid = gtid;

        MemCheck check = mech_.onMemAccess(access);
        if (check.fault) {
            pendFault(sm, *check.fault);
            return;
        }
        extra = std::max(extra, check.extra_cycles);
        const uint64_t addr = check.address;

        if (space == MemSpace::Shared) {
            // Shared memory is SM-private: the read-modify-write is
            // already atomic with respect to everything that can see it.
            const uint64_t old = warp.shared->read(addr, width);
            if (is_cas) {
                if (maskToWidth(old, width) ==
                    maskToWidth(v1.get(lane), width))
                    warp.shared->write(addr, v2.get(lane), width);
            } else if (writes) {
                warp.shared->write(
                    addr, applyAtomicRmw(inst.aop, old, v1.get(lane),
                                         width),
                    width);
            }
            if (dst_row)
                dst_row[lane] = maskToWidth(old, width);
        } else {
            op.addrs[lane] = addr;
            op.vals[lane] = is_cas ? v2.get(lane) : v1.get(lane);
            op.cmps[lane] = is_cas ? v1.get(lane) : 0;
        }

        if (obs_)
            observeAccess(sm, warp, inst, space, gtid, addr, width, writes,
                          op.vals[lane], op.cmps[lane]);
    }

    if (space == MemSpace::Shared) {
        if constexpr (!kFunctional) {
            if (inst.dst >= 0)
                warp.reg_ready[unsigned(inst.dst)] =
                    sm.cycle + config_.shared_latency + extra;
        }
        return;
    }

    // Global: park the warp; the slice barrier executes the operation
    // against the base memory in canonical (sm, seq) order, writes the
    // old values into the destination registers and unparks the warp.
    sm.atom_q.push_back(op);
    warp.heap_pending = true;
    ++sm.heap_pending_warps;
}

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

uint64_t
GpuSim::warpReadyAt(const Warp& warp) const
{
    // Earliest cycle this warp could issue its next instruction: the
    // max over its stall window and every scoreboard dependency. A
    // warp is ready on cycle c iff warpReadyAt(w) <= c, so one value
    // (cached in Warp::ready_at) serves both the GTO pick and the stall
    // fast-forward target.
    if (warp.done || warp.at_barrier || warp.heap_pending)
        return ~uint64_t(0);
    uint64_t t = warp.stall_until;
    const InstDesc& d = idesc_[warp.pc];
    for (unsigned i = 0; i < kMaxSrcs; ++i) {
        const int r = d.src_reg[i];
        if (r >= 0)
            t = std::max(t, warp.reg_ready[unsigned(r)]);
    }
    if (d.is_isetp)
        t = std::max(t, warp.pred_ready[unsigned(d.dst)]);
    else if (d.dst >= 0)
        t = std::max(t, warp.reg_ready[unsigned(d.dst)]);
    if (d.guard_pred >= 0)
        t = std::max(t, warp.pred_ready[unsigned(d.guard_pred)]);
    return t;
}

void
GpuSim::markWarpDone(SmCtx& sm, Warp& warp)
{
    warp.done = true;
    --sm.live_warps;
    sm.local_free.push_back(warp.local_slot);
    // Release the dead warp's bulk state: resident-warp scans stay
    // cache-resident across long multi-wave launches, and its local
    // slot is free for the next admitted warp.
    std::vector<uint64_t>().swap(warp.regs);
    std::vector<uint64_t>().swap(warp.reg_ready);
    std::vector<std::pair<uint64_t, uint32_t>>().swap(warp.stack);
    for (BlockCtx& blk : sm.blocks) {
        if (blk.block_id == warp.block) {
            if (++blk.done_warps == blk.num_warps)
                sm.retire_pending = true;
            break;
        }
    }
}

template <bool kFunctional>
void
GpuSim::issueWarpT(SmCtx& sm, Warp& warp)
{
    // Reconvergence bookkeeping: merge or switch paths as needed. A
    // warp always has a path here: BRA pushes only nonzero masks, and
    // EXIT retires the warp once its stack is empty.
    for (;;) {
        if (warp.active == 0) {
            if (warp.stack.empty())
                lmi_panic("warp %u of block %u issued with no live path",
                          warp.warp_in_block, warp.block);
            warp.pc = warp.stack.back().first;
            warp.active = warp.stack.back().second;
            warp.stack.pop_back();
            continue;
        }
        if (!warp.stack.empty()) {
            if (warp.pc == warp.stack.back().first) {
                warp.active |= warp.stack.back().second;
                warp.stack.pop_back();
                continue;
            }
            if (warp.pc > warp.stack.back().first) {
                // The live path jumped past the pending one: switch.
                std::swap(warp.pc, warp.stack.back().first);
                std::swap(warp.active, warp.stack.back().second);
                continue;
            }
        }
        break;
    }

    const Instruction& inst = code_[warp.pc];
    const InstDesc& d = idesc_[warp.pc];
    ++sm.cnt.instructions;
    sm.cnt.thread_instructions += std::popcount(warp.active);

    const uint64_t cycle = sm.cycle;
    if (obs_)
        obs_->onIssue({.sm = sm.sm_id, .block = warp.block,
                       .warp = warp.warp_in_block, .cycle = cycle,
                       .pc = warp.pc, .op = inst.op,
                       .active_mask = warp.active,
                       .hinted = inst.hints.active});

    if (d.kind == InstDesc::Kind::Ctrl)
    switch (inst.op) {
      case Opcode::BRA: {
        uint32_t taken = 0;
        if (inst.guard_pred == kNoPred) {
            taken = warp.active;
        } else {
            const uint32_t p = warp.preds[unsigned(inst.guard_pred)];
            taken = warp.active & (inst.guard_neg ? ~p : p);
        }
        const uint32_t not_taken = warp.active & ~taken;
        const uint64_t target = uint64_t(inst.branch_target);
        if (not_taken == 0) {
            warp.pc = target;
        } else if (taken == 0) {
            ++warp.pc;
        } else {
            // Diverge: continue on the lower-PC path, push the other.
            if (target < warp.pc) {
                warp.stack.emplace_back(warp.pc + 1, not_taken);
                warp.pc = target;
                warp.active = taken;
            } else {
                warp.stack.emplace_back(target, taken);
                ++warp.pc;
                warp.active = not_taken;
            }
        }
        warp.stall_until = cycle + 1;
        return;
      }

      case Opcode::EXIT: {
        warp.exited |= warp.active;
        warp.active = 0;
        if (warp.stack.empty())
            markWarpDone(sm, warp);
        // Remaining paths resume on the next issue via reconvergence.
        return;
      }

      case Opcode::TRAP: {
        Fault fault;
        fault.kind = FaultKind(inst.src[0].value);
        fault.detail = "software check trap in " + program_.name;
        pendFault(sm, std::move(fault));
        return;
      }

      case Opcode::BAR: {
        // Barrier divergence, lane level: every non-exited lane of the
        // warp must arrive together. A partial active mask means the
        // barrier sits under a divergent branch — undefined behaviour
        // on real hardware, a hang or silent early release in naive
        // simulators. Fail loudly instead.
        const uint32_t live_mask =
            (warp.lanes >= 32 ? ~uint32_t(0) : ((1u << warp.lanes) - 1)) &
            ~warp.exited;
        if (warp.active != live_mask) {
            Fault f;
            f.kind = FaultKind::BarrierDivergence;
            f.detail = "barrier under divergent control flow in " +
                       program_.name + ": block " +
                       std::to_string(warp.block) + " warp " +
                       std::to_string(warp.warp_in_block) +
                       " arrived with partial active mask";
            pendFault(sm, std::move(f));
            return;
        }
        if (obs_)
            logEvent(sm, {.kind = MemEvent::Kind::Barrier,
                          .order = MemOrder::AcqRel, .block = warp.block,
                          .warp = warp.warp_in_block,
                          .gtid = warp.first_gtid, .pc = warp.pc,
                          .seq = sm.event_seq++, .cycle = cycle});
        warp.at_barrier = true;
        warp.barrier_pc = warp.pc;
        ++sm.at_barrier_warps;
        ++warp.pc;
        return;
      }

      case Opcode::MEMBAR: {
        // Architecturally a no-op on the slice-synchronous engine: each
        // SM issues in program order and stores commit in canonical
        // order at the slice barrier, so the machine is at least as
        // strong as the fence requests at any scope. The event is still
        // logged — the model checker replays it as an ordering edge
        // when it explores interleavings weaker than the engine's.
        if (obs_)
            logEvent(sm, {.kind = MemEvent::Kind::Fence,
                          .scope = inst.scope, .order = inst.order,
                          .block = warp.block,
                          .warp = warp.warp_in_block,
                          .gtid = warp.first_gtid, .pc = warp.pc,
                          .seq = sm.event_seq++, .cycle = cycle});
        ++warp.pc;
        return;
      }

      case Opcode::NOP:
      case Opcode::RET:
        ++warp.pc;
        return;

      case Opcode::MALLOC:
      case Opcode::FREE: {
        // The device heap is shared, order-dependent state: defer the
        // call to the slice barrier (canonical (sm, seq) order) and
        // park the warp until then. Operand values are captured now —
        // register state may change before the barrier runs the op.
        SmCtx::HeapOp op;
        op.is_malloc = inst.op == Opcode::MALLOC;
        op.warp = uint32_t(&warp - sm.warps.data());
        op.cycle = cycle;
        op.seq = sm.event_seq++;
        op.dst = int16_t(inst.dst);
        op.active = warp.active;
        const ResolvedSrc size_or_ptr = resolveSrc(warp, d, 0);
        for (unsigned lane = 0; lane < warp.lanes; ++lane)
            if (warp.active & (1u << lane))
                op.vals[lane] = size_or_ptr.get(lane);
        sm.heap_q.push_back(op);
        warp.heap_pending = true;
        ++sm.heap_pending_warps;
        ++warp.pc;
        return;
      }

      default:
        break;
    }

    if (d.is_mem) {
        if (isAtomic(inst.op))
            executeAtomic<kFunctional>(sm, warp, inst);
        else
            executeMemory<kFunctional>(sm, warp, inst);
        ++warp.pc;
        return;
    }

    // Integer / FP / MOV / S2R / ISETP / LDC path. The functional tier
    // never consults readiness, so it skips the latency query; the
    // reg_ready/pred_ready stores below are shared (values it writes
    // are never read).
    unsigned latency = d.alu_latency;
    if (!kFunctional && inst.hints.active)
        latency += mech_.extraIntLatency(inst);

    const ResolvedSrc s0 = resolveSrc(warp, d, 0);
    const ResolvedSrc s1 = resolveSrc(warp, d, 1);
    const ResolvedSrc s2 = resolveSrc(warp, d, 2);

    if (d.is_isetp) {
        for (unsigned lane = 0; lane < warp.lanes; ++lane) {
            if (!(warp.active & (1u << lane)))
                continue;
            const bool r = evalCmp(inst.cmp, int64_t(s0.get(lane)),
                                   int64_t(s1.get(lane)));
            if (r)
                warp.preds[unsigned(inst.dst)] |= (1u << lane);
            else
                warp.preds[unsigned(inst.dst)] &= ~(1u << lane);
        }
        warp.pred_ready[unsigned(inst.dst)] = cycle + latency;
        ++warp.pc;
        return;
    }

    uint64_t* const dst_row =
        inst.dst >= 0 ? warp.regRow(unsigned(inst.dst)) : nullptr;

    if (!inst.hints.active) {
        // Unhinted ALU fast path: the opcode dispatch is hoisted out of
        // the lane loop, and a fully-active warp with a destination
        // takes a maskless loop the compiler can vectorize.
        const uint32_t full_mask =
            warp.lanes >= 32 ? ~uint32_t(0) : ((1u << warp.lanes) - 1);
#define LMI_ALU_LOOP(expr)                                              \
    do {                                                                \
        if (warp.active == full_mask && dst_row) {                      \
            for (unsigned lane = 0; lane < warp.lanes; ++lane)          \
                dst_row[lane] = (expr);                                 \
        } else {                                                        \
            for (unsigned lane = 0; lane < warp.lanes; ++lane) {        \
                if (!(warp.active & (1u << lane)))                      \
                    continue;                                           \
                const uint64_t out = (expr);                            \
                if (dst_row)                                            \
                    dst_row[lane] = out;                                \
            }                                                           \
        }                                                               \
    } while (0)

        switch (inst.op) {
          case Opcode::IADD:
            LMI_ALU_LOOP(s0.get(lane) + s1.get(lane));
            break;
          case Opcode::IADD3:
            LMI_ALU_LOOP(s0.get(lane) + s1.get(lane) + s2.get(lane));
            break;
          case Opcode::ISUB:
            LMI_ALU_LOOP(s0.get(lane) - s1.get(lane));
            break;
          case Opcode::IMUL:
            LMI_ALU_LOOP(s0.get(lane) * s1.get(lane));
            break;
          case Opcode::IMAD:
            LMI_ALU_LOOP(s0.get(lane) * s1.get(lane) + s2.get(lane));
            break;
          case Opcode::IMNMX:
            LMI_ALU_LOOP(uint64_t(std::min(int64_t(s0.get(lane)),
                                           int64_t(s1.get(lane)))));
            break;
          case Opcode::SHL:
            LMI_ALU_LOOP(s1.get(lane) >= 64 ? 0
                                            : s0.get(lane)
                                                  << s1.get(lane));
            break;
          case Opcode::SHR:
            LMI_ALU_LOOP(s1.get(lane) >= 64 ? 0
                                            : s0.get(lane) >>
                                                  s1.get(lane));
            break;
          case Opcode::LOP_AND:
            LMI_ALU_LOOP(s0.get(lane) & s1.get(lane));
            break;
          case Opcode::LOP_OR:
            LMI_ALU_LOOP(s0.get(lane) | s1.get(lane));
            break;
          case Opcode::LOP_XOR:
            LMI_ALU_LOOP(s0.get(lane) ^ s1.get(lane));
            break;
          case Opcode::MOV:
          case Opcode::S2R:
          case Opcode::LDC:
            LMI_ALU_LOOP(s0.get(lane));
            break;
          case Opcode::FADD:
            LMI_ALU_LOOP(asBits(asDouble(s0.get(lane)) +
                                asDouble(s1.get(lane))));
            break;
          case Opcode::FMUL:
            LMI_ALU_LOOP(asBits(asDouble(s0.get(lane)) *
                                asDouble(s1.get(lane))));
            break;
          case Opcode::FFMA:
            LMI_ALU_LOOP(asBits(asDouble(s0.get(lane)) *
                                    asDouble(s1.get(lane)) +
                                asDouble(s2.get(lane))));
            break;
          case Opcode::MUFU:
            LMI_ALU_LOOP(asBits(asDouble(s0.get(lane)) == 0.0
                                    ? 0.0
                                    : 1.0 / asDouble(s0.get(lane))));
            break;
          default:
            lmi_panic("unhandled opcode %s", opcodeName(inst.op));
        }
#undef LMI_ALU_LOOP

        if (inst.dst >= 0)
            warp.reg_ready[unsigned(inst.dst)] = cycle + latency;
        ++warp.pc;
        return;
    }

    // Hinted (pointer-producing) ops go through the generic lane loop:
    // the OCU hook observes every lane's input and result.
    for (unsigned lane = 0; lane < warp.lanes; ++lane) {
        if (!(warp.active & (1u << lane)))
            continue;
        const uint64_t a = s0.get(lane);
        const uint64_t b = s1.get(lane);
        const uint64_t c = s2.get(lane);
        uint64_t out = 0;

        switch (inst.op) {
          case Opcode::IADD:    out = a + b; break;
          case Opcode::IADD3:   out = a + b + c; break;
          case Opcode::ISUB:    out = a - b; break;
          case Opcode::IMUL:    out = a * b; break;
          case Opcode::IMAD:    out = a * b + c; break;
          case Opcode::IMNMX:
            out = uint64_t(std::min(int64_t(a), int64_t(b)));
            break;
          case Opcode::SHL:     out = b >= 64 ? 0 : a << b; break;
          case Opcode::SHR:     out = b >= 64 ? 0 : a >> b; break;
          case Opcode::LOP_AND: out = a & b; break;
          case Opcode::LOP_OR:  out = a | b; break;
          case Opcode::LOP_XOR: out = a ^ b; break;
          case Opcode::MOV:     out = a; break;
          case Opcode::S2R:     out = a; break;
          case Opcode::LDC:     out = a; break;
          case Opcode::FADD:    out = asBits(asDouble(a) + asDouble(b)); break;
          case Opcode::FMUL:    out = asBits(asDouble(a) * asDouble(b)); break;
          case Opcode::FFMA:
            out = asBits(asDouble(a) * asDouble(b) + asDouble(c));
            break;
          case Opcode::MUFU:
            out = asBits(asDouble(a) == 0.0 ? 0.0 : 1.0 / asDouble(a));
            break;
          default:
            lmi_panic("unhandled opcode %s", opcodeName(inst.op));
        }

        // OCU attachment point (paper §VII).
        const uint64_t ptr_in =
            inst.hints.pointer_operand == 0
                ? a
                : (inst.op == Opcode::IMAD ? c : b);
        out = mech_.onIntResult(inst, ptr_in, out);

        if (dst_row)
            dst_row[lane] = out;
    }

    if (inst.dst >= 0)
        warp.reg_ready[unsigned(inst.dst)] = cycle + latency;

    ++warp.pc;
}

// ---------------------------------------------------------------------
// SM loop
// ---------------------------------------------------------------------

void
GpuSim::releaseBarriers(SmCtx& sm)
{
    for (BlockCtx& block : sm.blocks) {
        unsigned waiting = 0;
        const unsigned live = block.num_warps - block.done_warps;
        uint64_t bar_pc = ~uint64_t(0);
        bool mixed_pc = false;
        for (uint32_t wi = block.first_warp;
             wi < block.first_warp + block.num_warps; ++wi) {
            const Warp& w = sm.warps[wi];
            if (w.done)
                continue;
            if (w.at_barrier) {
                ++waiting;
                if (bar_pc == ~uint64_t(0))
                    bar_pc = w.barrier_pc;
                else if (bar_pc != w.barrier_pc)
                    mixed_pc = true;
            }
        }
        if (waiting == 0)
            continue;
        // Barrier divergence, warp level: a warp that already ran to
        // completion can never arrive, so the waiting warps would hang
        // forever. Diagnose instead of deadlocking.
        if (live < block.num_warps) {
            Fault f;
            f.kind = FaultKind::BarrierDivergence;
            f.detail =
                "barrier divergence in " + program_.name + ": block " +
                std::to_string(block.block_id) + " has " +
                std::to_string(waiting) + " warp(s) at a barrier while " +
                std::to_string(block.num_warps - live) +
                " warp(s) already exited";
            pendFault(sm, std::move(f));
            return;
        }
        if (waiting == live) {
            // All warps arrived — but releasing warps parked on
            // *different* barriers would silently merge incompatible
            // reconvergence states. That is also divergence.
            if (mixed_pc) {
                Fault f;
                f.kind = FaultKind::BarrierDivergence;
                f.detail = "barrier divergence in " + program_.name +
                           ": warps of block " +
                           std::to_string(block.block_id) +
                           " are parked at different barriers";
                pendFault(sm, std::move(f));
                return;
            }
            for (uint32_t wi = block.first_warp;
                 wi < block.first_warp + block.num_warps; ++wi) {
                Warp& w = sm.warps[wi];
                if (w.at_barrier) {
                    w.at_barrier = false;
                    w.stall_until = sm.cycle + config_.barrier_latency;
                    w.ready_at = warpReadyAt(w);
                    --sm.at_barrier_warps;
                }
            }
            // Released warps become issuable earlier than any sleeping
            // scheduler planned for.
            std::fill(sm.sched_sleep.begin(), sm.sched_sleep.end(),
                      uint64_t(0));
            if (obs_)
                logEvent(sm, {.kind = MemEvent::Kind::BarrierRelease,
                              .block = block.block_id, .cycle = sm.cycle});
        }
    }
}

void
GpuSim::admitBlocks(SmCtx& sm)
{
    while (sm.next_block < sm.pending_blocks.size()) {
        if (sm.blocks.size() >= config_.max_blocks_per_sm ||
            sm.live_warps + warps_per_block_ > config_.max_warps_per_sm)
            return;

        const uint32_t bid = sm.pending_blocks[sm.next_block++];
        BlockCtx bc;
        bc.block_id = bid;
        bc.num_warps = warps_per_block_;
        bc.first_warp = uint32_t(sm.warps.size());
        bc.shared_slot = sm.shared_free.back();
        sm.shared_free.pop_back();
        sm.shared_arena[bc.shared_slot].reset();
        sm.blocks.push_back(bc);
        SparseMemory* const shared = &sm.shared_arena[bc.shared_slot];

        for (unsigned wi = 0; wi < warps_per_block_; ++wi) {
            Warp w;
            w.block = bid;
            w.warp_in_block = wi;
            w.first_gtid = bid * launch_.block_threads +
                           wi * config_.warp_size;
            const unsigned first_tid = wi * config_.warp_size;
            w.lanes = std::min(config_.warp_size,
                               launch_.block_threads - first_tid);
            w.active = w.lanes >= 32 ? ~uint32_t(0)
                                     : ((1u << w.lanes) - 1);
            w.rstride = uint16_t(config_.warp_size);
            w.shared = shared;
            w.local_slot = sm.local_free.back();
            sm.local_free.pop_back();
            if (!sm.local_arena.empty())
                for (unsigned l = 0; l < config_.warp_size; ++l)
                    sm.local_arena[size_t(w.local_slot) *
                                       config_.warp_size +
                                   l]
                        .reset();
            w.reg_ready.assign(nregs_, 0);
            w.regs.assign(size_t(config_.warp_size) * nregs_, 0);
            w.stall_until = sm.cycle;
            w.ready_at = warpReadyAt(w);
            const uint32_t idx = uint32_t(sm.warps.size());
            sm.warps.push_back(std::move(w));
            const unsigned s = idx % config_.schedulers_per_sm;
            sm.sched_live[s].push_back(idx);
            sm.sched_sleep[s] = 0; // new warp: scheduler must rescan
            ++sm.live_warps;
        }
    }
}

void
GpuSim::retireBlocks(SmCtx& sm)
{
    for (size_t i = 0; i < sm.blocks.size();) {
        BlockCtx& blk = sm.blocks[i];
        if (blk.done_warps >= blk.num_warps) {
            sm.shared_free.push_back(blk.shared_slot);
            if (obs_)
                logEvent(sm, {.kind = MemEvent::Kind::BlockRetire,
                              .block = blk.block_id, .cycle = sm.cycle});
            sm.blocks.erase(sm.blocks.begin() + long(i));
        } else {
            ++i;
        }
    }
    // Blocks retire in bulk, so this is the one spot where the scheduler
    // lists accumulate dead entries worth pruning.
    for (auto& list : sm.sched_live) {
        size_t keep = 0;
        for (const uint32_t wi : list)
            if (!sm.warps[wi].done)
                list[keep++] = wi;
        list.resize(keep);
    }
}

void
GpuSim::stepSmSlice(SmCtx& sm, uint64_t slice_no)
{
    if (!sm.started) {
        // Every SM runs slice 1 at cycle 0, so sizing its arenas and
        // admitting its first wave here is the same as doing it before
        // the loop, but it runs on the worker that steps the SM.
        sm.started = true;
        sm.initArenas(config_, warps_per_block_, uses_local_);
        admitBlocks(sm);
    }
    if (launch_.options.tier == ExecutionTier::Functional)
        stepSmSliceFunctional(sm, slice_no);
    else
        stepSmSliceDetailed(sm, slice_no);
}

void
GpuSim::stepSmSliceFunctional(SmCtx& sm, uint64_t slice_no)
{
    if (sm.finished || sm.stopped)
        return;
    const uint64_t slice_end = slice_no * kSliceCycles;
    if (sm.cycle >= slice_end)
        return; // a stall jump already crossed this slice
    sm.gview.beginSlice(slice_no);

    // Budget of warp instructions for this slice: 16× the detailed
    // machine's issue ceiling (schedulers × slice cycles). The slice
    // barrier (overlay stamp re-sync, store-log replay, pool hand-off)
    // is pure overhead without a timing model, and paying it 16× less
    // often is worth ~30% of the tier's wall clock. The factor also
    // fixes where cross-SM stores, heap ops and faults become visible,
    // so it is part of the tier's output, not a free knob. The budget
    // is a pure function of the config — no wall-clock or thread
    // dependence.
    uint64_t budget =
        uint64_t(config_.schedulers_per_sm) * kSliceCycles * 16;
    while (budget > 0) {
        if (sm.retire_pending) {
            sm.retire_pending = false;
            retireBlocks(sm);
            admitBlocks(sm);
        }
        if (sm.live_warps == 0 &&
            sm.next_block >= sm.pending_blocks.size()) {
            sm.finished = true;
            break;
        }
        if (sm.at_barrier_warps != 0) {
            releaseBarriers(sm);
            if (sm.stopped)
                break;
        }
        bool progressed = false;
        const size_t nwarps = sm.warps.size();
        for (size_t wi = 0; wi < nwarps && budget > 0; ++wi) {
            Warp& w = sm.warps[wi];
            if (w.done || w.at_barrier || w.heap_pending)
                continue;
            // Bounded quantum per warp per pass: handing the whole
            // budget to the first runnable warp would serialize the
            // warps in program space — one sprints to its end before
            // the next starts. The round-robin quantum keeps warps
            // interleaved, which decides the order of their heap ops
            // and stores within a slice; it is a pure function of
            // machine state, so determinism is untouched.
            uint64_t quantum = std::min<uint64_t>(budget, 32);
            const uint64_t before = quantum;
            runWarpFunctional(sm, w, quantum);
            if (sm.stopped)
                break;
            budget -= before - quantum;
            progressed = progressed || quantum != before;
        }
        if (sm.stopped)
            break;
        if (!progressed)
            break; // every live warp waits on the slice barrier
    }
    if (!sm.finished && !sm.stopped)
        sm.cycle = slice_end;
}

void
GpuSim::runWarpFunctional(SmCtx& sm, Warp& warp, uint64_t& budget)
{
    while (budget > 0) {
        if (warp.done || warp.at_barrier || warp.heap_pending ||
            sm.stopped)
            return;
        --budget;
        issueWarpT<true>(sm, warp);
    }
}

void
GpuSim::stepSmSliceDetailed(SmCtx& sm, uint64_t slice_no)
{
    if (sm.finished || sm.stopped)
        return;
    const uint64_t slice_end = slice_no * kSliceCycles;
    if (sm.cycle >= slice_end)
        return; // stalled across this whole slice
    sm.gview.beginSlice(slice_no);

    while (sm.cycle < slice_end) {
        // Retire finished blocks and admit new ones — only on the cycles
        // where a block actually completed; nothing changes otherwise.
        if (sm.retire_pending) {
            sm.retire_pending = false;
            retireBlocks(sm);
            admitBlocks(sm);
        }

        if (sm.live_warps == 0 &&
            sm.next_block >= sm.pending_blocks.size()) {
            sm.finished = true;
            return;
        }

        if (sm.at_barrier_warps != 0) {
            releaseBarriers(sm);
            if (sm.stopped)
                return;
        }

        bool issued = false;
        for (unsigned s = 0; s < config_.schedulers_per_sm; ++s) {
            // A sleeping scheduler has no warp issuable before
            // sched_sleep[s] (proven by its last full scan), so skip it
            // without touching any warp state.
            if (sm.sched_sleep[s] > sm.cycle)
                continue;
            // GTO: greedy on the last-issued warp, else oldest ready.
            int pick = -1;
            // last_issued[s] is always one of scheduler s's own warps
            // (picks come from sched_live[s]), so no ownership re-check.
            const int last = sm.last_issued[s];
            if (last >= 0 && size_t(last) < sm.warps.size() &&
                sm.warps[size_t(last)].ready_at <= sm.cycle) {
                pick = last;
            } else {
                // Done warps cache ~0, so they never pick and never
                // lower min_t.
                uint64_t min_t = ~uint64_t(0);
                for (const uint32_t wi : sm.sched_live[s]) {
                    const uint64_t t = sm.warps[wi].ready_at;
                    if (t <= sm.cycle) {
                        pick = int(wi);
                        break;
                    }
                    min_t = std::min(min_t, t);
                }
                if (pick < 0)
                    sm.sched_sleep[s] = min_t;
            }
            if (pick >= 0) {
                Warp& w = sm.warps[size_t(pick)];
                issueWarpT<false>(sm, w);
                w.ready_at = warpReadyAt(w);
                issued = true;
                sm.last_issued[s] = pick;
                if (sm.stopped)
                    return;
            }
        }

        if (issued) {
            ++sm.cycle;
            sm.idle_guard = 0;
        } else {
            // Stall fast-forward: no warp can issue this cycle, so jump
            // straight to the earliest cycle where one can. Every
            // scheduler is now sleeping (it either just completed a
            // failed full scan, or was already asleep with a still-valid
            // target), so the earliest wake-up is exact. Jumps past the
            // slice end are fine — later slices skip the SM until its
            // clock re-enters the window — except when a heap op or a
            // barrier can change readiness first.
            uint64_t next = ~uint64_t(0);
            for (const uint64_t t : sm.sched_sleep)
                next = std::min(next, t);
            if (next == ~uint64_t(0)) {
                if (sm.at_barrier_warps == 0 && sm.heap_pending_warps) {
                    // Only the slice barrier can unpark them.
                    sm.cycle = slice_end;
                    sm.idle_guard = 0;
                } else {
                    // Barriers release next round; if nothing changes
                    // we are deadlocked.
                    ++sm.cycle;
                    if (++sm.idle_guard > 10000)
                        lmi_panic(
                            "SM %u deadlocked at cycle %llu in %s",
                            sm.sm_id,
                            static_cast<unsigned long long>(sm.cycle),
                            program_.name.c_str());
                }
            } else {
                uint64_t target = std::max(next, sm.cycle + 1);
                if (sm.heap_pending_warps)
                    target = std::min(target, slice_end);
                sm.cycle = target;
                sm.idle_guard = 0;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Slice barrier
// ---------------------------------------------------------------------

bool
GpuSim::commitSlice(std::vector<SmCtx>& sms, uint64_t slice_no)
{
    // (a) Replay global store logs into the base memory in SM order,
    // tracking which SM(s) wrote each page for the overlay stamps.
    std::unordered_map<uint64_t, int64_t> writers;
    for (SmCtx& sm : sms) {
        uint64_t cached_page = ~uint64_t(0);
        for (const GlobalMemView::StoreRec& rec : sm.gview.log()) {
            global_mem_.write(rec.addr, rec.value, rec.width);
            const uint64_t first = rec.addr / SparseMemory::kPageBytes;
            const uint64_t last =
                (rec.addr + rec.width - 1) / SparseMemory::kPageBytes;
            for (uint64_t p = first; p <= last; ++p) {
                if (p == cached_page && first == last)
                    continue; // this SM already recorded on p
                auto [it, fresh] = writers.try_emplace(p, sm.sm_id);
                if (!fresh && it->second != int64_t(sm.sm_id))
                    it->second = -2;
                cached_page = p;
            }
        }
        sm.gview.clearLog();
    }
    for (const auto& [p, w] : writers) {
        PageStamp& st = page_stamps_[p];
        if (w == -2) {
            st.other_slice = slice_no;
            st.writer = -1;
        } else {
            // A previous stamp by a different SM (or by several) means
            // that write is "foreign" to the new sole writer.
            if (st.slice != 0 && st.writer != int32_t(w))
                st.other_slice = st.slice;
            st.writer = int32_t(w);
        }
        st.slice = slice_no;
    }

    // (b) Replay L2 line traffic through the real LRU array in SM
    // order; the per-slice own-lines sets start fresh next slice.
    for (SmCtx& sm : sms) {
        for (const uint64_t addr : sm.l2_log)
            l2_.access(addr);
        sm.l2_log.clear();
        sm.own_lines.clear();
    }

    // (c) Execute deferred heap ops in (sm, seq) order and unpark their
    // warps. Faults (exhaustion, invalid free) join the slice's fault
    // candidates at their issue position.
    struct Candidate
    {
        uint64_t cycle;
        uint32_t sm;
        uint64_t seq;
        Fault fault;
    };
    std::vector<Candidate> candidates;
    for (SmCtx& sm : sms) {
        for (SmCtx::HeapOp& op : sm.heap_q) {
            Warp& w = sm.warps[op.warp];
            bool faulted = false;
            for (unsigned lane = 0; lane < w.lanes && !faulted; ++lane) {
                if (!(op.active & (1u << lane)))
                    continue;
                if (op.is_malloc) {
                    const uint64_t size = op.vals[lane];
                    const uint64_t ptr =
                        heap_.alloc(sm.sm_id, w.first_gtid + lane, size);
                    if (ptr == 0) {
                        Fault f;
                        f.kind = FaultKind::InvalidFree;
                        f.detail = "device heap exhausted";
                        candidates.push_back(
                            {op.cycle, sm.sm_id, op.seq, std::move(f)});
                        faulted = true;
                        break;
                    }
                    mech_.onDeviceAlloc(ptr, size);
                    if (obs_)
                        logEvent(sm, {.kind = MemEvent::Kind::Malloc,
                                      .block = w.block,
                                      .warp = w.warp_in_block,
                                      .gtid = w.first_gtid + lane,
                                      .seq = op.seq, .cycle = op.cycle,
                                      .addr = ptr, .value = size});
                    w.reg(lane, unsigned(op.dst)) = ptr;
                } else {
                    const uint64_t ptr = op.vals[lane];
                    MaybeFault f = mech_.onDeviceFree(ptr);
                    if (!f)
                        f = heap_.free(sm.sm_id, ptr);
                    if (f) {
                        candidates.push_back(
                            {op.cycle, sm.sm_id, op.seq, std::move(*f)});
                        faulted = true;
                        break;
                    }
                    if (obs_)
                        logEvent(sm, {.kind = MemEvent::Kind::Free,
                                      .block = w.block,
                                      .warp = w.warp_in_block,
                                      .gtid = w.first_gtid + lane,
                                      .seq = op.seq, .cycle = op.cycle,
                                      .addr = ptr});
                }
            }
            if (op.is_malloc) {
                w.reg_ready[unsigned(op.dst)] =
                    op.cycle + config_.malloc_latency +
                    8 * std::popcount(op.active);
            } else {
                w.stall_until = op.cycle + config_.malloc_latency / 2;
            }
            w.heap_pending = false;
            w.ready_at = warpReadyAt(w);
            --sm.heap_pending_warps;
            // The unparked warp may be issuable before any sleeping
            // scheduler planned for.
            std::fill(sm.sched_sleep.begin(), sm.sched_sleep.end(),
                      uint64_t(0));
        }
        sm.heap_q.clear();
    }
    // Slice boundary: replay cross-SM frees queued above in canonical
    // (sm, seq) order, so the owners' freelists — and every later
    // placement decision — are byte-identical at any sim_threads count.
    heap_.drainRemote();

    // (c') Execute deferred global atomics in the same canonical
    // (sm, seq) order, against the base memory — which at this point
    // holds every store committed in (a), so an atomic observes all
    // prior-slice traffic. Lanes apply in lane order. Written pages get
    // a "foreign to everyone" stamp (the issuing SM's own overlay never
    // saw the result either, so it must re-sync like the rest).
    for (SmCtx& sm : sms) {
        for (SmCtx::AtomOp& op : sm.atom_q) {
            Warp& w = sm.warps[op.warp];
            for (unsigned lane = 0; lane < w.lanes; ++lane) {
                if (!(op.active & (1u << lane)))
                    continue;
                const uint64_t addr = op.addrs[lane];
                const uint64_t old = global_mem_.read(addr, op.width);
                bool write = false;
                uint64_t newv = 0;
                if (op.is_cas) {
                    write = maskToWidth(old, op.width) ==
                            maskToWidth(op.cmps[lane], op.width);
                    newv = op.vals[lane];
                } else if (op.aop != AtomicOp::Ld) {
                    write = true;
                    newv = applyAtomicRmw(op.aop, old, op.vals[lane],
                                          op.width);
                }
                if (write) {
                    global_mem_.write(addr, newv, op.width);
                    const uint64_t first =
                        addr / SparseMemory::kPageBytes;
                    const uint64_t last = (addr + op.width - 1) /
                                          SparseMemory::kPageBytes;
                    for (uint64_t p = first; p <= last; ++p) {
                        PageStamp& st = page_stamps_[p];
                        st.slice = slice_no;
                        st.other_slice = slice_no;
                        st.writer = -1;
                    }
                }
                if (op.dst >= 0)
                    w.reg(lane, unsigned(op.dst)) =
                        maskToWidth(old, op.width);
            }
            // Result ready / store retired after a hierarchy round
            // trip (atomics resolve at the L2 on this machine).
            const uint64_t done_at =
                op.cycle + config_.l1_latency + config_.l2_latency;
            if (op.dst >= 0)
                w.reg_ready[unsigned(op.dst)] = done_at;
            else
                w.stall_until = done_at;
            w.heap_pending = false;
            w.ready_at = warpReadyAt(w);
            --sm.heap_pending_warps;
            std::fill(sm.sched_sleep.begin(), sm.sched_sleep.end(),
                      uint64_t(0));
        }
        sm.atom_q.clear();
    }

    // (d) Resolve the fault winner: earliest by cycle, then SM id, then
    // per-SM issue order. Exactly one fault is recorded per launch, and
    // which one does not depend on the worker schedule.
    for (SmCtx& sm : sms)
        for (SmCtx::PendingFault& pf : sm.fault_q)
            candidates.push_back(
                {pf.cycle, sm.sm_id, pf.seq, std::move(pf.fault)});
    if (!candidates.empty()) {
        size_t win = 0;
        for (size_t i = 1; i < candidates.size(); ++i) {
            const Candidate& a = candidates[i];
            const Candidate& b = candidates[win];
            if (a.cycle < b.cycle ||
                (a.cycle == b.cycle &&
                 (a.sm < b.sm || (a.sm == b.sm && a.seq < b.seq))))
                win = i;
        }
        result_.faults.push_back(std::move(candidates[win].fault));
        result_.aborted = true;
        return true;
    }
    return false;
}

// ---------------------------------------------------------------------
// Tier cycle estimation
// ---------------------------------------------------------------------

uint64_t
GpuSim::estimateCycles(const std::vector<SmCtx>& sms) const
{
    // No timing model ran. Report the issue-bound lower bound (the
    // busiest SM's warp instructions over its issue width) so the field
    // is deterministic and monotone in work, but it is an estimate —
    // never compare it against detailed cycles.
    uint64_t est = 0;
    for (const SmCtx& sm : sms)
        est = std::max(est, (sm.cnt.instructions +
                             config_.schedulers_per_sm - 1) /
                                config_.schedulers_per_sm);
    return est;
}

// ---------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------

unsigned
GpuSim::resolveThreads(unsigned used_sms) const
{
    unsigned threads = launch_.options.sim_threads
                           ? launch_.options.sim_threads
                           : resolveSimThreads(config_);
    if (threads > 1 && obs_) {
        lmi_inform("sim: observed launch pinned to sim_threads=1 "
                   "(the event stream is order-sensitive)");
        threads = 1;
    }
    return std::min(std::max(threads, 1u), used_sms);
}

RunResult
GpuSim::run()
{
    mech_.onKernelLaunch(program_);

    // Round-robin block placement over SMs.
    std::vector<SmCtx> sms;
    const unsigned used_sms =
        std::min<unsigned>(config_.num_sms,
                           std::max(1u, launch_.grid_blocks));
    sms.reserve(used_sms);
    for (unsigned s = 0; s < used_sms; ++s) {
        sms.emplace_back(config_);
        sms.back().sm_id = s;
        sms.back().dram = std::make_unique<DramModel>(
            config_.dram_latency,
            config_.dram_bytes_per_cycle / double(used_sms),
            config_.line_bytes);
        sms.back().gview.init(&global_mem_, &page_stamps_, s);
    }
    for (unsigned b = 0; b < launch_.grid_blocks; ++b)
        sms[b % used_sms].pending_blocks.push_back(b);

    // Slice-synchronous execution: private SM slices, then a canonical
    // commit — identical for every worker count (see file header).
    const unsigned threads = resolveThreads(used_sms);
    if (threads <= 1) {
        for (uint64_t slice_no = 1;; ++slice_no) {
            bool all_finished = true;
            for (SmCtx& sm : sms) {
                stepSmSlice(sm, slice_no);
                all_finished = all_finished && sm.finished;
            }
            if (commitSlice(sms, slice_no) || all_finished)
                break;
        }
    } else {
        WorkerPool pool(*this, sms, threads);
        {
            StatShardScope main_shard(pool.mainShard());
            for (uint64_t slice_no = 1;; ++slice_no) {
                pool.runSlice(slice_no);
                bool all_finished = true;
                for (const SmCtx& sm : sms)
                    all_finished = all_finished && sm.finished;
                if (commitSlice(sms, slice_no) || all_finished)
                    break;
            }
        }
        pool.shutdown();
        pool.flushShards();
    }

    uint64_t max_cycle = 0;
    for (const SmCtx& sm : sms) {
        max_cycle = std::max(max_cycle, sm.cycle);
        result_.stats.inc("sim.sm_cycles", sm.cycle);
        result_.instructions += sm.cnt.instructions;
        result_.thread_instructions += sm.cnt.thread_instructions;
        result_.ldg += sm.cnt.ldg;
        result_.stg += sm.cnt.stg;
        result_.lds += sm.cnt.lds;
        result_.sts += sm.cnt.sts;
        result_.ldl += sm.cnt.ldl;
        result_.stl += sm.cnt.stl;
        result_.l1_hits += sm.cnt.l1_hits;
        result_.l1_misses += sm.cnt.l1_misses;
        result_.l2_hits += sm.cnt.l2_hits;
        result_.l2_misses += sm.cnt.l2_misses;
        result_.dram_accesses += sm.cnt.dram_accesses;
    }

    if (launch_.options.tier == ExecutionTier::Functional)
        max_cycle = estimateCycles(sms);
    result_.cycles =
        uint64_t(double(max_cycle) * (1.0 + mech_.launchOverheadFraction()));

    for (Fault& f : mech_.onKernelEnd())
        result_.faults.push_back(std::move(f));

    result_.stats.set("sim.l1_hit_rate",
                      result_.l1_hits + result_.l1_misses == 0
                          ? 0.0
                          : double(result_.l1_hits) /
                                double(result_.l1_hits + result_.l1_misses));
    return std::move(result_);
}

} // namespace lmi
