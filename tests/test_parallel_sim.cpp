/**
 * @file
 * Byte-identity of the parallel simulator engine.
 *
 * GpuSim::run with sim_threads > 1 must produce results
 * indistinguishable from the serial engine: the slice-synchronous
 * canonical schedule makes the outcome a pure function of the launch,
 * never of the worker count. These tests pin that contract for every
 * registered mechanism across structurally different workloads and for
 * the deferred device-heap path, comparing cycles, the complete
 * instruction/cache profile, faults, the full stat registry, and an
 * order-independent digest of global memory. The same comparison pins
 * that attaching a LaunchObserver changes none of it.
 */

#include <array>
#include <cstdlib>
#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "ir/builder.hpp"
#include "mechanisms/registry.hpp"
#include "sim/mem_event.hpp"
#include "sim/race_sanitizer.hpp"
#include "sim/trace.hpp"
#include "workloads/workloads.hpp"

namespace lmi {
namespace {

/** Everything observable about one run, in comparable form. */
struct RunSnapshot
{
    RunResult result;
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    uint64_t mem_digest = 0;
};

RunSnapshot
runAt(MechanismKind kind, const WorkloadProfile& profile, double scale,
      unsigned sim_threads, ExecutionTier tier = ExecutionTier::Detailed,
      LaunchObserver* observer = nullptr)
{
    Device dev(makeMechanism(kind));
    dev.setSimThreads(sim_threads);
    LaunchOptions options;
    options.tier = tier;
    options.observer = observer;
    const WorkloadRun run =
        runWorkload(dev, profile, scale, RaceSeed::None, options);
    RunSnapshot snap;
    snap.result = run.result;
    snap.counters = dev.stats().counters();
    snap.gauges = dev.stats().gauges();
    snap.mem_digest = dev.globalMemory().digest();
    return snap;
}

void
expectIdentical(const RunSnapshot& a, const RunSnapshot& b)
{
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.instructions, b.result.instructions);
    EXPECT_EQ(a.result.thread_instructions, b.result.thread_instructions);
    EXPECT_EQ(a.result.ldg, b.result.ldg);
    EXPECT_EQ(a.result.stg, b.result.stg);
    EXPECT_EQ(a.result.lds, b.result.lds);
    EXPECT_EQ(a.result.sts, b.result.sts);
    EXPECT_EQ(a.result.ldl, b.result.ldl);
    EXPECT_EQ(a.result.stl, b.result.stl);
    EXPECT_EQ(a.result.l1_hits, b.result.l1_hits);
    EXPECT_EQ(a.result.l1_misses, b.result.l1_misses);
    EXPECT_EQ(a.result.l2_hits, b.result.l2_hits);
    EXPECT_EQ(a.result.l2_misses, b.result.l2_misses);
    EXPECT_EQ(a.result.dram_accesses, b.result.dram_accesses);
    EXPECT_EQ(a.result.aborted, b.result.aborted);
    ASSERT_EQ(a.result.faults.size(), b.result.faults.size());
    for (size_t i = 0; i < a.result.faults.size(); ++i) {
        EXPECT_EQ(a.result.faults[i].kind, b.result.faults[i].kind);
        EXPECT_EQ(a.result.faults[i].address, b.result.faults[i].address);
        EXPECT_EQ(a.result.faults[i].detail, b.result.faults[i].detail);
    }
    EXPECT_EQ(a.result.stats.counters(), b.result.stats.counters());
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.gauges, b.gauges);
    EXPECT_EQ(a.mem_digest, b.mem_digest);
}

/** Structurally diverse trio: scattered loads (bfs), stencil with
 *  shared tiles (hotspot), dependency-grid DP (needle). */
const char* const kWorkloads[] = {"bfs", "hotspot", "needle"};

TEST(ParallelSim, EveryMechanismByteIdenticalAcrossThreadCounts)
{
    for (MechanismKind kind : allMechanisms()) {
        for (const char* name : kWorkloads) {
            SCOPED_TRACE(std::string(mechanismKindName(kind)) + "/" +
                         name);
            const WorkloadProfile profile = findWorkload(name);
            const RunSnapshot serial = runAt(kind, profile, 0.1, 1);
            for (unsigned threads : {2u, 8u}) {
                SCOPED_TRACE("sim_threads=" + std::to_string(threads));
                expectIdentical(serial,
                                runAt(kind, profile, 0.1, threads));
            }
        }
    }
}

TEST(ParallelSim, DeviceHeapOpsByteIdenticalAcrossThreadCounts)
{
    // Deferred MALLOC/FREE commit in canonical (sm, seq) order — the
    // trickiest serialization point of the parallel engine.
    WorkloadProfile p = findWorkload("nn");
    p.heap_allocs = 1;
    p.heap_alloc_bytes = 300;
    for (MechanismKind kind :
         {MechanismKind::Baseline, MechanismKind::Lmi}) {
        SCOPED_TRACE(mechanismKindName(kind));
        const RunSnapshot serial = runAt(kind, p, 0.1, 1);
        for (unsigned threads : {2u, 8u}) {
            SCOPED_TRACE("sim_threads=" + std::to_string(threads));
            expectIdentical(serial, runAt(kind, p, 0.1, threads));
        }
    }
}

TEST(ParallelSim, MultiWaveLaunchByteIdenticalAcrossThreadCounts)
{
    // Every Table V launch fits in one wave, so all of its blocks are
    // admitted by each SM's first slice. One-warp blocks on a grid wider
    // than num_sms x max_blocks_per_sm make every SM retire blocks and
    // admit later waves mid-run, reusing shared and local arena slots.
    // baggy-sw adds codegen's sparse scratch register R249.
    const GpuConfig config;
    WorkloadProfile p = findWorkload("hotspot");
    p.block_threads = 32;
    p.grid_blocks =
        config.num_sms * (config.max_blocks_per_sm + 3) + 37;
    p.elems_per_thread = 1;
    p.compute_iters = 4;
    p.local_accesses = 2;
    p.local_buf_bytes = 256;
    ASSERT_GT(p.grid_blocks, config.num_sms * config.max_blocks_per_sm);
    for (MechanismKind kind :
         {MechanismKind::Baseline, MechanismKind::BaggySw}) {
        for (ExecutionTier tier :
             {ExecutionTier::Detailed, ExecutionTier::Functional}) {
            SCOPED_TRACE(std::string(mechanismKindName(kind)) + "/" +
                         executionTierName(tier));
            const RunSnapshot serial = runAt(kind, p, 1.0, 1, tier);
            EXPECT_FALSE(serial.result.faulted());
            for (unsigned threads : {2u, 8u}) {
                SCOPED_TRACE("sim_threads=" + std::to_string(threads));
                expectIdentical(serial, runAt(kind, p, 1.0, threads, tier));
            }
        }
    }
}

/** Counts every event it receives, per kind. */
struct CountingObserver final : LaunchObserver
{
    uint64_t issued = 0;
    std::map<MemEvent::Kind, uint64_t> events;

    void onIssue(const TraceEvent&) override { ++issued; }
    void onEvent(const MemEvent& e) override { ++events[e.kind]; }
};

TEST(ParallelSim, ObservedLaunchRunsLikeTheUnobservedOne)
{
    // Observing is purely passive: with any subscriber attached (which
    // also pins the launch to one thread and draws event seqs for
    // fences and barriers), results equal the plain launch at every
    // sim_threads value. nn with a device-heap allocation emits Malloc
    // events; hotspot's shared tiles emit barrier and shared-access
    // events.
    WorkloadProfile heap = findWorkload("nn");
    heap.heap_allocs = 1;
    heap.heap_alloc_bytes = 300;
    const WorkloadProfile barrier = findWorkload("hotspot");
    for (const WorkloadProfile& p : {heap, barrier}) {
        for (ExecutionTier tier :
             {ExecutionTier::Detailed, ExecutionTier::Functional}) {
            for (unsigned threads : {1u, 4u}) {
                SCOPED_TRACE(p.name + "/" + executionTierName(tier) +
                             "/sim_threads=" + std::to_string(threads));
                const RunSnapshot plain =
                    runAt(MechanismKind::Lmi, p, 0.1, threads, tier);
                EXPECT_FALSE(plain.result.faulted());

                CountingObserver counter;
                TraceRecorder recorder;
                MemEventLog log;
                RaceSanitizer sanitizer;
                for (LaunchObserver* obs : std::initializer_list<
                         LaunchObserver*>{&counter, &recorder, &log,
                                          &sanitizer})
                    expectIdentical(plain, runAt(MechanismKind::Lmi, p,
                                                 0.1, threads, tier, obs));

                EXPECT_EQ(counter.issued, plain.result.instructions);
                EXPECT_EQ(recorder.totalSeen(), plain.result.instructions);
                EXPECT_GT(counter.events[MemEvent::Kind::Load], 0u);
                EXPECT_GT(counter.events[MemEvent::Kind::Store], 0u);
                EXPECT_GT(counter.events[MemEvent::Kind::BlockRetire], 0u);
                EXPECT_FALSE(log.events().empty());
                EXPECT_GT(sanitizer.wordsTracked(), 0u);
                if (p.name == heap.name) {
                    EXPECT_GT(counter.events[MemEvent::Kind::Malloc], 0u);
                } else {
                    EXPECT_GT(counter.events[MemEvent::Kind::Barrier], 0u);
                    EXPECT_GT(
                        counter.events[MemEvent::Kind::BarrierRelease],
                        0u);
                }
            }
        }
    }
}

/**
 * out[gtid] = in[gtid] * 3 + gtid, naming the four registers @p r. The
 * engine renumbers registers densely, so any injective choice of
 * numbers must run identically.
 */
CompiledKernel
renumberKernel(const std::array<unsigned, 4>& r)
{
    CompiledKernel k;
    k.program.name = "renumber";
    k.program.num_params = 2;
    auto emit = [&](Opcode op, int dst, Operand a, Operand b = {},
                    Operand c = {}) {
        Instruction inst;
        inst.op = op;
        inst.dst = dst;
        inst.src[0] = a;
        inst.src[1] = b;
        inst.src[2] = c;
        k.program.code.push_back(inst);
    };
    const auto R = [&](unsigned i) { return Operand::reg(r[i]); };
    const auto dst = [&](unsigned i) { return int(r[i]); };
    emit(Opcode::S2R, dst(0), Operand::special(SpecialReg::GlobalTid));
    emit(Opcode::SHL, dst(1), R(0), Operand::imm(2));
    emit(Opcode::IADD, dst(2), R(1), Operand::cbank(Program::kParamBase));
    emit(Opcode::LDG, dst(3), R(2));
    emit(Opcode::IMAD, dst(3), R(3), Operand::imm(3), R(0));
    emit(Opcode::IADD, dst(2), R(1),
         Operand::cbank(Program::kParamBase + 8));
    emit(Opcode::STG, -1, R(2), R(3));
    emit(Opcode::EXIT, -1, {});
    return k;
}

RunSnapshot
runRenumberAt(const std::array<unsigned, 4>& regs, ExecutionTier tier)
{
    const unsigned n = 200 * 64;
    Device dev(makeMechanism(MechanismKind::Baseline));
    const uint64_t in = dev.cudaMalloc(n * 4);
    const uint64_t out = dev.cudaMalloc(n * 4);
    for (unsigned i = 0; i < n; ++i)
        dev.globalMemory().write(in + 4 * i, 7 * i + 1, 4);
    LaunchOptions options;
    options.tier = tier;
    RunSnapshot snap;
    snap.result =
        dev.launch(renumberKernel(regs), 200, 64, {in, out}, options);
    EXPECT_EQ(dev.globalMemory().read(out + 4 * 123, 4),
              (7 * 123 + 1) * 3 + 123);
    snap.counters = dev.stats().counters();
    snap.gauges = dev.stats().gauges();
    snap.mem_digest = dev.globalMemory().digest();
    return snap;
}

TEST(ParallelSim, SparseHighRegistersRunLikeTheirDenseTwin)
{
    // Sparse, out-of-order and top-of-file register numbers (R255 is
    // the last one the ISA has) against R0-R3.
    for (ExecutionTier tier :
         {ExecutionTier::Detailed, ExecutionTier::Functional}) {
        SCOPED_TRACE(executionTierName(tier));
        const RunSnapshot dense = runRenumberAt({0, 1, 2, 3}, tier);
        const RunSnapshot sparse = runRenumberAt({255, 7, 200, 131}, tier);
        EXPECT_GT(dense.result.cycles, 0u);
        expectIdentical(dense, sparse);
    }
}

/** Every thread of every block dereferences one element past its
 *  buffer — many SMs race to raise the first fault. */
ir::IrModule
oobKernel(unsigned n)
{
    using namespace ir;
    IrFunction f = IrBuilder::makeKernel(
        "oob", {{"buf", Type::ptr(4)}, {"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto buf = b.param(0);
    auto out = b.param(1);
    auto t = b.gtid();
    auto idx = b.iadd(b.iand(t, b.constInt(7)), b.constInt(n));
    auto x = b.load(b.gep(buf, idx)); // OOB: idx >= n for every thread
    b.store(b.gep(out, b.iand(t, b.constInt(n - 1))), x);
    b.ret();
    IrModule m;
    m.functions.push_back(std::move(f));
    return m;
}

RunSnapshot
runOobAt(MechanismKind kind, unsigned sim_threads)
{
    const unsigned n = 256;
    Device dev(makeMechanism(kind));
    dev.setSimThreads(sim_threads);
    const uint64_t buf = dev.cudaMalloc(n * 4);
    const uint64_t out = dev.cudaMalloc(n * 4);
    const CompiledKernel k = dev.compile(oobKernel(n), "oob");
    RunSnapshot snap;
    snap.result = dev.launch(k, 16, 128, {buf, out});
    snap.counters = dev.stats().counters();
    snap.gauges = dev.stats().gauges();
    snap.mem_digest = dev.globalMemory().digest();
    return snap;
}

TEST(ParallelSim, FaultingRunByteIdenticalAcrossThreadCounts)
{
    // A run that aborts must pick the same canonical first fault at any
    // worker count (winner = min (cycle, sm, seq), not wall-clock race).
    for (MechanismKind kind :
         {MechanismKind::Lmi, MechanismKind::MemcheckDbi}) {
        SCOPED_TRACE(mechanismKindName(kind));
        const RunSnapshot serial = runOobAt(kind, 1);
        EXPECT_TRUE(serial.result.faulted());
        for (unsigned threads : {2u, 8u}) {
            SCOPED_TRACE("sim_threads=" + std::to_string(threads));
            expectIdentical(serial, runOobAt(kind, threads));
        }
    }
}

TEST(ParallelSim, MalformedSimThreadsEnvIsFatal)
{
    // LMI_SIM_THREADS is parsed strictly: a typo must stop the run
    // rather than quietly pick some other worker count. Unset and 0
    // both mean one thread; an explicit config count ignores the
    // variable altogether.
    const char* env = std::getenv("LMI_SIM_THREADS");
    const std::string saved = env ? env : "";
    const GpuConfig inherit; // sim_threads = 0: defer to the variable
    GpuConfig explicit_two;
    explicit_two.sim_threads = 2;

    for (const char* bad : {"4x", "garbage", "-1", "", " 2"}) {
        SCOPED_TRACE(std::string("LMI_SIM_THREADS='") + bad + "'");
        setenv("LMI_SIM_THREADS", bad, 1);
        try {
            resolveSimThreads(inherit);
            ADD_FAILURE() << "malformed value accepted";
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find("LMI_SIM_THREADS"),
                      std::string::npos);
        }
        EXPECT_EQ(resolveSimThreads(explicit_two), 2u);
    }
    setenv("LMI_SIM_THREADS", "0", 1);
    EXPECT_EQ(resolveSimThreads(inherit), 1u);
    setenv("LMI_SIM_THREADS", "3", 1);
    EXPECT_EQ(resolveSimThreads(inherit), 3u);
    unsetenv("LMI_SIM_THREADS");
    EXPECT_EQ(resolveSimThreads(inherit), 1u);

    if (env)
        setenv("LMI_SIM_THREADS", saved.c_str(), 1);
}

} // namespace
} // namespace lmi
