/**
 * @file
 * Trace-capture tests: the NVBit-style instruction stream must agree
 * with the run's own counters, respect capacity limits, expose the hint
 * bits, and yield the same Fig.-1 / Fig.-13 characterizations as the
 * timing counters.
 */

#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "mechanisms/registry.hpp"
#include "sim/device.hpp"
#include "sim/trace.hpp"
#include "workloads/workloads.hpp"

namespace lmi {
namespace {

using namespace ir;

/** LaunchOptions with @p recorder as the observer. */
LaunchOptions
traced(TraceRecorder& recorder)
{
    LaunchOptions opts;
    opts.observer = &recorder;
    return opts;
}

IrModule
vaddModule()
{
    IrFunction f = IrBuilder::makeKernel(
        "vadd", {{"a", Type::ptr(4)}, {"out", Type::ptr(4)}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto t = b.gtid();
    auto v = b.load(b.gep(b.param(0), t));
    b.store(b.gep(b.param(1), t), b.iadd(v, v));
    b.ret();
    IrModule m;
    m.functions.push_back(std::move(f));
    return m;
}

TEST(Trace, StreamMatchesRunCounters)
{
    Device dev(makeMechanism(MechanismKind::Lmi));
    const uint64_t a = dev.cudaMalloc(4096);
    const uint64_t out = dev.cudaMalloc(4096);
    const CompiledKernel k = dev.compile(vaddModule(), "vadd");

    TraceRecorder recorder;
    const RunResult r = dev.launch(k, 2, 128, {a, out}, traced(recorder));
    ASSERT_FALSE(r.faulted());

    EXPECT_EQ(recorder.events().size(), r.instructions);
    const TraceAnalysis analysis = analyzeTrace(recorder.events());
    EXPECT_EQ(analysis.instructions, r.instructions);
    EXPECT_EQ(analysis.thread_instructions, r.thread_instructions);
    EXPECT_EQ(analysis.mem_global, r.ldg + r.stg);
    EXPECT_EQ(analysis.mem_shared, r.lds + r.sts);
    EXPECT_EQ(analysis.mem_local, r.ldl + r.stl);
    // Under LMI the geps are hint-marked in the stream.
    EXPECT_GT(analysis.hinted, 0u);
}

TEST(Trace, BaselineCarriesNoHints)
{
    Device dev;
    const uint64_t a = dev.cudaMalloc(4096);
    const uint64_t out = dev.cudaMalloc(4096);
    const CompiledKernel k = dev.compile(vaddModule(), "vadd");
    TraceRecorder recorder;
    dev.launch(k, 1, 64, {a, out}, traced(recorder));
    const TraceAnalysis analysis = analyzeTrace(recorder.events());
    EXPECT_EQ(analysis.hinted, 0u);
    EXPECT_DOUBLE_EQ(analysis.hintedFraction(), 0.0);
}

TEST(Trace, CapacityLimitsBufferButCounts)
{
    Device dev;
    const uint64_t a = dev.cudaMalloc(4096);
    const uint64_t out = dev.cudaMalloc(4096);
    const CompiledKernel k = dev.compile(vaddModule(), "vadd");
    TraceRecorder recorder(10);
    const RunResult r = dev.launch(k, 2, 128, {a, out}, traced(recorder));
    EXPECT_EQ(recorder.events().size(), 10u);
    EXPECT_EQ(recorder.totalSeen(), r.instructions);
}

TEST(Trace, EventsAreWellFormed)
{
    Device dev;
    const uint64_t a = dev.cudaMalloc(4096);
    const uint64_t out = dev.cudaMalloc(4096);
    const CompiledKernel k = dev.compile(vaddModule(), "vadd");
    TraceRecorder recorder;
    dev.launch(k, 2, 64, {a, out}, traced(recorder));
    for (const TraceEvent& e : recorder.events()) {
        EXPECT_LT(e.pc, k.program.code.size());
        EXPECT_NE(e.active_mask, 0u);
        EXPECT_LT(e.block, 2u);
        EXPECT_FALSE(traceEventToString(e).empty());
    }
    // Cycles are monotone per (sm, warp) stream.
    std::map<std::pair<uint32_t, uint64_t>, uint64_t> last;
    for (const TraceEvent& e : recorder.events()) {
        auto key = std::make_pair(e.sm, uint64_t(e.block) * 64 + e.warp);
        auto it = last.find(key);
        if (it != last.end()) {
            EXPECT_GE(e.cycle, it->second);
        }
        last[key] = e.cycle;
    }
}

TEST(Trace, WorkloadCharacterizationMatchesFig13Ratio)
{
    // The trace-derived check ratio for gaussian is the Fig. 13 metric.
    Device dev(makeMechanism(MechanismKind::Lmi));
    WorkloadProfile p = findWorkload("gaussian");
    p.grid_blocks = 8;
    p.block_threads = 64;
    const uint64_t in = dev.cudaMalloc(p.elements() * 4 + 64);
    const uint64_t out = dev.cudaMalloc(p.elements() * 4 + 64);
    const CompiledKernel k = dev.compile(buildWorkloadKernel(p), p.name);
    TraceRecorder recorder;
    const RunResult r =
        dev.launch(k, p.grid_blocks, p.block_threads,
                   {in, out, p.elements()}, traced(recorder));
    ASSERT_FALSE(r.faulted());
    const TraceAnalysis analysis = analyzeTrace(recorder.events());
    EXPECT_GT(analysis.checkToLdstRatio(), 40.0);
    const std::string s = analysis.toString();
    EXPECT_NE(s.find("check/LDST ratio"), std::string::npos);
}

} // namespace
} // namespace lmi
