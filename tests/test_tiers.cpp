/**
 * @file
 * Two-tier engine cross-validation (DESIGN.md, "Two-tier execution
 * engine"):
 *
 *  - the functional tier must reproduce the detailed tier's
 *    architectural results — instruction counts, memory-region profile,
 *    faults, and mechanism detection counters — on the whole Table V
 *    suite and on the full Table III violation matrix;
 *  - both tiers must log the same multiset of global loads and stores
 *    (one LSU routine emits them);
 *  - functional runs must stay deterministic across sim_threads, like
 *    the detailed tier's byte-identity guarantee;
 *  - the result-cache fingerprint must separate tiers so no cross-tier
 *    entry is ever served, and must stay stable so existing cache
 *    entries keep hitting.
 */

#include <algorithm>
#include <gtest/gtest.h>
#include <tuple>

#include "mechanisms/registry.hpp"
#include "runner/sweep.hpp"
#include "security/violations.hpp"
#include "sim/mem_event.hpp"
#include "workloads/workloads.hpp"

namespace lmi {
namespace {

RunResult
runTier(const WorkloadProfile& profile, MechanismKind mech, double scale,
        ExecutionTier tier, unsigned sim_threads = 0)
{
    Device dev(makeMechanism(mech));
    if (sim_threads)
        dev.setSimThreads(sim_threads);
    LaunchOptions opts;
    opts.tier = tier;
    return runWorkload(dev, profile, scale, RaceSeed::None, opts).result;
}

/** The architectural half of a RunResult — everything a tier promises
 *  to reproduce exactly. Timing fields (cycles, cache counters) are
 *  deliberately absent. */
void
expectArchitecturalMatch(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.thread_instructions, b.thread_instructions);
    EXPECT_EQ(a.ldg, b.ldg);
    EXPECT_EQ(a.stg, b.stg);
    EXPECT_EQ(a.lds, b.lds);
    EXPECT_EQ(a.sts, b.sts);
    EXPECT_EQ(a.ldl, b.ldl);
    EXPECT_EQ(a.stl, b.stl);
    ASSERT_EQ(a.faults.size(), b.faults.size());
    for (size_t i = 0; i < a.faults.size(); ++i) {
        EXPECT_EQ(a.faults[i].kind, b.faults[i].kind);
        EXPECT_EQ(a.faults[i].address, b.faults[i].address);
    }
}

TEST(TierCrossValidation, FunctionalMatchesDetailedOnWholeSuite)
{
    // Every Table V workload, under the paper's mechanism so the
    // per-access check path (OCU decode + bounds compare) is exercised,
    // not just the bare interpreter.
    for (const auto& profile : workloadSuite()) {
        SCOPED_TRACE(profile.name);
        Device det_dev(makeMechanism(MechanismKind::Lmi));
        Device fun_dev(makeMechanism(MechanismKind::Lmi));
        LaunchOptions fun;
        fun.tier = ExecutionTier::Functional;
        const RunResult det =
            runWorkload(det_dev, profile, 0.25).result;
        const RunResult fn =
            runWorkload(fun_dev, profile, 0.25, RaceSeed::None, fun)
                .result;
        expectArchitecturalMatch(det, fn);
        // Detection counters: same checks, same outcomes.
        EXPECT_EQ(det_dev.stats().counter("ocu.checks"),
                  fun_dev.stats().counter("ocu.checks"));
        EXPECT_EQ(det_dev.stats().counter("ocu.violations"),
                  fun_dev.stats().counter("ocu.violations"));
    }
}

TEST(TierCrossValidation, FunctionalMatchesDetailedDetectionMatrix)
{
    // The Table III violation suite must score identically per
    // category whichever tier executes it.
    for (const MechanismKind kind :
         {MechanismKind::Lmi, MechanismKind::BaggySw}) {
        SCOPED_TRACE(mechanismKindName(kind));
        const SecurityScore det = evaluateMechanism(kind);
        const SecurityScore fn =
            evaluateMechanism(kind, ExecutionTier::Functional);
        EXPECT_EQ(det.detected, fn.detected);
        EXPECT_EQ(det.total, fn.total);
    }
}

TEST(TierCrossValidation, FunctionalLogsSameGlobalAccessesAsDetailed)
{
    // Both tiers emit access events from one LSU routine. On race-free
    // kernels without device-heap traffic, the multiset of logged
    // global loads and stores must therefore match exactly; only their
    // order (and cycle stamps) may differ between tiers.
    using Key = std::tuple<MemEvent::Kind, uint32_t, uint64_t, uint64_t,
                           uint8_t, uint64_t>;
    auto accesses = [](const WorkloadProfile& profile, ExecutionTier tier) {
        Device dev(makeMechanism(MechanismKind::Lmi));
        MemEventLog log;
        LaunchOptions opts;
        opts.tier = tier;
        opts.observer = &log;
        runWorkload(dev, profile, 0.1, RaceSeed::None, opts);
        std::vector<Key> keys;
        for (const MemEvent& e : log.events())
            if (e.kind == MemEvent::Kind::Load ||
                e.kind == MemEvent::Kind::Store)
                keys.emplace_back(e.kind, e.gtid, e.pc, e.addr, e.width,
                                  e.value);
        std::sort(keys.begin(), keys.end());
        return keys;
    };

    for (const char* name : {"backprop", "bfs", "dwt2d", "hotspot"}) {
        SCOPED_TRACE(name);
        const WorkloadProfile profile = findWorkload(name);
        ASSERT_EQ(profile.heap_allocs, 0u);
        const std::vector<Key> det =
            accesses(profile, ExecutionTier::Detailed);
        EXPECT_FALSE(det.empty());
        EXPECT_EQ(det, accesses(profile, ExecutionTier::Functional));
    }
}

TEST(TierCrossValidation, FunctionalDeterministicAcrossSimThreads)
{
    const WorkloadProfile profile = findWorkload("hotspot");
    const RunResult serial = runTier(profile, MechanismKind::Lmi, 0.5,
                                     ExecutionTier::Functional, 1);
    for (const unsigned threads : {2u, 5u}) {
        SCOPED_TRACE(threads);
        const RunResult parallel =
            runTier(profile, MechanismKind::Lmi, 0.5,
                    ExecutionTier::Functional, threads);
        expectArchitecturalMatch(serial, parallel);
        EXPECT_EQ(serial.cycles, parallel.cycles);
    }
}

TEST(TierCrossValidation, CacheFingerprintSeparatesTiers)
{
    SweepCell cell;
    cell.workload = findWorkload("bfs");
    cell.mechanism = MechanismKind::Lmi;
    cell.scale = 1.0;

    cell.tier = ExecutionTier::Detailed;
    const uint64_t detailed = cellFingerprint(cell);
    cell.tier = ExecutionTier::Functional;
    const uint64_t functional = cellFingerprint(cell);
    EXPECT_NE(detailed, functional);

    // Pinned values: a change to the fingerprint orphans every cache
    // entry written before it, so it must come with a bump of the
    // cell format version and a deliberate update here.
    EXPECT_EQ(detailed, 0x7e4b564be605543eull);
    EXPECT_EQ(functional, 0x7876ce0b5af13135ull);
}

} // namespace
} // namespace lmi
