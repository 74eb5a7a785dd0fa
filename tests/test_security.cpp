/**
 * @file
 * Security-suite tests: the Table III detection matrix must emerge from
 * mechanism semantics, and the baseline must stay clean on everything
 * except runtime-detected free errors.
 */

#include <gtest/gtest.h>

#include <thread>

#include "security/violations.hpp"

namespace lmi {
namespace {

unsigned
categoryDetected(const SecurityScore& s, ViolationCategory cat)
{
    auto it = s.detected.find(cat);
    return it == s.detected.end() ? 0 : it->second;
}

TEST(Security, SuiteShapeMatchesTableIII)
{
    std::map<ViolationCategory, unsigned> totals;
    unsigned cases = 0;
    for (const AttackScenario& c : attackSuite())
        if (c.category) {
            ++totals[*c.category];
            ++cases;
        }
    EXPECT_EQ(totals[ViolationCategory::GlobalOoB], 2u);
    EXPECT_EQ(totals[ViolationCategory::HeapOoB], 3u);
    EXPECT_EQ(totals[ViolationCategory::LocalOoB], 8u);
    EXPECT_EQ(totals[ViolationCategory::SharedOoB], 6u);
    EXPECT_EQ(totals[ViolationCategory::IntraOoB], 3u);
    EXPECT_EQ(totals[ViolationCategory::UseAfterFree], 8u);
    EXPECT_EQ(totals[ViolationCategory::UseAfterScope], 4u);
    EXPECT_EQ(totals[ViolationCategory::InvalidFree], 2u);
    EXPECT_EQ(totals[ViolationCategory::DoubleFree], 2u);
    EXPECT_EQ(cases, 38u);
}

TEST(Security, BaselineStaysClean)
{
    // Only the runtime's free checks fire without a mechanism.
    for (const CoverageCell& c :
         runCoverage({MechanismKind::Baseline}, {ExecutionTier::Detailed})
             .cells) {
        if (!c.category)
            continue;
        SCOPED_TRACE(c.attack);
        EXPECT_EQ(c.detected,
                  *c.category == ViolationCategory::InvalidFree ||
                      *c.category == ViolationCategory::DoubleFree)
            << (c.fault.empty() ? "no fault" : c.fault);
    }
}

TEST(Security, GmodRowMatchesPaper)
{
    const SecurityScore s = evaluateMechanism(MechanismKind::Gmod);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::GlobalOoB), 1u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::HeapOoB), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::LocalOoB), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::SharedOoB), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::IntraOoB), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::UseAfterFree), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::UseAfterScope), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::InvalidFree), 2u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::DoubleFree), 2u);
}

TEST(Security, GpuShieldRowMatchesPaper)
{
    const SecurityScore s = evaluateMechanism(MechanismKind::GpuShield);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::GlobalOoB), 2u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::HeapOoB), 1u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::LocalOoB), 2u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::SharedOoB), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::IntraOoB), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::UseAfterFree), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::UseAfterScope), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::InvalidFree), 2u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::DoubleFree), 2u);
}

TEST(Security, CuCatchRowMatchesPaper)
{
    const SecurityScore s = evaluateMechanism(MechanismKind::CuCatch);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::GlobalOoB), 2u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::HeapOoB), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::LocalOoB), 6u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::SharedOoB), 5u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::IntraOoB), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::UseAfterFree), 4u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::UseAfterScope), 4u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::InvalidFree), 2u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::DoubleFree), 2u);
}

TEST(Security, LmiRowMatchesPaper)
{
    const SecurityScore s = evaluateMechanism(MechanismKind::Lmi);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::GlobalOoB), 2u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::HeapOoB), 3u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::LocalOoB), 8u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::SharedOoB), 6u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::IntraOoB), 0u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::UseAfterFree), 4u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::UseAfterScope), 4u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::InvalidFree), 2u);
    EXPECT_EQ(categoryDetected(s, ViolationCategory::DoubleFree), 2u);
    // Temporal coverage: 12/16 = 75%, as reported.
    EXPECT_EQ(s.temporalDetected(), 12u);
    EXPECT_EQ(s.temporalTotal(), 16u);
}

TEST(Security, LmiLivenessClosesCopiedPointerGap)
{
    // The §XII-C extension catches the four copied-pointer UAF cases
    // the base mechanism misses.
    const SecurityScore base = evaluateMechanism(MechanismKind::Lmi);
    const SecurityScore ext =
        evaluateMechanism(MechanismKind::LmiLiveness);
    EXPECT_EQ(categoryDetected(base, ViolationCategory::UseAfterFree), 4u);
    EXPECT_EQ(categoryDetected(ext, ViolationCategory::UseAfterFree), 8u);
    // Spatial coverage is unchanged.
    EXPECT_EQ(ext.spatialDetected(), base.spatialDetected());
}

TEST(Security, ConcurrentEvaluationsMatchSerial)
{
    // Each evaluation carries its tier to its own cells: two at once
    // on different tiers must score exactly as they do alone.
    const SecurityScore det = evaluateMechanism(MechanismKind::Lmi);
    const SecurityScore fn =
        evaluateMechanism(MechanismKind::Lmi, ExecutionTier::Functional);
    SecurityScore det_concurrent, fn_concurrent;
    std::thread other([&] {
        fn_concurrent = evaluateMechanism(MechanismKind::Lmi,
                                          ExecutionTier::Functional);
    });
    det_concurrent = evaluateMechanism(MechanismKind::Lmi);
    other.join();
    EXPECT_EQ(det_concurrent.detected, det.detected);
    EXPECT_EQ(det_concurrent.total, det.total);
    EXPECT_EQ(fn_concurrent.detected, fn.detected);
    EXPECT_EQ(fn_concurrent.total, fn.total);
}

TEST(Security, SpatialAndTemporalTallies)
{
    const SecurityScore s = evaluateMechanism(MechanismKind::Lmi);
    EXPECT_EQ(s.spatialTotal(), 22u);
    EXPECT_EQ(s.spatialDetected(), 19u);
    EXPECT_EQ(s.temporalTotal(), 16u);
}

} // namespace
} // namespace lmi
