/**
 * @file
 * Table III: security-coverage evaluation. Runs the coverage matrix
 * under GMOD, GPUShield, cuCatch, and LMI (detection emerges from each
 * mechanism's semantics) and prints its 38 Table III cases as the
 * detection matrix plus the spatial/temporal coverage rows, with the
 * §XII-C liveness extension as an extra column.
 */

#include <cstdio>

#include "bench_util.hpp"
#include "security/violations.hpp"

using namespace lmi;

int
main()
{
    bench::banner("Table III", "security coverage matrix");

    const std::vector<MechanismKind> mechanisms = {
        MechanismKind::Gmod, MechanismKind::GpuShield,
        MechanismKind::CuCatch, MechanismKind::Lmi,
        MechanismKind::LmiLiveness};

    const CoverageMatrix matrix =
        runCoverage(mechanisms, {ExecutionTier::Detailed});
    std::vector<SecurityScore> scores;
    for (MechanismKind kind : mechanisms)
        scores.push_back(tallySecurity(matrix, kind));

    std::vector<std::string> header = {"violation test", "total"};
    for (MechanismKind kind : mechanisms)
        header.push_back(mechanismKindName(kind));
    TextTable table(std::move(header));

    const std::vector<ViolationCategory> categories = {
        ViolationCategory::GlobalOoB,   ViolationCategory::HeapOoB,
        ViolationCategory::LocalOoB,    ViolationCategory::SharedOoB,
        ViolationCategory::IntraOoB,    ViolationCategory::UseAfterFree,
        ViolationCategory::UseAfterScope, ViolationCategory::InvalidFree,
        ViolationCategory::DoubleFree};

    bool separated = false;
    for (ViolationCategory cat : categories) {
        if (!isSpatialCategory(cat) && !separated) {
            table.addSeparator();
            separated = true;
        }
        std::vector<std::string> row = {
            violationCategoryName(cat),
            std::to_string(scores[0].total.at(cat))};
        for (const auto& s : scores)
            row.push_back(std::to_string(
                s.detected.count(cat) ? s.detected.at(cat) : 0));
        table.addRow(row);
    }
    table.addSeparator();
    {
        std::vector<std::string> row = {"spatial coverage", ""};
        for (const auto& s : scores)
            row.push_back(fmtPct(100.0 * s.spatialDetected() /
                                 s.spatialTotal(), 1));
        table.addRow(row);
    }
    {
        std::vector<std::string> row = {"temporal coverage", ""};
        for (const auto& s : scores)
            row.push_back(fmtPct(100.0 * s.temporalDetected() /
                                 s.temporalTotal(), 1));
        table.addRow(row);
    }
    std::printf("%s\n", table.render().c_str());

    const SecurityScore& lmi = scores[3];
    bench::compare("LMI spatial coverage", 85.7,
                   100.0 * lmi.spatialDetected() / lmi.spatialTotal(), "%");
    bench::compare("LMI temporal coverage", 75.0,
                   100.0 * lmi.temporalDetected() / lmi.temporalTotal(),
                   "%");
    const SecurityScore& cucatch = scores[2];
    bench::compare("cuCatch spatial coverage", 61.9,
                   100.0 * cucatch.spatialDetected() /
                       cucatch.spatialTotal(), "%");
    std::printf("\nPer-case detail (LMI):\n");
    for (const CoverageCell& c : matrix.cells) {
        if (!c.category || c.mechanism != MechanismKind::Lmi)
            continue;
        std::printf("  %-40s %s%s\n", c.attack.c_str(),
                    c.detected ? "DETECTED" : "missed",
                    c.compile_rejected ? " (compile-time, XII-B)" : "");
    }
    return 0;
}
