/**
 * @file
 * Table II: the mechanism-comparison table — security coverage markers
 * from our Table III run, plus the performance-overhead column measured
 * on this simulator where the paper measured it (GPUShield, LMI, Baggy,
 * memcheck/LMI-DBI) and quoted from the original papers elsewhere.
 */

#include <cstdio>

#include "bench_util.hpp"
#include "runner/experiment_runner.hpp"
#include "security/violations.hpp"
#include "workloads/workloads.hpp"

using namespace lmi;

namespace {

std::string
mark(unsigned detected, unsigned total)
{
    if (detected == 0)
        return "O";
    if (detected == total)
        return "#"; // full
    return "+";     // partial
}

double
measuredOverheadPct(const SweepResult& sweep, MechanismKind kind,
                    double scale)
{
    std::vector<double> norms;
    for (const auto& profile : workloadSuite()) {
        const CellResult* base =
            sweep.find(profile.name, MechanismKind::Baseline, scale);
        const CellResult* cell = sweep.find(profile.name, kind, scale);
        if (!base || !base->ok || !cell || !cell->ok)
            lmi_fatal("incomplete sweep for %s under %s",
                      profile.name.c_str(), mechanismKindName(kind));
        norms.push_back(double(cell->result.cycles) /
                        double(base->result.cycles));
    }
    return (geomean(norms) - 1.0) * 100.0;
}

} // namespace

int
main(int argc, char** argv)
{
    const bench::BenchArgs args = bench::parseBenchArgs(argc, argv, 1.0);
    bench::banner("Table II", "mechanism comparison (coverage + overhead)");
    const double scale = args.scale;

    // One sweep covers the baseline and every measured column.
    SweepSpec spec;
    for (const auto& profile : workloadSuite())
        spec.workloads.push_back(profile.name);
    spec.mechanisms = {MechanismKind::Baseline, MechanismKind::BaggySw,
                       MechanismKind::GpuShield, MechanismKind::Lmi};
    spec.scales = {scale};
    spec.jobs = args.jobs;
    spec.progress = true;
    if (const char* dir = std::getenv("LMI_CACHE_DIR"))
        spec.cache_dir = dir;
    const SweepResult sweep = runSweep(spec);

    struct Row
    {
        MechanismKind kind;
        const char* target;
        const char* base;
        const char* technique;
        const char* metadata_access;
        bool measured; ///< overhead measured here vs. quoted
        double quoted_overhead_pct;
    };
    const std::vector<Row> rows = {
        {MechanismKind::BaggySw, "GPU", "SW", "Pointer Aligning", "No",
         true, 87.0},
        {MechanismKind::Gmod, "GPU", "SW", "Canary", "No", false, 206.0},
        {MechanismKind::GpuShield, "GPU", "HW", "Pointer Tagging", "Yes",
         true, 0.8},
        {MechanismKind::CuCatch, "GPU", "SW", "Pointer Tagging", "Yes",
         false, 19.0},
        {MechanismKind::Lmi, "GPU", "HW", "Pointer Aligning", "No", true,
         0.2},
    };

    TextTable table({"name", "target", "base", "mechanism", "global",
                     "shared", "stack", "heap", "temporal", "metadata",
                     "perf overhead"});
    for (const Row& row : rows) {
        const SecurityScore score = evaluateMechanism(row.kind);
        auto at = [&](ViolationCategory c) {
            return score.detected.count(c) ? score.detected.at(c) : 0u;
        };
        const unsigned temporal = score.temporalDetected();
        std::string overhead;
        if (row.measured) {
            overhead =
                fmtPct(measuredOverheadPct(sweep, row.kind, scale)) +
                " (measured)";
        } else {
            overhead = fmtPct(row.quoted_overhead_pct) + " (paper)";
        }
        table.addRow({mechanismKindName(row.kind), row.target, row.base,
                      row.technique,
                      mark(at(ViolationCategory::GlobalOoB), 2),
                      mark(at(ViolationCategory::SharedOoB), 6),
                      mark(at(ViolationCategory::LocalOoB), 8),
                      mark(at(ViolationCategory::HeapOoB), 3),
                      mark(temporal, score.temporalTotal()),
                      row.metadata_access, overhead});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("legend: # full coverage, + partial, O none. Overheads "
                "marked (measured) come from this simulator (geomean over "
                "Table V at scale %.2f); (paper) values are quoted, as the "
                "original paper itself quotes them.\n", scale);
    return 0;
}
