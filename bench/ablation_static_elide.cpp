/**
 * @file
 * Static-elision ablation (extension beyond the paper).
 *
 * The lmi+elide configuration compiles kernels at analysis level Full:
 * the range analysis proves pointer operations in-bounds at compile
 * time and marks them with the E hint bit, so the OCU power-gates
 * their dynamic checks. This harness sweeps the Table V workloads and
 * reports, per workload:
 *
 *   - how many OCU checks execute dynamically vs how many are elided
 *     (the static coverage of the range analysis at run-time weight);
 *   - the cycle delta vs stock LMI (elided checks skip the +3-cycle
 *     register-sliced OCU latency);
 *   - whether the output buffer is byte-identical to stock LMI (the
 *     elision soundness claim: a proven check never changes a result).
 *
 * It then replays the Table III violation suite under both
 * configurations to confirm every seeded violation stock LMI detects
 * is still detected with elision enabled (compile-time rejection of
 * provably violating arithmetic counts as detection).
 */

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "mechanisms/registry.hpp"
#include "security/coverage.hpp"
#include "sim/device.hpp"
#include "workloads/workloads.hpp"

using namespace lmi;

namespace {

struct ElideCell
{
    uint64_t cycles = 0;
    uint64_t checks = 0;
    uint64_t elided = 0;
    size_t faults = 0;
    std::vector<uint32_t> output;
};

/** Mirror runWorkload(), but seed the input and read back the output. */
ElideCell
runCell(MechanismKind kind, const WorkloadProfile& profile, double scale)
{
    WorkloadProfile p = profile;
    if (scale < 1.0) {
        p.grid_blocks = std::max(1u, unsigned(p.grid_blocks * scale));
        p.block_threads = std::max(32u, unsigned(p.block_threads * scale));
    }
    const uint64_t elems = p.elements();
    const uint64_t bytes = elems * 4 + 64;

    Device dev(makeMechanism(kind));
    const uint64_t in = dev.cudaMalloc(bytes);
    const uint64_t out = dev.cudaMalloc(bytes);

    std::vector<uint32_t> seed(elems);
    for (uint64_t i = 0; i < elems; ++i)
        seed[i] = uint32_t(i * 2654435761u + 12345u);
    dev.memcpyHtoD(in, seed.data(), elems * 4);

    const CompiledKernel k = dev.compile(buildWorkloadKernel(p), p.name);
    const RunResult r = dev.launch(k, p.grid_blocks, p.block_threads,
                                   {in, out, elems});

    ElideCell cell;
    cell.cycles = r.cycles;
    cell.checks = dev.stats().counter("ocu.checks");
    cell.elided = dev.stats().counter("ocu.checks_elided");
    cell.faults = r.faults.size();
    cell.output.resize(elems);
    dev.memcpyDtoH(cell.output.data(), out, elems * 4);
    return cell;
}

} // namespace

int
main(int argc, char** argv)
{
    const bench::BenchArgs args = bench::parseBenchArgs(argc, argv, 0.25);
    bench::banner("Extension ablation",
                  "static range analysis eliding proven OCU checks");

    TextTable table({"workload", "checks", "elided", "elided %",
                     "lmi cycles", "elide cycles", "delta", "outputs"});
    double worst = 0.0, best = 0.0, sum = 0.0;
    unsigned covered = 0, mismatches = 0;
    for (const WorkloadProfile& profile : workloadSuite()) {
        const ElideCell lmi = runCell(MechanismKind::Lmi, profile,
                                      args.scale);
        const ElideCell elide = runCell(MechanismKind::LmiElide, profile,
                                        args.scale);
        const uint64_t total = elide.checks + elide.elided;
        const double pct =
            total ? 100.0 * double(elide.elided) / double(total) : 0.0;
        const double delta = (double(elide.cycles) / double(lmi.cycles) -
                              1.0) * 100.0;
        const bool identical = lmi.output == elide.output &&
                               lmi.faults == elide.faults;
        if (elide.elided > 0)
            ++covered;
        if (!identical)
            ++mismatches;
        worst = std::min(worst, delta);
        best = std::max(best, delta);
        sum += delta;
        table.addRow({profile.name, std::to_string(elide.checks),
                      std::to_string(elide.elided), fmtPct(pct),
                      std::to_string(lmi.cycles),
                      std::to_string(elide.cycles),
                      fmtF(delta, 2) + "%",
                      identical ? "identical" : "MISMATCH"});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("  %u/%zu workloads have >0%% of their dynamic checks "
                "elided; cycle delta vs stock LMI: best %.2f%%, mean "
                "%.2f%%, worst %.2f%%\n",
                covered, workloadSuite().size(), worst,
                sum / double(workloadSuite().size()), best);
    if (mismatches)
        std::printf("  SOUNDNESS FAILURE: %u workloads diverged from "
                    "stock LMI\n", mismatches);

    // --- Detection equivalence (Table III replay). --------------------
    // Each case's lmi cell is followed by its lmi+elide cell.
    const CoverageMatrix matrix =
        runCoverage({MechanismKind::Lmi, MechanismKind::LmiElide},
                    {ExecutionTier::Detailed});
    unsigned cases = 0, lmi_detected = 0, elide_detected = 0,
             regressions = 0;
    for (size_t i = 0; i + 1 < matrix.cells.size(); i += 2) {
        const CoverageCell& lmi_cell = matrix.cells[i];
        const CoverageCell& elide_cell = matrix.cells[i + 1];
        if (!lmi_cell.category)
            continue;
        ++cases;
        lmi_detected += lmi_cell.detected;
        elide_detected += elide_cell.detected;
        if (lmi_cell.detected && !elide_cell.detected) {
            ++regressions;
            std::printf("  DETECTION REGRESSION: %s\n",
                        lmi_cell.attack.c_str());
        }
    }
    std::printf("\n  violation suite: lmi %u/%u, lmi+elide %u/%u "
                "(%u regressions)\n",
                lmi_detected, cases, elide_detected, cases, regressions);
    std::printf("\nProven-safe checks are elided only when the checked "
                "result is bit-identical to the unchecked one, so every "
                "violation the OCU catches dynamically remains caught: "
                "unknown-provenance pointers (kernel parameters, the "
                "dynamic shared pool) always keep their checks.\n");
    return (mismatches || regressions) ? 1 : 0;
}
