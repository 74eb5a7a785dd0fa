/**
 * @file
 * Figure 13: LMI implemented through dynamic binary instrumentation vs
 * NVIDIA Compute Sanitizer memcheck (both NVBit-style), normalized to
 * the uninstrumented baseline. AD workloads are excluded, as in the
 * paper (NVBit incompatibilities / sanitizer OOM).
 *
 * Runs as one ExperimentRunner sweep; the SweepSpec post hook pulls the
 * mechanism-specific check/LDST ratio into the cell's stat gauges so it
 * exports (and caches) with the rest of the cell.
 *
 * Paper headlines: memcheck geomean 32.98x, LMI-by-DBI geomean 72.95x,
 * and JIT recompilation itself costs only ~5%. The paper attributes the
 * per-workload winner flip to the ratio of LMI bound checks to LD/ST
 * instructions (gaussian 67.14: memcheck wins big; swin 28.13: the gap
 * narrows).
 *
 * What this harness measures: per workload, memcheck and LMI-by-DBI
 * cycles normalized to the baseline, plus LMI-by-DBI's check/LDST
 * ratio; it prints both geomeans and the gaussian and swin ratios next
 * to the paper's. In this model memcheck is faster on every workload at
 * scale 1.0: the gap narrows with the ratio (8.6x on gaussian, ~2x at
 * ratios 9.5-18) but no winner flips (EXPERIMENTS.md, Figure 13).
 */

#include <cstdio>

#include "bench_util.hpp"
#include "mechanisms/dbi.hpp"
#include "mechanisms/registry.hpp"
#include "runner/experiment_runner.hpp"
#include "workloads/workloads.hpp"

using namespace lmi;

int
main(int argc, char** argv)
{
    const bench::BenchArgs args = bench::parseBenchArgs(argc, argv, 0.1);
    bench::banner("Figure 13", "DBI: LMI-by-NVBit vs Compute Sanitizer "
                               "memcheck (log-scale data)");

    SweepSpec spec;
    spec.profiles = dbiWorkloads();
    spec.mechanisms = {MechanismKind::Baseline, MechanismKind::MemcheckDbi,
                       MechanismKind::LmiDbi};
    spec.scales = {args.scale};
    spec.jobs = args.jobs;
    spec.progress = true;
    if (const char* dir = std::getenv("LMI_CACHE_DIR"))
        spec.cache_dir = dir;
    spec.post = [](Device& dev, CellResult& cell) {
        if (cell.mechanism == MechanismKind::LmiDbi) {
            const auto& mech =
                static_cast<const LmiDbiMechanism&>(dev.mechanism());
            cell.device_stats.set("dbi.check_ldst_ratio",
                                  mech.report().checkToLdstRatio());
        }
    };

    const SweepResult sweep = runSweep(spec);

    TextTable table({"benchmark", "memcheck", "lmi-dbi", "checks/LDST"});
    std::vector<double> memcheck_norm, lmidbi_norm;
    double gaussian_ratio = 0, swin_ratio = 0;

    for (const auto& profile : spec.profiles) {
        const CellResult* base =
            sweep.find(profile.name, MechanismKind::Baseline, args.scale);
        const CellResult* mem =
            sweep.find(profile.name, MechanismKind::MemcheckDbi, args.scale);
        const CellResult* lmi =
            sweep.find(profile.name, MechanismKind::LmiDbi, args.scale);
        if (!base || !base->ok || !mem || !mem->ok || !lmi || !lmi->ok) {
            std::printf("ERROR: incomplete sweep for %s\n",
                        profile.name.c_str());
            return 1;
        }

        const double base_cycles = double(base->result.cycles);
        const double mem_norm = double(mem->result.cycles) / base_cycles;
        const double lmi_norm = double(lmi->result.cycles) / base_cycles;
        const double ratio =
            lmi->device_stats.gauge("dbi.check_ldst_ratio");
        memcheck_norm.push_back(mem_norm);
        lmidbi_norm.push_back(lmi_norm);
        if (profile.name == "gaussian")
            gaussian_ratio = ratio;
        if (profile.name == "swin")
            swin_ratio = ratio;

        table.addRow({profile.name, fmtX(mem_norm), fmtX(lmi_norm),
                      fmtF(ratio, 2)});
    }
    table.addSeparator();
    table.addRow({"geomean", fmtX(geomean(memcheck_norm)),
                  fmtX(geomean(lmidbi_norm)), ""});
    std::printf("%s\n", table.render().c_str());

    bench::compare("memcheck geomean slowdown", 32.98,
                   geomean(memcheck_norm), "x");
    bench::compare("LMI-by-DBI geomean slowdown", 72.95,
                   geomean(lmidbi_norm), "x");
    bench::compare("gaussian check/LDST ratio", 67.14, gaussian_ratio, "");
    bench::compare("swin check/LDST ratio", 28.13, swin_ratio, "");
    std::printf("\nJIT recompilation launch overhead modeled at %.1f%% "
                "(paper measured ~5.2%% via perf).\n", 5.2);
    std::printf("Sweep: %zu cells in %.1f s (%zu cached, %zu failed).\n",
                sweep.cells.size(), sweep.wall_ms / 1000.0,
                sweep.cache_hits, sweep.failures);
    return 0;
}
