/**
 * @file
 * Figure 12: normalized execution time of software Baggy Bounds,
 * GPUShield, and LMI against the unprotected baseline over the full
 * Table V suite, on the Table IV machine.
 *
 * The whole figure is one declarative SweepSpec — 28 workloads x
 * (baseline + 3 mechanisms) — executed by the ExperimentRunner across
 * all cores; `--jobs N` controls the pool, `LMI_CACHE_DIR` enables the
 * on-disk result cache so a re-run only simulates changed cells.
 *
 * Paper headlines this harness must reproduce in shape:
 *  - LMI: near-zero overhead everywhere (average 0.22%);
 *  - GPUShield: competitive except on uncoalesced workloads —
 *    needle +42.5%, LSTM +24.0% (L1 D$ hits but RCache misses);
 *  - Baggy Bounds (software): ~87% average, peaking >5x on kernels
 *    dense in pointer operations.
 */

#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "mechanisms/registry.hpp"
#include "runner/experiment_runner.hpp"
#include "sim/config.hpp"
#include "workloads/workloads.hpp"

using namespace lmi;

namespace {

void
printConfig()
{
    const GpuConfig cfg;
    std::printf("Table IV configuration: %u SMs @ %.1f GHz, %u GTO "
                "schedulers/SM, L1 %llu KB (%u cyc), L2 %.1f MB %u-way "
                "(%u cyc), %llu GB HBM\n\n",
                cfg.num_sms, cfg.clock_ghz, cfg.schedulers_per_sm,
                static_cast<unsigned long long>(cfg.l1_size / 1024),
                cfg.l1_latency, double(cfg.l2_size) / (1024.0 * 1024.0),
                cfg.l2_assoc, cfg.l2_latency,
                static_cast<unsigned long long>(kGlobalSize / kGiB));
}

} // namespace

int
main(int argc, char** argv)
{
    const bench::BenchArgs args = bench::parseBenchArgs(argc, argv, 1.0);
    bench::banner("Figure 12",
                  "normalized execution time: Baggy / GPUShield / LMI");
    printConfig();

    SweepSpec spec;
    for (const auto& profile : workloadSuite())
        spec.workloads.push_back(profile.name);
    spec.mechanisms.push_back(MechanismKind::Baseline);
    for (MechanismKind kind : hardwareComparisonMechanisms())
        spec.mechanisms.push_back(kind);
    spec.scales = {args.scale};
    spec.jobs = args.jobs;
    spec.progress = true;
    if (const char* dir = std::getenv("LMI_CACHE_DIR"))
        spec.cache_dir = dir;

    const SweepResult sweep = runSweep(spec);

    TextTable table({"benchmark", "baseline cyc", "baggy-sw", "gpushield",
                     "lmi"});
    std::vector<double> baggy_norm, shield_norm, lmi_norm;
    double needle_shield = 0, lstm_shield = 0, baggy_peak = 0, lmi_max = 0;
    std::vector<std::string> misordered; // LMI < GPUShield < Baggy fails

    for (const std::string& name : spec.workloads) {
        const CellResult* base =
            sweep.find(name, MechanismKind::Baseline, args.scale);
        if (!base || !base->ok) {
            std::printf("ERROR: %s baseline: %s\n", name.c_str(),
                        base ? base->error.c_str() : "missing cell");
            return 1;
        }
        const uint64_t base_cycles = base->result.cycles;
        std::vector<std::string> row = {name, std::to_string(base_cycles)};
        for (MechanismKind kind : hardwareComparisonMechanisms()) {
            const CellResult* cell = sweep.find(name, kind, args.scale);
            if (!cell || !cell->ok) {
                std::printf("ERROR: %s under %s: %s\n", name.c_str(),
                            mechanismKindName(kind),
                            cell ? cell->error.c_str() : "missing cell");
                return 1;
            }
            if (cell->faulted()) {
                std::printf("FAULT: %s under %s\n", name.c_str(),
                            mechanismKindName(kind));
                return 1;
            }
            const double norm =
                double(cell->result.cycles) / double(base_cycles);
            row.push_back(fmtF(norm, 4) + "x");
            switch (kind) {
              case MechanismKind::BaggySw:
                baggy_norm.push_back(norm);
                baggy_peak = std::max(baggy_peak, norm);
                break;
              case MechanismKind::GpuShield:
                shield_norm.push_back(norm);
                if (name == "needle")
                    needle_shield = (norm - 1.0) * 100.0;
                if (name == "LSTM")
                    lstm_shield = (norm - 1.0) * 100.0;
                break;
              case MechanismKind::Lmi:
                lmi_norm.push_back(norm);
                lmi_max = std::max(lmi_max, (norm - 1.0) * 100.0);
                break;
              default:
                break;
            }
        }
        if (!(lmi_norm.back() < shield_norm.back() &&
              shield_norm.back() < baggy_norm.back()))
            misordered.push_back(name);
        table.addRow(row);
    }
    table.addSeparator();
    table.addRow({"geomean", "",
                  fmtF(geomean(baggy_norm), 4) + "x",
                  fmtF(geomean(shield_norm), 4) + "x",
                  fmtF(geomean(lmi_norm), 4) + "x"});
    std::printf("%s\n", table.render().c_str());

    bench::compare("LMI average overhead", 0.22,
                   (geomean(lmi_norm) - 1.0) * 100.0, "%");
    bench::compare("GPUShield needle overhead", 42.5, needle_shield, "%");
    bench::compare("GPUShield LSTM overhead", 24.0, lstm_shield, "%");
    bench::compare("Baggy average overhead", 87.0,
                   (geomean(baggy_norm) - 1.0) * 100.0, "%");
    bench::compare("Baggy peak slowdown", 6.03, baggy_peak, "x");
    std::string fails;
    for (const std::string& name : misordered)
        fails += (fails.empty() ? "" : ", ") + name;

    // GPUShield's outliers as measured, worst first; the paper's are
    // the uncoalesced needle and LSTM.
    std::vector<size_t> by_shield(spec.workloads.size());
    for (size_t i = 0; i < by_shield.size(); ++i)
        by_shield[i] = i;
    std::stable_sort(by_shield.begin(), by_shield.end(),
                     [&](size_t a, size_t b) {
                         return shield_norm[a] > shield_norm[b];
                     });
    std::string outliers, paper_ranks;
    for (size_t rank = 0; rank < by_shield.size(); ++rank) {
        const std::string& name = spec.workloads[by_shield[rank]];
        if (rank < 5)
            outliers += (rank ? ", " : "") + name + " " +
                        fmtF(shield_norm[by_shield[rank]], 2) + "x";
        if (name == "needle" || name == "LSTM")
            paper_ranks += (paper_ranks.empty() ? "" : ", ") + name +
                           " #" + std::to_string(rank + 1);
    }
    std::printf("\nShape checks: LMI < GPUShield < Baggy holds on %zu of "
                "%zu benchmarks%s%s%s; GPUShield's five worst are %s "
                "(paper's uncoalesced outliers rank %s); LMI stays below "
                "%.2f%% on every benchmark.\n",
                spec.workloads.size() - misordered.size(),
                spec.workloads.size(), fails.empty() ? "" : " (fails on: ",
                fails.c_str(), fails.empty() ? "" : ")", outliers.c_str(),
                paper_ranks.c_str(), lmi_max);
    std::printf("Sweep: %zu cells in %.1f s (%zu cached, %zu failed).\n",
                sweep.cells.size(), sweep.wall_ms / 1000.0,
                sweep.cache_hits, sweep.failures);
    return 0;
}
