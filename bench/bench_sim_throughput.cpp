/**
 * @file
 * Tracked simulator-throughput benchmark: how many simulated warp
 * instructions the simulator retires per wall-clock second (winst/s),
 * and at what memory cost.
 *
 * Runs a fixed basket of Table V workloads under the baseline and every
 * Fig. 12 mechanism (serially by default, so the rate is not a function
 * of host core count), then reports per-mechanism and aggregate warp
 * instructions and winst/s plus the process peak RSS, and writes the
 * numbers to a JSON file (BENCH_sim_throughput.json by default — the
 * committed copy at the repo root is the tracked baseline). Simulated
 * cycles are reported too, but they are not a rate's numerator: a
 * launch's cycles are its slowest SM's, so a timing-model change can
 * move cycles/s without any change in simulator speed.
 *
 * The serial basket always runs three times; the table, the JSON and
 * the regression gate take the run with the median aggregate rate (a
 * single run's rate spreads by more than the gate's tolerance on a
 * shared host). The JSON also lists all three rates.
 *
 * Regression mode: `--check FILE [--tolerance PCT]` re-measures and
 * exits non-zero when the median aggregate_winst_per_sec fell more
 * than PCT percent (default 30) below the rate recorded in FILE. CI's
 * perf-smoke job runs exactly that against the committed baseline. The
 * check always gates the *serial* rate — thread-scaling numbers vary
 * with the host.
 *
 * Thread-scaling mode: `--threads 1,2,4,8` re-runs the basket with the
 * simulator's per-launch SM worker pool at each count (results are
 * byte-identical; only wall clock changes) and reports winst/s plus
 * parallel efficiency per count, recorded under "thread_scaling" in
 * the JSON together with the host's hardware concurrency. When
 * combined with `--check` on a multi-core host, the widest in-core
 * point must show real speedup (>= 1.15x over 1 thread); on a 1-CPU
 * host the scaling assertion is skipped with a notice — flat scaling
 * there is physics, not a regression.
 *
 * Tier pass: unless `--no-tiers` is given, the basket is re-run under
 * the functional execution tier, which executes the same warp
 * instructions without the timing model; its winst/s and speedup over
 * detailed are recorded under "tiers" in the JSON.
 *
 * usage: bench_sim_throughput [scale] [--jobs N] [--out FILE]
 *                             [--check FILE] [--tolerance PCT]
 *                             [--threads LIST] [--no-tiers] [--help]
 * Malformed values exit 2; --help prints usage and runs nothing.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "mechanisms/registry.hpp"
#include "runner/experiment_runner.hpp"
#include "workloads/workloads.hpp"

using namespace lmi;

namespace {

/** Fixed basket: scattered (bfs), integer-dense (gaussian),
 *  shared-heavy (needle), stencil (hotspot), one DNN inference profile
 *  (bert) and one stack-using kernel (particlefilter_naive, whose every
 *  thread touches local memory) — small enough for CI, diverse enough
 *  that a regression in any hot path (ALU, global/shared/local memory,
 *  scheduler) shows up. */
const char* const kBasket[] = {"bfs",    "gaussian", "hotspot",
                               "needle", "bert",     "particlefilter_naive"};

/** Serial basket runs per invocation; the median one is reported. */
constexpr size_t kBasketRuns = 3;

/** Warp instructions per host second. */
double
winstPerSec(uint64_t winst, double wall_ms)
{
    return wall_ms > 0.0 ? double(winst) * 1000.0 / wall_ms : 0.0;
}

struct MechRate
{
    uint64_t cycles = 0;
    uint64_t winst = 0; ///< simulated warp instructions
    double wall_ms = 0.0;

    double rate() const { return winstPerSec(winst, wall_ms); }
};

long
peakRssKb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return ru.ru_maxrss; // KiB on Linux
}

/** Pull "aggregate_winst_per_sec": <num> out of a baseline JSON with
 *  a plain scan — the file is our own flat rendering, not arbitrary
 *  JSON. Returns 0 when absent/unreadable. */
double
baselineRate(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        return 0.0;
    std::ostringstream text;
    text << in.rdbuf();
    const std::string s = text.str();
    const char* key = "\"aggregate_winst_per_sec\":";
    const size_t pos = s.find(key);
    if (pos == std::string::npos)
        return 0.0;
    return std::strtod(s.c_str() + pos + std::strlen(key), nullptr);
}

} // namespace

int
main(int argc, char** argv)
{
    double scale = 1.0;
    unsigned jobs = 1;
    std::string out_path = "BENCH_sim_throughput.json";
    std::string check_path;
    double tolerance = 30.0;
    std::vector<unsigned> thread_counts;
    bool run_tiers = true;
    bool scale_seen = false;
    constexpr const char* kFlags =
        "[scale] [--jobs N] [--out FILE] [--check FILE] "
        "[--tolerance PCT] [--threads LIST] [--no-tiers]";
    for (int i = 1; i < argc; ++i) {
        if (bench::isHelpFlag(argv[i])) {
            bench::exitUsage(argv[0], kFlags, true);
        } else if (!std::strcmp(argv[i], "--no-tiers")) {
            run_tiers = false;
        } else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
            jobs = bench::parseOrExit(parseUnsigned, "--jobs", argv[++i]);
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--check") && i + 1 < argc) {
            check_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--tolerance") && i + 1 < argc) {
            tolerance =
                bench::parseOrExit(parseDouble, "--tolerance", argv[++i]);
        } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
            thread_counts = bench::parseOrExit(parseUnsignedList,
                                               "--threads", argv[++i]);
            for (const unsigned t : thread_counts) {
                if (t == 0) {
                    std::fprintf(stderr, "error: bad --threads entry 0\n");
                    return 2;
                }
            }
        } else if (!scale_seen && std::strncmp(argv[i], "--", 2)) {
            scale = bench::parseOrExit(parseScale, "scale", argv[i]);
            scale_seen = true;
        } else {
            bench::exitUsage(argv[0], kFlags, false);
        }
    }

    bench::banner("Simulator throughput",
                  "simulated warp instructions per wall-clock second");

    SweepSpec spec;
    for (const char* w : kBasket)
        spec.workloads.push_back(w);
    spec.mechanisms.push_back(MechanismKind::Baseline);
    for (MechanismKind kind : hardwareComparisonMechanisms())
        spec.mechanisms.push_back(kind);
    spec.scales = {scale};
    spec.jobs = jobs;
    // The tracked rate is always the serial engine: pin sim_threads so
    // an inherited LMI_SIM_THREADS cannot skew the baseline.
    spec.sim_threads = 1;
    // Never cached: the whole point is to measure fresh simulation.

    struct BasketRun
    {
        // std::map: deterministic mechanism order in table and JSON.
        std::map<std::string, MechRate> rates;
        MechRate total;
    };
    std::vector<BasketRun> runs(kBasketRuns);
    for (BasketRun& run : runs) {
        const SweepResult sweep = runSweep(spec);
        if (sweep.failures) {
            std::fprintf(stderr, "error: %zu cell(s) failed\n",
                         sweep.failures);
            return 1;
        }
        for (const CellResult& cell : sweep.cells) {
            for (MechRate* r :
                 {&run.rates[mechanismKindName(cell.mechanism)],
                  &run.total}) {
                r->cycles += cell.result.cycles;
                r->winst += cell.result.instructions;
                r->wall_ms += cell.wall_ms;
            }
        }
    }
    std::sort(runs.begin(), runs.end(),
              [](const BasketRun& a, const BasketRun& b) {
                  return a.total.rate() < b.total.rate();
              });
    const std::map<std::string, MechRate>& rates =
        runs[kBasketRuns / 2].rates;
    const MechRate& total = runs[kBasketRuns / 2].total;
    std::string run_rates;
    for (const BasketRun& run : runs)
        run_rates += (run_rates.empty() ? "" : ", ") +
                     fmtF(run.total.rate(), 0);
    std::printf("serial basket: %zu runs at %s winst/s; the median run "
                "is reported\n",
                kBasketRuns, run_rates.c_str());

    TextTable table({"mechanism", "cycles", "warp_insts", "wall_ms",
                     "winst_per_sec"});
    for (const auto& [name, r] : rates)
        table.addRow({name, std::to_string(r.cycles),
                      std::to_string(r.winst), fmtF(r.wall_ms, 1),
                      fmtF(r.rate(), 0)});
    table.addRow({"TOTAL", std::to_string(total.cycles),
                  std::to_string(total.winst), fmtF(total.wall_ms, 1),
                  fmtF(total.rate(), 0)});
    std::printf("%s", table.render().c_str());

    const long rss_kb = peakRssKb();
    std::printf("\npeak RSS: %.1f MB\n", double(rss_kb) / 1024.0);

    // Thread-scaling pass: identical simulation (byte-identical
    // results), only the per-launch SM worker count varies. Jobs are
    // pinned to 1 so each measurement owns the whole host, and the
    // oversubscription clamp is off — measuring past the core count is
    // exactly the point of the sweep.
    struct ScalePoint
    {
        unsigned threads = 1;
        uint64_t winst = 0;
        double wall_ms = 0.0;
        double rate = 0.0;
        double efficiency = 1.0;
    };
    std::vector<ScalePoint> scaling;
    if (!thread_counts.empty()) {
        SweepSpec tspec = spec;
        tspec.jobs = 1;
        tspec.clamp_sim_threads = false;
        for (unsigned t : thread_counts) {
            tspec.sim_threads = t;
            const SweepResult ts = runSweep(tspec);
            if (ts.failures) {
                std::fprintf(stderr,
                             "error: %zu cell(s) failed at %u threads\n",
                             ts.failures, t);
                return 1;
            }
            ScalePoint pt;
            pt.threads = t;
            for (const CellResult& cell : ts.cells) {
                pt.winst += cell.result.instructions;
                pt.wall_ms += cell.wall_ms;
            }
            pt.rate = winstPerSec(pt.winst, pt.wall_ms);
            scaling.push_back(pt);
        }
        // Efficiency is speedup over the 1-thread point of this same
        // pass (or the serial headline rate when 1 is not in the list)
        // divided by the thread count.
        double base_rate = total.rate();
        for (const ScalePoint& pt : scaling)
            if (pt.threads == 1 && pt.rate > 0.0)
                base_rate = pt.rate;
        TextTable scale_table({"threads", "wall_ms", "winst_per_sec",
                               "speedup", "efficiency"});
        for (ScalePoint& pt : scaling) {
            const double speedup =
                base_rate > 0.0 ? pt.rate / base_rate : 0.0;
            pt.efficiency = pt.threads ? speedup / pt.threads : 0.0;
            scale_table.addRow({std::to_string(pt.threads),
                                fmtF(pt.wall_ms, 1), fmtF(pt.rate, 0),
                                fmtF(speedup, 2) + "x",
                                fmtF(100.0 * pt.efficiency, 1) + "%"});
        }
        std::printf("\nthread scaling (%u host cpu(s)):\n%s",
                    std::max(1u, std::thread::hardware_concurrency()),
                    scale_table.render().c_str());
    }

    // Tier pass: same basket, same serial engine, functional tier. It
    // executes the same warp instructions as the detailed pass, so the
    // two rates compare directly.
    MechRate func;
    double func_speedup = 0.0;
    if (run_tiers) {
        SweepSpec tspec = spec;
        tspec.tier = ExecutionTier::Functional;
        const SweepResult ts = runSweep(tspec);
        if (ts.failures) {
            std::fprintf(stderr,
                         "error: %zu cell(s) failed under the "
                         "functional tier\n",
                         ts.failures);
            return 1;
        }
        for (const CellResult& cell : ts.cells) {
            func.cycles += cell.result.cycles;
            func.winst += cell.result.instructions;
            func.wall_ms += cell.wall_ms;
        }
        func_speedup =
            total.rate() > 0.0 ? func.rate() / total.rate() : 0.0;
        TextTable tier_table({"tier", "wall_ms", "winst_per_sec",
                              "speedup_vs_detailed"});
        tier_table.addRow({"detailed", fmtF(total.wall_ms, 1),
                           fmtF(total.rate(), 0), "1.00x"});
        tier_table.addRow({"functional", fmtF(func.wall_ms, 1),
                           fmtF(func.rate(), 0),
                           fmtF(func_speedup, 2) + "x"});
        std::printf("\nexecution tiers:\n%s",
                    tier_table.render().c_str());
    }

    // Read the reference rate before writing: --out and --check may
    // name the same file (refreshing the tracked baseline in place).
    const double base =
        check_path.empty() ? 0.0 : baselineRate(check_path);

    std::ofstream out(out_path, std::ios::trunc);
    out << "{\n";
    out << "  \"scale\": " << scale << ",\n";
    out << "  \"jobs\": " << jobs << ",\n";
    out << "  \"workloads\": [";
    for (size_t i = 0; i < std::size(kBasket); ++i)
        out << (i ? ", " : "") << '"' << kBasket[i] << '"';
    out << "],\n";
    out << "  \"mechanisms\": {\n";
    size_t n = 0;
    for (const auto& [name, r] : rates) {
        out << "    \"" << name << "\": {\"cycles\": " << r.cycles
            << ", \"warp_insts\": " << r.winst
            << ", \"wall_ms\": " << fmtF(r.wall_ms, 3)
            << ", \"winst_per_sec\": " << fmtF(r.rate(), 0) << "}"
            << (++n < rates.size() ? "," : "") << "\n";
    }
    out << "  },\n";
    out << "  \"aggregate_cycles\": " << total.cycles << ",\n";
    out << "  \"aggregate_warp_insts\": " << total.winst << ",\n";
    out << "  \"aggregate_wall_ms\": " << fmtF(total.wall_ms, 3) << ",\n";
    out << "  \"aggregate_winst_per_sec\": " << fmtF(total.rate(), 0)
        << ",\n";
    out << "  \"basket_runs_winst_per_sec\": [" << run_rates << "],\n";
    out << "  \"peak_rss_kb\": " << rss_kb << ",\n";
    // Always record the host width: rate baselines from a 1-CPU
    // runner and a wide box are not comparable.
    out << "  \"host_cpus\": "
        << std::max(1u, std::thread::hardware_concurrency());
    if (run_tiers) {
        out << ",\n  \"tiers\": {\n";
        out << "    \"functional\": {\"wall_ms\": " << fmtF(func.wall_ms, 3)
            << ", \"est_cycles\": " << func.cycles
            << ", \"warp_insts\": " << func.winst
            << ", \"winst_per_sec\": " << fmtF(func.rate(), 0)
            << ", \"speedup_vs_detailed\": " << fmtF(func_speedup, 3)
            << "}\n";
        out << "  }";
    }
    if (!scaling.empty()) {
        out << ",\n  \"thread_scaling\": [\n";
        for (size_t i = 0; i < scaling.size(); ++i) {
            const ScalePoint& pt = scaling[i];
            out << "    {\"threads\": " << pt.threads
                << ", \"wall_ms\": " << fmtF(pt.wall_ms, 3)
                << ", \"winst_per_sec\": " << fmtF(pt.rate, 0)
                << ", \"efficiency\": " << fmtF(pt.efficiency, 3) << "}"
                << (i + 1 < scaling.size() ? "," : "") << "\n";
        }
        out << "  ]";
    }
    out << "\n}\n";
    out.close();
    std::printf("wrote %s\n", out_path.c_str());

    if (!check_path.empty()) {
        if (base <= 0.0) {
            std::fprintf(stderr,
                         "error: no aggregate_winst_per_sec in %s\n",
                         check_path.c_str());
            return 1;
        }
        const double floor = base * (1.0 - tolerance / 100.0);
        std::printf("regression check: median %.0f winst/s vs baseline "
                    "%.0f (floor %.0f, tolerance %.0f%%)\n",
                    total.rate(), base, floor, tolerance);
        if (total.rate() < floor) {
            std::fprintf(stderr,
                         "error: throughput regressed more than %.0f%%\n",
                         tolerance);
            return 1;
        }

        // Thread-scaling gate: only meaningful with real cores. A
        // 1-CPU host shows flat scaling by construction, so the
        // assertion is skipped there rather than recorded as a pass.
        if (!scaling.empty()) {
            const unsigned cpus =
                std::max(1u, std::thread::hardware_concurrency());
            if (cpus <= 1) {
                std::printf("thread-scaling gate: skipped "
                            "(host_cpus == 1, flat scaling expected)\n");
            } else {
                double best = 0.0;
                unsigned best_threads = 0;
                for (const ScalePoint& pt : scaling) {
                    if (pt.threads < 2 || pt.threads > cpus)
                        continue;
                    const double speedup =
                        pt.efficiency * double(pt.threads);
                    if (speedup > best) {
                        best = speedup;
                        best_threads = pt.threads;
                    }
                }
                if (best_threads == 0) {
                    std::printf("thread-scaling gate: skipped (no "
                                "in-core multi-thread point measured)\n");
                } else {
                    std::printf("thread-scaling gate: best in-core "
                                "speedup %.2fx at %u threads "
                                "(%u cpus, floor 1.15x)\n",
                                best, best_threads, cpus);
                    if (best < 1.15) {
                        std::fprintf(stderr,
                                     "error: parallel engine shows no "
                                     "speedup on a %u-core host\n",
                                     cpus);
                        return 1;
                    }
                }
            }
        }
    }
    return 0;
}
