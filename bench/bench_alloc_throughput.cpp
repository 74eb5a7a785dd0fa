/**
 * @file
 * Tracked allocator-throughput benchmark: operations per wall-clock
 * second on the churn basket (workloads/churn.hpp) — the number
 * allocator changes are gated on.
 *
 * Runs the fixed 6-spec basket (small/mixed/cross-SM device-heap
 * churn, packed and pow2 host churn, and a stale-free temporal
 * scenario), reports per-spec ops/s plus the remote-free drain
 * statistics and end-state fragmentation, and writes the numbers
 * to a JSON file (BENCH_alloc_throughput.json by default — the
 * committed copy at the repo root is the tracked baseline).
 *
 * The basket always runs three times; the table, the JSON and the
 * regression gate take the run with the median basket-mean rate (a
 * single run's rate spreads by more than the gate's tolerance on a
 * shared host). The JSON also lists all three rates.
 *
 * Regression mode: `--check FILE [--tolerance PCT]` re-measures and
 * exits non-zero when the median basket-mean rate fell more than PCT
 * percent (default 30) below the rate recorded in FILE. CI's
 * perf-smoke job runs exactly that against the committed baseline.
 * The three runs must also agree on every spec's deterministic
 * digest, so a nondeterministic allocator fails loudly here before it
 * can poison a sweep.
 *
 * usage: bench_alloc_throughput [scale] [--out FILE] [--check FILE]
 *                               [--tolerance PCT] [--drain N] [--help]
 * Malformed values exit 2; --help prints usage and runs nothing.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "workloads/churn.hpp"

using namespace lmi;

namespace {

/** Pull "aggregate_ops_per_sec": <num> out of a baseline JSON with a
 *  plain scan — the file is our own flat rendering, not arbitrary
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
    const char* key = "\"aggregate_ops_per_sec\":";
    const size_t pos = s.find(key);
    if (pos == std::string::npos)
        return 0.0;
    return std::strtod(s.c_str() + pos + std::strlen(key), nullptr);
}

/** Basket runs per invocation; the median one is reported. */
constexpr size_t kBasketRuns = 3;

} // namespace

int
main(int argc, char** argv)
{
    double scale = 1.0;
    std::string out_path = "BENCH_alloc_throughput.json";
    std::string check_path;
    double tolerance = 30.0;
    unsigned drain_interval = 256;
    bool scale_seen = false;
    constexpr const char* kFlags = "[scale] [--out FILE] [--check FILE] "
                                   "[--tolerance PCT] [--drain N]";
    for (int i = 1; i < argc; ++i) {
        if (bench::isHelpFlag(argv[i])) {
            bench::exitUsage(argv[0], kFlags, true);
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--check") && i + 1 < argc) {
            check_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--tolerance") && i + 1 < argc) {
            tolerance =
                bench::parseOrExit(parseDouble, "--tolerance", argv[++i]);
        } else if (!std::strcmp(argv[i], "--drain") && i + 1 < argc) {
            drain_interval =
                bench::parseOrExit(parseUnsigned, "--drain", argv[++i]);
        } else if (!scale_seen && std::strncmp(argv[i], "--", 2)) {
            scale = bench::parseOrExit(parseScale, "scale", argv[i]);
            scale_seen = true;
        } else {
            bench::exitUsage(argv[0], kFlags, false);
        }
    }

    bench::banner("Allocator throughput",
                  "churn-basket operations per wall-clock second");

    std::vector<ChurnSpec> specs;
    for (const ChurnSpec& s : churnBasket())
        specs.push_back(scaleChurnSpec(s, scale));

    struct BasketRun
    {
        std::vector<ChurnResult> results; ///< one per spec
        double mean = 0.0;                ///< basket-mean ops/s
    };
    std::vector<BasketRun> runs(kBasketRuns);
    for (BasketRun& run : runs) {
        for (const ChurnSpec& s : specs) {
            const ChurnResult r = runChurn(s, drain_interval);
            if (r.unexpected_faults) {
                std::fprintf(stderr,
                             "error: %s: %llu live frees faulted\n",
                             s.name.c_str(),
                             (unsigned long long)r.unexpected_faults);
                return 1;
            }
            run.mean += r.opsPerSec();
            run.results.push_back(r);
        }
        run.mean /= double(specs.size());
    }
    // Determinism cross-check: every run must agree on every pointer
    // and fault bit-for-bit.
    for (size_t i = 0; i < specs.size(); ++i) {
        const uint64_t first = runs.front().results[i].digest;
        for (const BasketRun& run : runs) {
            if (run.results[i].digest != first) {
                std::fprintf(stderr,
                             "error: %s: nondeterministic digest "
                             "(%016llx vs %016llx)\n",
                             specs[i].name.c_str(),
                             (unsigned long long)first,
                             (unsigned long long)run.results[i].digest);
                return 1;
            }
        }
    }
    std::sort(runs.begin(), runs.end(),
              [](const BasketRun& a, const BasketRun& b) {
                  return a.mean < b.mean;
              });
    const std::vector<ChurnResult>& results = runs[kBasketRuns / 2].results;
    const double mean = runs[kBasketRuns / 2].mean;
    std::string run_rates;
    for (const BasketRun& run : runs)
        run_rates += (run_rates.empty() ? "" : ", ") + fmtF(run.mean, 1);
    std::printf("basket: %zu runs at %s ops/s; the median run is "
                "reported\n",
                kBasketRuns, run_rates.c_str());

    TextTable table({"spec", "ops", "wall_ms", "ops_per_sec",
                     "remote_drained", "frag"});
    for (size_t i = 0; i < specs.size(); ++i) {
        const ChurnResult& r = results[i];
        table.addRow({specs[i].name, std::to_string(r.ops),
                      fmtF(r.wall_ms, 1), fmtF(r.opsPerSec(), 0),
                      std::to_string(r.remote_drained),
                      fmtPct(100.0 * r.fragmentation)});
    }
    std::printf("%s\nbasket mean: %.0f ops/s\n", table.render().c_str(),
                mean);

    // Read the reference rate before writing: --out and --check may
    // name the same file (refreshing the tracked baseline in place).
    const double base =
        check_path.empty() ? 0.0 : baselineRate(check_path);

    std::ofstream out(out_path, std::ios::trunc);
    out << "{\n";
    out << "  \"scale\": " << scale << ",\n";
    out << "  \"drain_interval\": " << drain_interval << ",\n";
    out << "  \"specs\": {\n";
    for (size_t i = 0; i < specs.size(); ++i) {
        const ChurnSpec& s = specs[i];
        const ChurnResult& r = results[i];
        char digest[32];
        std::snprintf(digest, sizeof digest, "%016llx",
                      (unsigned long long)r.digest);
        out << "    \"" << s.name << "\": {\"ops\": " << r.ops
            << ", \"wall_ms\": " << fmtF(r.wall_ms, 3)
            << ", \"ops_per_sec\": " << fmtF(r.opsPerSec(), 1)
            << ", \"allocs\": " << r.allocs << ", \"frees\": " << r.frees
            << ", \"oom\": " << r.oom
            << ", \"stale_faults\": " << r.stale_faults
            << ", \"remote_posted\": " << r.remote_posted
            << ", \"remote_drained\": " << r.remote_drained
            << ", \"drain_calls\": " << r.drain_calls
            << ", \"footprint\": " << r.footprint
            << ", \"fragmentation\": " << fmtF(r.fragmentation, 4)
            << ", \"digest\": \"" << digest << "\"}"
            << (i + 1 < specs.size() ? "," : "") << "\n";
    }
    out << "  },\n";
    out << "  \"aggregate_ops_per_sec\": " << fmtF(mean, 1) << ",\n";
    out << "  \"basket_runs_ops_per_sec\": [" << run_rates << "],\n";
    // Always record the host width: rate baselines from a 1-CPU
    // runner and a wide box are not comparable.
    out << "  \"host_cpus\": "
        << std::max(1u, std::thread::hardware_concurrency()) << "\n";
    out << "}\n";
    out.close();
    std::printf("wrote %s\n", out_path.c_str());

    if (!check_path.empty()) {
        if (base <= 0.0) {
            std::fprintf(stderr,
                         "error: no aggregate_ops_per_sec in %s\n",
                         check_path.c_str());
            return 1;
        }
        const double floor = base * (1.0 - tolerance / 100.0);
        std::printf("regression check: median %.0f ops/s vs baseline "
                    "%.0f (floor %.0f, tolerance %.0f%%)\n",
                    mean, base, floor, tolerance);
        if (mean < floor) {
            std::fprintf(stderr,
                         "error: throughput regressed more than %.0f%%\n",
                         tolerance);
            return 1;
        }
    }
    return 0;
}
