/**
 * @file
 * Repository benchmark driver.
 *
 * Runs up to three workloads from one process and prints every metric
 * by name and unit:
 *
 *  - fig12_detailed: the 28 Table V profiles x {baseline, lmi,
 *    gpushield, baggy-sw} at scale 1.0 on the detailed tier, through
 *    runSweep with 4 jobs and 1 sim thread;
 *  - wide_launch_mt: {bfs, gaussian, hotspot, needle, bert} at scale 4
 *    x the same mechanisms, 1 job, 4 sim threads per launch;
 *  - safety_functional: the same Fig. 12 grid on the functional tier,
 *    the detection-coverage matrix, the Table III suite under lmi, the
 *    churn basket and analyzeFunction at Race and Oracle level.
 *
 * Timed passes run the workload for --seconds and report medians.
 * Every pass checks its outputs; a failed check counts in failed_frac
 * and makes the driver exit 1. With --trace FILE the driver adds a
 * traced pass that calls each layer's public functions itself, records
 * a span around every call and writes the spans as Chrome trace-event
 * JSON, then reports the per-layer metrics instead of the end-to-end
 * ones (report.py derives the per-layer self times from the trace).
 * README.md in this directory maps each metric to its layer.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analysis.hpp"
#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "compiler/codegen.hpp"
#include "mechanisms/registry.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/sweep.hpp"
#include "security/coverage.hpp"
#include "security/violations.hpp"
#include "sim/device.hpp"
#include "workloads/churn.hpp"
#include "workloads/workloads.hpp"

using namespace lmi;

namespace {

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------------ CLI

constexpr const char* kWorkloadNames[] = {"fig12_detailed", "wide_launch_mt",
                                          "safety_functional"};

void
printUsage(std::FILE* out)
{
    std::fprintf(
        out,
        "usage: lmibench_driver [--workloads w1,w2] [--seed N] "
        "[--seconds S]\n"
        "                       [--size full|tiny]"
        "                       [--trace FILE] [--json FILE] "
        "[--git-sha SHA]\n"
        "workloads: fig12_detailed, wide_launch_mt, safety_functional "
        "(default: all)\n"
        "  --seed N        permutes cell submission order and perturbs "
        "the churn seeds\n"
        "  --seconds S     time passes until S seconds have elapsed "
        "(at least one)\n"
        "  --size tiny     shrink every workload (tests)\n"
        "  --trace FILE    add a traced pass, write Chrome trace JSON to "
        "FILE and\n"
        "                  report per-layer metrics instead of "
        "end-to-end ones\n"
        "  --json FILE     write the results as JSON\n"
        "exit codes: 0 ok, 1 an output check failed, 2 bad usage\n");
}

struct Options
{
    std::vector<std::string> workloads;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool tiny = false;
    std::string trace_path;
    std::string json_path;
    std::string git_sha = "unknown";
};

/** Whole-string unsigned decimal; rejects signs, blanks and overflow. */
bool
parseU64(const std::string& text, uint64_t* out)
{
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos)
        return false;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE)
        return false;
    *out = v;
    return true;
}

/** Whole-string finite number > 0. */
bool
parsePositive(const std::string& text, double* out)
{
    if (text.empty())
        return false;
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(text.c_str(), &end);
    if (errno || *end != '\0' || !std::isfinite(v) || v <= 0.0)
        return false;
    *out = v;
    return true;
}

bool
knownWorkload(const std::string& name)
{
    for (const char* w : kWorkloadNames)
        if (name == w)
            return true;
    return false;
}

/** 0: parsed; 1: --help printed; 2: usage error (already reported). */
int
parseOptions(int argc, char** argv, Options* opts)
{
    auto fail = [](const std::string& why) {
        std::fprintf(stderr, "error: %s\n", why.c_str());
        printUsage(stderr);
        return 2;
    };
    bool workloads_seen = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            printUsage(stdout);
            return 1;
        }
        if (i + 1 >= argc)
            return fail("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workloads") {
            workloads_seen = true;
            std::stringstream ss(value);
            std::string name;
            while (std::getline(ss, name, ',')) {
                if (!knownWorkload(name))
                    return fail("unknown workload '" + name + "'");
                if (std::find(opts->workloads.begin(), opts->workloads.end(),
                              name) != opts->workloads.end())
                    return fail("workload '" + name + "' listed twice");
                opts->workloads.push_back(name);
            }
            if (opts->workloads.empty() || value.back() == ',')
                return fail("empty workload list");
        } else if (flag == "--seed") {
            if (!parseU64(value, &opts->seed))
                return fail("--seed needs an unsigned integer, got '" +
                            value + "'");
        } else if (flag == "--seconds") {
            if (!parsePositive(value, &opts->seconds))
                return fail("--seconds needs a number > 0, got '" + value +
                            "'");
        } else if (flag == "--size") {
            if (value != "full" && value != "tiny")
                return fail("--size must be full or tiny, got '" + value +
                            "'");
            opts->tiny = value == "tiny";
        } else if (flag == "--trace") {
            opts->trace_path = value;
        } else if (flag == "--json") {
            opts->json_path = value;
        } else if (flag == "--git-sha") {
            opts->git_sha = value;
        } else {
            return fail("unknown flag " + flag);
        }
    }
    if (!workloads_seen)
        opts->workloads.assign(std::begin(kWorkloadNames),
                               std::end(kWorkloadNames));
    return 0;
}

// -------------------------------------------------------------- tracing

/**
 * In-memory span store. Spans are appended when they close and written
 * out once, at the end, as Chrome trace-event JSON (Perfetto reads it
 * offline). A span's `threads` is the worker capacity it stands for:
 * a sweep span on 4 runner workers has threads = 4, so its self time
 * (threads x duration minus its children) is the workers' idle time.
 */
class Tracer
{
  public:
    struct Record
    {
        std::string name;
        std::string layer;
        double ts_us = 0.0;
        double dur_us = 0.0;
        uint32_t id = 0;
        uint32_t parent = 0;
        unsigned tid = 0;
        unsigned threads = 1;
        std::string args; ///< extra JSON members, "" or ", \"k\": v"
    };

    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    uint32_t newId() { return next_id_++; }

    double
    usSinceOrigin(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_).count();
    }

    void
    add(Record record)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, inserted] =
            tids_.emplace(std::this_thread::get_id(), unsigned(tids_.size()));
        record.tid = it->second;
        records_.push_back(std::move(record));
    }

    bool writeChromeJson(const std::string& path,
                         const std::string& other_data) const;

  private:
    const Clock::time_point origin_;
    std::atomic<uint32_t> next_id_{1};
    mutable std::mutex mutex_; // guards records_ and tids_
    std::vector<Record> records_;
    std::map<std::thread::id, unsigned> tids_;
};

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

bool
Tracer::writeChromeJson(const std::string& path,
                        const std::string& other_data) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << other_data
        << ",\n\"traceEvents\": [\n";
    std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<Record>& recs = records_;
    for (size_t i = 0; i < recs.size(); ++i) {
        const Record& r = recs[i];
        char times[96];
        std::snprintf(times, sizeof(times), "\"ts\": %.3f, \"dur\": %.3f",
                      r.ts_us, r.dur_us);
        out << "{\"name\": " << jsonString(r.name)
            << ", \"cat\": " << jsonString(r.layer)
            << ", \"ph\": \"X\", " << times << ", \"pid\": 1, \"tid\": "
            << r.tid << ", \"args\": {\"id\": " << r.id
            << ", \"parent\": " << r.parent << ", \"threads\": " << r.threads
            << r.args << "}}" << (i + 1 < recs.size() ? "," : "") << "\n";
    }
    out << "]}\n";
    return bool(out);
}

/** Innermost open span on this thread: the default parent. */
thread_local uint32_t t_open_span = 0;

constexpr uint32_t kInheritParent = ~uint32_t(0);

/**
 * Scoped timer around one layer call. Always measures; records a span
 * only when given a tracer. close() ends it early and returns its
 * duration in ms.
 */
class Span
{
  public:
    Span(Tracer* tracer, const char* layer, std::string name,
         uint32_t parent = kInheritParent, unsigned threads = 1)
        : tracer_(tracer), start_(Clock::now())
    {
        if (!tracer_)
            return;
        record_.name = std::move(name);
        record_.layer = layer;
        record_.id = tracer_->newId();
        record_.parent = parent == kInheritParent ? t_open_span : parent;
        record_.threads = threads;
        saved_open_ = t_open_span;
        t_open_span = record_.id;
    }
    ~Span() { close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    uint32_t id() const { return record_.id; }

    /** Attach `"key": value` (value already JSON) to the span's args. */
    void
    arg(const std::string& key, const std::string& json_value)
    {
        if (tracer_)
            record_.args += ", " + jsonString(key) + ": " + json_value;
    }

    double
    close()
    {
        if (closed_)
            return ms_;
        closed_ = true;
        const Clock::time_point end = Clock::now();
        ms_ = msBetween(start_, end);
        if (tracer_) {
            t_open_span = saved_open_;
            record_.ts_us = tracer_->usSinceOrigin(start_);
            record_.dur_us = tracer_->usSinceOrigin(end) - record_.ts_us;
            tracer_->add(std::move(record_));
        }
        return ms_;
    }

  private:
    Tracer* tracer_;
    Clock::time_point start_;
    Tracer::Record record_;
    uint32_t saved_open_ = 0;
    bool closed_ = false;
    double ms_ = 0.0;
};

// ------------------------------------------------------------ workloads

struct GridDef
{
    std::vector<WorkloadProfile> profiles;
    std::vector<MechanismKind> mechanisms;
    double scale = 1.0;
    ExecutionTier tier = ExecutionTier::Detailed;
    unsigned jobs = 1;
    unsigned sim_threads = 1;
};

struct WorkloadDef
{
    std::string name;
    GridDef grid;
    /** Runs the detection side (coverage, Table III, churn, analysis). */
    bool safety = false;
    double churn_scale = 1.0;
};

/** Canonical mechanism order of the Fig. 12 comparison. */
std::vector<MechanismKind>
fig12Mechanisms()
{
    return {MechanismKind::Baseline, MechanismKind::Lmi,
            MechanismKind::GpuShield, MechanismKind::BaggySw};
}

std::vector<WorkloadProfile>
profilesNamed(const std::vector<std::string>& names)
{
    std::vector<WorkloadProfile> out;
    for (const std::string& name : names)
        out.push_back(findWorkload(name));
    return out;
}

WorkloadDef
makeWorkload(const std::string& name, bool tiny)
{
    const std::vector<WorkloadProfile> small =
        profilesNamed({"bfs", "gaussian", "needle"});
    WorkloadDef w;
    w.name = name;
    w.grid.mechanisms = fig12Mechanisms();
    if (name == "fig12_detailed") {
        w.grid.profiles = tiny ? small : workloadSuite();
        w.grid.scale = tiny ? 0.1 : 1.0;
        w.grid.jobs = 4;
        w.grid.sim_threads = 1;
    } else if (name == "wide_launch_mt") {
        w.grid.profiles =
            tiny ? profilesNamed({"bfs", "gaussian"})
                 : profilesNamed({"bfs", "gaussian", "hotspot", "needle",
                                  "bert"});
        w.grid.scale = tiny ? 0.25 : 4.0;
        w.grid.jobs = 1;
        w.grid.sim_threads = 4;
    } else {
        w.safety = true;
        w.grid.profiles = tiny ? small : workloadSuite();
        w.grid.scale = tiny ? 0.1 : 1.0;
        w.grid.tier = ExecutionTier::Functional;
        w.grid.jobs = 4;
        w.grid.sim_threads = 1;
        w.churn_scale = tiny ? 0.01 : 1.0;
    }
    return w;
}

std::string
cellKey(const std::string& workload, MechanismKind kind)
{
    return workload + "/" + mechanismKindName(kind);
}

/** The sweep of one pass; the seed stream shuffles the profile and
 *  mechanism order, i.e. the order cells are submitted to the pool. */
SweepSpec
gridSpec(const GridDef& grid, Rng* order)
{
    SweepSpec spec;
    spec.profiles = grid.profiles;
    spec.mechanisms = grid.mechanisms;
    if (order) {
        for (size_t i = spec.profiles.size(); i > 1; --i)
            std::swap(spec.profiles[i - 1], spec.profiles[order->below(i)]);
        for (size_t i = spec.mechanisms.size(); i > 1; --i)
            std::swap(spec.mechanisms[i - 1],
                      spec.mechanisms[order->below(i)]);
    }
    spec.scales = {grid.scale};
    spec.tier = grid.tier;
    spec.jobs = grid.jobs;
    spec.sim_threads = grid.sim_threads;
    return spec;
}

/** The launch geometry runWorkload derives from a profile and scale. */
WorkloadProfile
scaledProfile(const WorkloadProfile& profile, double scale)
{
    WorkloadProfile p = profile;
    if (scale < 1.0) {
        p.grid_blocks = std::max(1u, unsigned(p.grid_blocks * scale));
        p.block_threads = std::max(32u, unsigned(p.block_threads * scale));
    } else if (scale > 1.0) {
        p.elems_per_thread =
            std::max(1u, unsigned(p.elems_per_thread * scale));
    }
    return p;
}

/** Host allocation sizes runWorkload issues for @p p. */
std::vector<uint64_t>
hostAllocSizes(const WorkloadProfile& p)
{
    const uint64_t needed = p.elements() * 4 + 64;
    std::vector<uint64_t> sizes = p.host_allocs;
    while (sizes.size() < 2)
        sizes.push_back(needed);
    sizes[0] = std::max(sizes[0], needed);
    sizes[1] = std::max(sizes[1], needed);
    return sizes;
}

// ------------------------------------------------------------ results

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Outcome of one workload run (all passes). */
struct Outcome
{
    std::string workload;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<Metric> metrics;
    /** Extra report lines (the Fig. 12 paper comparison). */
    std::vector<std::string> notes;
    uint64_t digest = 0;
    size_t passes = 0;
    size_t cell_samples = 0;

    void
    check(bool ok, const std::string& what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
    }

    void
    add(const std::string& name, double value, const std::string& unit)
    {
        metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
    }
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated percentile, @p q in [0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Simulated totals of one grid (identical on every pass). */
struct GridTotals
{
    uint64_t warp_insts = 0;
    uint64_t cycles = 0;
    uint64_t l1_hits = 0, l1_misses = 0, l2_hits = 0, l2_misses = 0;
    uint64_t dram = 0;
    std::map<MechanismKind, uint64_t> mech_insts;
    std::map<MechanismKind, std::vector<double>> mech_norm_cycles;
    uint64_t ocu_checks = 0;
    uint64_t ocu_checks_elided = 0;
};

GridTotals
gridTotals(const GridDef& grid, const std::map<std::string, CellResult>& cells)
{
    GridTotals t;
    for (const WorkloadProfile& p : grid.profiles) {
        const auto base = cells.find(cellKey(p.name, MechanismKind::Baseline));
        for (MechanismKind kind : grid.mechanisms) {
            const auto it = cells.find(cellKey(p.name, kind));
            if (it == cells.end())
                continue;
            const RunResult& r = it->second.result;
            t.warp_insts += r.instructions;
            t.cycles += r.cycles;
            t.l1_hits += r.l1_hits;
            t.l1_misses += r.l1_misses;
            t.l2_hits += r.l2_hits;
            t.l2_misses += r.l2_misses;
            t.dram += r.dram_accesses;
            t.mech_insts[kind] += r.instructions;
            if (base != cells.end() && base->second.result.cycles)
                t.mech_norm_cycles[kind].push_back(
                    double(r.cycles) / double(base->second.result.cycles));
            if (kind == MechanismKind::Lmi) {
                t.ocu_checks += it->second.device_stats.counter("ocu.checks");
                t.ocu_checks_elided +=
                    it->second.device_stats.counter("ocu.checks_elided");
            }
        }
    }
    return t;
}

/** Paper Fig. 12 geomean overheads (%), for the side-by-side print. */
double
paperOverheadPct(MechanismKind kind)
{
    switch (kind) {
      case MechanismKind::Lmi:       return 0.22;
      case MechanismKind::GpuShield: return 0.8;
      case MechanismKind::BaggySw:   return 87.0;
      default:                       return 0.0;
    }
}

// ------------------------------------------------------- detection side

struct SafetyResult
{
    size_t coverage_cells = 0;
    size_t coverage_disagreements = 0;
    double coverage_ms = 0.0;
    unsigned table3_detected = 0;
    unsigned table3_total = 0;
    double table3_ms = 0.0;
    std::vector<ChurnResult> churn;
    double churn_ms = 0.0;
    double race_ms = 0.0;
    double oracle_ms = 0.0;
    double analysis_build_ms = 0.0;
    size_t accesses = 0;
    size_t oracle_safe = 0;
    /** Table V kernels the analysis wrongly flagged. */
    std::vector<std::string> analysis_failed;
    uint64_t digest = 0;
};

/** One pass of the detection side. Spans are recorded when @p tracer
 *  is set; the calls and their order are the same either way. */
SafetyResult
runSafety(const WorkloadDef& w, uint64_t churn_seed_mix, Tracer* tracer)
{
    SafetyResult s;
    Fnv1a h;
    {
        Span span(tracer, "security", "runCoverage");
        const CoverageMatrix matrix = runCoverage();
        s.coverage_ms = span.close();
        s.coverage_cells = matrix.cells.size();
        s.coverage_disagreements = matrix.disagreements();
        h.str(matrix.renderCsv());
    }
    {
        Span span(tracer, "security", "evaluateMechanism(lmi)");
        const SecurityScore score = evaluateMechanism(MechanismKind::Lmi);
        s.table3_ms = span.close();
        s.table3_detected = score.spatialDetected() + score.temporalDetected();
        s.table3_total = score.spatialTotal() + score.temporalTotal();
        for (const auto& [category, n] : score.detected)
            h.u64(uint64_t(category)).u64(n);
    }
    for (const ChurnSpec& base : churnBasket()) {
        ChurnSpec spec = scaleChurnSpec(base, w.churn_scale);
        spec.seed ^= churn_seed_mix;
        Span span(tracer, "alloc", "runChurn " + spec.name);
        s.churn.push_back(runChurn(spec));
        s.churn_ms += span.close();
        h.u64(s.churn.back().digest);
    }
    for (const WorkloadProfile& p : w.grid.profiles) {
        Span build(tracer, "workloads", "buildWorkloadKernel");
        const ir::IrModule m = buildWorkloadKernel(p);
        s.analysis_build_ms += build.close();
        Span inl(tracer, "compiler", "inlineCalls");
        const ir::IrFunction flat = inlineCalls(m, *m.find(p.name));
        inl.close();

        analysis::AnalysisOptions race;
        race.level = analysis::AnalysisLevel::Race;
        race.block_threads = p.block_threads;
        race.grid_blocks = p.grid_blocks;
        Span rspan(tracer, "analysis", "analyzeFunction(race)");
        const analysis::AnalysisReport rr =
            analysis::analyzeFunction(flat, race);
        s.race_ms += rspan.close();

        analysis::AnalysisOptions oracle;
        oracle.level = analysis::AnalysisLevel::Oracle;
        Span ospan(tracer, "analysis", "analyzeFunction(oracle)");
        const analysis::AnalysisReport orr =
            analysis::analyzeFunction(flat, oracle);
        s.oracle_ms += ospan.close();

        s.accesses += orr.accesses.size();
        s.oracle_safe += orr.oracle_safe;
        h.str(p.name).u64(rr.race_disjoint).u64(rr.race_unknown);
        h.u64(orr.oracle_safe).u64(orr.oracle_unknown);
        // The Table V kernels are race-free and violation-free.
        const bool clean = rr.errors() == 0 && rr.race_racy == 0 &&
                           rr.race_divergent_barriers == 0 &&
                           orr.errors() == 0 && orr.oracle_spatial == 0 &&
                           orr.oracle_subobject == 0 && orr.oracle_uaf == 0;
        if (!clean)
            s.analysis_failed.push_back(p.name);
    }
    s.digest = h.value();
    return s;
}

// ---------------------------------------------------------- traced grid

/** One cell driven through the public layer calls, with timings. */
struct TracedCell
{
    CellResult cell;
    double launch_ms = 0.0;
    double compile_ms = 0.0;
    double build_ms = 0.0;
    double malloc_ms = 0.0;
    uint64_t static_insts = 0;
    bool ok = false;
    std::string error;
};

/**
 * Run @p sc the way runWorkload does — Device, cudaMalloc, kernel
 * build, compile, launch — with a span around each call.
 */
void
runTracedCell(Tracer* tracer, uint32_t parent, const SweepCell& sc,
              unsigned sim_threads, TracedCell* out)
{
    Span span(tracer, "bench",
              "cell " + cellKey(sc.workload.name, sc.mechanism), parent);
    span.arg("workload", jsonString(sc.workload.name));
    span.arg("mechanism", jsonString(mechanismKindName(sc.mechanism)));
    CellResult& c = out->cell;
    c.workload = sc.workload.name;
    c.mechanism = sc.mechanism;
    c.scale = sc.scale;
    c.tier = sc.tier;
    c.fingerprint = cellFingerprint(sc);
    const WorkloadProfile p = scaledProfile(sc.workload, sc.scale);

    GpuConfig cfg = sc.config;
    cfg.sim_threads = sim_threads;
    Span dspan(tracer, "sim", "Device::Device");
    Device dev(cfg, makeMechanism(sc.mechanism));
    dspan.close();

    std::vector<uint64_t> ptrs;
    for (uint64_t size : hostAllocSizes(p)) {
        Span mspan(tracer, "alloc", "Device::cudaMalloc");
        const uint64_t ptr = dev.cudaMalloc(size);
        out->malloc_ms += mspan.close();
        if (ptr == 0)
            lmi_fatal("%s: device memory exhausted", p.name.c_str());
        ptrs.push_back(ptr);
    }

    Span bspan(tracer, "workloads", "buildWorkloadKernel");
    const ir::IrModule m = buildWorkloadKernel(p);
    out->build_ms = bspan.close();

    Span cspan(tracer, "compiler", "Device::compile");
    const CompiledKernel kernel = dev.compile(m, p.name);
    out->compile_ms = cspan.close();
    out->static_insts = kernel.program.code.size();

    LaunchOptions lopts;
    lopts.tier = sc.tier;
    Span lspan(tracer, "sim", "Device::launch");
    lspan.arg("tier", jsonString(executionTierName(sc.tier)));
    lspan.arg("sim_threads", std::to_string(dev.simThreads()));
    const RunResult result =
        dev.launch(kernel, p.grid_blocks, p.block_threads,
                   {ptrs[0], ptrs[1], p.elements()}, lopts);
    out->launch_ms = lspan.close();

    c.ok = true;
    c.result = result;
    c.peak_reserved = dev.globalAllocator().peakReservedBytes();
    c.device_stats = dev.stats();
    c.sim_threads = dev.simThreads();
    out->ok = true;
}

/** The whole grid through runTracedCell on an ExperimentRunner pool of
 *  the grid's job count, under one runner span. */
std::vector<TracedCell>
runTracedGrid(Tracer* tracer, const GridDef& grid, unsigned sim_threads)
{
    const std::vector<SweepCell> cells = gridSpec(grid, nullptr).expand();
    std::vector<TracedCell> out(cells.size());
    ExperimentRunner::Options ropts;
    ropts.jobs = grid.jobs;
    ExperimentRunner runner(ropts);
    const unsigned workers = runner.effectiveJobs(cells.size());

    Span sweep(tracer, "runner", "sweep", kInheritParent, workers);
    const uint32_t parent = sweep.id();
    std::vector<std::function<void()>> jobs;
    for (size_t i = 0; i < cells.size(); ++i)
        jobs.push_back([&, i] {
            runTracedCell(tracer, parent, cells[i], sim_threads, &out[i]);
        });
    const std::vector<ExperimentRunner::JobOutcome> outcomes =
        runner.run(jobs);
    sweep.close();
    for (size_t i = 0; i < outcomes.size(); ++i)
        if (!outcomes[i].ok)
            out[i].error = outcomes[i].error;
    return out;
}

// ------------------------------------------------------------ provenance

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

std::string
provenanceJson(const Options& opts, const WorkloadDef& w)
{
    std::ostringstream o;
    o << "{\"host_cpus\": " << std::thread::hardware_concurrency()
      << ", \"ndebug\": " << (kNdebug ? "true" : "false")
      << ", \"compiler\": " << jsonString(compilerName())
      << ", \"git_sha\": " << jsonString(opts.git_sha)
      << ", \"seed\": " << opts.seed << ", \"jobs\": " << w.grid.jobs
      << ", \"sim_threads\": " << w.grid.sim_threads
      << ", \"size\": " << (opts.tiny ? "\"tiny\"" : "\"full\"")
      << ", \"seconds\": " << jsonNumber(opts.seconds) << "}";
    return o.str();
}

// ------------------------------------------------------------- one run

constexpr int kSetupRepsPerPass = 5;

/** Everything one untraced pass measured. */
struct PassResult
{
    double wall_ms = 0.0;
    double grid_ms = 0.0;
    double cell_sum_ms = 0.0;
    unsigned jobs_used = 1;
    std::map<std::string, CellResult> cells;
    SafetyResult safety;
};

/** Serialized payload of every cell, keyed by cellKey. */
std::map<std::string, std::string>
payloads(const std::map<std::string, CellResult>& cells)
{
    std::map<std::string, std::string> out;
    for (const auto& [key, cell] : cells)
        out[key] = serializeCellPayload(cell);
    return out;
}

class BenchRun
{
  public:
    BenchRun(const Options& opts, WorkloadDef def)
        : opts_(opts), w_(std::move(def)),
          order_(opts.seed * 0x2545F4914F6CDD1Dull + 1)
    {
        out_.workload = w_.name;
        Rng mix(opts.seed ^ 0xC4E5D1A7B3F29E01ull);
        churn_seed_mix_ = opts.seed ? mix.next() : 0;
    }

    Outcome
    run()
    {
        if (!opts_.trace_path.empty())
            runTraced();
        else
            runTimed();
        return out_;
    }

  private:
    /** Prepare every grid cell (Device, buffers, kernel, compile) the
     *  way a cell does before its launch; returns the wall in s. */
    double
    setupOnce()
    {
        const Clock::time_point t0 = Clock::now();
        for (const SweepCell& sc : gridSpec(w_.grid, nullptr).expand()) {
            const WorkloadProfile p = scaledProfile(sc.workload, sc.scale);
            Device dev(sc.config, makeMechanism(sc.mechanism));
            for (uint64_t size : hostAllocSizes(p))
                if (dev.cudaMalloc(size) == 0)
                    lmi_fatal("%s: device memory exhausted", p.name.c_str());
            dev.compile(buildWorkloadKernel(p), p.name);
        }
        return msBetween(t0, Clock::now()) / 1000.0;
    }

    PassResult
    pass()
    {
        PassResult r;
        const Clock::time_point t0 = Clock::now();
        const SweepResult sweep = runSweep(gridSpec(w_.grid, &order_));
        r.grid_ms = sweep.wall_ms;
        r.jobs_used = std::min<unsigned>(w_.grid.jobs,
                                         unsigned(sweep.cells.size()));
        for (const CellResult& c : sweep.cells) {
            r.cell_sum_ms += c.wall_ms;
            const std::string key = cellKey(c.workload, c.mechanism);
            out_.check(c.ok && !c.faulted(),
                       key + ": " + (c.ok ? "faulted" : c.error));
            r.cells[key] = c;
        }
        if (w_.safety)
            r.safety = runSafety(w_, churn_seed_mix_, nullptr);
        r.wall_ms = msBetween(t0, Clock::now());
        checkAgainstFirst(r);
        return r;
    }

    /** Every pass must reproduce the first pass's outputs exactly. */
    void
    checkAgainstFirst(const PassResult& r)
    {
        const std::map<std::string, std::string> now = payloads(r.cells);
        if (first_payloads_.empty()) {
            first_payloads_ = now;
            first_cells_ = r.cells;
        } else {
            for (const auto& [key, text] : now)
                out_.check(first_payloads_[key] == text,
                           key + ": payload differs between passes");
        }
        if (!w_.safety)
            return;
        const SafetyResult& s = r.safety;
        // Every coverage cell and Table III case is one operation; a
        // matrix disagreement is a failed one.
        out_.attempted += s.coverage_cells + s.table3_total;
        out_.failed += s.coverage_disagreements;
        if (s.coverage_disagreements)
            out_.failures.push_back(
                std::to_string(s.coverage_disagreements) +
                " coverage-matrix disagreement(s)");
        for (size_t i = 0; i < s.churn.size(); ++i) {
            const ChurnResult& c = s.churn[i];
            const std::string& name = churnBasket()[i].name;
            out_.check(c.unexpected_faults == 0,
                       "churn " + name + ": " +
                           std::to_string(c.unexpected_faults) +
                           " unexpected fault(s)");
            if (first_churn_digests_.size() < s.churn.size())
                first_churn_digests_.push_back(c.digest);
            else
                out_.check(first_churn_digests_[i] == c.digest,
                           "churn " + name + ": replay digest differs");
        }
        out_.attempted += w_.grid.profiles.size();
        for (const std::string& name : s.analysis_failed) {
            ++out_.failed;
            out_.failures.push_back("analysis flags clean kernel " + name);
        }
        if (first_safety_digest_ == 0)
            first_safety_digest_ = s.digest;
        else
            out_.check(first_safety_digest_ == s.digest,
                       "detection-side digest differs between passes");
    }

    /**
     * Timed passes for --seconds (at least one; the churn replay check
     * gets a second, untimed pass when only one fits). With @p setups,
     * kSetupRepsPerPass set-ups run before every pass, so the set-up
     * samples spread over the run like the pass samples do.
     */
    std::vector<PassResult>
    timedPasses(std::vector<double>* setups)
    {
        std::vector<PassResult> passes;
        const Clock::time_point t0 = Clock::now();
        do {
            for (int i = 0; setups && i < kSetupRepsPerPass; ++i)
                setups->push_back(setupOnce());
            passes.push_back(pass());
        } while (msBetween(t0, Clock::now()) < opts_.seconds * 1000.0);
        if (w_.safety && passes.size() == 1) {
            const SafetyResult replay =
                runSafety(w_, churn_seed_mix_, nullptr);
            PassResult r;
            r.cells = passes.front().cells;
            r.safety = replay;
            checkAgainstFirst(r);
        }
        return passes;
    }

    /** Outputs digest: cell payloads in canonical grid order, then the
     *  detection side (coverage CSV, Table III, churn, analysis). */
    void
    finishDigest()
    {
        Fnv1a h;
        for (const WorkloadProfile& p : w_.grid.profiles)
            for (MechanismKind kind : fig12Mechanisms())
                h.str(first_payloads_[cellKey(p.name, kind)]);
        h.u64(first_safety_digest_);
        out_.digest = h.value();
    }

    void
    runTimed()
    {
        std::vector<double> setups;
        const std::vector<PassResult> passes = timedPasses(&setups);
        std::vector<double> walls, rates;
        const GridTotals totals = gridTotals(w_.grid, first_cells_);
        for (const PassResult& p : passes) {
            walls.push_back(p.wall_ms / 1000.0);
            rates.push_back(ratio(double(totals.warp_insts),
                                  p.grid_ms / 1000.0));
        }
        // One latency sample per cell: its median over the passes, so a
        // burst of host noise in one pass does not land in the tail.
        std::vector<double> cells;
        for (const auto& [key, cell] : first_cells_) {
            std::vector<double> per_pass;
            for (const PassResult& p : passes)
                per_pass.push_back(p.cells.at(key).wall_ms);
            cells.push_back(median(per_pass));
        }
        // Results must not depend on the SM worker count: relaunch
        // every cell on one thread (untimed) and compare.
        if (w_.grid.sim_threads > 1)
            checkSingleThread();
        fig12Notes(totals);
        out_.passes = passes.size();
        out_.cell_samples = cells.size();
        out_.add("setup_s", median(setups), "s");
        out_.add("wall_s", median(walls), "s");
        out_.add("sim_winst_per_s", median(rates), "winst/s");
        out_.add("cell_p50_ms", percentile(cells, 0.5), "ms");
        out_.add("cell_p90_ms", percentile(cells, 0.9), "ms");
        out_.add("peak_rss_mb", peakRssMb(), "MB");
        finishDigest();
    }

    void
    checkSingleThread()
    {
        GridDef one = w_.grid;
        one.sim_threads = 1;
        const SweepResult sweep = runSweep(gridSpec(one, nullptr));
        for (const CellResult& c : sweep.cells) {
            const std::string key = cellKey(c.workload, c.mechanism);
            out_.check(serializeCellPayload(c) == first_payloads_[key],
                       key + ": payload at sim_threads " +
                           std::to_string(w_.grid.sim_threads) +
                           " differs from sim_threads 1");
        }
    }

    /** Simulated geomean Fig. 12 overhead per mechanism beside the
     *  paper's; returns the overheads for the per-layer metrics. */
    std::map<MechanismKind, double>
    fig12Notes(const GridTotals& totals)
    {
        std::map<MechanismKind, double> overhead;
        for (const auto& [kind, norms] : totals.mech_norm_cycles) {
            overhead[kind] = (geomean(norms) - 1.0) * 100.0;
            if (kind == MechanismKind::Baseline)
                continue;
            char line[160];
            std::snprintf(line, sizeof(line),
                          "fig12 %-10s geomean overhead %8.2f%% (simulated, "
                          "%s tier)  paper %6.2f%%  diff %+8.2f pp",
                          mechanismKindName(kind), overhead[kind],
                          executionTierName(w_.grid.tier),
                          paperOverheadPct(kind),
                          overhead[kind] - paperOverheadPct(kind));
            out_.notes.push_back(line);
        }
        return overhead;
    }

    /** Compare a traced-loop grid with the runSweep cells. */
    void
    checkTraced(const std::vector<TracedCell>& traced, const char* what)
    {
        for (const TracedCell& t : traced) {
            const std::string key =
                cellKey(t.cell.workload, t.cell.mechanism);
            out_.check(t.ok && serializeCellPayload(t.cell) ==
                                   first_payloads_[key],
                       key + ": " + what + " result differs from its "
                       "runSweep cell" + (t.ok ? "" : " (" + t.error + ")"));
        }
    }

    void runTraced();

    const Options& opts_;
    WorkloadDef w_;
    Rng order_;
    uint64_t churn_seed_mix_ = 0;
    Outcome out_;
    std::map<std::string, std::string> first_payloads_;
    std::map<std::string, CellResult> first_cells_;
    std::vector<uint64_t> first_churn_digests_;
    uint64_t first_safety_digest_ = 0;
};

void
BenchRun::runTraced()
{
    // Reference: untraced passes, exactly as in the timed run.
    const std::vector<PassResult> passes = timedPasses(nullptr);
    std::vector<double> untraced_walls, sweeps, idles;
    for (const PassResult& p : passes) {
        untraced_walls.push_back(p.wall_ms);
        sweeps.push_back(p.grid_ms);
        idles.push_back(1.0 - ratio(p.cell_sum_ms, p.jobs_used * p.grid_ms));
    }

    Tracer tracer(Clock::now());
    const bool mt = w_.grid.sim_threads > 1;
    const unsigned sim_threads =
        first_cells_.empty() ? 1 : first_cells_.begin()->second.sim_threads;

    // The traced pass: the same cells and detection calls, every layer
    // call under its own span.
    Span pass_span(&tracer, "bench", "pass " + w_.name, 0);
    const std::vector<TracedCell> traced =
        runTracedGrid(&tracer, w_.grid, sim_threads);
    SafetyResult safety;
    if (w_.safety)
        safety = runSafety(w_, churn_seed_mix_, &tracer);
    const double traced_ms = pass_span.close();
    checkTraced(traced, "traced-loop");
    if (w_.safety)
        out_.check(safety.digest == first_safety_digest_,
                   "traced detection-side digest differs from untraced");

    // Reference relaunch on one SM worker: thread scaling + identity.
    std::vector<TracedCell> single;
    if (mt) {
        Span ref(&tracer, "bench", "sim_threads=1 reference", 0);
        single = runTracedGrid(&tracer, w_.grid, 1);
        ref.close();
        checkTraced(single, "sim_threads=1");
    }

    // Result cache: fill it cold, then time a warm re-read.
    const std::string cache_dir = opts_.trace_path + ".cache";
    std::filesystem::remove_all(cache_dir);
    double cache_warm_ms = 0.0;
    {
        SweepSpec spec = gridSpec(w_.grid, nullptr);
        spec.cache_dir = cache_dir;
        Span cold(&tracer, "runner", "runSweep (cache cold)", 0);
        runSweep(spec);
        cold.close();
        Span warm(&tracer, "runner", "runSweep (cache warm)", 0);
        const SweepResult r = runSweep(spec);
        cache_warm_ms = warm.close();
        out_.check(r.cache_hits == r.cells.size(),
                   "warm cache served " + std::to_string(r.cache_hits) +
                       " of " + std::to_string(r.cells.size()) + " cells");
    }
    std::filesystem::remove_all(cache_dir);

    // ---- per-layer metrics ------------------------------------------
    const GridTotals totals = gridTotals(w_.grid, first_cells_);
    const bool detailed = w_.grid.tier == ExecutionTier::Detailed;
    double launch_ms = 0, compile_ms = 0, build_ms = 0, malloc_ms = 0;
    uint64_t static_insts = 0;
    std::map<MechanismKind, double> mech_launch;
    for (const TracedCell& t : traced) {
        launch_ms += t.launch_ms;
        compile_ms += t.compile_ms;
        build_ms += t.build_ms;
        malloc_ms += t.malloc_ms;
        static_insts += t.static_insts;
        mech_launch[t.cell.mechanism] += t.launch_ms;
    }
    double single_launch_ms = 0.0;
    for (const TracedCell& t : single)
        single_launch_ms += t.launch_ms;
    const double winst = double(totals.warp_insts);

    out_.add("runner.sweep_ms", median(sweeps), "ms");
    out_.add("runner.worker_idle_frac", median(idles), "fraction");
    out_.add("runner.cache_warm_ms", cache_warm_ms, "ms");

    out_.add("sim.launch_ms", detailed ? launch_ms : 0.0, "ms");
    out_.add("sim.warp_insts", winst, "winst");
    out_.add("sim.ns_per_winst",
             detailed ? ratio(launch_ms * 1e6, winst) : 0.0, "ns/winst");
    out_.add("sim.cycles", double(totals.cycles), "sim_cycles");
    out_.add("sim.l1_hit_rate",
             ratio(totals.l1_hits, totals.l1_hits + totals.l1_misses),
             "fraction");
    out_.add("sim.l2_hit_rate",
             ratio(totals.l2_hits, totals.l2_hits + totals.l2_misses),
             "fraction");
    out_.add("sim.dram_accesses", double(totals.dram), "count");
    out_.add("sim.func_launch_ms", detailed ? 0.0 : launch_ms, "ms");
    out_.add("sim.func_ns_per_winst",
             detailed ? 0.0 : ratio(launch_ms * 1e6, winst), "ns/winst");
    out_.add("sim.func_winst_per_s",
             detailed ? 0.0 : ratio(winst, median(sweeps) / 1000.0),
             "winst/s");
    const double speedup = mt ? ratio(single_launch_ms, launch_ms) : 0.0;
    out_.add("sim.mt_speedup", speedup, "x");
    out_.add("sim.mt_efficiency", mt ? speedup / sim_threads : 0.0,
             "fraction");

    const double base_insts =
        double(totals.mech_insts.count(MechanismKind::Baseline)
                   ? totals.mech_insts.at(MechanismKind::Baseline)
                   : 0);
    std::map<MechanismKind, double> overhead = fig12Notes(totals);
    for (MechanismKind kind : fig12Mechanisms()) {
        const std::string m = std::string("mechanisms.") +
                              mechanismKindName(kind);
        const auto insts = totals.mech_insts.find(kind);
        out_.add(m + ".launch_ms", mech_launch[kind], "ms");
        out_.add(m + ".winst_ratio",
                 ratio(insts == totals.mech_insts.end() ? 0.0
                                                        : insts->second,
                       base_insts),
                 "x");
        out_.add(m + ".overhead_pct", overhead[kind], "sim_%");
    }
    out_.add("mechanisms.lmi.ocu_checks", double(totals.ocu_checks), "count");
    out_.add("mechanisms.lmi.ocu_checks_elided",
             double(totals.ocu_checks_elided), "count");

    uint64_t ops = 0, drained = 0, drains = 0, oom = 0;
    std::vector<double> frag;
    for (const ChurnResult& c : safety.churn) {
        ops += c.ops;
        drained += c.remote_drained;
        drains += c.drain_calls;
        oom += c.oom;
        frag.push_back(c.fragmentation);
    }
    double frag_mean = 0.0;
    for (double f : frag)
        frag_mean += f / double(frag.size());
    out_.add("alloc.churn_ms", safety.churn_ms, "ms");
    out_.add("alloc.ops", double(ops), "count");
    out_.add("alloc.ops_per_s", ratio(ops, safety.churn_ms / 1000.0), "ops/s");
    out_.add("alloc.remote_drained", double(drained), "count");
    out_.add("alloc.drain_calls", double(drains), "count");
    out_.add("alloc.fragmentation", frag_mean, "fraction");
    out_.add("alloc.oom", double(oom), "count");
    out_.add("alloc.cudamalloc_ms", malloc_ms, "ms");

    out_.add("compiler.compile_ms", compile_ms, "ms");
    out_.add("compiler.kernels", double(traced.size()), "count");
    out_.add("compiler.static_insts", double(static_insts), "count");
    out_.add("workloads.build_ms", build_ms + safety.analysis_build_ms, "ms");
    out_.add("workloads.kernels",
             double(traced.size() + (w_.safety ? w_.grid.profiles.size() : 0)),
             "count");

    out_.add("analysis.race_ms", safety.race_ms, "ms");
    out_.add("analysis.oracle_ms", safety.oracle_ms, "ms");
    out_.add("analysis.accesses", double(safety.accesses), "count");
    out_.add("analysis.proven_safe_frac",
             ratio(safety.oracle_safe, safety.accesses), "fraction");

    out_.add("security.coverage_ms", safety.coverage_ms, "ms");
    out_.add("security.coverage_cells", double(safety.coverage_cells),
             "count");
    out_.add("security.coverage_cells_per_s",
             ratio(safety.coverage_cells, safety.coverage_ms / 1000.0),
             "cells/s");
    out_.add("security.disagreements",
             double(safety.coverage_disagreements), "count");
    out_.add("security.table3_ms", safety.table3_ms, "ms");
    out_.add("security.table3_detected", double(safety.table3_detected),
             "count");

    out_.add("trace.overhead_frac",
             ratio(traced_ms, median(untraced_walls)) - 1.0, "fraction");

    std::ostringstream other;
    other << "{\"workload\": " << jsonString(w_.name)
          << ", \"traced_wall_ms\": " << jsonNumber(traced_ms)
          << ", \"untraced_wall_ms\": " << jsonNumber(median(untraced_walls))
          << ", \"provenance\": " << provenanceJson(opts_, w_) << "}";
    if (!tracer.writeChromeJson(opts_.trace_path, other.str()))
        out_.check(false, "cannot write trace " + opts_.trace_path);
    out_.passes = passes.size();
    out_.cell_samples = first_cells_.size();
    finishDigest();
}

// --------------------------------------------------------------- output

void
printOutcome(const Outcome& o, const Options& opts)
{
    std::printf("== %s (seed %llu, %zu pass(es); cell latency: %zu cells, "
                "each its median over the passes)\n",
                o.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), o.passes,
                o.cell_samples);
    for (const Metric& m : o.metrics)
        std::printf("  %-38s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-38s %18.6f fraction (%llu of %llu)\n", "failed_frac",
                ratio(double(o.failed), double(o.attempted)),
                static_cast<unsigned long long>(o.failed),
                static_cast<unsigned long long>(o.attempted));
    std::printf("  digest %016llx\n",
                static_cast<unsigned long long>(o.digest));
    for (const std::string& note : o.notes)
        std::printf("  %s\n", note.c_str());
    for (const std::string& f : o.failures)
        std::printf("  CHECK FAILED: %s\n", f.c_str());
}

std::string
outcomeJson(const Outcome& o, const WorkloadDef& w, const Options& opts)
{
    char digest[20];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(o.digest));
    std::ostringstream j;
    j << "{\"workload\": " << jsonString(o.workload)
      << ", \"traced\": " << (opts.trace_path.empty() ? "false" : "true")
      << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
      << ", \"failed_frac\": "
      << jsonNumber(ratio(double(o.failed), double(o.attempted)))
      << ", \"digest\": \"" << digest << "\", \"passes\": " << o.passes
      << ", \"cell_samples\": " << o.cell_samples
      << ", \"provenance\": " << provenanceJson(opts, w)
      << ", \"failures\": [";
    for (size_t i = 0; i < o.failures.size(); ++i)
        j << (i ? ", " : "") << jsonString(o.failures[i]);
    j << "], \"metrics\": {";
    for (size_t i = 0; i < o.metrics.size(); ++i)
        j << (i ? ", " : "") << jsonString(o.metrics[i].name)
          << ": {\"value\": " << jsonNumber(o.metrics[i].value)
          << ", \"unit\": " << jsonString(o.metrics[i].unit) << "}";
    j << "}}";
    return j.str();
}

} // namespace

int
main(int argc, char** argv)
{
    Options opts;
    if (const int rc = parseOptions(argc, argv, &opts))
        return rc == 1 ? 0 : rc;
    if (!opts.trace_path.empty() && opts.workloads.size() != 1) {
        std::fprintf(stderr,
                     "error: --trace takes exactly one workload\n");
        return 2;
    }
    setVerbose(false);
    if (!kNdebug)
        std::fprintf(stderr,
                     "warning: lmibench_driver built with assertions "
                     "enabled (NDEBUG undefined); timings are not "
                     "representative\n");

    std::printf("lmibench: host_cpus=%u ndebug=%d compiler=\"%s\" "
                "git_sha=%s seed=%llu\n",
                std::thread::hardware_concurrency(), kNdebug ? 1 : 0,
                compilerName().c_str(), opts.git_sha.c_str(),
                static_cast<unsigned long long>(opts.seed));

    std::vector<std::string> results;
    uint64_t failed = 0;
    for (const std::string& name : opts.workloads) {
        const WorkloadDef def = makeWorkload(name, opts.tiny);
        Outcome outcome;
        try {
            outcome = BenchRun(opts, def).run();
        } catch (const std::exception& e) {
            outcome.workload = name;
            outcome.check(false, std::string("aborted: ") + e.what());
        }
        printOutcome(outcome, opts);
        failed += outcome.failed;
        results.push_back(outcomeJson(outcome, def, opts));
    }
    std::fflush(stdout);

    if (!opts.json_path.empty()) {
        std::ofstream out(opts.json_path, std::ios::trunc);
        out << "{\"schema_version\": 1, \"workloads\": [\n";
        for (size_t i = 0; i < results.size(); ++i)
            out << results[i] << (i + 1 < results.size() ? ",\n" : "\n");
        out << "]}\n";
        if (!out) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         opts.json_path.c_str());
            return 1;
        }
    }
    return failed ? 1 : 0;
}
