/**
 * @file
 * ExperimentRunner subsystem tests:
 *
 *  - parallel sweeps are bit-identical to serial execution (the
 *    determinism contract that justifies running paper figures across a
 *    thread pool);
 *  - the on-disk result cache hits on identical inputs and misses on
 *    any config change (fingerprint invalidation);
 *  - a job that throws mid-sweep is recorded, and every other cell
 *    still completes;
 *  - the generic pool captures failures/timeouts per job;
 *  - SharedStatRegistry aggregates concurrent producers;
 *  - CSV/JSON export and payload round-tripping.
 */

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <gtest/gtest.h>
#include <iterator>
#include <thread>

#include "arch/mem_map.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/result_cache.hpp"
#include "sim/config.hpp"

namespace lmi {
namespace {

namespace fs = std::filesystem;

/** A tiny profile that simulates in milliseconds. */
WorkloadProfile
tinyProfile(const std::string& name)
{
    WorkloadProfile p;
    p.name = name;
    p.suite = "test";
    p.grid_blocks = 2;
    p.block_threads = 32;
    p.elems_per_thread = 2;
    p.compute_iters = 2;
    return p;
}

SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.profiles = {tinyProfile("t-stream"), tinyProfile("t-scatter"),
                     tinyProfile("t-shared")};
    spec.profiles[1].scattered = true;
    spec.profiles[2].shared_accesses = 1;
    spec.profiles[2].shared_tile_bytes = 1024;
    spec.mechanisms = {MechanismKind::Baseline, MechanismKind::Lmi};
    return spec;
}

std::vector<std::string>
payloads(const SweepResult& sweep)
{
    std::vector<std::string> out;
    for (const CellResult& cell : sweep.cells)
        out.push_back(serializeCellPayload(cell));
    return out;
}

std::string
freshDir(const std::string& tag)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("lmi_runner_" + tag);
    fs::remove_all(dir);
    return dir.string();
}

TEST(ConfigHash, DetectsEveryRelevantFieldChange)
{
    const GpuConfig base;
    GpuConfig changed = base;
    EXPECT_EQ(configHash(base), configHash(changed));
    changed.l1_latency += 1;
    EXPECT_NE(configHash(base), configHash(changed));
    changed = base;
    changed.dram_bytes_per_cycle *= 2.0;
    EXPECT_NE(configHash(base), configHash(changed));
}

TEST(CellFingerprint, SeparatesGridAxes)
{
    SweepCell a;
    a.workload = tinyProfile("t");
    SweepCell b = a;
    EXPECT_EQ(cellFingerprint(a), cellFingerprint(b));
    b.mechanism = MechanismKind::Lmi;
    EXPECT_NE(cellFingerprint(a), cellFingerprint(b));
    b = a;
    b.scale = 0.5;
    EXPECT_NE(cellFingerprint(a), cellFingerprint(b));
    b = a;
    b.workload.host_allocs = {4096};
    EXPECT_NE(cellFingerprint(a), cellFingerprint(b));
    b = a;
    b.config.l2_latency += 10;
    EXPECT_NE(cellFingerprint(a), cellFingerprint(b));
}

TEST(CellPayload, RoundTripsExactly)
{
    CellResult cell;
    cell.workload = "weird \"name\"\nwith newline";
    cell.mechanism = MechanismKind::GpuShield;
    cell.scale = 0.125;
    cell.fingerprint = 0xdeadbeefcafef00dull;
    cell.ok = true;
    cell.result.cycles = 123456789;
    cell.result.instructions = 42;
    cell.result.faults.push_back(
        {FaultKind::SpatialOverflow, 0x1000, "detail with | pipe\nand nl"});
    cell.result.stats.inc("ocu.checks", 7);
    cell.result.stats.set("gauge.x", 0.3333333333333333);
    cell.device_stats.inc("alloc.count", 3);
    cell.peak_reserved = 4096;

    const std::string text = serializeCellPayload(cell);
    CellResult back;
    ASSERT_TRUE(deserializeCellPayload(text, cell.fingerprint, &back));
    EXPECT_EQ(serializeCellPayload(back), text);
    EXPECT_EQ(back.workload, cell.workload);
    EXPECT_EQ(back.result.cycles, cell.result.cycles);
    ASSERT_EQ(back.result.faults.size(), 1u);
    EXPECT_EQ(back.result.faults[0].detail, cell.result.faults[0].detail);
    EXPECT_EQ(back.result.stats.counter("ocu.checks"), 7u);
    EXPECT_EQ(back.device_stats.counter("alloc.count"), 3u);

    // Wrong fingerprint => treated as a miss.
    EXPECT_FALSE(deserializeCellPayload(text, 1, &back));
}

TEST(SweepDeterminism, ParallelIsByteIdenticalToSerial)
{
    SweepSpec serial = tinySpec();
    serial.jobs = 1;
    SweepSpec parallel = tinySpec();
    parallel.jobs = 4;

    const SweepResult a = runSweep(serial);
    const SweepResult b = runSweep(parallel);
    ASSERT_EQ(a.cells.size(), 6u);
    ASSERT_EQ(a.cells.size(), b.cells.size());
    EXPECT_EQ(a.failures, 0u);
    EXPECT_EQ(b.failures, 0u);
    EXPECT_EQ(payloads(a), payloads(b));

    // Aggregated totals must agree too (merge order may differ; the
    // registry is commutative).
    EXPECT_EQ(a.totals.counters(), b.totals.counters());
}

TEST(SweepCache, HitsOnRerunMissesOnConfigChange)
{
    SweepSpec spec = tinySpec();
    spec.jobs = 2;
    spec.cache_dir = freshDir("cache");

    const SweepResult cold = runSweep(spec);
    EXPECT_EQ(cold.cache_hits, 0u);
    EXPECT_EQ(cold.cache_misses, cold.cells.size());
    EXPECT_EQ(cold.failures, 0u);

    const SweepResult warm = runSweep(spec);
    EXPECT_EQ(warm.cache_hits, warm.cells.size());
    EXPECT_EQ(warm.cache_misses, 0u);
    for (const CellResult& cell : warm.cells)
        EXPECT_TRUE(cell.from_cache);
    EXPECT_EQ(payloads(cold), payloads(warm));

    // Any config change moves the fingerprints: full re-simulation.
    spec.config.l1_latency += 5;
    const SweepResult changed = runSweep(spec);
    EXPECT_EQ(changed.cache_hits, 0u);
    EXPECT_EQ(changed.cache_misses, changed.cells.size());
    for (const CellResult& cell : changed.cells)
        EXPECT_FALSE(cell.from_cache);

    fs::remove_all(spec.cache_dir);
}

TEST(SweepCache, CorruptNumericFieldIsAMiss)
{
    // A damaged number must not be served as a hit ("cycles=12x" as 12,
    // "cycles=" as 0): the entry is rejected and the cell re-simulated.
    SweepSpec spec = tinySpec();
    spec.profiles.resize(1);
    spec.mechanisms = {MechanismKind::Lmi};
    spec.jobs = 1;
    spec.cache_dir = freshDir("numeric");
    const SweepResult cold = runSweep(spec);
    ASSERT_EQ(cold.cells.size(), 1u);
    ASSERT_TRUE(cold.cells[0].ok);

    for (const std::string bad : {"12x", "", "-3", "1e3"}) {
        SCOPED_TRACE("cycles=" + bad);
        for (const auto& entry : fs::directory_iterator(spec.cache_dir)) {
            std::ifstream in(entry.path());
            std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
            in.close();
            const size_t at = text.find("\ncycles=");
            ASSERT_NE(at, std::string::npos);
            const size_t eol = text.find('\n', at + 1);
            text.replace(at + 8, eol - (at + 8), bad);
            std::ofstream(entry.path(), std::ios::trunc) << text;
        }
        const SweepResult rerun = runSweep(spec);
        EXPECT_EQ(rerun.cache_hits, 0u);
        EXPECT_FALSE(rerun.cells[0].from_cache);
        EXPECT_EQ(payloads(rerun), payloads(cold));
    }

    // A fault kind past the last enumerator is malformed too.
    CellResult cell;
    cell.fingerprint = 44;
    cell.ok = true;
    cell.result.faults.push_back({FaultKind::SpatialOverflow, 0x40, "x"});
    std::string text = serializeCellPayload(cell);
    CellResult out;
    ASSERT_TRUE(deserializeCellPayload(text, 44, &out));
    const size_t at = text.find("fault=0|");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 8, "fault=99|");
    EXPECT_FALSE(deserializeCellPayload(text, 44, &out));

    fs::remove_all(spec.cache_dir);
}

TEST(SweepFailure, ThrowingCellIsRecordedOthersComplete)
{
    SweepSpec spec = tinySpec();
    // Inject a cell whose host allocation cannot be satisfied: the
    // runtime throws FatalError mid-sweep.
    WorkloadProfile doomed = tinyProfile("t-doomed");
    doomed.host_allocs = {2 * kGlobalSize, 64};
    spec.profiles.push_back(doomed);
    spec.jobs = 4;

    const SweepResult sweep = runSweep(spec);
    ASSERT_EQ(sweep.cells.size(), 8u);
    EXPECT_EQ(sweep.failures, 2u); // doomed under both mechanisms

    size_t ok = 0, failed = 0;
    for (const CellResult& cell : sweep.cells) {
        if (cell.workload == "t-doomed") {
            EXPECT_FALSE(cell.ok);
            EXPECT_NE(cell.error.find("exhausted"), std::string::npos);
            ++failed;
        } else {
            EXPECT_TRUE(cell.ok);
            EXPECT_GT(cell.result.cycles, 0u);
            ++ok;
        }
    }
    EXPECT_EQ(ok, 6u);
    EXPECT_EQ(failed, 2u);
}

TEST(SweepTimeout, AdvisoryFlagMarksSlowCells)
{
    SweepSpec spec = tinySpec();
    spec.jobs = 2;
    spec.timeout_sec = 1e-9; // everything overruns; nothing is dropped
    const SweepResult sweep = runSweep(spec);
    EXPECT_EQ(sweep.failures, 0u);
    EXPECT_EQ(sweep.timeouts, sweep.cells.size());
    for (const CellResult& cell : sweep.cells) {
        EXPECT_TRUE(cell.timed_out);
        EXPECT_TRUE(cell.ok);
    }
}

TEST(ExperimentRunnerPool, CapturesFailuresInInputOrder)
{
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 16; ++i) {
        jobs.push_back([&ran, i] {
            ++ran;
            if (i % 4 == 3)
                throw std::runtime_error("job " + std::to_string(i));
        });
    }
    ExperimentRunner::Options opts;
    opts.jobs = 4;
    ExperimentRunner runner(opts);
    const auto outcomes = runner.run(jobs);
    EXPECT_EQ(ran.load(), 16);
    ASSERT_EQ(outcomes.size(), 16u);
    for (int i = 0; i < 16; ++i) {
        if (i % 4 == 3) {
            EXPECT_FALSE(outcomes[size_t(i)].ok);
            EXPECT_EQ(outcomes[size_t(i)].error,
                      "job " + std::to_string(i));
        } else {
            EXPECT_TRUE(outcomes[size_t(i)].ok);
        }
    }
}

TEST(SharedStatRegistryTest, ConcurrentMergesSum)
{
    SharedStatRegistry shared;
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&shared] {
            for (int i = 0; i < 100; ++i) {
                StatRegistry local;
                local.inc("x", 2);
                shared.merge(local);
                shared.inc("y");
            }
        });
    }
    for (auto& t : threads)
        t.join();
    const StatRegistry snap = shared.snapshot();
    EXPECT_EQ(snap.counter("x"), 1600u);
    EXPECT_EQ(snap.counter("y"), 800u);
}

TEST(ResultCacheTest, IgnoresCorruptEntries)
{
    const std::string dir = freshDir("corrupt");
    ResultCache cache(dir);
    CellResult out;
    EXPECT_FALSE(cache.load(42, &out));

    CellResult cell;
    cell.workload = "w";
    cell.fingerprint = 42;
    cell.ok = true;
    cell.result.cycles = 7;
    cache.store(cell);
    ASSERT_TRUE(cache.load(42, &out));
    EXPECT_EQ(out.result.cycles, 7u);
    EXPECT_TRUE(out.ok);

    // Truncate the entry: load degrades to a miss, not a crash.
    for (const auto& entry : fs::directory_iterator(dir)) {
        std::ofstream f(entry.path(), std::ios::trunc);
        f << "garbage";
    }
    EXPECT_FALSE(cache.load(42, &out));
    fs::remove_all(dir);
}

TEST(ResultCacheTest, RejectsTruncatedPayloadPrefix)
{
    // A killed writer (or a partially synced disk) can leave a
    // byte-for-byte *prefix* of a valid payload — well-formed lines
    // all the way down, just fewer of them. Without the end sentinel
    // such a prefix would deserialize as a complete (wrong) result and
    // poison every later cached sweep.
    CellResult cell;
    cell.workload = "w";
    cell.fingerprint = 43;
    cell.ok = true;
    cell.result.cycles = 9;
    cell.device_stats.inc("alloc.count", 3);
    const std::string full = serializeCellPayload(cell);

    CellResult out;
    ASSERT_TRUE(deserializeCellPayload(full, 43, &out));
    for (const size_t cut :
         {full.size() - 2, full.size() - 4, full.size() / 2, size_t(20)})
        EXPECT_FALSE(
            deserializeCellPayload(full.substr(0, cut), 43, &out))
            << "accepted a " << cut << "-byte prefix of " << full.size();
}

TEST(SweepExport, CsvAndJsonCoverEveryCell)
{
    SweepSpec spec = tinySpec();
    spec.jobs = 2;
    const SweepResult sweep = runSweep(spec);

    const std::string csv = sweep.renderCsv();
    // Header + one line per cell.
    EXPECT_EQ(size_t(std::count(csv.begin(), csv.end(), '\n')),
              sweep.cells.size() + 1);
    EXPECT_NE(csv.find("workload,mechanism,tier,scale,status"),
              std::string::npos);
    EXPECT_NE(csv.find("t-scatter"), std::string::npos);

    const std::string json = sweep.renderJson();
    EXPECT_NE(json.find("\"schema_version\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"cells\""), std::string::npos);
    EXPECT_NE(json.find("\"tier\": \"detailed\""), std::string::npos);
    EXPECT_NE(json.find("\"t-shared\""), std::string::npos);
    EXPECT_NE(json.find("\"cache_hits\": 0"), std::string::npos);

    EXPECT_NE(sweep.find("t-stream", MechanismKind::Lmi, 1.0), nullptr);
    EXPECT_EQ(sweep.find("absent", MechanismKind::Lmi, 1.0), nullptr);
}

TEST(TextTableCsv, EscapesOnlyWhenNeeded)
{
    TextTable t({"a", "b"});
    t.addRow({"plain", "with,comma"});
    t.addSeparator();
    t.addRow({"quote\"inside", "multi\nline"});
    EXPECT_EQ(t.renderCsv(),
              "a,b\nplain,\"with,comma\"\n\"quote\"\"inside\",\"multi\n"
              "line\"\n");
}

} // namespace
} // namespace lmi
