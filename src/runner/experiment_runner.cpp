#include "runner/experiment_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "common/logging.hpp"
#include "runner/result_cache.hpp"

namespace lmi {

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** Serialized stderr progress line ("\r"-refreshed). */
class ProgressLine
{
  public:
    ProgressLine(bool enabled, std::string label, size_t total)
        : enabled_(enabled && total > 0), label_(std::move(label)),
          total_(total)
    {
    }

    void
    tick(size_t failures)
    {
        const size_t done = ++done_;
        if (!enabled_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        std::fprintf(stderr, "\r%s: %zu/%zu", label_.c_str(), done, total_);
        if (failures)
            std::fprintf(stderr, " (%zu failed)", failures);
        std::fflush(stderr);
    }

    void
    finish()
    {
        if (enabled_ && done_.load())
            std::fprintf(stderr, "\n");
    }

  private:
    const bool enabled_;
    const std::string label_;
    const size_t total_;
    std::atomic<size_t> done_{0};
    std::mutex mutex_;
};

/**
 * Work-stealing index queue: every worker owns a deque seeded
 * round-robin; it pops its own work from the front and steals from the
 * back of the busiest victim, keeping contention off the common path.
 */
class StealingQueues
{
  public:
    StealingQueues(size_t njobs, unsigned nworkers) : queues_(nworkers)
    {
        for (size_t i = 0; i < njobs; ++i)
            queues_[i % nworkers].jobs.push_back(i);
    }

    static constexpr size_t kNone = ~size_t(0);

    /** Next job index for @p worker; kNone when the batch is drained. */
    size_t
    next(unsigned worker)
    {
        {
            PerWorker& own = queues_[worker];
            std::lock_guard<std::mutex> lock(own.mutex);
            if (!own.jobs.empty()) {
                const size_t idx = own.jobs.front();
                own.jobs.pop_front();
                return idx;
            }
        }
        // Steal from the victim with the most remaining work.
        while (true) {
            size_t best = kNone, best_depth = 0;
            for (size_t v = 0; v < queues_.size(); ++v) {
                if (v == worker)
                    continue;
                std::lock_guard<std::mutex> lock(queues_[v].mutex);
                if (queues_[v].jobs.size() > best_depth) {
                    best_depth = queues_[v].jobs.size();
                    best = v;
                }
            }
            if (best == kNone)
                return kNone;
            std::lock_guard<std::mutex> lock(queues_[best].mutex);
            if (queues_[best].jobs.empty())
                continue; // raced with the owner; rescan
            const size_t idx = queues_[best].jobs.back();
            queues_[best].jobs.pop_back();
            return idx;
        }
    }

  private:
    struct PerWorker
    {
        std::mutex mutex;
        std::deque<size_t> jobs;
    };
    std::deque<PerWorker> queues_; // deque: PerWorker is immovable
};

} // namespace

ExperimentRunner::ExperimentRunner(Options options)
    : options_(std::move(options))
{
}

unsigned
ExperimentRunner::defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

unsigned
ExperimentRunner::effectiveJobs(size_t njobs) const
{
    const unsigned want = options_.jobs == 0 ? defaultJobs() : options_.jobs;
    return unsigned(std::min<size_t>(want, std::max<size_t>(njobs, 1)));
}

std::vector<ExperimentRunner::JobOutcome>
ExperimentRunner::run(const std::vector<std::function<void()>>& jobs)
{
    std::vector<JobOutcome> outcomes(jobs.size());
    ProgressLine progress(options_.progress, options_.label, jobs.size());
    std::atomic<size_t> failures{0};

    auto execute = [&](size_t idx) {
        JobOutcome& outcome = outcomes[idx];
        const Clock::time_point start = Clock::now();
        try {
            jobs[idx]();
            outcome.ok = true;
        } catch (const std::exception& e) {
            outcome.error = e.what();
        } catch (...) {
            outcome.error = "unknown exception";
        }
        outcome.wall_ms = msSince(start);
        outcome.timed_out = options_.timeout_sec > 0.0 &&
                            outcome.wall_ms > options_.timeout_sec * 1e3;
        if (!outcome.ok)
            ++failures;
        progress.tick(failures.load());
    };

    const unsigned nworkers = effectiveJobs(jobs.size());
    if (nworkers <= 1) {
        for (size_t i = 0; i < jobs.size(); ++i)
            execute(i);
    } else {
        StealingQueues queues(jobs.size(), nworkers);
        std::vector<std::thread> workers;
        workers.reserve(nworkers);
        for (unsigned w = 0; w < nworkers; ++w) {
            workers.emplace_back([&, w] {
                for (size_t idx = queues.next(w);
                     idx != StealingQueues::kNone; idx = queues.next(w)) {
                    execute(idx);
                }
            });
        }
        for (std::thread& t : workers)
            t.join();
    }
    progress.finish();
    return outcomes;
}

SweepResult
runSweep(const SweepSpec& spec)
{
    const Clock::time_point sweep_start = Clock::now();
    const std::vector<SweepCell> cells = spec.expand();

    std::unique_ptr<ResultCache> cache;
    if (!spec.cache_dir.empty())
        cache = std::make_unique<ResultCache>(spec.cache_dir);

    SweepResult sweep;
    sweep.cells.resize(cells.size());
    SharedStatRegistry totals;
    std::atomic<size_t> cache_hits{0};
    std::atomic<size_t> cache_misses{0};

    // One thread budget covers both axes: `jobs` workers each running a
    // cell whose launches step SMs on `sim_threads` workers. Clamp the
    // product to the hardware so a sweep never oversubscribes the host
    // (scaling benchmarks opt out to measure exactly that).
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    const unsigned jobs_used = std::min<unsigned>(
        spec.jobs == 0 ? hw : spec.jobs,
        unsigned(std::max<size_t>(cells.size(), 1)));
    const unsigned threads_req =
        spec.sim_threads ? spec.sim_threads
                         : resolveSimThreads(spec.config);
    unsigned threads_eff = threads_req;
    if (spec.clamp_sim_threads &&
        uint64_t(jobs_used) * threads_req > hw) {
        threads_eff = std::max(1u, hw / jobs_used);
        lmi_warn("sweep: %u job(s) x %u sim thread(s) oversubscribes "
                 "%u hardware thread(s); clamping sim_threads to %u",
                 jobs_used, threads_req, hw, threads_eff);
    }

    std::vector<std::function<void()>> jobs;
    jobs.reserve(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        jobs.push_back([&, i] {
            const SweepCell& cell = cells[i];
            CellResult& out = sweep.cells[i]; // exclusively this job's slot
            out.workload = cell.workload.name;
            out.mechanism = cell.mechanism;
            out.scale = cell.scale;
            out.tier = cell.tier;
            out.fingerprint = cellFingerprint(cell);

            if (cache) {
                if (cache->load(out.fingerprint, &out)) {
                    out.from_cache = true;
                    ++cache_hits;
                    totals.merge(out.device_stats);
                    return;
                }
                ++cache_misses; // absent, stale, or truncated entry
            }

            // sim_threads is deliberately outside the fingerprint
            // (byte-identical results), so overriding it here never
            // splits or invalidates the cache.
            GpuConfig cfg = cell.config;
            cfg.sim_threads =
                cfg.sim_threads
                    ? (spec.clamp_sim_threads
                           ? std::max(1u, std::min(cfg.sim_threads,
                                                   hw / jobs_used))
                           : cfg.sim_threads)
                    : threads_eff;
            Device dev(cfg, makeMechanism(cell.mechanism));
            out.sim_threads = dev.simThreads();
            LaunchOptions lopts;
            lopts.tier = cell.tier;
            const WorkloadRun run = runWorkload(
                dev, cell.workload, cell.scale, RaceSeed::None, lopts);
            out.result = run.result;
            out.peak_reserved = run.peak_reserved;
            out.device_stats = dev.stats();
            out.ok = true;
            if (spec.post)
                spec.post(dev, out);
            totals.merge(out.device_stats);
            if (cache)
                cache->store(out);
        });
    }

    ExperimentRunner::Options opts;
    opts.jobs = spec.jobs;
    opts.timeout_sec = spec.timeout_sec;
    opts.progress = spec.progress;
    opts.label = "sweep";
    ExperimentRunner runner(opts);
    const std::vector<ExperimentRunner::JobOutcome> outcomes =
        runner.run(jobs);

    for (size_t i = 0; i < outcomes.size(); ++i) {
        CellResult& cell = sweep.cells[i];
        cell.wall_ms = outcomes[i].wall_ms;
        cell.timed_out = outcomes[i].timed_out;
        if (!outcomes[i].ok) {
            // The job threw (device exhaustion, bad config, ...): record
            // and keep sweeping — identity fields were set before the
            // throwing section, results stay addressable.
            cell.ok = false;
            cell.error = outcomes[i].error;
            ++sweep.failures;
        }
        if (cell.timed_out)
            ++sweep.timeouts;
    }
    sweep.cache_hits = cache_hits.load();
    sweep.cache_misses = cache_misses.load();
    sweep.totals = totals.snapshot();
    sweep.wall_ms = msSince(sweep_start);
    return sweep;
}

} // namespace lmi
