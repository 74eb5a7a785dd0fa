/**
 * @file
 * ExperimentRunner: parallel execution of declarative sweeps.
 *
 * Two layers:
 *
 *  - ExperimentRunner itself is a generic fixed-size pool with a
 *    work-stealing job queue, per-job wall-clock capture, an advisory
 *    per-job timeout, and failure capture — a throwing job is recorded
 *    in its JobOutcome, never fatal to the batch. Anything shaped like
 *    "run these N independent experiments" (the security coverage
 *    matrix, custom harnesses) can use it directly.
 *
 *  - runSweep() maps a SweepSpec onto that pool: one job per grid cell,
 *    each constructing a fully isolated Device/GpuSim/SparseMemory
 *    stack, so parallel results are bit-identical to serial execution.
 *    Results come back in deterministic grid order regardless of
 *    completion order, with optional on-disk caching (ResultCache).
 *
 * Shared-state audit backing the bit-identical claim: all simulation
 * state (SparseMemory pages, caches, allocators, mechanism metadata,
 * StatRegistry) lives inside the per-job Device; the only process-wide
 * mutable state in the library is the logging verbosity flag (atomic,
 * presentation-only) and C++11-thread-safe function-local statics for
 * the immutable workload suite and security corpus. Per-launch choices
 * such as the execution tier travel in LaunchOptions, never in
 * globals. tests/test_runner.cpp enforces this by byte-comparing
 * serial and parallel sweep payloads; Security.*
 * (ConcurrentEvaluationsMatchSerial) runs two coverage matrices on
 * different tiers at once.
 */

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "runner/sweep.hpp"

namespace lmi {

class ExperimentRunner
{
  public:
    struct Options
    {
        /** Worker threads; 0 = hardware concurrency. */
        unsigned jobs = 0;
        /** Advisory per-job timeout in seconds; 0 disables. A job that
         *  overruns is marked timed_out but still completes (cycle-level
         *  simulation has no safe preemption point). */
        double timeout_sec = 0.0;
        /** Live "label: done/total" line on stderr. */
        bool progress = false;
        std::string label = "experiments";
    };

    struct JobOutcome
    {
        /** Job returned normally (false: it threw; see error). */
        bool ok = false;
        bool timed_out = false;
        std::string error;
        double wall_ms = 0.0;
    };

    explicit ExperimentRunner(Options options);

    /**
     * Execute every job and return outcomes in input order. Jobs run
     * concurrently on the pool (serially, in order, when the job count
     * or thread count is 1) and must not share mutable state except
     * through their own synchronization.
     */
    std::vector<JobOutcome> run(const std::vector<std::function<void()>>& jobs);

    /** Thread count this runner will actually use for @p njobs jobs. */
    unsigned effectiveJobs(size_t njobs) const;

    /** Hardware concurrency with a floor of 1. */
    static unsigned defaultJobs();

  private:
    Options options_;
};

/** Execute @p spec: expand the grid, run every cell on the pool (with
 *  caching when spec.cache_dir is set), and aggregate. */
SweepResult runSweep(const SweepSpec& spec);

} // namespace lmi
