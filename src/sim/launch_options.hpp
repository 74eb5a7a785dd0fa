/**
 * @file
 * Launch-time options for Device::launch — the single kernel entry
 * point. One LaunchOptions value carries the execution tier, the thread
 * budget, dynamic shared memory and the one optional LaunchObserver.
 * The two tiers:
 *
 *  - ExecutionTier::Detailed — the cycle-level machine (Table IV
 *    timing, caches, GTO schedulers). Byte-identical for every
 *    sim_threads value; this is the reference tier every paper figure
 *    is measured on.
 *  - ExecutionTier::Functional — instructions execute with full
 *    architectural and protection-mechanism semantics (memory state,
 *    faults, OCU/LSU checks, race sanitizing) but no timing model, no
 *    cache hierarchy and no scheduler bookkeeping. RunResult::cycles
 *    degrades to an issue-bound lower-bound estimate (see DESIGN.md,
 *    "Two-tier execution engine").
 */

#pragma once

#include <cstdint>
#include <string>

namespace lmi {

struct TraceEvent; // sim/trace.hpp
struct MemEvent;   // sim/mem_event.hpp

/**
 * The one instrumentation interface of a launch: the NVBit analogue.
 * An attached observer receives every issued warp instruction through
 * onIssue and every other event (per-lane memory accesses, fences,
 * barrier arrivals and releases, block retirement, device malloc/free)
 * through onEvent, in per-SM issue order. Observing never perturbs
 * simulation state or timing, but the stream is order-sensitive, so an
 * observed launch runs on one thread. Subscribers: TraceRecorder,
 * MemEventLog and RaceSanitizer.
 */
class LaunchObserver
{
  public:
    virtual ~LaunchObserver() = default;
    virtual void onIssue(const TraceEvent&) {}
    virtual void onEvent(const MemEvent&) {}
};

/** Which engine tier executes the launch. */
enum class ExecutionTier : uint8_t {
    Detailed = 0,
    Functional = 1,
};

inline const char*
executionTierName(ExecutionTier tier)
{
    switch (tier) {
      case ExecutionTier::Detailed:   return "detailed";
      case ExecutionTier::Functional: return "functional";
    }
    return "?";
}

/** Parse "detailed" / "functional". @return false and
 *  leave @p out untouched on anything else. */
inline bool
parseExecutionTier(const std::string& name, ExecutionTier* out)
{
    if (name == "detailed") {
        *out = ExecutionTier::Detailed;
    } else if (name == "functional") {
        *out = ExecutionTier::Functional;
    } else {
        return false;
    }
    return true;
}

/**
 * Per-launch options. Everything defaults to the plain detailed launch,
 * so `dev.launch(kernel, grid, block, params)` keeps its historical
 * meaning; callers opt into tiers, an observer, dynamic shared memory
 * or a private thread budget by filling the relevant fields.
 */
struct LaunchOptions
{
    ExecutionTier tier = ExecutionTier::Detailed;
    /** Dynamic shared memory requested for the launch, in bytes. */
    uint64_t dynamic_shared_bytes = 0;
    /**
     * Worker threads stepping SMs for this launch. 0 = inherit the
     * device's sim_threads (which falls back to LMI_SIM_THREADS, then
     * 1). Results are byte-identical for every value within a tier.
     */
    unsigned sim_threads = 0;
    /** Optional event subscriber (purely observational; pins the
     *  launch to one thread). */
    LaunchObserver* observer = nullptr;
};

} // namespace lmi
