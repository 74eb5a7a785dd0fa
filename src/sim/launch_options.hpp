/**
 * @file
 * Launch-time options for Device::launch — the single kernel entry
 * point. One LaunchOptions value carries everything that used to be
 * spread over the launchTraced/launchSanitized overload family plus the
 * execution-tier selection of the two-tier engine:
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

class TraceSink;
class RaceSanitizer;
class MemEventSink;

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
 * meaning; callers opt into tiers, tracing, sanitizing, dynamic shared
 * memory or a private thread budget by filling the relevant fields.
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
    /** Optional instruction-trace sink (NVBit-style capture). */
    TraceSink* trace = nullptr;
    /** Optional dynamic race sanitizer (purely observational). */
    RaceSanitizer* sanitizer = nullptr;
    /** Optional memory-transaction log feeding the weak-memory model
     *  checker (purely observational; pins the launch to one thread). */
    MemEventSink* memlog = nullptr;
};

} // namespace lmi
