/**
 * @file
 * The observer event record: per-lane memory accesses and the sync,
 * heap and block events that order them.
 *
 * Every LaunchObserver::onEvent call carries one MemEvent. MemEventLog,
 * the weak-memory model checker's recorder, keeps the architecturally
 * executed global-memory transactions (per lane, in issue order) plus
 * the fence, barrier-arrival and heap events that order them. The
 * observed launch runs on one thread, so the per-SM `seq` numbers form
 * a real witness order.
 *
 * The log is the model checker's input (analysis/model_check.hpp): the
 * checker re-executes the logged events under the scoped weak-memory
 * model, exploring alternative interleavings and relaxed reorderings
 * the slice-synchronous engine itself never produces. This header is
 * deliberately free of simulator dependencies so the analysis layer can
 * consume logs without linking the engine.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "arch/isa.hpp"
#include "sim/launch_options.hpp"

namespace lmi {

/** One logged memory-model-relevant event. */
struct MemEvent
{
    enum class Kind : uint8_t {
        Load,    ///< load in `space` (plain or atomic, see is_atomic)
        Store,   ///< store in `space` (plain or atomic)
        Rmw,     ///< atomic read-modify-write (always atomic)
        Cas,     ///< atomic compare-and-swap (always atomic)
        Fence,   ///< MEMBAR at (scope, order); no address
        Barrier, ///< CTA barrier arrival (acts as an acq_rel cta fence)
        Malloc,  ///< device-heap allocation: addr = base, value = size
        Free,    ///< device-heap free: addr = base
        BarrierRelease, ///< `block`'s barrier released (warp, gtid unset)
        BlockRetire,    ///< `block` retired from its SM
    };

    Kind kind = Kind::Load;
    bool is_atomic = false;
    AtomicOp aop = AtomicOp::Add; ///< Rmw only
    MemScope scope = MemScope::Cta;
    MemOrder order = MemOrder::Relaxed;
    uint8_t width = 4;
    MemSpace space = MemSpace::Global; ///< of an access; else Global

    uint32_t sm = 0;
    uint32_t block = 0; ///< CTA id — the checker's cta-scope domain
    uint32_t warp = 0;  ///< warp index within the block
    uint32_t gtid = 0;  ///< global thread id — the checker's agent
    uint64_t pc = 0;
    /** Per-SM issue order (shared with heap/fault sequencing) of
     *  accesses, fences, barrier arrivals and heap ops. An observed
     *  launch runs single-threaded, so sorting one agent's events by
     *  seq yields its program order. */
    uint64_t seq = 0;
    uint64_t cycle = 0;

    uint64_t addr = 0;
    /** Store value / RMW operand / CAS desired / malloc size. */
    uint64_t value = 0;
    /** CAS expected value; for loads, the witness-observed value when
     *  known at issue time (0 for deferred global atomics). */
    uint64_t value2 = 0;
};

/** The model checker's recorder: global accesses, fences, barrier
 *  arrivals and device malloc/free, in the order they arrive. */
class MemEventLog : public LaunchObserver
{
  public:
    void onEvent(const MemEvent& event) override
    {
        // Shared/local accesses and block lifecycle events order
        // nothing across the checker's agents.
        if (event.space != MemSpace::Global ||
            event.kind == MemEvent::Kind::BarrierRelease ||
            event.kind == MemEvent::Kind::BlockRetire)
            return;
        events_.push_back(event);
    }

    const std::vector<MemEvent>& events() const { return events_; }

  private:
    std::vector<MemEvent> events_;
};

} // namespace lmi
