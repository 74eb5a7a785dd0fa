/**
 * @file
 * Execution tracing — the NVBit-analogue of this codebase.
 *
 * The paper's methodology is trace-driven (NVBit captures instruction
 * streams that MacSim replays). This module exposes the equivalent
 * capability: a TraceRecorder attached as the launch's LaunchObserver
 * receives one event per issued warp instruction and buffers them;
 * TraceAnalysis summarizes the stream (instruction mix, hint-bit
 * density, per-region memory counts) — the inputs to Fig. 1-style
 * characterization.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/isa.hpp"
#include "sim/launch_options.hpp"

namespace lmi {

/** One issued warp instruction. */
struct TraceEvent
{
    uint32_t sm = 0;
    uint32_t block = 0;
    uint32_t warp = 0;        ///< warp index within the block
    uint64_t cycle = 0;       ///< SM-local issue cycle
    uint64_t pc = 0;
    Opcode op = Opcode::NOP;
    uint32_t active_mask = 0; ///< lanes participating
    bool hinted = false;      ///< A bit set (pointer operation)
};

/** Buffers the whole instruction stream in memory. */
class TraceRecorder final : public LaunchObserver
{
  public:
    /** @param capacity stop recording beyond this many events (0 = all) */
    explicit TraceRecorder(size_t capacity = 0) : capacity_(capacity) {}

    void
    onIssue(const TraceEvent& event) override
    {
        ++total_;
        if (capacity_ == 0 || events_.size() < capacity_)
            events_.push_back(event);
    }

    const std::vector<TraceEvent>& events() const { return events_; }
    /** Events seen (including any dropped past the capacity). */
    uint64_t totalSeen() const { return total_; }

  private:
    size_t capacity_;
    uint64_t total_ = 0;
    std::vector<TraceEvent> events_;
};

/** Aggregate statistics over a trace. */
struct TraceAnalysis
{
    uint64_t instructions = 0;
    uint64_t thread_instructions = 0;
    std::map<Opcode, uint64_t> by_opcode;
    /** Hint-marked (pointer) operations. */
    uint64_t hinted = 0;
    uint64_t int_alu = 0;
    uint64_t fp_alu = 0;
    uint64_t mem_global = 0, mem_shared = 0, mem_local = 0;

    double
    hintedFraction() const
    {
        return instructions == 0 ? 0.0
                                 : double(hinted) / double(instructions);
    }

    /** The Fig. 13 metric: (pointer checks incl. LD/ST) per LD/ST. */
    double
    checkToLdstRatio() const
    {
        const uint64_t ldst = mem_global + mem_shared + mem_local;
        return ldst == 0 ? 0.0
                         : double(int_alu + ldst) / double(ldst);
    }

    /** Render as an aligned text table. */
    std::string toString() const;
};

/** Summarize @p events. */
TraceAnalysis analyzeTrace(const std::vector<TraceEvent>& events);

/** Render one event as a single trace line. */
std::string traceEventToString(const TraceEvent& event);

} // namespace lmi
