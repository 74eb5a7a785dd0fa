/**
 * @file
 * Dynamic data-race sanitizer: the execution-time cross-check for the
 * static race analyzer (analysis/race_analysis.hpp).
 *
 * Attached as a launch's LaunchObserver, the sanitizer sees every
 * shared- and global-memory access the engine executes, plus barrier
 * releases, block retirements and device mallocs. It keeps one
 * shadow cell per touched 4-byte word recording the last write and the
 * last read (block, warp, global thread id, barrier epoch, pc). Two
 * accesses to the same word conflict when at least one is a store and:
 *
 *  - they come from different blocks (global memory only — nothing
 *    orders blocks within a kernel), or
 *  - they come from different warps of the same block in the same
 *    barrier epoch (same-warp accesses execute in lockstep program
 *    order; a barrier release bumps the block's epoch, ordering
 *    everything before it against everything after).
 *
 * Keeping only the *last* reader per word is the usual sanitizer
 * approximation: it can miss a conflict against an earlier reader but
 * never invents one, which is the right bias for validating static
 * ProvenDisjoint verdicts (no false alarms) while still catching every
 * seeded race that has cross-warp witnesses.
 *
 * The sanitizer is purely observational — it never perturbs simulation
 * state or timing, so a launch with and without one attached produces
 * byte-identical results.
 */

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/isa.hpp" // MemSpace
#include "sim/mem_event.hpp"

namespace lmi {

class RaceSanitizer final : public LaunchObserver
{
  public:
    /** One detected conflict (capped; total count keeps incrementing). */
    struct Report
    {
        MemSpace space = MemSpace::Global;
        uint64_t addr = 0; ///< conflicting word (block-local for shared)
        uint32_t block = 0, other_block = 0;
        uint32_t warp = 0, other_warp = 0;
        uint32_t gtid = 0, other_gtid = 0;
        bool is_store = false, other_is_store = false;
        uint64_t epoch = 0;
        uint64_t pc = 0, other_pc = 0;

        std::string toString() const;
    };

    /**
     * - A global or shared access covering [addr, addr+width) is
     *   checked against the word shadows. A conflicting pair where both
     *   sides are atomic at sufficient scope (cta for same-block pairs,
     *   gpu/sys across blocks) synchronizes rather than races and is
     *   not reported.
     * - BarrierRelease: everything before it in the block
     *   happens-before everything after.
     * - BlockRetire: drop the block's shared shadow and epoch.
     * - Malloc of [addr, addr+value): forget stale shadow so reuse of
     *   recycled memory is not misread as a race.
     */
    void onEvent(const MemEvent& event) override;

    size_t conflictCount() const { return conflicts_; }
    size_t wordsTracked() const
    {
        return global_.size() + shared_.size();
    }
    const std::vector<Report>& reports() const { return reports_; }

    /** Detected-conflict reports kept in full (the rest only counted). */
    static constexpr size_t kMaxReports = 64;

  private:
    struct Access
    {
        bool valid = false;
        bool is_store = false;
        bool is_atomic = false;
        MemScope scope = MemScope::Cta;
        uint32_t block = 0, warp = 0, gtid = 0;
        uint64_t epoch = 0, pc = 0;
    };
    struct Cell
    {
        Access last_write;
        Access last_read;
    };

    void onAccess(const MemEvent& e);
    void check(MemSpace space, const Access& cur, const Access& prev,
               uint64_t addr);

    /** Global shadow, keyed by word index. */
    std::unordered_map<uint64_t, Cell> global_;
    /** Shared shadow, keyed by (block << 40) | word index. */
    std::unordered_map<uint64_t, Cell> shared_;
    /** Barrier epoch per block (absent = 0). */
    std::unordered_map<uint32_t, uint64_t> epochs_;

    size_t conflicts_ = 0;
    std::vector<Report> reports_;
};

} // namespace lmi
