/**
 * @file
 * Control-flow graph and dominator tree over the kernel IR, shared by
 * the verifier (SSA dominance checking), the range analysis (reverse
 * postorder iteration), the race analyzer and the safety oracle.
 *
 * Construction is robust against malformed input: blocks without a
 * terminator contribute no edges and out-of-range branch targets are
 * ignored, so the verifier can build a CFG first and report structural
 * problems as diagnostics afterwards.
 */

#pragma once

#include <vector>

#include "ir/ir.hpp"

namespace lmi::analysis {

struct Cfg
{
    std::vector<std::vector<ir::BlockId>> preds;
    std::vector<std::vector<ir::BlockId>> succs;
    /** Reverse postorder over blocks reachable from the entry block. */
    std::vector<ir::BlockId> rpo;
    /** Position of each block in rpo; -1 when unreachable. */
    std::vector<int> rpo_index;
    /** Immediate dominator of each block; -1 for entry and unreachable. */
    std::vector<int> idom;
    /**
     * Immediate postdominator; -1 when the virtual exit is the immediate
     * postdominator (exit blocks) or the block cannot reach any exit
     * (infinite loops, unreachable blocks).
     */
    std::vector<int> ipdom;
    /** True when the block can reach a function exit (Ret or no succs). */
    std::vector<bool> reaches_exit;

    static Cfg build(const ir::IrFunction& f);

    bool reachable(ir::BlockId b) const
    {
        return b < rpo_index.size() && rpo_index[b] >= 0;
    }

    /**
     * True when @p a dominates @p b (reflexive). Unreachable blocks are
     * dominated by everything, matching LLVM's convention — code in them
     * never executes, so any dominance query is vacuously satisfiable.
     */
    bool dominates(ir::BlockId a, ir::BlockId b) const;

    /**
     * True when @p a postdominates @p b (reflexive): every path from
     * @p b to a function exit passes through @p a. Computed against a
     * virtual exit joining all Ret/no-successor blocks, so multi-exit
     * functions work; blocks on infinite loops postdominate nothing but
     * themselves and are postdominated only by themselves.
     */
    bool postDominates(ir::BlockId a, ir::BlockId b) const;
};

} // namespace lmi::analysis
