/**
 * @file
 * Umbrella driver for the static-analysis pipeline (paper-adjacent:
 * the GPUArmor/L4-Pointer axis of removing statically redundant GPU
 * bounds checks on top of LMI's in-pointer metadata).
 *
 * Pass order:
 *
 *   1. verify          — structural/SSA/type diagnostics; errors stop
 *                        the pipeline (later passes assume valid IR);
 *   2. range analysis  — interval + provenance dataflow; classifies
 *                        every hint-marked pointer op (PROVEN_SAFE /
 *                        PROVEN_VIOLATING / UNKNOWN); proven violations
 *                        are error diagnostics;
 *   3. lint            — LMI-specific advisory findings (warnings).
 *
 * The compiler driver consumes this through
 * CodegenOptions::analysis_level:
 *
 *   Off     nothing runs (release default; debug builds still verify);
 *   Verify  the verifier gates compilation;
 *   Full    verifier + range + lint; PROVEN_SAFE ops get the elide
 *           hint bit and skip the dynamic OCU check;
 *   Race    Full plus the barrier-aware race/divergence analyzer
 *           (race_analysis.hpp); ProvenRacy pairs and divergent
 *           barriers are error diagnostics;
 *   Oracle  Full plus the whole-kernel safety oracle
 *           (safety_oracle.hpp): every memory access is classified
 *           {ProvenSafe, SpatialOOB, SubObjectOOB, TemporalUAF,
 *           Unknown}, proven violations surface as
 *           Severity::Violation diagnostics; the oracle's CFG-exact
 *           temporal automaton is the one source of use-after-free
 *           verdicts.
 */

#pragma once

#include <vector>

#include "analysis/diagnostic.hpp"
#include "analysis/lint.hpp"
#include "analysis/race_analysis.hpp"
#include "analysis/range_analysis.hpp"
#include "analysis/safety_oracle.hpp"
#include "analysis/verify.hpp"
#include "ir/ir.hpp"

namespace lmi::analysis {

/** How much of the pipeline the compiler driver runs. */
enum class AnalysisLevel : uint8_t { Off, Verify, Full, Race, Oracle };

struct AnalysisOptions
{
    AnalysisLevel level = AnalysisLevel::Verify;
    /** Report LMI pointer invariants from the verifier too. */
    bool lmi_invariants = false;
    /** Sub-object (narrowed fieldgep extent) mode: see range analysis. */
    bool subobject = false;
    PointerCodec codec{};
    /** Launch geometry hints for the race analyzer; 0 = unknown. */
    unsigned block_threads = 0;
    unsigned grid_blocks = 0;
};

/** Combined result of one pipeline run over one function. */
struct AnalysisReport
{
    /** All findings, in pass order. */
    std::vector<Diagnostic> diagnostics;
    /** Range-analysis verdict per hint-marked pointer op (Full only). */
    std::unordered_map<ir::ValueId, SafetyClass> safety;
    size_t proven_safe = 0;
    size_t proven_violating = 0;
    size_t unknown = 0;

    /** Race-analyzer summary (Race level only). */
    size_t race_racy = 0;
    size_t race_disjoint = 0;
    size_t race_unknown = 0;
    size_t race_divergent_barriers = 0;

    /** Safety-oracle access classification (Oracle level only). */
    std::unordered_map<ir::ValueId, AccessWitness> accesses;
    size_t oracle_safe = 0;
    size_t oracle_spatial = 0;
    size_t oracle_subobject = 0;
    size_t oracle_uaf = 0;
    size_t oracle_unknown = 0;

    size_t errors() const { return errorCount(diagnostics); }
};

/** Run the pipeline on one (flattened) function. */
AnalysisReport analyzeFunction(const ir::IrFunction& f,
                               const AnalysisOptions& opts = {});

const char* analysisLevelName(AnalysisLevel level);

} // namespace lmi::analysis
