/**
 * @file
 * Differential detection-coverage harness, the one runner of the
 * security corpus (workloads/attacks.hpp): every registry mechanism x
 * every case x both engine tiers, cross-checked against the static
 * safety oracle. Table III (security/violations.hpp) is a tally over
 * the cells of the corpus's Table III cases.
 *
 * For each (case, variant) the oracle classifies every access of the
 * flattened kernel once — a tier-free static fact. Each (mechanism,
 * tier) cell then runs the case on a fresh Device: host setup, compile,
 * launch on the cell's tier. A raised fault (a runtime free error
 * included) or a compiler rejection counts as detected. Cells run
 * concurrently on an ExperimentRunner pool and come back in canonical
 * order.
 *
 * The cross-check asserts agreement wherever the oracle *proved*
 * something:
 *
 *  - a benign twin the oracle proves fully safe must neither fault nor
 *    be rejected under any mechanism on any tier;
 *  - a benign twin the oracle fails to fully prove is itself a
 *    disagreement (the twins are constructed to be provable);
 *  - an attack variant must contain an access with the case's
 *    expected verdict. Cases whose expected verdict is Unknown
 *    (parameter-indexed, host-side and free-error cases, where the
 *    oracle proves nothing) always agree.
 *
 * An attack a mechanism does *not* detect is a coverage gap, not a
 * disagreement — recording those gaps per mechanism is the matrix's
 * entire point (the paper's fine-grained-detection claim made
 * machine-checkable). CI pins the full matrix via
 * tools/check_coverage.py against tools/coverage_expected.json.
 */

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/safety_oracle.hpp"
#include "mechanisms/registry.hpp"
#include "sim/launch_options.hpp"
#include "workloads/attacks.hpp"

namespace lmi {

/** One (case, variant, mechanism, tier) cell of the matrix. */
struct CoverageCell
{
    std::string attack;
    bool benign = false;
    MechanismKind mechanism = MechanismKind::Baseline;
    ExecutionTier tier = ExecutionTier::Detailed;
    /** The case's Table III row, if it has one. */
    std::optional<ViolationCategory> category;

    /** Oracle verdict of the scenario's planted access (attack
     *  variants) or ProvenSafe/Unknown summary (benign twins). */
    analysis::AccessVerdict oracle = analysis::AccessVerdict::Unknown;
    /** Every access of the kernel is ProvenSafe. */
    bool oracle_all_safe = false;

    bool detected = false;
    bool compile_rejected = false;
    /** faultKindName of the first dynamic fault ("" when clean). */
    std::string fault;

    /** Empty when the cell is consistent; otherwise the reason. */
    std::string disagreement;
};

/** The full matrix plus its renderings. */
struct CoverageMatrix
{
    std::vector<CoverageCell> cells;

    size_t disagreements() const;

    std::string renderCsv() const;
    std::string renderJson() const;
    /** Compact per-tier tables: cases x mechanisms. */
    std::string renderTable() const;
};

/** Machine-readable coverage schema; bump on any field change. */
inline constexpr int kCoverageSchemaVersion = 1;

/**
 * Run the full matrix: every case (attack and, where it has one, its
 * benign twin) under every mechanism in @p mechanisms on every tier in
 * @p tiers, on a default-sized ExperimentRunner pool. Empty vectors
 * default to allMechanisms() and {Detailed, Functional}. A cell that
 * throws anything but a CompileError aborts the run with FatalError.
 */
CoverageMatrix runCoverage(std::vector<MechanismKind> mechanisms = {},
                           std::vector<ExecutionTier> tiers = {});

} // namespace lmi
