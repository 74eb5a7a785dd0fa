/**
 * @file
 * Table III (paper §IX) as a view over the detection-coverage matrix.
 *
 * The 38 violation cases are the Table III rows of the security corpus
 * (workloads/attacks.hpp); security/coverage.hpp runs them with every
 * other case. A SecurityScore tallies one mechanism's Table III cells
 * on one tier: a case counts as detected when its run raised a fault
 * or the mechanism's compiler rejected the kernel (LMI's §XII-B
 * inttoptr rejection).
 */

#pragma once

#include <map>

#include "security/coverage.hpp"

namespace lmi {

/** Detection tally for one mechanism. */
struct SecurityScore
{
    MechanismKind mechanism;
    /** detected[category] / total[category] */
    std::map<ViolationCategory, unsigned> detected;
    std::map<ViolationCategory, unsigned> total;

    unsigned spatialDetected() const;
    unsigned spatialTotal() const;
    unsigned temporalDetected() const;
    unsigned temporalTotal() const;
};

/** Tally the Table III cells of @p matrix for @p kind on @p tier. */
SecurityScore tallySecurity(const CoverageMatrix& matrix, MechanismKind kind,
                            ExecutionTier tier = ExecutionTier::Detailed);

/** Run the corpus under @p kind on @p tier and tally its Table III
 *  cells. Detection must not depend on the tier; the tier
 *  cross-validation tests compare scores across tiers. */
SecurityScore evaluateMechanism(MechanismKind kind,
                                ExecutionTier tier = ExecutionTier::Detailed);

} // namespace lmi
