#include "security/violations.hpp"

namespace lmi {

namespace {

unsigned
sum(const std::map<ViolationCategory, unsigned>& counts, bool spatial)
{
    unsigned n = 0;
    for (const auto& [cat, count] : counts)
        if (isSpatialCategory(cat) == spatial)
            n += count;
    return n;
}

} // namespace

unsigned
SecurityScore::spatialDetected() const
{
    return sum(detected, true);
}

unsigned
SecurityScore::spatialTotal() const
{
    return sum(total, true);
}

unsigned
SecurityScore::temporalDetected() const
{
    return sum(detected, false);
}

unsigned
SecurityScore::temporalTotal() const
{
    return sum(total, false);
}

SecurityScore
tallySecurity(const CoverageMatrix& matrix, MechanismKind kind,
              ExecutionTier tier)
{
    SecurityScore score;
    score.mechanism = kind;
    for (const CoverageCell& c : matrix.cells) {
        if (!c.category || c.mechanism != kind || c.tier != tier)
            continue;
        ++score.total[*c.category];
        if (c.detected)
            ++score.detected[*c.category];
    }
    return score;
}

SecurityScore
evaluateMechanism(MechanismKind kind, ExecutionTier tier)
{
    return tallySecurity(runCoverage({kind}, {tier}), kind, tier);
}

} // namespace lmi
