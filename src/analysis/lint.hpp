/**
 * @file
 * LMI-specific lint pass: findings that are legal IR but defeat or
 * weaken the protection the mechanism is supposed to provide.
 *
 * Rules (temporal findings belong to the safety oracle,
 * safety_oracle.hpp):
 *
 *  - phi-mixes-allocations: a pointer phi merges values deriving from
 *    distinct allocation sites, so no single extent describes the
 *    merged value and the range analysis can never elide its checks;
 *  - extent-saturation: an allocation larger than the codec's maximum
 *    representable size encodes extent 0 (invalid), silently degrading
 *    every derived pointer to always-faulting.
 */

#pragma once

#include <vector>

#include "analysis/diagnostic.hpp"
#include "core/pointer.hpp"
#include "ir/ir.hpp"

namespace lmi::analysis {

struct LintOptions
{
    PointerCodec codec{};
};

std::vector<Diagnostic> lintFunction(const ir::IrFunction& f,
                                     const LintOptions& opts = {});

} // namespace lmi::analysis
