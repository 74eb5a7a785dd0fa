#include "analysis/lint.hpp"

#include <set>
#include <unordered_map>

namespace lmi::analysis {

using namespace ir;

namespace {

/** Roots a pointer value can derive from (kNoValue = not allocation-rooted). */
using RootSet = std::set<ValueId>;

class Linter
{
  public:
    Linter(const IrFunction& f, const LintOptions& opts)
        : f_(f), opts_(opts)
    {
    }

    std::vector<Diagnostic> run();

  private:
    void warn(ValueId v, std::string msg)
    {
        diags_.push_back(
            {Severity::Warning, "lint", f_.name, v, std::move(msg)});
    }

    bool valid(ValueId v) const
    {
        return v != kNoValue && v < f_.values.size();
    }

    const RootSet& rootsOf(ValueId v);
    void checkSaturation();
    void checkPhiMixing();

    const IrFunction& f_;
    const LintOptions& opts_;
    std::vector<Diagnostic> diags_;
    std::unordered_map<ValueId, RootSet> roots_;
    std::set<ValueId> in_progress_;
};

const RootSet&
Linter::rootsOf(ValueId v)
{
    auto it = roots_.find(v);
    if (it != roots_.end())
        return it->second;
    if (in_progress_.count(v)) {
        // Phi cycle: the self-referential path adds no new root.
        static const RootSet empty;
        return empty;
    }
    in_progress_.insert(v);
    RootSet roots;
    const IrInst& in = f_.inst(v);
    switch (in.op) {
      case IrOp::Alloca:
      case IrOp::SharedRef:
      case IrOp::DynSharedRef:
      case IrOp::Malloc:
      case IrOp::Param:
      case IrOp::IntToPtr:
      case IrOp::Load:
        roots.insert(v);
        break;
      case IrOp::Gep:
      case IrOp::PtrAddByte:
      case IrOp::FieldGep:
        if (valid(in.ops[0]))
            roots = rootsOf(in.ops[0]);
        break;
      case IrOp::IAdd:
      case IrOp::ISub:
        for (ValueId o : in.ops)
            if (valid(o) && f_.inst(o).type.isPtr())
                roots = rootsOf(o);
        break;
      case IrOp::Phi:
        for (ValueId o : in.ops)
            if (valid(o)) {
                const RootSet& r = rootsOf(o);
                roots.insert(r.begin(), r.end());
            }
        break;
      default:
        break;
    }
    in_progress_.erase(v);
    return roots_[v] = std::move(roots);
}

void
Linter::checkSaturation()
{
    auto check = [&](ValueId v, uint64_t size, const std::string& what) {
        // Valid spatial extents stop below kDebugExtentBase; anything
        // larger lands in the debug/poison range and dereferences fault.
        const unsigned e = size ? opts_.codec.extentForSize(size) : 0;
        if (size > 0 && (e == 0 || e >= kDebugExtentBase))
            warn(v, what + " of " + std::to_string(size) +
                        " bytes exceeds the largest encodable extent (" +
                        std::to_string(
                            opts_.codec.sizeForExtent(kDebugExtentBase - 1)) +
                        " bytes); the extent saturates to an invalid "
                        "encoding and every derived pointer faults on "
                        "dereference");
    };
    for (const auto& block : f_.blocks) {
        for (ValueId v : block.insts) {
            if (!valid(v))
                continue;
            const IrInst& in = f_.inst(v);
            if (in.op == IrOp::Alloca && in.imm > 0) {
                check(v, uint64_t(in.imm), "alloca");
            } else if (in.op == IrOp::SharedRef) {
                for (const auto& [bname, sz] : f_.shared_buffers)
                    if (bname == in.name)
                        check(v, sz, "shared buffer '" + in.name + "'");
            } else if (in.op == IrOp::Malloc && valid(in.ops[0]) &&
                       f_.inst(in.ops[0]).op == IrOp::ConstInt) {
                const int64_t sz = f_.inst(in.ops[0]).imm;
                if (sz > 0)
                    check(v, uint64_t(sz), "malloc");
            }
        }
    }
}

void
Linter::checkPhiMixing()
{
    for (const auto& block : f_.blocks) {
        for (ValueId v : block.insts) {
            if (!valid(v))
                continue;
            const IrInst& in = f_.inst(v);
            if (in.op != IrOp::Phi || !in.type.isPtr())
                continue;
            const RootSet roots = rootsOf(v);
            if (roots.size() > 1)
                warn(v, "pointer phi merges " +
                            std::to_string(roots.size()) +
                            " distinct allocations; no single extent "
                            "describes the merged value, so derived "
                            "checks can never be elided");
        }
    }
}

std::vector<Diagnostic>
Linter::run()
{
    checkSaturation();
    checkPhiMixing();
    return std::move(diags_);
}

} // namespace

std::vector<Diagnostic>
lintFunction(const IrFunction& f, const LintOptions& opts)
{
    return Linter(f, opts).run();
}

} // namespace lmi::analysis
