#include "sim/race_sanitizer.hpp"

#include <sstream>

namespace lmi {

std::string
RaceSanitizer::Report::toString() const
{
    std::ostringstream os;
    os << "race on " << memSpaceName(space) << " word 0x" << std::hex
       << addr << std::dec << ": "
       << (is_store ? "store" : "load") << " by block " << block
       << " warp " << warp << " thread " << gtid << " (pc " << pc
       << ") vs " << (other_is_store ? "store" : "load") << " by block "
       << other_block << " warp " << other_warp << " thread "
       << other_gtid << " (pc " << other_pc << ") in epoch " << epoch;
    return os.str();
}

void
RaceSanitizer::check(MemSpace space, const Access& cur,
                     const Access& prev, uint64_t addr)
{
    if (!prev.valid)
        return;
    if (!cur.is_store && !prev.is_store)
        return;
    if (cur.is_atomic && prev.is_atomic) {
        // A properly scoped atomic pair synchronizes instead of racing:
        // cta scope covers same-block pairs, gpu/sys scope covers any
        // pair on the device. A scope-mismatched pair (e.g. cta-scope
        // atomics from different blocks) still conflicts.
        const MemScope need = prev.block != cur.block ? MemScope::Gpu
                                                      : MemScope::Cta;
        if (uint8_t(cur.scope) >= uint8_t(need) &&
            uint8_t(prev.scope) >= uint8_t(need))
            return;
    }
    bool conflict;
    if (prev.block != cur.block) {
        // Different blocks are never ordered within a kernel; shared
        // memory is per-block, so this arises for global memory only.
        conflict = true;
    } else {
        conflict = prev.warp != cur.warp && prev.epoch == cur.epoch;
    }
    if (!conflict)
        return;
    ++conflicts_;
    if (reports_.size() >= kMaxReports)
        return;
    Report r;
    r.space = space;
    r.addr = addr;
    r.block = cur.block;
    r.other_block = prev.block;
    r.warp = cur.warp;
    r.other_warp = prev.warp;
    r.gtid = cur.gtid;
    r.other_gtid = prev.gtid;
    r.is_store = cur.is_store;
    r.other_is_store = prev.is_store;
    r.epoch = cur.epoch;
    r.pc = cur.pc;
    r.other_pc = prev.pc;
    reports_.push_back(std::move(r));
}

void
RaceSanitizer::onAccess(const MemEvent& e)
{
    if (e.space != MemSpace::Global && e.space != MemSpace::Shared)
        return; // local/constant memory is thread-private/read-only

    Access cur;
    cur.valid = true;
    cur.is_store = e.kind != MemEvent::Kind::Load;
    cur.is_atomic = e.is_atomic;
    cur.scope = e.scope;
    cur.block = e.block;
    cur.warp = e.warp;
    cur.gtid = e.gtid;
    cur.pc = e.pc;
    if (auto it = epochs_.find(e.block); it != epochs_.end())
        cur.epoch = it->second;

    auto& shadow = e.space == MemSpace::Shared ? shared_ : global_;
    const uint64_t first_word = e.addr >> 2;
    const uint64_t last_word = (e.addr + (e.width ? e.width : 1) - 1) >> 2;
    for (uint64_t w = first_word; w <= last_word; ++w) {
        const uint64_t key = e.space == MemSpace::Shared
                                 ? (uint64_t(e.block) << 40) | w
                                 : w;
        Cell& cell = shadow[key];
        // A store conflicts with the previous write and the previous
        // read; a load only with the previous write.
        check(e.space, cur, cell.last_write, w << 2);
        if (cur.is_store) {
            check(e.space, cur, cell.last_read, w << 2);
            cell.last_write = cur;
        } else {
            cell.last_read = cur;
        }
    }
}

void
RaceSanitizer::onEvent(const MemEvent& e)
{
    switch (e.kind) {
      case MemEvent::Kind::Load:
      case MemEvent::Kind::Store:
      case MemEvent::Kind::Rmw:
      case MemEvent::Kind::Cas:
        onAccess(e);
        break;
      case MemEvent::Kind::BarrierRelease:
        ++epochs_[e.block];
        break;
      case MemEvent::Kind::BlockRetire: {
        epochs_.erase(e.block);
        const uint64_t lo = uint64_t(e.block) << 40;
        const uint64_t hi = uint64_t(e.block + 1) << 40;
        for (auto it = shared_.begin(); it != shared_.end();) {
            if (it->first >= lo && it->first < hi)
                it = shared_.erase(it);
            else
                ++it;
        }
        break;
      }
      case MemEvent::Kind::Malloc: {
        const uint64_t first_word = e.addr >> 2;
        const uint64_t last_word =
            e.value ? (e.addr + e.value - 1) >> 2 : first_word;
        for (uint64_t w = first_word; w <= last_word; ++w)
            global_.erase(w);
        break;
      }
      default:
        break; // fences, barrier arrivals and frees order nothing here
    }
}

} // namespace lmi
