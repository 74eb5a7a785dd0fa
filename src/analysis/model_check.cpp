#include "analysis/model_check.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

namespace lmi::analysis {

std::string
ModelCheckFault::toString() const
{
    const char* what = "?";
    switch (kind) {
      case Kind::UseAfterFreeLoad:  what = "load from freed memory"; break;
      case Kind::UseAfterFreeStore: what = "store into freed memory"; break;
      case Kind::DoubleFree:        what = "double free"; break;
      case Kind::InvalidFree:       what = "free of unallocated base"; break;
    }
    std::ostringstream os;
    os << what << " at 0x" << std::hex << addr << std::dec << " by thread "
       << gtid << " (pc " << pc << ")";
    return os.str();
}

std::string
ModelCheckRace::toString() const
{
    std::ostringstream os;
    os << (scope_mismatch ? "scope-mismatch race" : "data race")
       << " on 0x" << std::hex << addr << std::dec << ": thread " << gtid_a
       << " (pc " << pc_a << ") vs thread " << gtid_b << " (pc " << pc_b
       << ")";
    return os.str();
}

namespace {

using Kind = MemEvent::Kind;

inline uint64_t
bit(size_t i)
{
    return uint64_t(1) << i;
}

/** Does this event write memory when executed? */
inline bool
writesMemory(const MemEvent& e)
{
    switch (e.kind) {
      case Kind::Store: return true;
      case Kind::Rmw:   return e.aop != AtomicOp::Ld;
      case Kind::Cas:   return true; // may write
      default:          return false;
    }
    return false;
}

inline bool
readsMemory(const MemEvent& e)
{
    return e.kind == Kind::Load || e.kind == Kind::Rmw ||
           e.kind == Kind::Cas;
}

inline bool
isAccess(const MemEvent& e)
{
    return readsMemory(e) || e.kind == Kind::Store;
}

/** Acquire-ish events order everything po-after them. */
inline bool
ordersLater(const MemEvent& e)
{
    switch (e.kind) {
      case Kind::Load:
      case Kind::Rmw:
      case Kind::Cas:
      case Kind::Fence:
      case Kind::Barrier:
          return hasAcquire(e.order);
      default:
          return false;
    }
    return false;
}

/** Release-ish events order everything po-before them. */
inline bool
ordersEarlier(const MemEvent& e)
{
    switch (e.kind) {
      case Kind::Store:
      case Kind::Rmw:
      case Kind::Cas:
      case Kind::Fence:
      case Kind::Barrier:
          return hasRelease(e.order);
      default:
          return false;
    }
    return false;
}

inline bool
isHeap(const MemEvent& e)
{
    return e.kind == Kind::Malloc || e.kind == Kind::Free;
}

/** Drains the CTA store buffer into M when executed. */
inline bool
isDrainer(const MemEvent& e)
{
    if (uint8_t(e.scope) < uint8_t(MemScope::Gpu))
        return false;
    switch (e.kind) {
      case Kind::Store:
      case Kind::Fence:
          return hasRelease(e.order);
      case Kind::Rmw:
      case Kind::Cas:
          return true; // flushes at least its own address
      default:
          return false;
    }
    return false;
}

inline bool
rangesOverlap(uint64_t a, uint64_t wa, uint64_t b, uint64_t wb)
{
    return a < b + wb && b < a + wa;
}

/** One buffered (not yet globally visible) store. */
struct Buffered
{
    uint64_t addr = 0;
    uint64_t val = 0;
    uint8_t width = 4;
};

/** Full exploration state, copied per DFS frame (litmus logs are tiny). */
struct State
{
    uint64_t executed = 0;                       ///< event bitmask
    std::map<uint64_t, uint64_t> mem;            ///< M (absent = 0)
    std::vector<std::map<uint64_t, uint64_t>> view; ///< per-CTA dirty view
    std::vector<std::vector<Buffered>> buf;      ///< per-CTA store buffer
    std::map<uint64_t, uint64_t> live;           ///< heap base -> size
    std::vector<std::pair<uint64_t, uint64_t>> freed; ///< base, size
    std::vector<uint64_t> watch_vals;
};

class Checker
{
  public:
    Checker(const std::vector<MemEvent>& log, const ModelCheckConfig& cfg)
        : log_(log), cfg_(cfg)
    {
    }

    ModelCheckReport run();

  private:
    // --- preprocessing -------------------------------------------------
    void buildAgents();
    void buildPpo();
    void buildWatch();
    void buildFlushUniverse();

    // --- operational model ---------------------------------------------
    uint64_t readView(State& st, uint32_t cta, uint64_t addr,
                      unsigned width) const;
    void writeM(State& st, uint64_t addr, uint64_t val,
                unsigned width) const;
    void drain(State& st, uint32_t cta) const;
    void flushAddr(State& st, uint32_t cta, uint64_t addr) const;
    void checkAccess(State& st, size_t e, bool is_write);
    void execEvent(State& st, size_t e);
    void applyFlush(State& st, uint64_t id) const;

    // --- exploration ----------------------------------------------------
    std::vector<uint64_t> enabled(const State& st) const;
    void apply(State& st, uint64_t id);
    bool dependent(uint64_t a, uint64_t b) const;
    void explore(const State& st, const std::vector<uint64_t>& sleep);

    // --- witness race pass ----------------------------------------------
    void racePass();

    void addFault(ModelCheckFault::Kind kind, uint64_t addr, size_t e);

    const std::vector<MemEvent>& log_;
    const ModelCheckConfig& cfg_;
    ModelCheckReport report_;

    size_t n_ = 0;
    std::vector<uint32_t> agent_;          ///< event -> dense agent idx
    std::vector<uint32_t> cta_;            ///< event -> dense cta idx
    size_t n_agents_ = 0, n_ctas_ = 0;
    std::vector<std::vector<size_t>> agent_evs_; ///< program order
    std::vector<uint64_t> pred_;           ///< ppo predecessor masks
    std::vector<int> watch_slot_;          ///< event -> outcome slot or -1
    size_t n_watch_ = 0;
    std::map<uint64_t, size_t> flush_idx_; ///< bufferable addr -> id slot
    std::set<std::tuple<int, uint64_t, uint64_t>> fault_keys_;
    std::set<std::tuple<uint64_t, uint64_t, uint64_t>> race_keys_;

    /** Transition ids: [0, kMaxModelEvents) execute event i;
     *  kMaxModelEvents + cta * |flush addrs| + a flush addr slot. */
    static constexpr uint64_t kFlushBase = kMaxModelEvents;
};

void
Checker::buildAgents()
{
    n_ = log_.size();
    agent_.resize(n_);
    cta_.resize(n_);
    std::map<uint32_t, uint32_t> agents, ctas;
    for (size_t i = 0; i < n_; ++i) {
        agent_[i] =
            agents.emplace(log_[i].gtid, uint32_t(agents.size())).first->second;
        cta_[i] =
            ctas.emplace(log_[i].block, uint32_t(ctas.size())).first->second;
    }
    n_agents_ = agents.size();
    n_ctas_ = ctas.size();
    agent_evs_.assign(n_agents_, {});
    for (size_t i = 0; i < n_; ++i)
        agent_evs_[agent_[i]].push_back(i);
    for (auto& evs : agent_evs_)
        std::stable_sort(evs.begin(), evs.end(), [&](size_t a, size_t b) {
            return log_[a].seq < log_[b].seq;
        });
}

void
Checker::buildPpo()
{
    pred_.assign(n_, 0);

    // Per-agent preserved program order.
    for (const auto& evs : agent_evs_) {
        for (size_t j = 1; j < evs.size(); ++j) {
            const MemEvent& ej = log_[evs[j]];
            for (size_t i = 0; i < j; ++i) {
                const MemEvent& ei = log_[evs[i]];
                bool edge = false;
                if (isHeap(ei) || isHeap(ej))
                    edge = true; // heap protocol events stay put
                else if (ordersLater(ei) || ordersEarlier(ej))
                    edge = true;
                else if (isAccess(ei) && isAccess(ej) &&
                         rangesOverlap(ei.addr, ei.width, ej.addr,
                                       ej.width))
                    edge = true; // per-location coherence
                if (edge)
                    pred_[evs[j]] |= bit(evs[i]);
            }
        }
    }

    // Barrier rendezvous: an event po-after its agent's k-th barrier
    // waits for *every* logging agent of the CTA to reach barrier k.
    // (Logged barrier events carry the warp leader's gtid, so "agent"
    // here means warp leader — exact for one-lane litmus warps.)
    std::map<std::pair<uint32_t, size_t>, uint64_t> round; // (cta,k)->mask
    std::vector<size_t> bars_before(n_, 0);
    for (const auto& evs : agent_evs_) {
        size_t k = 0;
        for (size_t e : evs) {
            bars_before[e] = k;
            if (log_[e].kind == Kind::Barrier)
                round[{cta_[e], k++}] |= bit(e);
        }
    }
    for (const auto& evs : agent_evs_)
        for (size_t e : evs)
            for (size_t k = 0; k < bars_before[e]; ++k)
                if (auto it = round.find({cta_[e], k}); it != round.end())
                    pred_[e] |= it->second & ~bit(e);
}

void
Checker::buildWatch()
{
    watch_slot_.assign(n_, -1);
    std::vector<size_t> picks = cfg_.watch;
    if (picks.empty()) {
        // Default: every atomic load, in (agent, program order) order.
        for (const auto& evs : agent_evs_)
            for (size_t e : evs)
                if (log_[e].kind == Kind::Load && log_[e].is_atomic)
                    picks.push_back(e);
    }
    for (size_t e : picks)
        if (e < n_ && watch_slot_[e] < 0)
            watch_slot_[e] = int(n_watch_++);
}

void
Checker::buildFlushUniverse()
{
    for (size_t i = 0; i < n_; ++i) {
        const MemEvent& e = log_[i];
        const bool bufferable =
            e.kind == Kind::Store ||
            ((e.kind == Kind::Rmw || e.kind == Kind::Cas) &&
             uint8_t(e.scope) < uint8_t(MemScope::Gpu));
        if (bufferable)
            flush_idx_.emplace(e.addr, flush_idx_.size());
    }
}

uint64_t
Checker::readView(State& st, uint32_t cta, uint64_t addr,
                  unsigned width) const
{
    const auto& view = st.view[cta];
    if (auto it = view.find(addr); it != view.end())
        return maskToWidth(it->second, width);
    if (auto it = st.mem.find(addr); it != st.mem.end())
        return maskToWidth(it->second, width);
    return 0;
}

void
Checker::writeM(State& st, uint64_t addr, uint64_t val,
                unsigned width) const
{
    st.mem[addr] = maskToWidth(val, width);
}

void
Checker::drain(State& st, uint32_t cta) const
{
    for (const Buffered& b : st.buf[cta])
        writeM(st, b.addr, b.val, b.width);
    st.buf[cta].clear();
}

void
Checker::flushAddr(State& st, uint32_t cta, uint64_t addr) const
{
    auto& buf = st.buf[cta];
    auto it = std::find_if(buf.begin(), buf.end(), [&](const Buffered& b) {
        return b.addr == addr;
    });
    if (it == buf.end())
        return;
    writeM(st, it->addr, it->val, it->width);
    buf.erase(it);
}

void
Checker::addFault(ModelCheckFault::Kind kind, uint64_t addr, size_t e)
{
    if (!fault_keys_.emplace(int(kind), log_[e].pc, addr).second)
        return;
    ModelCheckFault f;
    f.kind = kind;
    f.addr = addr;
    f.gtid = log_[e].gtid;
    f.pc = log_[e].pc;
    report_.faults.push_back(f);
}

/** Temporal check at event execution time: an access overlapping a
 *  range freed earlier *in this execution* is a use-after-free. */
void
Checker::checkAccess(State& st, size_t e, bool is_write)
{
    const MemEvent& ev = log_[e];
    for (const auto& [base, size] : st.freed)
        if (rangesOverlap(ev.addr, ev.width, base, size ? size : 1)) {
            addFault(is_write ? ModelCheckFault::Kind::UseAfterFreeStore
                              : ModelCheckFault::Kind::UseAfterFreeLoad,
                     ev.addr, e);
            return;
        }
}

void
Checker::execEvent(State& st, size_t e)
{
    const MemEvent& ev = log_[e];
    const uint32_t c = cta_[e];
    st.executed |= bit(e);
    const bool gpu_scope = uint8_t(ev.scope) >= uint8_t(MemScope::Gpu);

    switch (ev.kind) {
      case Kind::Load: {
          const uint64_t v = readView(st, c, ev.addr, ev.width);
          if (watch_slot_[e] >= 0)
              st.watch_vals[size_t(watch_slot_[e])] = v;
          checkAccess(st, e, false);
          break;
      }
      case Kind::Store: {
          if (gpu_scope && hasRelease(ev.order)) {
              drain(st, c);
              writeM(st, ev.addr, ev.value, ev.width);
              st.view[c][ev.addr] = maskToWidth(ev.value, ev.width);
          } else {
              st.view[c][ev.addr] = maskToWidth(ev.value, ev.width);
              st.buf[c].push_back(
                  {ev.addr, maskToWidth(ev.value, ev.width), ev.width});
          }
          checkAccess(st, e, true);
          break;
      }
      case Kind::Rmw:
      case Kind::Cas: {
          uint64_t old;
          if (gpu_scope) {
              // The device-level atomic acts on M; the agent's own
              // earlier stores to the location must land first (release
              // orderings drain the whole buffer).
              if (hasRelease(ev.order))
                  drain(st, c);
              else
                  flushAddr(st, c, ev.addr);
              auto it = st.mem.find(ev.addr);
              old = it == st.mem.end()
                        ? 0
                        : maskToWidth(it->second, ev.width);
              bool write = false;
              uint64_t next = old;
              if (ev.kind == Kind::Cas) {
                  write = old == maskToWidth(ev.value2, ev.width);
                  next = maskToWidth(ev.value, ev.width);
              } else if (ev.aop != AtomicOp::Ld) {
                  write = true;
                  next = applyAtomicRmw(ev.aop, old, ev.value, ev.width);
              }
              if (write) {
                  writeM(st, ev.addr, next, ev.width);
                  st.view[c][ev.addr] = maskToWidth(next, ev.width);
              }
          } else {
              // cta scope: atomic within the CTA view only; the update
              // drains to M like an ordinary buffered store.
              old = readView(st, c, ev.addr, ev.width);
              bool write = false;
              uint64_t next = old;
              if (ev.kind == Kind::Cas) {
                  write = old == maskToWidth(ev.value2, ev.width);
                  next = maskToWidth(ev.value, ev.width);
              } else if (ev.aop != AtomicOp::Ld) {
                  write = true;
                  next = applyAtomicRmw(ev.aop, old, ev.value, ev.width);
              }
              if (write) {
                  st.view[c][ev.addr] = next;
                  st.buf[c].push_back({ev.addr, next, ev.width});
              }
          }
          if (watch_slot_[e] >= 0)
              st.watch_vals[size_t(watch_slot_[e])] = old;
          checkAccess(st, e, writesMemory(ev));
          break;
      }
      case Kind::Fence:
          if (gpu_scope && hasRelease(ev.order))
              drain(st, c);
          break;
      case Kind::Barrier:
          break; // rendezvous + acq_rel ordering are static (ppo)
      case Kind::Malloc: {
          st.live[ev.addr] = ev.value;
          // Reuse of a freed range revalidates it.
          st.freed.erase(
              std::remove_if(st.freed.begin(), st.freed.end(),
                             [&](const std::pair<uint64_t, uint64_t>& r) {
                                 return rangesOverlap(ev.addr,
                                                      ev.value ? ev.value
                                                               : 1,
                                                      r.first,
                                                      r.second ? r.second
                                                               : 1);
                             }),
              st.freed.end());
          break;
      }
      case Kind::Free: {
          if (auto it = st.live.find(ev.addr); it != st.live.end()) {
              st.freed.emplace_back(ev.addr, it->second);
              st.live.erase(it);
          } else {
              bool was_freed = false;
              for (const auto& [base, size] : st.freed)
                  was_freed |= base == ev.addr;
              addFault(was_freed ? ModelCheckFault::Kind::DoubleFree
                                 : ModelCheckFault::Kind::InvalidFree,
                       ev.addr, e);
          }
          break;
      }
      case Kind::BarrierRelease:
      case Kind::BlockRetire:
          break; // MemEventLog never records them
    }
}

void
Checker::applyFlush(State& st, uint64_t id) const
{
    const uint64_t slot = id - kFlushBase;
    const uint32_t c = uint32_t(slot / flush_idx_.size());
    const size_t aidx = size_t(slot % flush_idx_.size());
    for (const auto& [addr, idx] : flush_idx_)
        if (idx == aidx) {
            flushAddr(st, c, addr);
            return;
        }
}

std::vector<uint64_t>
Checker::enabled(const State& st) const
{
    std::vector<uint64_t> t;
    for (size_t e = 0; e < n_; ++e)
        if (!(st.executed & bit(e)) && !(pred_[e] & ~st.executed))
            t.push_back(e);
    if (t.empty())
        return t; // all events done: residual flushes are unobservable
    for (uint32_t c = 0; c < n_ctas_; ++c) {
        uint64_t seen = 0; // flush transitions, deduped per address
        for (const Buffered& b : st.buf[c]) {
            const size_t aidx = flush_idx_.at(b.addr);
            if (seen & bit(aidx))
                continue;
            seen |= bit(aidx);
            t.push_back(kFlushBase + c * flush_idx_.size() + aidx);
        }
    }
    return t;
}

void
Checker::apply(State& st, uint64_t id)
{
    if (id < kFlushBase)
        execEvent(st, size_t(id));
    else
        applyFlush(st, id);
}

/**
 * Conservative dependence for sleep sets: may-commute only when clearly
 * touching disjoint state. Over-approximating dependence is always
 * sound (it just prunes less).
 */
bool
Checker::dependent(uint64_t a, uint64_t b) const
{
    const auto flush_cta = [&](uint64_t id) {
        return uint32_t((id - kFlushBase) / flush_idx_.size());
    };
    const auto flush_slot = [&](uint64_t id) {
        return size_t((id - kFlushBase) % flush_idx_.size());
    };

    if (a < kFlushBase && b < kFlushBase) {
        const MemEvent& ea = log_[a];
        const MemEvent& eb = log_[b];
        if (agent_[a] == agent_[b] || cta_[a] == cta_[b])
            return true;
        if (isHeap(ea) || isHeap(eb) || isDrainer(ea) || isDrainer(eb))
            return true;
        if (isAccess(ea) && isAccess(eb) &&
            rangesOverlap(ea.addr, ea.width, eb.addr, eb.width))
            return writesMemory(ea) || writesMemory(eb);
        return false;
    }
    if (a >= kFlushBase && b >= kFlushBase) {
        return flush_cta(a) == flush_cta(b) ||
               flush_slot(a) == flush_slot(b);
    }
    const uint64_t ev = a < kFlushBase ? a : b;
    const uint64_t fl = a < kFlushBase ? b : a;
    const MemEvent& e = log_[ev];
    if (cta_[ev] == flush_cta(fl) || isHeap(e) || isDrainer(e))
        return true;
    if (!isAccess(e))
        return false;
    // Conservative address match (flush width is dynamic; assume 8).
    for (const auto& [addr, idx] : flush_idx_)
        if (idx == flush_slot(fl))
            return rangesOverlap(e.addr, e.width, addr, 8);
    return false;
}

void
Checker::explore(const State& st, const std::vector<uint64_t>& sleep)
{
    if (report_.executions >= cfg_.max_executions) {
        report_.hit_bound = true;
        return;
    }
    const std::vector<uint64_t> trans = enabled(st);
    if (trans.empty()) {
        ++report_.executions;
        report_.outcomes.insert(st.watch_vals);
        return;
    }
    std::vector<uint64_t> done;
    for (uint64_t t : trans) {
        if (std::find(sleep.begin(), sleep.end(), t) != sleep.end()) {
            ++report_.pruned;
            continue;
        }
        State child = st;
        apply(child, t);
        std::vector<uint64_t> child_sleep;
        for (uint64_t s : sleep)
            if (!dependent(s, t))
                child_sleep.push_back(s);
        for (uint64_t s : done)
            if (!dependent(s, t))
                child_sleep.push_back(s);
        explore(child, child_sleep);
        done.push_back(t);
        if (report_.hit_bound)
            return;
    }
}

/**
 * Witness-order happens-before pass: conflicting access pairs that are
 * neither ordered (program order, release->acquire reads-from chains,
 * barrier epochs, warp lockstep) nor both atomic at sufficient scope.
 */
void
Checker::racePass()
{
    // Successor masks over po and (position-approximated) sw edges.
    std::vector<uint64_t> succ(n_, 0);
    for (const auto& evs : agent_evs_)
        for (size_t j = 1; j < evs.size(); ++j)
            succ[evs[j - 1]] |= bit(evs[j]);

    std::map<uint64_t, size_t> last_write; // addr -> log idx of last write
    for (size_t i = 0; i < n_; ++i) {
        const MemEvent& e = log_[i];
        if (!isAccess(e))
            continue;
        if (readsMemory(e) && e.is_atomic && hasAcquire(e.order)) {
            if (auto it = last_write.find(e.addr); it != last_write.end()) {
                const MemEvent& w = log_[it->second];
                // A release->acquire pair synchronizes only when both
                // sides' scope covers the distance between the threads.
                const MemScope need = w.block == e.block ? MemScope::Cta
                                                         : MemScope::Gpu;
                if (w.is_atomic && hasRelease(w.order) &&
                    uint8_t(w.scope) >= uint8_t(need) &&
                    uint8_t(e.scope) >= uint8_t(need))
                    succ[it->second] |= bit(i); // synchronizes-with
            }
        }
        if (writesMemory(e))
            last_write[e.addr] = i;
    }

    std::vector<uint64_t> reach(n_);
    for (size_t i = 0; i < n_; ++i)
        reach[i] = succ[i] | bit(i);
    for (bool changed = true; changed;) {
        changed = false;
        for (size_t i = 0; i < n_; ++i) {
            uint64_t r = reach[i];
            uint64_t m = succ[i];
            while (m) {
                const unsigned j = unsigned(__builtin_ctzll(m));
                m &= m - 1;
                r |= reach[j];
            }
            if (r != reach[i]) {
                reach[i] = r;
                changed = true;
            }
        }
    }

    // Barrier epoch (count of own-agent barriers before the event).
    std::vector<size_t> epoch(n_, 0);
    for (const auto& evs : agent_evs_) {
        size_t k = 0;
        for (size_t e : evs) {
            epoch[e] = k;
            if (log_[e].kind == Kind::Barrier)
                ++k;
        }
    }

    for (size_t i = 0; i < n_; ++i) {
        const MemEvent& a = log_[i];
        if (!isAccess(a))
            continue;
        for (size_t j = i + 1; j < n_; ++j) {
            const MemEvent& b = log_[j];
            if (!isAccess(b) || a.gtid == b.gtid)
                continue;
            if (!rangesOverlap(a.addr, a.width, b.addr, b.width))
                continue;
            if (!writesMemory(a) && !writesMemory(b))
                continue;
            if (reach[i] & bit(j))
                continue; // happens-before ordered
            const bool same_block = a.block == b.block;
            if (same_block &&
                (a.warp == b.warp || epoch[i] != epoch[j]))
                continue; // lockstep or barrier-separated
            const MemScope need =
                same_block ? MemScope::Cta : MemScope::Gpu;
            const bool synced =
                a.is_atomic && b.is_atomic &&
                uint8_t(a.scope) >= uint8_t(need) &&
                uint8_t(b.scope) >= uint8_t(need);
            if (synced)
                continue;
            const uint64_t lo = std::min(a.pc, b.pc);
            const uint64_t hi = std::max(a.pc, b.pc);
            if (!race_keys_.emplace(lo, hi, a.addr).second)
                continue;
            ModelCheckRace r;
            r.addr = a.addr;
            r.gtid_a = a.gtid;
            r.gtid_b = b.gtid;
            r.pc_a = a.pc;
            r.pc_b = b.pc;
            r.scope_mismatch = a.is_atomic && b.is_atomic;
            report_.races.push_back(r);
        }
    }
}

ModelCheckReport
Checker::run()
{
    report_.events = log_.size();
    if (log_.size() > kMaxModelEvents)
        return report_; // rejected: frontiers are 64-bit masks

    buildAgents();
    report_.agents = n_agents_;
    buildPpo();
    buildWatch();
    buildFlushUniverse();
    racePass();

    State init;
    init.view.resize(n_ctas_);
    init.buf.resize(n_ctas_);
    init.watch_vals.assign(n_watch_, 0);
    explore(init, {});
    return report_;
}

} // namespace

ModelCheckReport
modelCheck(const std::vector<MemEvent>& log, const ModelCheckConfig& config)
{
    return Checker(log, config).run();
}

} // namespace lmi::analysis
