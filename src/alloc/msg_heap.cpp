#include "alloc/msg_heap.hpp"

#include <algorithm>
#include <string>

#include "arch/mem_map.hpp"
#include "common/bitutil.hpp"
#include "common/logging.hpp"

namespace lmi {

namespace {

// The exported stat surface (sweep-JSON `counters`). Each role keeps
// the names and counting points its runtime always had: the host
// counts successful allocations and their bytes, the device heap
// counts malloc attempts, buffer groups, and quarantined frees as
// frees.
const std::string kHostAllocs = "alloc.global.allocs";
const std::string kHostFrees = "alloc.global.frees";
const std::string kHostReserved = "alloc.global.reserved_bytes";
const std::string kHostRequested = "alloc.global.requested_bytes";
const std::string kHostQuarantined = "alloc.global.quarantined_bytes";
const std::string kHeapMallocs = "alloc.heap.mallocs";
const std::string kHeapFrees = "alloc.heap.frees";
const std::string kHeapGroups = "alloc.heap.groups";

/** Warp shards per context: threads of different warps fill different
 *  buffer groups, like the real runtime's parallel allocation. */
constexpr unsigned kShardsPerCtx = 4;

} // namespace

MessageHeap::MessageHeap(Config config, StatRegistry* stats)
    : config_(config), stats_(stats)
{
    if (config_.region_size == 0) {
        const bool host = config_.role == HeapRole::Host;
        config_.region_base = host ? kGlobalBase : kHeapBase;
        config_.region_size = host ? kGlobalSize - kHeapSize : kHeapSize;
    }
    range_ = RangeAllocator(config_.region_base, config_.region_size);
    if (config_.contexts == 0)
        config_.contexts = 1;
    ctx_.resize(config_.contexts);
    for (CtxState& cs : ctx_)
        cs.groups.resize(size_t(kShardsPerCtx) * 2);
}

void
MessageHeap::count(const std::string& name, uint64_t delta)
{
    if (stats_)
        stats_->inc(name, delta);
}

MessageHeap::Shape
MessageHeap::shapeFor(uint64_t size)
{
    Shape s;
    if (config_.policy == AllocPolicy::Pow2Aligned) {
        s.reserved = kDefaultCodec.alignedSize(size);
        if (s.reserved == 0)
            return s;
        s.align = s.reserved;
        s.cls = s.reserved <= kMaxSlabBlock ? classes_.classFor(s.reserved)
                                            : kHugeClass;
        return s;
    }
    if (chunked()) {
        s.chunk = chunkUnitFor(size);
        s.chunks = unsigned((size + s.chunk - 1) / s.chunk);
        // Group storage and oversized blocks place at the device
        // heap's 16-byte backing alignment.
        s.align = 16;
        if (s.chunks > kChunksPerGroup) {
            // Oversized request: dedicated placement (paper Fig. 5).
            s.reserved = alignUp(size, s.chunk);
            s.cls = kHugeClass;
        } else {
            s.reserved = uint64_t(s.chunks) * s.chunk;
            s.cls = classes_.classFor(s.reserved);
        }
        return s;
    }
    // cudaMalloc's documented 256-byte minimum alignment.
    s.align = 256;
    s.reserved = alignUp(std::max<uint64_t>(size, 1), s.align);
    s.cls = s.reserved <= kMaxSlabBlock ? classes_.classFor(s.reserved)
                                        : kHugeClass;
    return s;
}

uint64_t
MessageHeap::carveRange(uint64_t bytes, uint64_t align)
{
    const uint64_t base = range_.alloc(bytes, align);
    if (base != 0) {
        footprint_ += bytes;
        peak_footprint_ = std::max(peak_footprint_, footprint_);
    }
    return base;
}

uint64_t
MessageHeap::carveFromGroup(uint32_t ctx, uint32_t tid, const Shape& s)
{
    CtxState& cs = ctx_[ctx];
    const unsigned shard = (tid / 32) % kShardsPerCtx;
    const size_t key = size_t(shard) * 2 + (s.chunk == kLargeChunk ? 1 : 0);
    auto& glist = cs.groups[key];

    // Bump from the first open group with room; retire full groups.
    for (size_t i = 0; i < glist.size();) {
        OpenGroup& g = glist[i];
        if (g.cursor >= kChunksPerGroup) {
            glist[i] = glist.back();
            glist.pop_back();
            continue;
        }
        if (g.cursor + s.chunks <= kChunksPerGroup) {
            const uint64_t base = g.base + uint64_t(g.cursor) * g.chunk;
            g.cursor += s.chunks;
            return base;
        }
        ++i;
    }

    // Open a new group: header + chunk storage from the range layer.
    const uint64_t raw =
        carveRange(kGroupHeader + uint64_t(kChunksPerGroup) * s.chunk,
                   s.align);
    if (raw == 0)
        return 0;
    ++group_count_;
    count(kHeapGroups);

    OpenGroup g;
    g.base = raw + kGroupHeader;
    g.chunk = s.chunk;
    g.cursor = s.chunks;
    glist.push_back(g);
    return g.base;
}

uint64_t
MessageHeap::carveFromSlab(uint32_t ctx, const Shape& s)
{
    CtxState& cs = ctx_[ctx];
    if (cs.open.size() <= s.cls)
        cs.open.resize(s.cls + 1);
    OpenSlab& sl = cs.open[s.cls];
    if (sl.cursor + s.reserved <= sl.end) {
        const uint64_t base = sl.cursor;
        sl.cursor += s.reserved;
        return base;
    }

    const uint64_t blocks = std::max<uint64_t>(kSlabBytes / s.reserved, 2);
    const uint64_t slab = carveRange(blocks * s.reserved, s.align);
    if (slab == 0) {
        // Region too tight for a whole slab: squeeze out one block.
        return carveRange(s.reserved, s.align);
    }
    ++slab_count_;
    sl.cursor = slab + s.reserved;
    sl.end = slab + blocks * s.reserved;
    return slab;
}

uint64_t
MessageHeap::acquire(uint32_t ctx, uint32_t tid, const Shape& s)
{
    if (s.cls == kHugeClass)
        return carveRange(s.reserved, s.align);

    CtxState& cs = ctx_[ctx];
    if (s.cls < cs.cache.size() && !cs.cache[s.cls].empty()) {
        const uint64_t base = cs.cache[s.cls].back();
        cs.cache[s.cls].pop_back();
        --cached_blocks_;
        return base;
    }
    if (s.cls < central_.size() && !central_[s.cls].empty()) {
        const uint64_t base = central_[s.cls].back();
        central_[s.cls].pop_back();
        --cached_blocks_;
        return base;
    }
    return chunked() ? carveFromGroup(ctx, tid, s) : carveFromSlab(ctx, s);
}

void
MessageHeap::mintExtent(uint64_t base, const Shape& s, uint32_t ctx,
                        uint64_t requested)
{
    const uint64_t end = base + s.reserved;

    // Clear retired records overlapping the new range. Overlap happens
    // when chunked runs of different lengths recycle group space or the
    // range layer re-carves coalesced huge space; a live overlap would
    // be an allocator bug.
    auto it = extents_.lower_bound(base);
    if (it != extents_.begin()) {
        auto prev = std::prev(it);
        Extent& p = prev->second;
        const uint64_t p_end = p.base + p.reserved;
        if (p_end > base) {
            if (p.live)
                lmi_panic("live extent 0x%llx overlaps new block 0x%llx",
                          static_cast<unsigned long long>(p.base),
                          static_cast<unsigned long long>(base));
            // Trim the retired record's tail; keep a dead remainder on
            // the right if it extended past the new block.
            p.reserved = base - p.base;
            p.requested = std::min(p.requested, p.reserved);
            if (p_end > end) {
                Extent tail = p;
                tail.base = end;
                tail.reserved = p_end - end;
                tail.requested = std::min(tail.requested, tail.reserved);
                extents_.emplace(end, tail);
            }
        }
    }
    Extent* reuse = nullptr;
    while (it != extents_.end() && it->first < end) {
        Extent& e = it->second;
        if (e.live)
            lmi_panic("live extent 0x%llx overlaps new block 0x%llx",
                      static_cast<unsigned long long>(e.base),
                      static_cast<unsigned long long>(base));
        const uint64_t e_end = e.base + e.reserved;
        if (e.base == base && e_end <= end) {
            // Exact-base record: reuse the node in place (epoch bump).
            reuse = &e;
            ++it;
            continue;
        }
        if (e_end > end) {
            // Dead record sticking out to the right: rebase past us.
            Extent tail = e;
            tail.base = end;
            tail.reserved = e_end - end;
            tail.requested = std::min(tail.requested, tail.reserved);
            it = extents_.erase(it);
            it = extents_.emplace_hint(it, end, tail);
            break;
        }
        it = extents_.erase(it);
    }

    Extent* rec;
    if (reuse != nullptr) {
        ++reuse->epoch;
        rec = reuse;
    } else {
        rec = &extents_[base];
        rec->base = base;
        rec->epoch = 0;
    }
    rec->requested = requested;
    rec->reserved = s.reserved;
    rec->live = true;
    rec->id = next_id_++;
    rec->owner = ctx;
    rec->cls = s.cls;
}

uint64_t
MessageHeap::alloc(uint32_t ctx, uint32_t tid, uint64_t size)
{
    if (size == 0)
        return 0;
    if (ctx >= config_.contexts)
        ctx %= config_.contexts;
    const bool host = config_.role == HeapRole::Host;
    if (!host)
        count(kHeapMallocs);

    const Shape s = shapeFor(size);
    if (s.reserved == 0) {
        lmi_warn("allocation of %llu bytes exceeds the representable size",
                 static_cast<unsigned long long>(size));
        return 0;
    }

    uint64_t base = acquire(ctx, tid, s);
    if (base == 0) {
        // Reclaim pending remote frees (canonical order) and retry
        // before reporting exhaustion.
        drainRemote();
        base = acquire(ctx, tid, s);
        if (base == 0)
            return 0;
    }

    mintExtent(base, s, ctx, size);
    live_reserved_ += s.reserved;
    live_requested_ += size;
    peak_reserved_ = std::max(peak_reserved_, live_reserved_);
    if (host) {
        count(kHostAllocs);
        count(kHostReserved, s.reserved);
        count(kHostRequested, size);
    }
    return encodes() ? kDefaultCodec.encode(base, size) : base;
}

void
MessageHeap::pushLocal(uint32_t ctx, uint32_t cls, uint64_t base)
{
    CtxState& cs = ctx_[ctx];
    if (cs.cache.size() <= cls)
        cs.cache.resize(cls + 1);
    auto& cache = cs.cache[cls];
    cache.push_back(base);
    ++cached_blocks_;
    if (cache.size() > kCacheCap) {
        // Spill the cold half to the central freelist, keep recency.
        if (central_.size() <= cls)
            central_.resize(cls + 1);
        central_[cls].insert(central_[cls].end(), cache.begin(),
                             cache.begin() + kCacheCap / 2);
        cache.erase(cache.begin(), cache.begin() + kCacheCap / 2);
    }
}

MaybeFault
MessageHeap::free(uint32_t ctx, uint64_t ptr)
{
    if (ctx >= config_.contexts)
        ctx %= config_.contexts;
    const bool host = config_.role == HeapRole::Host;
    // The runtime requires the pointer to be the exact block base; for
    // LMI pointers the base is recoverable from the extent.
    const uint64_t base = encodes() && PointerCodec::isValid(ptr)
                              ? kDefaultCodec.baseOf(ptr)
                              : PointerCodec::addressOf(ptr);

    auto it = extents_.find(base);
    if (it == extents_.end()) {
        return Fault{FaultKind::InvalidFree, base,
                     host ? "cudaFree of pointer not returned by cudaMalloc"
                          : "device free of pointer not returned by malloc"};
    }
    Extent& e = it->second;
    if (!e.live) {
        return Fault{FaultKind::DoubleFree, base,
                     host ? "cudaFree of already-freed pointer"
                          : "device free of already-freed pointer"};
    }

    e.live = false;
    live_reserved_ -= e.reserved;
    live_requested_ -= e.requested;

    if (config_.quarantine_frees) {
        // One-time allocation: the address range stays retired.
        if (host)
            count(kHostQuarantined, e.reserved);
        else
            count(kHeapFrees);
        return std::nullopt;
    }

    if (e.cls == kHugeClass) {
        // Huge blocks coalesce straight back into the range layer; the
        // record is dropped, so a later stale free lands as InvalidFree.
        range_.free(e.base, e.reserved);
        footprint_ -= e.reserved;
        extents_.erase(it);
    } else if (e.owner == ctx) {
        pushLocal(ctx, e.cls, e.base);
    } else {
        // Foreign free: the range stays unusable until the owner's
        // next drain, exactly as if it were still in flight.
        CtxState& from = ctx_[ctx];
        ctx_[e.owner].pending.push_back(
            RemoteMsg{e.base, e.cls, ctx, from.next_seq++});
        ++remote_stats_.posted;
    }

    count(host ? kHostFrees : kHeapFrees);
    return std::nullopt;
}

void
MessageHeap::drainRemote()
{
    // O(1) when nothing is pending — the simulator calls this every
    // slice, and most slices free nothing across SMs.
    if (remotePending() == 0)
        return;
    ++remote_stats_.drain_calls;
    for (uint32_t to = 0; to < config_.contexts; ++to) {
        std::vector<RemoteMsg>& msgs = ctx_[to].pending;
        if (msgs.empty())
            continue;
        // Canonical (from, seq) replay keeps freelist order — and thus
        // every later placement decision — independent of which SM
        // issued its free first.
        std::sort(msgs.begin(), msgs.end(),
                  [](const RemoteMsg& a, const RemoteMsg& b) {
                      return a.from != b.from ? a.from < b.from
                                              : a.seq < b.seq;
                  });
        for (const RemoteMsg& m : msgs)
            pushLocal(to, m.cls, m.base);
        remote_stats_.drained += msgs.size();
        msgs.clear();
    }
}

const MessageHeap::Extent*
MessageHeap::findLive(uint64_t addr) const
{
    auto it = extents_.upper_bound(addr);
    if (it == extents_.begin())
        return nullptr;
    --it;
    const Extent& e = it->second;
    if (e.live && addr < e.base + e.reserved)
        return &e;
    return nullptr;
}

const MessageHeap::Extent*
MessageHeap::findAny(uint64_t addr) const
{
    auto it = extents_.upper_bound(addr);
    if (it == extents_.begin())
        return nullptr;
    --it;
    const Extent& e = it->second;
    if (addr < e.base + e.reserved)
        return &e;
    return nullptr;
}

const MessageHeap::Extent*
MessageHeap::extentAt(uint64_t base) const
{
    auto it = extents_.find(base);
    return it == extents_.end() ? nullptr : &it->second;
}

} // namespace lmi
