/**
 * @file
 * Functional backing store: a sparse, page-granular byte memory.
 *
 * Pages materialize zero-filled on first touch, so the 8 GB global
 * space costs only what kernels touch. The page size is a template
 * parameter:
 *
 *  - SparseMemory (4 KiB pages) backs global memory (one instance per
 *    device, plus the parallel engine's page overlays and stamps built
 *    on its page size) and per-block shared memory;
 *  - LocalMemory (128 B pages, one L1 line) backs per-thread local
 *    memory. A launch has one instance per resident thread and a thread
 *    touches only a few dozen bytes of stack, so a 4 KiB page per
 *    thread would spend ~250 MB and its zero-fill on a 61,440-thread
 *    grid; a line-sized page costs a few hundred bytes per thread.
 *
 * The byte image, and so every simulated result, does not depend on the
 * page size; only digest() and pageCount() are page-granular, and
 * neither is taken over local memory.
 *
 * A one-entry last-page cache short-circuits the page map for the common
 * case of consecutive accesses landing on the same page (coalesced warp
 * accesses, streaming loops). Page storage is heap-allocated behind
 * unique_ptr, so the cached pointer stays valid across map rehashes;
 * only reset() invalidates it.
 */

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

namespace lmi {

/**
 * Sparse byte-addressable memory with @p PageBytes-byte pages. Mutation
 * is single-threaded; while no writer is active, concurrent readers
 * must go through the const peekPage() path (read()/findPage() mutate
 * the one-entry page cache).
 */
template <uint64_t PageBytes>
class BasicSparseMemory
{
  public:
    static constexpr uint64_t kPageBytes = PageBytes;

    /** Read @p n bytes (n <= 8) little-endian into a value. */
    uint64_t
    read(uint64_t addr, unsigned n)
    {
        const uint64_t off = addr % kPageBytes;
        if (off + n <= kPageBytes) {
            // Reads must not materialize pages (footprint stats count
            // touched pages): probe without inserting.
            const uint8_t* p = findPage(addr / kPageBytes);
            if (!p)
                return 0;
            uint64_t v = 0;
            std::memcpy(&v, p + off, n);
            return v;
        }
        uint64_t v = 0;
        readBytes(addr, reinterpret_cast<uint8_t*>(&v), n);
        return v;
    }

    /** Write the low @p n bytes of @p value. */
    void
    write(uint64_t addr, uint64_t value, unsigned n)
    {
        const uint64_t off = addr % kPageBytes;
        if (off + n <= kPageBytes) {
            std::memcpy(page(addr / kPageBytes) + off, &value, n);
            return;
        }
        writeBytes(addr, reinterpret_cast<const uint8_t*>(&value), n);
    }

    void
    readBytes(uint64_t addr, uint8_t* out, uint64_t n)
    {
        while (n > 0) {
            const uint64_t off = addr % kPageBytes;
            const uint64_t chunk = std::min(n, kPageBytes - off);
            const uint8_t* p = findPage(addr / kPageBytes);
            if (!p)
                std::memset(out, 0, chunk);
            else
                std::memcpy(out, p + off, chunk);
            addr += chunk;
            out += chunk;
            n -= chunk;
        }
    }

    void
    writeBytes(uint64_t addr, const uint8_t* in, uint64_t n)
    {
        while (n > 0) {
            const uint64_t off = addr % kPageBytes;
            const uint64_t chunk = std::min(n, kPageBytes - off);
            std::memcpy(page(addr / kPageBytes) + off, in, chunk);
            addr += chunk;
            in += chunk;
            n -= chunk;
        }
    }

    /**
     * Const page lookup: no materialization and, unlike findPage(), no
     * one-entry-cache update, so concurrent readers may call it while no
     * writer is active (the parallel simulator's per-SM views read the
     * frozen base image through this during a slice). nullptr if the
     * page was never written.
     */
    const uint8_t*
    peekPage(uint64_t idx) const
    {
        auto it = pages_.find(idx);
        return it == pages_.end() ? nullptr : it->second->data();
    }

    /** Number of materialized pages (for footprint stats). */
    size_t pageCount() const { return pages_.size(); }

    /**
     * Order-independent FNV-1a digest over (page index, contents) in
     * sorted page order. Two memories with identical byte images have
     * identical digests regardless of materialization order; the
     * byte-identity tests compare these across sim_threads settings.
     */
    uint64_t
    digest() const
    {
        std::vector<uint64_t> idx;
        idx.reserve(pages_.size());
        for (const auto& [i, p] : pages_)
            idx.push_back(i);
        std::sort(idx.begin(), idx.end());
        uint64_t h = 1469598103934665603ull;
        auto mix = [&h](const uint8_t* p, size_t n) {
            for (size_t i = 0; i < n; ++i) {
                h ^= p[i];
                h *= 1099511628211ull;
            }
        };
        for (uint64_t i : idx) {
            mix(reinterpret_cast<const uint8_t*>(&i), sizeof(i));
            mix(pages_.at(i)->data(), kPageBytes);
        }
        return h;
    }

    /** Drop all contents: subsequent reads see zeros again. */
    void
    reset()
    {
        pages_.clear();
        cached_idx_ = kNoPage;
        cached_page_ = nullptr;
    }

  private:
    using Page = std::array<uint8_t, kPageBytes>;

    static constexpr uint64_t kNoPage = ~uint64_t(0);

    /** Look up a page without materializing it; nullptr if untouched. */
    const uint8_t*
    findPage(uint64_t idx)
    {
        if (idx == cached_idx_ && cached_page_)
            return cached_page_;
        auto it = pages_.find(idx);
        if (it == pages_.end())
            return nullptr;
        cached_idx_ = idx;
        cached_page_ = it->second->data();
        return cached_page_;
    }

    /** Look up a page, materializing it zero-filled on first touch. */
    uint8_t*
    page(uint64_t idx)
    {
        if (idx == cached_idx_ && cached_page_)
            return cached_page_;
        auto& p = pages_[idx];
        if (!p) {
            p = std::make_unique<Page>();
            p->fill(0);
        }
        cached_idx_ = idx;
        cached_page_ = p->data();
        return cached_page_;
    }

    std::unordered_map<uint64_t, std::unique_ptr<Page>> pages_;
    /** One-entry cache of the last page touched (index, storage). */
    uint64_t cached_idx_ = kNoPage;
    uint8_t* cached_page_ = nullptr;
};

/** Global and shared memory: 4 KiB pages. */
using SparseMemory = BasicSparseMemory<4096>;

/** Per-thread local memory: one 128-byte L1 line per page. */
using LocalMemory = BasicSparseMemory<128>;

} // namespace lmi
