/**
 * @file
 * Flat shadow memory for cross-iteration write tracking.
 *
 * The conflict tracker needs, per live loop instance, "who last wrote
 * this 8-byte granule and when".  A hash map probed on every load and
 * store dominates tracking cost (Salamanca & Baldassin observe the
 * same for software-TLS shadow state), so ShadowWriteMap keeps the
 * common case flat: the simulated address space has exactly three
 * dense segments (globals, heap, stack — see interp/memory.hpp), and
 * each gets a direct-mapped page table of fixed 512-granule pages
 * (4 KiB of simulated address space, ~12 KiB of host memory per page).
 * A granule resolves to its entry with two shifts and two bounds
 * checks — no hashing, no probing.
 *
 * Each map also caches the page it resolved last, by page number
 * (granule >> kPageBits).  Segment bases are page-aligned, so a page
 * number names one page, and an access on the cached page skips the
 * segment and table walk.  Pages never move and stay mapped across
 * reset(), so the cache survives the pooled reuse of a map.
 *
 * Instance reset is epoch-tagged: every entry stamps the epoch it was
 * written in, and reset() just moves the map to a fresh epoch,
 * invalidating all entries at once — O(1), keeping pages warm for the
 * next instance of the same loop.  Maps are pooled by the tracker so
 * one allocation services many instances.
 *
 * Epochs are drawn from one process-wide counter, never reused, so a
 * page can migrate between maps without being re-zeroed: entries
 * stamped under any other map's epoch simply never match.  That lets
 * destroyed maps return their pages to a per-thread free list
 * (recycled page-for-page on the worker that freed them) instead of
 * round-tripping 12 KiB blocks through the process allocator once per
 * loop per cell — one of the serialization points behind the flat
 * multicore sweep scaling this file's pooling exists to fix.
 *
 * A granule outside the three segments is a wild access: the
 * interpreter delivers the event and then traps on the access itself,
 * failing the run, so such a granule is neither recorded nor found.
 */

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "interp/memory.hpp"

namespace lp::rt {

/** Last cross-iteration write to one 8-byte granule. */
struct WriteRec
{
    std::uint64_t iter;   ///< iteration index of the writer
    std::uint64_t offset; ///< writer's offset within its iteration
};

/** Per-loop-instance granule -> last-write map (see @file). */
class ShadowWriteMap
{
  public:
    ShadowWriteMap() = default;

    ~ShadowWriteMap()
    {
        for (Segment &s : segs_)
            for (auto &p : s.pages)
                if (p)
                    recyclePage(std::move(p));
    }

    ShadowWriteMap(const ShadowWriteMap &) = delete;
    ShadowWriteMap &operator=(const ShadowWriteMap &) = delete;

    /** Invalidate every entry (O(1): fresh epoch); pages stay mapped. */
    void
    reset()
    {
        epoch_ = nextEpoch();
    }

    /** The current-instance write to @p granule, or null (always for a
     *  wild granule). */
    const WriteRec *
    lookup(std::uint64_t granule)
    {
        const Page *p = pageFor(granule, /*map=*/false);
        if (!p)
            return nullptr;
        const Entry &e = p->at[granule & (kPageGranules - 1)];
        return e.epoch == epoch_ ? &e.rec : nullptr;
    }

    /** Record a write to @p granule in the current instance (none for a
     *  wild granule: its store traps). */
    void
    record(std::uint64_t granule, std::uint64_t iter, std::uint64_t offset)
    {
        Page *p = pageFor(granule, /*map=*/true);
        if (!p) [[unlikely]]
            return;
        Entry &e = p->at[granule & (kPageGranules - 1)];
        e.rec = {iter, offset};
        e.epoch = epoch_;
    }

    static constexpr unsigned kPageBits = 9;
    static constexpr std::uint64_t kPageGranules = 1ULL << kPageBits;

    /// Pages cached per worker thread (~6 MiB at the 12 KiB page size).
    static constexpr std::size_t kMaxPooledPages = 512;

  private:
    struct Entry
    {
        WriteRec rec;
        std::uint64_t epoch; ///< 0 in fresh pages = never valid
    };

    struct Page
    {
        std::array<Entry, kPageGranules> at{}; ///< value-init: epoch 0
    };

    /// Process-wide epoch source; epochs are unique for the lifetime
    /// of the process, which is what makes page recycling sound.
    static std::uint64_t
    nextEpoch()
    {
        static std::atomic<std::uint64_t> counter{0};
        return counter.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    static std::vector<std::unique_ptr<Page>> &
    pagePool()
    {
        thread_local std::vector<std::unique_ptr<Page>> pool;
        return pool;
    }

    static std::unique_ptr<Page>
    acquirePage()
    {
        auto &pool = pagePool();
        if (pool.empty())
            return std::make_unique<Page>();
        std::unique_ptr<Page> p = std::move(pool.back());
        pool.pop_back();
        return p; // stale entries carry dead epochs: never valid here
    }

    static void
    recyclePage(std::unique_ptr<Page> p)
    {
        auto &pool = pagePool();
        if (pool.size() < kMaxPooledPages)
            pool.push_back(std::move(p));
    }

    /** One dense address band, [base, end) in granules. */
    struct Segment
    {
        std::uint64_t base;
        std::uint64_t end;
        std::vector<std::unique_ptr<Page>> pages; ///< grown as touched
    };

    Segment *
    segmentFor(std::uint64_t granule)
    {
        // Stack first: loop-carried traffic is most often stack/heap.
        if (granule >= segs_[2].base)
            return granule < segs_[2].end ? &segs_[2] : nullptr;
        if (granule >= segs_[1].base)
            return &segs_[1]; // heap band ends where the stack begins
        if (granule >= segs_[0].base)
            return &segs_[0]; // global band ends where the heap begins
        return nullptr;
    }

    /**
     * The page holding @p granule: the cached one, else resolved
     * through its segment's table (mapped first when @p map) and
     * cached.  Null for a wild granule, and for an unmapped page unless
     * @p map.
     */
    Page *
    pageFor(std::uint64_t granule, bool map)
    {
        if (granule >> kPageBits == cachedPageNo_) [[likely]]
            return cachedPage_;
        return resolvePage(granule, map);
    }

    /** pageFor() off the cached page: kept out of line, so the cached
     *  path inlines into every lookup and record. */
    [[gnu::noinline]] Page *
    resolvePage(std::uint64_t granule, bool map)
    {
        Segment *seg = segmentFor(granule);
        if (!seg) [[unlikely]]
            return nullptr;
        const std::size_t idx =
            static_cast<std::size_t>(granule - seg->base) >> kPageBits;
        if (idx >= seg->pages.size()) {
            if (!map)
                return nullptr;
            seg->pages.resize(idx + 1);
        }
        std::unique_ptr<Page> &page = seg->pages[idx];
        if (!page) {
            if (!map)
                return nullptr;
            page = acquirePage();
        }
        cachedPageNo_ = granule >> kPageBits;
        cachedPage_ = page.get();
        return cachedPage_;
    }

    static_assert((interp::Memory::kGlobalBase >> 3) % kPageGranules == 0 &&
                      (interp::Memory::kHeapBase >> 3) % kPageGranules == 0 &&
                      (interp::Memory::kStackBase >> 3) % kPageGranules == 0,
                  "segment bases are page-aligned: a page number names one "
                  "page");
    Segment segs_[3] = {
        {interp::Memory::kGlobalBase >> 3, interp::Memory::kHeapBase >> 3,
         {}},
        {interp::Memory::kHeapBase >> 3, interp::Memory::kStackBase >> 3,
         {}},
        {interp::Memory::kStackBase >> 3, interp::Memory::kStackLimit >> 3,
         {}},
    };
    std::uint64_t epoch_ = nextEpoch(); ///< unique; above fresh-page 0
    /** The page pageFor() resolved last, by its page number (granule >>
     *  kPageBits; none matches ~0). */
    std::uint64_t cachedPageNo_ = ~std::uint64_t{0};
    Page *cachedPage_ = nullptr;
};

} // namespace lp::rt
