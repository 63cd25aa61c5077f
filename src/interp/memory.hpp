/**
 * @file
 * Simulated flat memory for the IR interpreter.
 *
 * Three disjoint segments — globals, heap, stack — at fixed virtual bases.
 * All program data is 8 bytes wide; the runtime's conflict tracker works
 * on 8-byte granules of the same address space, so the addresses reported
 * by load/store events are directly comparable across iterations.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace lp::interp {

/** Segmented simulated address space. */
class Memory
{
  public:
    static constexpr std::uint64_t kGlobalBase = 0x0000'1000;
    static constexpr std::uint64_t kHeapBase   = 0x1000'0000;
    static constexpr std::uint64_t kStackBase  = 0x8000'0000;
    static constexpr std::uint64_t kStackLimit = 0x9000'0000;

    /// Segment buffers come from the per-thread pool (support/arena.hpp)
    /// so cell-after-cell construction reuses warm capacity instead of
    /// contending on the process allocator from every sweep worker.
    Memory();
    ~Memory();

    Memory(const Memory &) = delete;
    Memory &operator=(const Memory &) = delete;

    /** Reserve @p size bytes of zeroed global space; returns the address. */
    std::uint64_t allocGlobal(std::uint64_t size);

    /** Bump-allocate @p size bytes of heap; returns the address. */
    std::uint64_t allocHeap(std::uint64_t size);

    /** Read 8 bytes at @p addr. */
    std::uint64_t load64(std::uint64_t addr) const;

    /** Write 8 bytes at @p addr. */
    void store64(std::uint64_t addr, std::uint64_t bits);

    /** Is @p addr inside the (simulated) stack segment? */
    static bool
    isStackAddress(std::uint64_t addr)
    {
        return addr >= kStackBase && addr < kStackLimit;
    }

    /**
     * Reserve @p size bytes (8-aligned) of stack at @p sp, growing the
     * segment to cover them; returns the new stack pointer.  Throws
     * lp::ResourceExhausted (LP_STACK) past kStackLimit.
     */
    std::uint64_t pushStack(std::uint64_t sp, std::uint64_t size);

    /** Bytes of heap currently allocated. */
    std::uint64_t heapUsed() const { return heapTop_; }

    /**
     * Cap the simulated heap at @p bytes (0 = uncapped up to the
     * segment size).  Exceeding the cap throws lp::ResourceExhausted
     * (LP_HEAP) — the heap arm of the lp::guard run budget.
     */
    void setHeapLimit(std::uint64_t bytes) { heapLimit_ = bytes; }

  private:
    const std::uint8_t *locate(std::uint64_t addr, std::uint64_t size) const;
    std::uint8_t *locate(std::uint64_t addr, std::uint64_t size);

    std::vector<std::uint8_t> globals_;
    std::vector<std::uint8_t> heap_;
    std::vector<std::uint8_t> stack_;
    std::uint64_t heapTop_ = 0;
    std::uint64_t heapLimit_ = 0; ///< 0 = segment-sized
};

} // namespace lp::interp
