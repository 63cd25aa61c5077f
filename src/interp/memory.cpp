#include "interp/memory.hpp"

#include <cstring>

#include "support/error.hpp"
#include "support/text.hpp"

#include "support/arena.hpp"

namespace lp::interp {

Memory::Memory()
    : globals_(support::ByteBufferPool::acquire()),
      heap_(support::ByteBufferPool::acquire()),
      stack_(support::ByteBufferPool::acquire())
{
}

Memory::~Memory()
{
    support::ByteBufferPool::release(std::move(stack_));
    support::ByteBufferPool::release(std::move(heap_));
    support::ByteBufferPool::release(std::move(globals_));
}

namespace {

std::uint64_t
align8(std::uint64_t v)
{
    return (v + 7) & ~std::uint64_t{7};
}

} // namespace

std::uint64_t
Memory::allocGlobal(std::uint64_t size)
{
    // Compared before rounding up: a size within 7 of 2^64 rounds to 0.
    if (size > kHeapBase - kGlobalBase - globals_.size())
        throw ResourceExhausted(ErrorCode::Heap,
                                "global segment overflow");
    std::uint64_t addr = kGlobalBase + globals_.size();
    globals_.resize(globals_.size() + align8(size), 0);
    return addr;
}

std::uint64_t
Memory::allocHeap(std::uint64_t size)
{
    std::uint64_t addr = kHeapBase + heapTop_;
    // Compared before rounding up: a size within 7 of 2^64 rounds to 0.
    const bool fits = size <= kStackBase - addr;
    std::uint64_t newTop = fits ? heapTop_ + align8(size) : ~std::uint64_t{0};
    if (heapLimit_ != 0 && newTop > heapLimit_)
        throw ResourceExhausted(
            ErrorCode::Heap,
            strf("heap budget of %llu bytes exceeded (allocating %llu, "
                 "%llu in use)",
                 static_cast<unsigned long long>(heapLimit_),
                 static_cast<unsigned long long>(size),
                 static_cast<unsigned long long>(heapTop_)));
    if (!fits)
        throw ResourceExhausted(ErrorCode::Heap, "heap segment overflow");
    heapTop_ = newTop;
    if (heapTop_ > heap_.size())
        heap_.resize(std::max<std::uint64_t>(heapTop_, heap_.size() * 2),
                     0);
    return addr;
}

std::uint64_t
Memory::pushStack(std::uint64_t sp, std::uint64_t size)
{
    // Compared before rounding up: a size within 7 of 2^64 rounds to 0,
    // and sp + size must not wrap below kStackBase.
    if (size > kStackLimit - sp)
        throw ResourceExhausted(ErrorCode::Stack,
                                "stack segment overflow");
    const std::uint64_t top = sp + align8(size);
    const std::uint64_t need = top - kStackBase;
    if (need > stack_.size())
        stack_.resize(std::max<std::uint64_t>(need, stack_.size() * 2 + 4096),
                      0);
    return top;
}

const std::uint8_t *
Memory::locate(std::uint64_t addr, std::uint64_t size) const
{
    // addr - base + size cannot wrap once addr >= base (base > size);
    // addr + size would for the top addresses.
    if (addr >= kGlobalBase && addr - kGlobalBase + size <= globals_.size())
        return globals_.data() + (addr - kGlobalBase);
    if (addr >= kHeapBase && addr - kHeapBase + size <= heap_.size())
        return heap_.data() + (addr - kHeapBase);
    if (addr >= kStackBase && addr - kStackBase + size <= stack_.size())
        return stack_.data() + (addr - kStackBase);
    throw InterpreterTrap(strf("invalid memory access at 0x%llx",
                               static_cast<unsigned long long>(addr)));
}

std::uint8_t *
Memory::locate(std::uint64_t addr, std::uint64_t size)
{
    return const_cast<std::uint8_t *>(
        static_cast<const Memory *>(this)->locate(addr, size));
}

std::uint64_t
Memory::load64(std::uint64_t addr) const
{
    std::uint64_t bits;
    std::memcpy(&bits, locate(addr, 8), 8);
    return bits;
}

void
Memory::store64(std::uint64_t addr, std::uint64_t bits)
{
    std::memcpy(locate(addr, 8), &bits, 8);
}

} // namespace lp::interp
