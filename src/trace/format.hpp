/**
 * @file
 * The dynamic event-trace format (`lp::trace`).
 *
 * One recording run captures the exact event stream the run-time
 * component consumes — block entries, header phi values, load/store
 * granules, call sites, function entry/exit and out-of-band cost
 * charges — as a compact append-only byte stream.  Sweeps no longer
 * record: a fused batch (rt/batch.hpp) feeds the same events to every
 * configuration lane straight from the interpreter.  The trace remains
 * for the sweep benchmark's record and decode probes.
 *
 * Encoding (payload): one tag byte per event (EventKind), then varint
 * operands.  Spatially local operands are delta-encoded against the
 * previous event of the same family and zigzag-folded so small negative
 * deltas stay short:
 *
 *   FuncEnter         varint functionId
 *   FuncExit          (no operands)
 *   BlockEnter        zigzag(blockId - prevBlockId)
 *   BlockEnterHeader  zigzag(blockId - prevBlockId),
 *                     zigzag(spGranule - prevSpGranule)
 *   Phi               zigzag(bits)
 *   Load / Store      varint ipInBlock, zigzag(granule - prevGranule)
 *   Charge            varint amount
 *   CallSite          varint ipInBlock
 *
 * Granules are 8-byte address units (addr >> 3) — the same granularity
 * the conflict tracker works at, and all simulated segment bases and
 * stack pointers are 8-aligned, so no information the tracker consumes
 * is lost.  BlockEnterHeader is emitted for loop-header blocks (the
 * only points where the tracker samples the stack pointer); all other
 * blocks use the plain BlockEnter.
 *
 * A Trace lives in memory only, alongside the module fingerprint and
 * final cost the walker (trace/batch.hpp) checks it against.  Malformed
 * input — an unknown tag, bytes missing mid-event, an id outside the
 * module, a clock that disagrees with the recording — throws
 * lp::IoError (LP_IO).
 */

#pragma once

#include <cstdint>
#include <vector>

namespace lp::trace {

/** Event tags, one byte each in the payload. */
enum class EventKind : std::uint8_t {
    FuncEnter = 0,        ///< a = function id
    FuncExit = 1,         ///< (none)
    BlockEnter = 2,       ///< a = global block id
    BlockEnterHeader = 3, ///< a = global block id, b = sp granule
    Phi = 4,              ///< a = resolved bits
    Load = 5,             ///< a = instruction index in block, b = granule
    Store = 6,            ///< a = instruction index in block, b = granule
    Charge = 7,           ///< a = out-of-band cost units (external bodies)
    CallSite = 8,         ///< a = instruction index in block
};

/** Number of distinct event kinds (decoder bound check). */
constexpr std::uint8_t kNumEventKinds = 9;

/** One decoded event; operands are absolute (deltas already resolved). */
struct Event
{
    EventKind kind;
    std::uint64_t a = 0;
    std::uint64_t b = 0;

    bool operator==(const Event &o) const = default;
};

/** One recorded execution, ready to replay. */
struct Trace
{
    std::vector<std::uint8_t> payload; ///< encoded event stream
    std::uint64_t events = 0;          ///< events in the payload
    std::uint64_t finalCost = 0;       ///< Machine::cost() at run end
    std::uint32_t numFunctions = 0;    ///< module fingerprint
    std::uint32_t numBlocks = 0;       ///< module fingerprint

    bool operator==(const Trace &o) const = default;
};

/// @name Varint primitives (LEB128 + zigzag), exposed for tests.
/// @{
void appendVarint(std::vector<std::uint8_t> &buf, std::uint64_t v);

inline std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}
/// @}

/**
 * Streaming payload encoder.  Owns the delta-compression state, so both
 * the live Recorder and encodeEvents() produce identical bytes for
 * identical event sequences.
 */
class PayloadWriter
{
  public:
    /** Append @p e (absolute operands; deltas are computed here). */
    void event(const Event &e);

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::vector<std::uint8_t> takeBytes() { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

  private:
    std::vector<std::uint8_t> buf_;
    std::uint64_t prevBlockId_ = 0;
    std::uint64_t prevSpGranule_ = 0;
    std::uint64_t prevGranule_ = 0;
};

/// Cold failure paths of PayloadReader, kept out of the inline decoder
/// so the per-event fast path stays small.  All throw lp::IoError.
namespace detail {
[[noreturn]] void throwTruncatedVarint();
[[noreturn]] void throwVarintOverflow();
[[noreturn]] void throwUnknownTag(std::uint8_t tag);
} // namespace detail

/**
 * Streaming payload decoder: the exact inverse of PayloadWriter.
 * next() resolves deltas back to absolute operands.  Malformed input
 * (unknown tag, payload ending mid-event) throws lp::IoError.
 *
 * next() and the varint decode are defined inline: replay calls them
 * once per event, and keeping them out-of-line measurably dominates a
 * replayed sweep cell (decode alone was ~40% of the cell's wall time).
 */
class PayloadReader
{
  public:
    PayloadReader(const std::uint8_t *data, std::size_t size)
        : cur_(data), end_(data + size)
    {}

    explicit PayloadReader(const Trace &t)
        : PayloadReader(t.payload.data(), t.payload.size())
    {}

    /** Decode the next event into @p e; false at (clean) end of input. */
    bool next(Event &e)
    {
        if (cur_ == end_)
            return false;
        std::uint8_t tag = *cur_++;
        if (tag >= kNumEventKinds)
            detail::throwUnknownTag(tag);
        e.kind = static_cast<EventKind>(tag);
        e.a = 0;
        e.b = 0;
        switch (e.kind) {
          case EventKind::FuncEnter:
            e.a = varint();
            break;
          case EventKind::FuncExit:
            break;
          case EventKind::BlockEnter:
            e.a = prevBlockId_ +=
                static_cast<std::uint64_t>(zigzagDecode(varint()));
            break;
          case EventKind::BlockEnterHeader:
            e.a = prevBlockId_ +=
                static_cast<std::uint64_t>(zigzagDecode(varint()));
            e.b = prevSpGranule_ +=
                static_cast<std::uint64_t>(zigzagDecode(varint()));
            break;
          case EventKind::Phi:
            e.a = static_cast<std::uint64_t>(zigzagDecode(varint()));
            break;
          case EventKind::Load:
          case EventKind::Store:
            e.a = varint();
            e.b = prevGranule_ +=
                static_cast<std::uint64_t>(zigzagDecode(varint()));
            break;
          case EventKind::Charge:
          case EventKind::CallSite:
            e.a = varint();
            break;
        }
        return true;
    }

    bool atEnd() const { return cur_ == end_; }

  private:
    std::uint64_t varint()
    {
        std::uint64_t v = 0;
        unsigned shift = 0;
        for (;;) {
            if (cur_ == end_)
                detail::throwTruncatedVarint();
            std::uint8_t byte = *cur_++;
            if (shift >= 64)
                detail::throwVarintOverflow();
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if (!(byte & 0x80))
                return v;
            shift += 7;
        }
    }

    const std::uint8_t *cur_;
    const std::uint8_t *end_;
    std::uint64_t prevBlockId_ = 0;
    std::uint64_t prevSpGranule_ = 0;
    std::uint64_t prevGranule_ = 0;
};

/** Decode the whole payload. @throws lp::IoError on malformed bytes. */
std::vector<Event> decodeEvents(const Trace &t);

/**
 * Encode @p events into a fresh trace (used by tests and tools; the
 * live path uses Recorder).  Re-encoding decodeEvents() of any trace
 * reproduces its payload byte-for-byte.
 */
Trace encodeEvents(const std::vector<Event> &events,
                   std::uint64_t finalCost, std::uint32_t numFunctions,
                   std::uint32_t numBlocks);

} // namespace lp::trace
