#include "trace/format.hpp"

#include "support/error.hpp"

namespace lp::trace {

void
appendVarint(std::vector<std::uint8_t> &buf, std::uint64_t v)
{
    while (v >= 0x80) {
        buf.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    buf.push_back(static_cast<std::uint8_t>(v));
}

void
PayloadWriter::event(const Event &e)
{
    buf_.push_back(static_cast<std::uint8_t>(e.kind));
    switch (e.kind) {
      case EventKind::FuncEnter:
        appendVarint(buf_, e.a);
        break;
      case EventKind::FuncExit:
        break;
      case EventKind::BlockEnter:
        appendVarint(buf_, zigzagEncode(static_cast<std::int64_t>(
                               e.a - prevBlockId_)));
        prevBlockId_ = e.a;
        break;
      case EventKind::BlockEnterHeader:
        appendVarint(buf_, zigzagEncode(static_cast<std::int64_t>(
                               e.a - prevBlockId_)));
        appendVarint(buf_, zigzagEncode(static_cast<std::int64_t>(
                               e.b - prevSpGranule_)));
        prevBlockId_ = e.a;
        prevSpGranule_ = e.b;
        break;
      case EventKind::Phi:
        appendVarint(buf_, zigzagEncode(static_cast<std::int64_t>(e.a)));
        break;
      case EventKind::Load:
      case EventKind::Store:
        appendVarint(buf_, e.a);
        appendVarint(buf_, zigzagEncode(static_cast<std::int64_t>(
                               e.b - prevGranule_)));
        prevGranule_ = e.b;
        break;
      case EventKind::Charge:
      case EventKind::CallSite:
        appendVarint(buf_, e.a);
        break;
    }
}

namespace detail {

void
throwTruncatedVarint()
{
    throw IoError("trace payload truncated inside a varint");
}

void
throwVarintOverflow()
{
    throw IoError("trace payload varint overflows 64 bits");
}

void
throwUnknownTag(std::uint8_t tag)
{
    throw IoError("trace payload has unknown event tag " +
                  std::to_string(tag));
}

} // namespace detail

std::vector<Event>
decodeEvents(const Trace &t)
{
    std::vector<Event> out;
    out.reserve(t.events);
    PayloadReader r(t);
    Event e;
    while (r.next(e))
        out.push_back(e);
    if (out.size() != t.events)
        throw IoError("trace payload decodes to " +
                      std::to_string(out.size()) +
                      " events but the trace says " + std::to_string(t.events));
    return out;
}

Trace
encodeEvents(const std::vector<Event> &events, std::uint64_t finalCost,
             std::uint32_t numFunctions, std::uint32_t numBlocks)
{
    PayloadWriter w;
    for (const Event &e : events)
        w.event(e);
    Trace t;
    t.payload = w.takeBytes();
    t.events = events.size();
    t.finalCost = finalCost;
    t.numFunctions = numFunctions;
    t.numBlocks = numBlocks;
    return t;
}

} // namespace lp::trace
