#include "predict/predictor.hpp"

#include <string>

#include "support/error.hpp"

namespace lp::predict {

//
// LastValuePredictor
//

bool
LastValuePredictor::predict(std::uint64_t &out) const
{
    if (!warm_)
        return false;
    out = last_;
    return true;
}

void
LastValuePredictor::train(std::uint64_t actual)
{
    last_ = actual;
    warm_ = true;
}

//
// StridePredictor
//

bool
StridePredictor::predict(std::uint64_t &out) const
{
    if (seen_ < 2)
        return false;
    out = last_ + stride_;
    return true;
}

void
StridePredictor::train(std::uint64_t actual)
{
    if (seen_ > 0)
        stride_ = actual - last_;
    last_ = actual;
    if (seen_ < 2)
        ++seen_;
}

//
// TwoDeltaStridePredictor
//

bool
TwoDeltaStridePredictor::predict(std::uint64_t &out) const
{
    if (seen_ < 2)
        return false;
    out = last_ + stride_;
    return true;
}

void
TwoDeltaStridePredictor::train(std::uint64_t actual)
{
    if (seen_ > 0) {
        std::uint64_t delta = actual - last_;
        if (seen_ == 1) {
            stride_ = delta;
            lastDelta_ = delta;
        } else {
            // Adopt a new stride only when seen twice in a row.
            if (delta == lastDelta_)
                stride_ = delta;
            lastDelta_ = delta;
        }
    }
    last_ = actual;
    if (seen_ < 2)
        ++seen_;
}

//
// FcmPredictor
//

FcmPredictor::FcmPredictor(unsigned order, unsigned tableBits)
    : order_(order)
{
    if (order == 0 || order > kMaxOrder)
        throw InternalError("predict::FcmPredictor order " +
                            std::to_string(order) + " is outside 1-" +
                            std::to_string(kMaxOrder));
    if (tableBits == 0 || tableBits > 24)
        throw InternalError("predict::FcmPredictor tableBits " +
                            std::to_string(tableBits) +
                            " is outside 1-24");
    mask_ = (std::uint64_t{1} << tableBits) - 1;
    values_.resize(mask_ + 1);
    valid_.resize((values_.size() + 63) / 64);
}

std::uint64_t
FcmPredictor::contextHash() const
{
    // splitmix-style mixing of the value history.
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (unsigned i = 0; i < order_; ++i) {
        std::uint64_t z = history_[i] + h;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        h = z ^ (z >> 31);
    }
    return h & mask_;
}

bool
FcmPredictor::predict(std::uint64_t &out) const
{
    if (histCount_ < order_)
        return false;
    const std::uint64_t slot = contextHash();
    if (!(valid_[slot >> 6] >> (slot & 63) & 1))
        return false;
    out = values_[slot];
    return true;
}

void
FcmPredictor::train(std::uint64_t actual)
{
    predictAndTrain(actual);
}

bool
FcmPredictor::predictAndTrain(std::uint64_t actual)
{
    bool ok = false;
    if (histCount_ >= order_) {
        const std::uint64_t slot = contextHash();
        std::uint64_t &word = valid_[slot >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
        ok = (word & bit) && values_[slot] == actual;
        word |= bit;
        values_[slot] = actual;
    }
    // Shift the context window.
    for (unsigned i = 0; i + 1 < order_; ++i)
        history_[i] = history_[i + 1];
    history_[order_ - 1] = actual;
    if (histCount_ < order_)
        ++histCount_;
    return ok;
}

//
// HybridPredictor
//

const char *
HybridPredictor::componentName(unsigned i) const
{
    switch (i) {
      case 0: return last_.name();
      case 1: return stride_.name();
      case 2: return twoDelta_.name();
      default: return fcm_.name();
    }
}

HybridOutcome
HybridPredictor::predictAndTrain(std::uint64_t actual)
{
    HybridOutcome out;

    // Realistic selector: the component with the highest confidence wins;
    // ties go to the cheaper (lower-index) predictor.
    unsigned best = 0;
    for (unsigned i = 1; i < kComponents; ++i) {
        if (confidence_[i] > confidence_[best])
            best = i;
    }

    out.componentCorrect = {last_.predictAndTrain(actual),
                            stride_.predictAndTrain(actual),
                            twoDelta_.predictAndTrain(actual),
                            fcm_.predictAndTrain(actual)};
    for (unsigned i = 0; i < kComponents; ++i) {
        const bool correct = out.componentCorrect[i];
        out.anyCorrect |= correct;
        if (i == best)
            out.selectedCorrect = correct;
        // Saturating 3-bit confidence counters.
        if (correct)
            confidence_[i] = std::min(confidence_[i] + 1, 7);
        else
            confidence_[i] = std::max(confidence_[i] - 1, 0);
    }
    return out;
}

} // namespace lp::predict
