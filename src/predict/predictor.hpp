/**
 * @file
 * Value predictors for non-computable register LCDs (paper Section III-C).
 *
 * Four predictor types, as in the paper: (a) last-value, (b) stride,
 * (c) 2-delta stride, (d) Finite Context Method (Sazeides & Smith).  They
 * are combined by HybridPredictor, which supports both the paper's
 * "perfect hybridization" (a prediction counts if *any* component is
 * right) and a realistic confidence-counter selector used by the ablation
 * benches.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace lp::predict {

/** One value predictor tracking a single register LCD. */
class ValuePredictor
{
  public:
    virtual ~ValuePredictor() = default;

    /**
     * Predict the next value.
     * @retval false while the predictor is still warming up.
     */
    virtual bool predict(std::uint64_t &out) const = 0;

    /** Train with the actually produced value. */
    virtual void train(std::uint64_t actual) = 0;

    virtual const char *name() const = 0;

    /** Convenience: predict, compare with @p actual, then train. */
    bool
    predictAndTrain(std::uint64_t actual)
    {
        std::uint64_t guess = 0;
        bool ok = predict(guess) && guess == actual;
        train(actual);
        return ok;
    }
};

/** Predicts the previously seen value. */
class LastValuePredictor final : public ValuePredictor
{
  public:
    bool predict(std::uint64_t &out) const override;
    void train(std::uint64_t actual) override;
    const char *name() const override { return "last-value"; }

  private:
    bool warm_ = false;
    std::uint64_t last_ = 0;
};

/** Predicts last + (last observed delta). */
class StridePredictor final : public ValuePredictor
{
  public:
    bool predict(std::uint64_t &out) const override;
    void train(std::uint64_t actual) override;
    const char *name() const override { return "stride"; }

  private:
    unsigned seen_ = 0;
    std::uint64_t last_ = 0;
    std::uint64_t stride_ = 0;
};

/**
 * 2-delta stride: the predicting stride is only replaced after the same
 * new delta has been observed twice in a row, filtering one-off jumps.
 */
class TwoDeltaStridePredictor final : public ValuePredictor
{
  public:
    bool predict(std::uint64_t &out) const override;
    void train(std::uint64_t actual) override;
    const char *name() const override { return "2-delta"; }

  private:
    unsigned seen_ = 0;
    std::uint64_t last_ = 0;
    std::uint64_t stride_ = 0;     ///< stride used for prediction
    std::uint64_t lastDelta_ = 0;  ///< most recent observed delta
};

/**
 * Finite Context Method predictor: hashes the last @p order values into a
 * direct-mapped value table (2^tableBits entries, untagged — aliasing is
 * part of the model, as in real FCM hardware proposals).  The table is a
 * value per slot plus a validity bitmap: 32.5 KiB at the default size.
 */
class FcmPredictor final : public ValuePredictor
{
  public:
    /** The longest context the history holds. */
    static constexpr unsigned kMaxOrder = 8;

    /**
     * @throws lp::InternalError for an @p order outside 1..kMaxOrder or
     *         a @p tableBits outside 1..24
     */
    explicit FcmPredictor(unsigned order = 3, unsigned tableBits = 12);

    bool predict(std::uint64_t &out) const override;
    void train(std::uint64_t actual) override;
    const char *name() const override { return "fcm"; }

    /** predict() then train() with one context hash: training writes
     *  the slot the prediction read. */
    bool predictAndTrain(std::uint64_t actual);

  private:
    std::uint64_t contextHash() const;

    unsigned order_;
    std::uint64_t mask_ = 0;
    /** The last `order` values, oldest first. */
    std::array<std::uint64_t, kMaxOrder> history_{};
    unsigned histCount_ = 0;
    std::vector<std::uint64_t> values_; ///< by slot
    std::vector<std::uint64_t> valid_;  ///< bit per slot: values_ holds one
};

/** Per-component outcome of one hybrid prediction. */
struct HybridOutcome
{
    bool anyCorrect = false;      ///< perfect hybridization (the paper)
    bool selectedCorrect = false; ///< realistic confidence selector
    std::array<bool, 4> componentCorrect{}; ///< last/stride/2delta/fcm
};

/**
 * The four predictors plus 3-bit confidence counters per component.
 * The limit study uses anyCorrect; the ablation benches also report the
 * realistic selector and per-component accuracies.  The components are
 * held by value, so their final types make every call direct.
 */
class HybridPredictor
{
  public:
    /** Predict the next value, compare against @p actual, train all. */
    HybridOutcome predictAndTrain(std::uint64_t actual);

    /** Number of components (for reporting). */
    static constexpr unsigned kComponents = 4;

    /** Component name by index. */
    const char *componentName(unsigned i) const;

  private:
    LastValuePredictor last_;
    StridePredictor stride_;
    TwoDeltaStridePredictor twoDelta_;
    FcmPredictor fcm_;
    std::array<int, kComponents> confidence_{};
};

} // namespace lp::predict
