/**
 * @file
 * Unit tests for the value predictors.
 */

#include <gtest/gtest.h>

#include <vector>

#include "predict/predictor.hpp"
#include "support/error.hpp"

namespace lp::predict {
namespace {

/** 1,200 values mixing strided runs, a period-4 pattern, small
 *  pseudo-random values (their contexts recur with other successors)
 *  and constant pairs. */
std::vector<std::uint64_t>
mixedSequence()
{
    std::vector<std::uint64_t> seq;
    std::uint64_t x = 88172645463325252ULL;
    for (int round = 0; round < 40; ++round) {
        for (std::uint64_t v = 0; v < 10; ++v)
            seq.push_back(1000 + 7 * v);
        for (int k = 0; k < 3; ++k)
            for (std::uint64_t v : {5, 9, 2, 7})
                seq.push_back(v);
        for (int k = 0; k < 4; ++k) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            seq.push_back(x % 8);
        }
        seq.push_back(42);
        seq.push_back(42);
    }
    return seq;
}

TEST(LastValue, ConstantSequencePredicted)
{
    LastValuePredictor p;
    EXPECT_FALSE(p.predictAndTrain(7)); // cold
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(p.predictAndTrain(7));
}

TEST(LastValue, ChangingValueMissed)
{
    LastValuePredictor p;
    p.train(1);
    EXPECT_FALSE(p.predictAndTrain(2));
    EXPECT_FALSE(p.predictAndTrain(3));
}

TEST(Stride, LinearSequencePredicted)
{
    StridePredictor p;
    p.train(10);
    p.train(13); // stride 3 learned
    for (std::uint64_t v = 16; v < 100; v += 3)
        EXPECT_TRUE(p.predictAndTrain(v));
}

TEST(Stride, NegativeStride)
{
    StridePredictor p;
    p.train(100);
    p.train(92);
    for (std::uint64_t v = 84; v > 20; v -= 8)
        EXPECT_TRUE(p.predictAndTrain(v));
}

TEST(Stride, StrideChangeCausesOneMiss)
{
    StridePredictor p;
    p.train(0);
    p.train(1);
    EXPECT_TRUE(p.predictAndTrain(2));
    EXPECT_FALSE(p.predictAndTrain(10)); // stride changes 1 -> 8
    EXPECT_TRUE(p.predictAndTrain(18));  // new stride learned immediately
}

TEST(TwoDelta, OneOffJumpDoesNotDisturbStride)
{
    TwoDeltaStridePredictor p;
    p.train(0);
    p.train(4);
    EXPECT_TRUE(p.predictAndTrain(8));
    EXPECT_FALSE(p.predictAndTrain(100)); // one-off jump: miss
    // The plain stride predictor would now predict 192; 2-delta kept
    // stride 4 and predicts 104.
    EXPECT_TRUE(p.predictAndTrain(104));
    EXPECT_TRUE(p.predictAndTrain(108));
}

TEST(TwoDelta, PersistentNewStrideAdopted)
{
    TwoDeltaStridePredictor p;
    p.train(0);
    p.train(4);
    EXPECT_TRUE(p.predictAndTrain(8));
    EXPECT_FALSE(p.predictAndTrain(16)); // delta 8, first sighting
    EXPECT_FALSE(p.predictAndTrain(24)); // predicted 16+4; delta 8 twice
    EXPECT_TRUE(p.predictAndTrain(32));  // stride 8 now in force
}

TEST(Fcm, PeriodicPatternLearned)
{
    FcmPredictor p(2, 8);
    // Repeat the period-4 pattern until learned, then expect hits.
    const std::uint64_t pat[] = {5, 9, 2, 7};
    for (int warm = 0; warm < 3; ++warm)
        for (std::uint64_t v : pat)
            p.train(v);
    int hits = 0;
    for (int round = 0; round < 4; ++round)
        for (std::uint64_t v : pat)
            hits += p.predictAndTrain(v);
    EXPECT_EQ(hits, 16);
}

TEST(Fcm, RandomlikeSequenceMissed)
{
    FcmPredictor p;
    std::uint64_t x = 88172645463325252ULL;
    int hits = 0;
    for (int i = 0; i < 200; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        hits += p.predictAndTrain(x);
    }
    EXPECT_LE(hits, 2);
}

TEST(Fcm, FusedPathMatchesPredictThenTrain)
{
    // 16 slots: the order-2 contexts alias, so slots are overwritten
    // and read back under other contexts.
    FcmPredictor fused(2, 4), split(2, 4);
    int hits = 0, misses = 0;
    for (std::uint64_t v : mixedSequence()) {
        std::uint64_t guess = 0;
        const bool expected = split.predict(guess) && guess == v;
        split.train(v);
        const bool got = fused.predictAndTrain(v);
        ASSERT_EQ(got, expected) << "value " << v;
        (got ? hits : misses) += 1;
        // The trained states agree: same next prediction.
        std::uint64_t a = 0, b = 0;
        ASSERT_EQ(fused.predict(a), split.predict(b));
        ASSERT_EQ(a, b);
    }
    EXPECT_GT(hits, 100);
    EXPECT_GT(misses, 100);
}

TEST(Fcm, RejectsSizesItCannotRun)
{
    // An order-0 history has no last slot, and a shift by 64 or more
    // bits is undefined: the constructor refuses both.
    EXPECT_THROW(FcmPredictor(0, 12), InternalError);
    EXPECT_THROW(FcmPredictor(FcmPredictor::kMaxOrder + 1, 12),
                 InternalError);
    EXPECT_THROW(FcmPredictor(3, 0), InternalError);
    EXPECT_THROW(FcmPredictor(3, 25), InternalError);
    EXPECT_THROW(FcmPredictor(3, 64), InternalError);

    // The smallest table and the longest history it takes still learn
    // a constant.
    for (FcmPredictor p : {FcmPredictor(1, 1),
                           FcmPredictor(FcmPredictor::kMaxOrder, 4)}) {
        for (unsigned i = 0; i <= FcmPredictor::kMaxOrder; ++i)
            p.train(5);
        EXPECT_TRUE(p.predictAndTrain(5));
    }
}

TEST(Hybrid, MatchesStandAloneComponentsAndConfidenceRule)
{
    HybridPredictor h;
    LastValuePredictor last;
    StridePredictor stride;
    TwoDeltaStridePredictor twoDelta;
    FcmPredictor fcm;
    ValuePredictor *const parts[HybridPredictor::kComponents] = {
        &last, &stride, &twoDelta, &fcm};
    int confidence[HybridPredictor::kComponents] = {};
    int selectedHits = 0;
    for (std::uint64_t v : mixedSequence()) {
        // The most confident component is selected, ties to the lower
        // index; each counter saturates at 0 and 7.
        unsigned best = 0;
        for (unsigned i = 1; i < HybridPredictor::kComponents; ++i)
            if (confidence[i] > confidence[best])
                best = i;
        HybridOutcome expected;
        for (unsigned i = 0; i < HybridPredictor::kComponents; ++i) {
            const bool ok = parts[i]->predictAndTrain(v);
            expected.componentCorrect[i] = ok;
            expected.anyCorrect |= ok;
            confidence[i] = ok ? std::min(confidence[i] + 1, 7)
                               : std::max(confidence[i] - 1, 0);
        }
        expected.selectedCorrect = expected.componentCorrect[best];

        const HybridOutcome got = h.predictAndTrain(v);
        ASSERT_EQ(got.anyCorrect, expected.anyCorrect) << "value " << v;
        ASSERT_EQ(got.selectedCorrect, expected.selectedCorrect)
            << "value " << v;
        ASSERT_EQ(got.componentCorrect, expected.componentCorrect)
            << "value " << v;
        selectedHits += got.selectedCorrect;
    }
    EXPECT_GT(selectedHits, 0);
    for (unsigned i = 0; i < HybridPredictor::kComponents; ++i)
        EXPECT_STREQ(h.componentName(i), parts[i]->name());
}

TEST(Hybrid, AnyCorrectCoversStrideAndPattern)
{
    HybridPredictor h;
    // Strided phase.
    int strideHits = 0;
    for (std::uint64_t v = 0; v < 50; v += 5)
        strideHits += h.predictAndTrain(v).anyCorrect;
    EXPECT_GE(strideHits, 7);

    // Constant phase: last-value takes over.
    int constHits = 0;
    for (int i = 0; i < 10; ++i)
        constHits += h.predictAndTrain(1234).anyCorrect;
    EXPECT_GE(constHits, 8);
}

TEST(Hybrid, ComponentOutcomesReported)
{
    HybridPredictor h;
    h.predictAndTrain(10);
    h.predictAndTrain(20);
    HybridOutcome out = h.predictAndTrain(30);
    EXPECT_TRUE(out.anyCorrect);
    EXPECT_TRUE(out.componentCorrect[1]); // stride
    EXPECT_FALSE(out.componentCorrect[0]); // last-value predicted 20
}

TEST(Hybrid, SelectorConvergesToGoodComponent)
{
    HybridPredictor h;
    // After a long strided run, the confidence selector must pick a
    // stride-family component and be correct.
    int tail = 0;
    for (std::uint64_t v = 0; v < 400; v += 3) {
        HybridOutcome out = h.predictAndTrain(v);
        if (v > 100)
            tail += out.selectedCorrect;
    }
    EXPECT_GE(tail, 90);
}

TEST(Hybrid, ComponentNames)
{
    HybridPredictor h;
    EXPECT_STREQ(h.componentName(0), "last-value");
    EXPECT_STREQ(h.componentName(1), "stride");
    EXPECT_STREQ(h.componentName(2), "2-delta");
    EXPECT_STREQ(h.componentName(3), "fcm");
}

} // namespace
} // namespace lp::predict
