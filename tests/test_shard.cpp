/**
 * @file
 * Sharded sweeps (core::runSweep with --shards semantics): the merge
 * of N shard runs must produce a report BYTE-identical to an unsharded
 * sweep — including after a simulated mid-shard crash (torn shard
 * checkpoint), with a shard missing entirely, and with the lint gate +
 * consistency oracle attached (docs/parallel_execution.md).
 *
 * Shape of the suite:
 *  - partitioning: shardCheckpointPath naming, every cell owned by
 *    exactly one shard, shard runs produce no report document;
 *  - differential: merged vs unsharded byte-identity, plain and under
 *    crash recovery and lint, and batched (decode-once) shards vs an
 *    interpret-every-cell unsharded reference;
 *  - validation: the config errors runSweep promises (missing
 *    checkpoint, index out of range, --json on a shard run).
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sweep.hpp"
#include "guard/checkpoint.hpp"
#include "helpers.hpp"
#include "support/error.hpp"

namespace lp {
namespace {

std::vector<core::BenchProgram>
shardPrograms()
{
    auto mk = [](const char *name, auto builder) {
        core::BenchProgram p;
        p.name = name;
        p.suite = "shard-test";
        p.build = builder;
        return p;
    };
    return {
        mk("saxpy", [] { return test::buildSaxpy(64); }),
        mk("sum", [] { return test::buildSumReduction(64); }),
        mk("chase", [] { return test::buildPointerChase(48); }),
        mk("hist", [] { return test::buildHistogram(128, 8); }),
    };
}

/** A fresh checkpoint base path with all derived files removed. */
std::string
cleanBase(const char *name, unsigned shards)
{
    std::string base = ::testing::TempDir() + name;
    for (unsigned i = 1; i <= shards; ++i)
        std::remove(
            core::shardCheckpointPath(base, i, shards).c_str());
    std::remove((base + ".merge").c_str());
    return base;
}

/** Run shard @p i of @p n against @p base. */
core::SweepResult
runShard(unsigned i, unsigned n, const std::string &base,
         int lintMode = 0)
{
    core::SweepRequest req;
    req.shardIndex = i;
    req.shardCount = n;
    req.checkpointPath = base;
    req.lintMode = lintMode;
    return core::runSweep(shardPrograms(), req);
}

/** Merge @p n shards of @p base into a report document. */
core::SweepResult
runMerge(unsigned n, const std::string &base, int lintMode = 0)
{
    core::SweepRequest req;
    req.merge = true;
    req.shardCount = n;
    req.checkpointPath = base;
    req.wantJson = true;
    req.lintMode = lintMode;
    return core::runSweep(shardPrograms(), req);
}

/** The unsharded reference document. */
std::string
unshardedDump(int lintMode = 0)
{
    core::SweepRequest req;
    req.wantJson = true;
    req.lintMode = lintMode;
    core::SweepResult res = core::runSweep(shardPrograms(), req);
    EXPECT_EQ(res.exitCode, 0);
    EXPECT_TRUE(res.hasDocument);
    return res.document.dump(2);
}

TEST(ShardSweep, ShardCheckpointPathEncodesIndexAndCount)
{
    EXPECT_EQ(core::shardCheckpointPath("ck.jsonl", 2, 8),
              "ck.jsonl.shard2of8");
}

TEST(ShardSweep, MergedReportIsByteIdenticalToUnsharded)
{
    const std::string reference = unshardedDump();
    const std::string base = cleanBase("lp_shard_plain.jsonl", 3);

    for (unsigned i = 1; i <= 3; ++i) {
        core::SweepResult r = runShard(i, 3, base);
        EXPECT_EQ(r.exitCode, 0);
        // A shard sees only its slice; it must not emit a document.
        EXPECT_FALSE(r.hasDocument);
        std::ifstream shardFile(
            core::shardCheckpointPath(base, i, 3));
        EXPECT_TRUE(shardFile.good());
    }

    core::SweepResult merged = runMerge(3, base);
    EXPECT_EQ(merged.exitCode, 0);
    ASSERT_TRUE(merged.hasDocument);
    EXPECT_EQ(merged.document.dump(2), reference);

    cleanBase("lp_shard_plain.jsonl", 3);
}

TEST(ShardSweep, EveryCellIsOwnedByExactlyOneShard)
{
    const std::string base = cleanBase("lp_shard_own.jsonl", 2);
    runShard(1, 2, base);
    runShard(2, 2, base);

    // The union of the shard checkpoints covers every runnable cell
    // exactly once (keys are unique per shard and disjoint across).
    std::size_t total = 0;
    std::vector<std::string> seen;
    for (unsigned i = 1; i <= 2; ++i) {
        guard::Checkpoint ck(core::shardCheckpointPath(base, i, 2),
                             /*resume=*/true);
        total += ck.loadedCells();
    }
    guard::Checkpoint both(base + ".union", /*resume=*/false);
    EXPECT_EQ(both.absorb(core::shardCheckpointPath(base, 1, 2)) +
                  both.absorb(core::shardCheckpointPath(base, 2, 2)),
              total)
        << "a cell key appeared in more than one shard";

    std::remove((base + ".union").c_str());
    cleanBase("lp_shard_own.jsonl", 2);
}

TEST(ShardSweep, MergeRecoversFromTornShardCheckpoint)
{
    const std::string reference = unshardedDump();
    const std::string base = cleanBase("lp_shard_torn.jsonl", 2);

    runShard(1, 2, base);
    runShard(2, 2, base);

    // Simulate shard 2 killed mid-append: drop its final record's tail
    // so the file ends in a torn line.  The merge must skip the torn
    // cell, re-run it, and still reproduce the reference bytes.
    const std::string shard2 = core::shardCheckpointPath(base, 2, 2);
    std::ifstream in(shard2, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 100u);
    {
        std::ofstream out(shard2, std::ios::trunc | std::ios::binary);
        out << bytes.substr(0, bytes.size() - 90);
    }

    core::SweepResult merged = runMerge(2, base);
    EXPECT_EQ(merged.exitCode, 0);
    ASSERT_TRUE(merged.hasDocument);
    EXPECT_EQ(merged.document.dump(2), reference);

    cleanBase("lp_shard_torn.jsonl", 2);
}

TEST(ShardSweep, MergeRecoversFromMissingShardAndIsResumable)
{
    const std::string reference = unshardedDump();
    const std::string base = cleanBase("lp_shard_miss.jsonl", 2);

    // Shard 2 never ran at all: the merge runs its cells itself...
    runShard(1, 2, base);
    core::SweepResult merged = runMerge(2, base);
    EXPECT_EQ(merged.exitCode, 0);
    ASSERT_TRUE(merged.hasDocument);
    EXPECT_EQ(merged.document.dump(2), reference);

    // ...and checkpoints them to its own file, so a second merge (the
    // crashed-and-relaunched case) resumes instead of re-running.
    guard::Checkpoint mergeCk(base + ".merge", /*resume=*/true);
    EXPECT_GT(mergeCk.loadedCells(), 0u);
    core::SweepResult again = runMerge(2, base);
    ASSERT_TRUE(again.hasDocument);
    EXPECT_EQ(again.document.dump(2), reference);

    cleanBase("lp_shard_miss.jsonl", 2);
}

TEST(ShardSweep, MergedLintSweepMatchesUnshardedIncludingOracle)
{
    const std::string reference = unshardedDump(/*lintMode=*/1);
    const std::string base = cleanBase("lp_shard_lint.jsonl", 2);

    for (unsigned i = 1; i <= 2; ++i)
        EXPECT_EQ(runShard(i, 2, base, /*lintMode=*/1).exitCode, 0);
    core::SweepResult merged = runMerge(2, base, /*lintMode=*/1);
    EXPECT_EQ(merged.exitCode, 0);
    ASSERT_TRUE(merged.hasDocument);
    EXPECT_EQ(merged.document.dump(2), reference);

    cleanBase("lp_shard_lint.jsonl", 2);
}

TEST(ShardSweep, BatchedShardedMergeMatchesInterpretedUnsharded)
{
    // Cross-axis byte-identity: each shard below runs with batched
    // replay on (the default), splitting its slice into decode-once
    // lane batches, while the reference sweep interprets every cell.
    // Sharding and batching together must change nothing in the
    // merged report.
    std::string reference;
    {
        core::SweepRequest req;
        req.wantJson = true;
        req.traceReplay = false;
        core::SweepResult res = core::runSweep(shardPrograms(), req);
        EXPECT_EQ(res.exitCode, 0);
        EXPECT_TRUE(res.hasDocument);
        reference = res.document.dump(2);
    }

    const std::string base = cleanBase("lp_shard_batch.jsonl", 3);
    for (unsigned i = 1; i <= 3; ++i)
        EXPECT_EQ(runShard(i, 3, base).exitCode, 0);
    core::SweepResult merged = runMerge(3, base);
    EXPECT_EQ(merged.exitCode, 0);
    ASSERT_TRUE(merged.hasDocument);
    EXPECT_EQ(merged.document.dump(2), reference);

    cleanBase("lp_shard_batch.jsonl", 3);
}

TEST(ShardSweep, InvalidShardRequestsAreConfigErrors)
{
    const auto progs = shardPrograms();

    core::SweepRequest noCkpt;
    noCkpt.shardIndex = 1;
    noCkpt.shardCount = 2;
    EXPECT_THROW(core::runSweep(progs, noCkpt), FatalError);

    core::SweepRequest outOfRange;
    outOfRange.shardIndex = 3;
    outOfRange.shardCount = 2;
    outOfRange.checkpointPath = ::testing::TempDir() + "x.jsonl";
    EXPECT_THROW(core::runSweep(progs, outOfRange), FatalError);

    core::SweepRequest shardJson;
    shardJson.shardIndex = 1;
    shardJson.shardCount = 2;
    shardJson.checkpointPath = ::testing::TempDir() + "x.jsonl";
    shardJson.wantJson = true;
    EXPECT_THROW(core::runSweep(progs, shardJson), FatalError);

    core::SweepRequest both;
    both.shardIndex = 1;
    both.shardCount = 2;
    both.merge = true;
    both.checkpointPath = ::testing::TempDir() + "x.jsonl";
    EXPECT_THROW(core::runSweep(progs, both), FatalError);
}

} // namespace
} // namespace lp
