/**
 * @file
 * Streaming sweep checkpoints (`lp::guard`).
 *
 * A sweep writes one JSONL line per completed cell:
 *
 *   {"v":1,"key":"<config>|<suite>|<program>|<seed>","cell":{...}}
 *
 * where "cell" is the cell's ProgramReport JSON exactly as it appears
 * in the final report document.  Lines are appended and flushed as
 * cells finish (safe from lp::exec workers; record() takes a mutex), so
 * a killed sweep loses at most the cells still in flight.  Reopening
 * with resume=true loads every complete line — a torn final line from a
 * mid-write kill is skipped with a warning — and the driver reuses
 * stored cells verbatim, which is what makes a resumed sweep's final
 * report byte-identical to an uninterrupted run's.
 *
 * Keys are the full cell identity (configuration label, suite, program,
 * seed), so checkpoints are safe to share across re-invocations with
 * different sweep subsets: unknown keys are simply never looked up.
 *
 * Conflict policy: when the same key appears more than once — duplicate
 * lines within one file, or the same cell claimed by several absorbed
 * shard files — the LAST writer wins (later lines override earlier
 * ones; later absorb() calls override earlier ones).  The winner is
 * positional, never content-dependent, so a fixed file + merge order
 * always resolves identically.  Within one file this makes re-recorded
 * cells self-healing (the newest generation is the one resumed), and
 * across shards it means `--merge` callers control precedence purely by
 * absorb order.
 */

#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>

#include "obs/json.hpp"
#include "prof/timed_mutex.hpp"

namespace lp::guard {

/** One JSONL checkpoint file, usable concurrently by sweep workers. */
class Checkpoint
{
  public:
    /**
     * Open @p path for appending.  With @p resume, existing complete
     * lines are loaded first; without it the file starts fresh.
     * @throws IoError when the file cannot be opened (or, with resume,
     *         read).
     */
    Checkpoint(const std::string &path, bool resume);

    /** "<config>|<suite>|<program>|<seed>" — the stable cell identity. */
    static std::string cellKey(const std::string &config,
                               const std::string &suite,
                               const std::string &program,
                               std::uint64_t seed = 0);

    /**
     * The cell JSON for @p key loaded on resume or absorbed, or nullptr.
     * Cells this Checkpoint record()s are written only, never kept: a
     * sweep looks its cells up before it runs any.  The pointer stays
     * valid for the Checkpoint's lifetime (cells are never evicted).
     */
    const obs::Json *find(const std::string &key) const;

    /** Append one completed cell and flush; find() does not see it.
     *  @throws IoError on write failure.  Thread-safe. */
    void record(const std::string &key, const obs::Json &cell);

    /**
     * Load every complete cell of another checkpoint file into this
     * one's in-memory map WITHOUT appending to this file — the merge
     * protocol for sharded sweeps (`run_study --shards` writes one
     * checkpoint per shard; `--merge` absorbs them all, then runs
     * whatever is missing).  A torn final line in the absorbed file —
     * the residue of a crashed shard — is skipped exactly like on
     * resume, so that cell simply runs again in the merge.  A missing
     * file absorbs zero cells (the whole shard re-runs); that is a
     * warning, not an error, because the merge is the recovery path.
     * A key already present (from this file or an earlier absorb) is
     * overwritten — last absorb wins, see the conflict policy above.
     *
     * @returns the number of NET NEW keys absorbed; overwritten
     *          duplicates are not counted.
     */
    std::size_t absorb(const std::string &otherPath);

    /** Cells loaded from a previous run (resume only). */
    std::size_t loadedCells() const;

    /** Malformed (e.g. torn) lines skipped across load/absorb. */
    std::size_t skippedLines() const;

    const std::string &path() const { return path_; }

  private:
    void loadExisting();
    /** Parse @p file's JSONL lines into cells_; returns cells added. */
    std::size_t loadFrom(std::istream &in, const std::string &name);

    mutable prof::TimedMutex mu_{"guard.checkpoint"};
    std::string path_;
    std::ofstream out_;
    std::map<std::string, obs::Json> cells_;
    std::size_t loaded_ = 0;
    std::size_t skipped_ = 0;
    bool sealNeeded_ = false; ///< resumed file ends in a torn line
};

} // namespace lp::guard
