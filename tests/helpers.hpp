/**
 * @file
 * Shared test fixtures: small hand-built IR programs with known loop
 * structure, dependence classes, and expected results, and a strict
 * sweep over a program set.
 */

#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyses.hpp"
#include "core/sweep.hpp"
#include "interp/stdlib.hpp"
#include "ir/builder.hpp"

namespace lp::test {

/**
 * saxpy: three init loops then `c[i] = a[i]*3 + b[i]` over @p n elements;
 * main returns c[n-1].  Fully DOALL-parallel: computable IV, statically
 * disjoint accesses, no calls.
 */
std::unique_ptr<ir::Module> buildSaxpy(std::int64_t n);

/**
 * sum: `acc += a[i]` over @p n elements with a[i] = i; returns acc.
 * One reduction LCD; parallel only under reduc1 (or dep2/dep3).
 */
std::unique_ptr<ir::Module> buildSumReduction(std::int64_t n);

/**
 * chase: walks an @p n-node linked list threaded through a global arena
 * in allocation order (node i at arena[2*i]), summing payloads.  The
 * carried pointer is a non-computable but stride-predictable register
 * LCD; the "next" pointer loads early in each iteration, so HELIX-dep1
 * synchronization is cheap.
 */
std::unique_ptr<ir::Module> buildPointerChase(std::int64_t n);

/**
 * chase-shuffled: same list, but the nodes are threaded in a permuted
 * order, making the carried pointer unpredictable.
 */
std::unique_ptr<ir::Module> buildPointerChaseShuffled(std::int64_t n);

/**
 * histogram: `hist[key(i) % buckets]++` over @p n items; key is an
 * LCG-scrambled function of i.  Memory RAW conflicts whose frequency
 * drops as @p buckets grows.
 */
std::unique_ptr<ir::Module> buildHistogram(std::int64_t n,
                                           std::int64_t buckets);

/**
 * calls: a loop whose body calls one helper per element; variants select
 * a pure helper, an instrumentable impure helper (writes an out-array
 * element), or a helper calling the unsafe rand().
 */
enum class CalleeKind { Pure, Instrumented, UnsafeExt };
std::unique_ptr<ir::Module> buildLoopWithCalls(std::int64_t n,
                                               CalleeKind kind);

/**
 * callee-store: for i in 1..11 the loop loads a[i-1] and calls
 * @put(i, a[i-1] + i), which stores a[i]: every iteration after the
 * first reads what the previous one's callee stored, so 10
 * cross-iteration RAWs manifest through a function with no loop of its
 * own.  With @p loopStore the loop body also stores to a far slot of @a
 * that nothing reads.
 */
std::unique_ptr<ir::Module> buildCalleeStore(bool loopStore);

/**
 * callee-load: for i in 1..11 the loop calls the read-only @get(i-1),
 * which loads a[i-1], and stores a[i]: every iteration after the first
 * reads, through a function with no loop of its own, what the previous
 * one stored, so 10 cross-iteration RAWs manifest.
 */
std::unique_ptr<ir::Module> buildCalleeLoad();

/**
 * narrow-stride: for i in 0..11 the loop does a[i] += 1 on the 8-byte
 * word at @a + 4*i, a walk of 4 bytes per iteration: every odd
 * iteration loads the granule the previous one stored, so 6
 * cross-iteration RAWs manifest although no two iterations use the
 * same address.
 */
std::unique_ptr<ir::Module> buildNarrowStrideUpdate();

/**
 * Every fixture shape above by name (calls with a pure and with an
 * instrumented helper), plus the shuffled chase (unpredictable carried
 * value — the predictor-heavy case).
 */
std::vector<std::pair<std::string, std::unique_ptr<ir::Module>>>
allShapes();

/** The configurations of fuzz::fullGrid(), the grid lp_fuzz sweeps:
 *  every model, every dep/reduc/fn axis, both DOACROSS synchronization
 *  modes. */
std::vector<rt::LPConfig> fullGrid();

/**
 * A strict core::runSweep of @p configs (each labelled by its
 * LPConfig::str()) over @p programs on @p jobs workers, its table
 * discarded.  Returns the sweep document.
 */
obs::Json sweepDocument(const std::vector<core::BenchProgram> &programs,
                        const std::vector<rt::LPConfig> &configs,
                        unsigned jobs);

/** The analyses of @p fn within its module's bundle @p analyses. */
const analysis::FunctionAnalyses &
analysesOf(const analysis::ModuleAnalyses &analyses, const ir::Function &fn);

} // namespace lp::test
