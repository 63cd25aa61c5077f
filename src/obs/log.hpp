/**
 * @file
 * Leveled logging for the whole framework — the single diagnostics path.
 *
 * Off by default.  `LP_LOG=off|error|warn|info|debug` selects the level at
 * process start (an unrecognized value warns once, naming the accepted
 * spellings); setLogLevel() overrides it programmatically.  The guard
 * is an inline relaxed read of one atomic, so a disabled log site costs
 * one predictable branch — cheap enough for per-run (not
 * per-instruction) call sites.  Messages go to stderr (or a
 * test-installed stream).
 *
 * Thread-safety: logMessage serializes its text output behind a mutex,
 * so lp::exec workers may log concurrently; lines never interleave.
 * setLogLevel/setLogStream are quiescent-only.
 *
 * The LP_LOG* macros evaluate their format arguments only when the level
 * is enabled:
 *
 *     LP_LOG_INFO("analyzed %s: %zu loops", name.c_str(), n);
 */

#pragma once

#include <atomic>
#include <ostream>
#include <string>

namespace lp::obs {

/** Verbosity, ordered: a level enables everything below it. */
enum class Level { Off = 0, Error = 1, Warn = 2, Info = 3, Debug = 4 };

/** "off"/"error"/"warn"/"info"/"debug". */
const char *levelName(Level l);

/** Parse an LP_LOG value; unknown strings map to Off. */
Level parseLevel(const std::string &s);

/** Is @p s one of the accepted LP_LOG spellings? */
bool isLevelName(const std::string &s);

namespace detail {
extern std::atomic<int> g_logLevel; ///< Level as int; read inline
}

/** Is @p l currently enabled?  Inlines to one relaxed load + compare. */
inline bool
logOn(Level l)
{
    return detail::g_logLevel.load(std::memory_order_relaxed) >=
           static_cast<int>(l);
}

/** Current level. */
Level logLevel();

/** Override the level (tests, embedders). */
void setLogLevel(Level l);

/**
 * Emit @p msg at @p l unconditionally (callers normally guard with
 * logOn(); panic() passes @p force to bypass LP_LOG=off).
 */
void logMessage(Level l, const std::string &msg, bool force = false);

/**
 * Redirect log text output (default: stderr).  Pass nullptr to restore
 * the default.  Used by tests to capture output.
 */
void setLogStream(std::ostream *os);

/**
 * Parse LP_LOG / LP_METRICS and configure the whole obs layer.
 * Idempotent; runs automatically before main() but is safe to call
 * again after the environment changed.  An unrecognized LP_LOG value
 * emits a one-time warning naming the accepted values instead of being
 * dropped silently.
 */
void initFromEnv();

} // namespace lp::obs

// Format-and-emit macros: arguments are not evaluated when disabled.
// They use lp::strf, so the including TU needs support/text.hpp (every
// target already links lp_support).
#define LP_LOG_AT(lvl, ...)                                              \
    do {                                                                 \
        if (::lp::obs::logOn(lvl))                                       \
            ::lp::obs::logMessage(lvl, ::lp::strf(__VA_ARGS__));         \
    } while (0)

#define LP_LOG_ERROR(...) LP_LOG_AT(::lp::obs::Level::Error, __VA_ARGS__)
#define LP_LOG_WARN(...) LP_LOG_AT(::lp::obs::Level::Warn, __VA_ARGS__)
#define LP_LOG_INFO(...) LP_LOG_AT(::lp::obs::Level::Info, __VA_ARGS__)
#define LP_LOG_DEBUG(...) LP_LOG_AT(::lp::obs::Level::Debug, __VA_ARGS__)
