#include "obs/log.hpp"

#include <cstdlib>
#include <iostream>
#include <mutex>

#include "obs/metrics.hpp"

namespace lp::obs {

namespace detail {
std::atomic<int> g_logLevel{static_cast<int>(Level::Off)};
}

namespace {

std::ostream *g_stream = nullptr; ///< null = stderr
std::mutex g_streamMu;            ///< lines never interleave

// Parse the environment once before main(); this TU is always linked
// (the error path references logMessage), so the initializer runs in
// every binary.
const bool g_envInit = (initFromEnv(), true);

} // namespace

const char *
levelName(Level l)
{
    switch (l) {
      case Level::Off: return "off";
      case Level::Error: return "error";
      case Level::Warn: return "warn";
      case Level::Info: return "info";
      case Level::Debug: return "debug";
    }
    return "?";
}

Level
parseLevel(const std::string &s)
{
    if (s == "error")
        return Level::Error;
    if (s == "warn" || s == "warning")
        return Level::Warn;
    if (s == "info")
        return Level::Info;
    if (s == "debug")
        return Level::Debug;
    return Level::Off;
}

bool
isLevelName(const std::string &s)
{
    return s == "off" || s == "error" || s == "warn" || s == "warning" ||
           s == "info" || s == "debug";
}

Level
logLevel()
{
    return static_cast<Level>(
        detail::g_logLevel.load(std::memory_order_relaxed));
}

void
setLogLevel(Level l)
{
    detail::g_logLevel.store(static_cast<int>(l),
                             std::memory_order_relaxed);
}

void
setLogStream(std::ostream *os)
{
    g_stream = os;
}

void
logMessage(Level l, const std::string &msg, bool force)
{
    if (!force && !logOn(l))
        return;
    std::lock_guard<std::mutex> lock(g_streamMu);
    std::ostream &os = g_stream ? *g_stream : std::cerr;
    os << "[lp:" << levelName(l) << "] " << msg << '\n';
}

void
initFromEnv()
{
    (void)g_envInit; // silence unused warning; forces the TU's init

    if (const char *lvl = std::getenv("LP_LOG")) {
        if (*lvl && !isLevelName(lvl)) {
            // Warn exactly once: a misspelled LP_LOG silently dropping
            // all diagnostics is the worst possible failure mode.
            static const bool warned = [&] {
                logMessage(Level::Error,
                           std::string("LP_LOG value not understood: ") +
                               lvl + " (want off|error|warn|info|debug); "
                               "logging stays off",
                           /*force=*/true);
                return true;
            }();
            (void)warned;
        }
        setLogLevel(parseLevel(lvl));
    }

    const char *metrics = std::getenv("LP_METRICS");
    if (metrics && *metrics && std::string(metrics) != "0")
        setMetricsEnabled(true);
}

} // namespace lp::obs
