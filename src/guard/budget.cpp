#include "guard/budget.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <mutex>
#include <optional>

#include "obs/log.hpp"
#include "support/error.hpp"

namespace lp::guard {

namespace {

std::mutex g_mu;
std::optional<RunBudget> g_override;

/** One LP_BUDGET_* variable; invalid values warn once and are ignored. */
std::uint64_t
budgetFromEnv(const char *var, std::uint64_t fallback)
{
    const char *env = std::getenv(var);
    if (!env || !*env)
        return fallback;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(*env)) || *end != '\0' ||
        errno == ERANGE) {
        obs::logMessage(obs::Level::Warn,
                        std::string(var) + " value not understood: " + env +
                            " (want a non-negative integer); ignoring",
                        /*force=*/true);
        return fallback;
    }
    return static_cast<std::uint64_t>(v);
}

/** LP_BUDGET_* parsed once per process. */
const RunBudget &
envBudget()
{
    static const RunBudget cached = [] {
        RunBudget b;
        b.maxInstructions =
            budgetFromEnv("LP_BUDGET_INSTRUCTIONS", b.maxInstructions);
        b.maxWallMs = budgetFromEnv("LP_BUDGET_WALL_MS", b.maxWallMs);
        b.maxHeapBytes =
            budgetFromEnv("LP_BUDGET_HEAP_BYTES", b.maxHeapBytes);
        return b;
    }();
    return cached;
}

} // namespace

RunBudget
defaultBudget()
{
    {
        std::lock_guard<std::mutex> lock(g_mu);
        if (g_override)
            return *g_override;
    }
    return envBudget();
}

void
setBudgetOverride(const RunBudget &b)
{
    std::lock_guard<std::mutex> lock(g_mu);
    g_override = b;
}

void
clearBudgetOverride()
{
    std::lock_guard<std::mutex> lock(g_mu);
    g_override.reset();
}

std::uint64_t
parseBudgetValue(const std::string &what, const std::string &text)
{
    // 10^18 leaves headroom below UINT64_MAX so downstream arithmetic
    // (fuel + block size, heap top + allocation) cannot wrap.
    constexpr std::uint64_t kMax = 1'000'000'000'000'000'000ULL;
    const char *s = text.c_str();
    if (!std::isdigit(static_cast<unsigned char>(*s)))
        throw ParseError("bad value for " + what +
                         " (want a non-negative integer): '" + text + "'");
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (*end != '\0' || errno == ERANGE || v > kMax)
        throw ParseError("value for " + what + " out of range (0..10^18): '" +
                         text + "'");
    return static_cast<std::uint64_t>(v);
}

} // namespace lp::guard
