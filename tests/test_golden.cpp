/**
 * @file
 * Golden digests: the byte-identity gate for the interpreter, the trace
 * recorder and the sweep reports.
 *
 * Pinned: for each suite program and a window of fuzz seeds, the bare
 * run's result and dynamic-instruction count and the recorded trace's
 * final cost, event count and payload; and the JSON documents of the
 * default all-suite sweep and of the --lint sweep.  Those documents are
 * the bytes `run_study --json` writes: md5
 * 923a8a0b980b739e72d193805e1c14b7 (default) and
 * 6ca28115ef9337ff203307ad2ceaffaf (--lint).
 * The values were recorded with the pointer-IR evaluator, before the
 * interpreter ran lowered code, and both produce them bit for bit.
 *
 * A change that alters any of these on purpose must say why and pin the
 * new values; an accidental change is a bug.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "core/driver.hpp"
#include "core/sweep.hpp"
#include "fuzz/generator.hpp"
#include "interp/machine.hpp"
#include "suites/registry.hpp"

namespace lp {
namespace {

std::uint64_t
fnv1a(const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * One pinned program: the bare run's result and cost (which is also the
 * trace's final cost), and the recorded trace's event count and the
 * FNV-1a of its payload.
 */
struct Pinned
{
    std::uint64_t result, cost, events, payload;
};

void
expectPinned(const std::string &name, const ir::Module &mod,
             const Pinned &want)
{
    interp::Machine bare(mod);
    EXPECT_EQ(bare.run(), want.result) << name;
    EXPECT_EQ(bare.cost(), want.cost) << name;

    core::Loopapalooza lp(mod);
    const trace::Trace &t = lp.trace();
    EXPECT_EQ(t.finalCost, want.cost) << name;
    EXPECT_EQ(t.events, want.events) << name;
    EXPECT_EQ(fnv1a(t.payload.data(), t.payload.size()), want.payload)
        << name;
}

struct SuiteRow
{
    const char *program;
    std::uint64_t result, cost, events, payload;
};

/** suites::allPrograms(), in registry order. */
const SuiteRow kSuites[] = {
    {"eembc.a2time", 890825666036, 1152736, 442347, 0x757fd70dfeb38aed},
    {"eembc.aifir", 0x8000000000000000, 578912, 252311, 0xfc85a0de57ff451c},
    {"eembc.autcor", 1195436293, 1323108, 554925, 0xe3b40982b2f9412f},
    {"eembc.viterb", 4981, 434611, 114711, 0x67c61b972231022d},
    {"eembc.idctrn", 1514813713192, 1472831, 567443, 0x64d2886d617a54d2},
    {"eembc.rgbcmyk", 511633294168554067, 2890843, 801303, 0xff4c72f492593e9a},
    {"171.swim-like", 172738124, 2151784, 842099, 0xc3e4849e745f779a},
    {"179.art-like", 29264, 503915, 197801, 0xe3f03ee4f6efd1b3},
    {"183.equake-like", 632, 468422, 186096, 0xfad68a8d530b4a8f},
    {"177.mesa-like", 0x8000000000000000, 726024, 222460, 0x369551fc8265b861},
    {"188.ammp-like", 7856, 178632, 45506, 0x615e945521b5305e},
    {"433.milc-like", 0x8000000000000000, 957628, 326023, 0x76ecf8f7dbaaaff1},
    {"444.namd-like", 0, 223120, 62258, 0x74c6ae854ad3ebc4},
    {"450.soplex-like", 0x8c87a41d9361dbb0, 382644, 149269,
     0xa8441b972285930c},
    {"470.lbm-like", 43221, 812086, 314674, 0x5a5fbf3ff2b91c0a},
    {"482.sphinx3-like", 319, 185118, 29545, 0xc66974c478ffe77a},
    {"164.gzip-like", 0xe58664c904082048, 2098136, 307033, 0x5d2a3aa606806d7b},
    {"175.vpr-like", 286795161454501840, 228069, 60386, 0xee5f4f8e49c8baa1},
    {"176.gcc-like", 0xb5a26c55828b858c, 1239640, 195056, 0x50e0a19bc5f92ec8},
    {"181.mcf-like", 0xcb3dbfddc897ddd3, 408871, 101073, 0x120aac90994d9c80},
    {"186.crafty-like", 1537517374325866579, 218222, 72097,
     0xa5c257f14359abe9},
    {"197.parser-like", 0xd9b63aef1be196d2, 964992, 215082,
     0x24da01ba98ef3a47},
    {"256.bzip2-like", 3721248703110296324, 3305699, 394800,
     0x8f0266e913919d57},
    {"401.bzip2-like", 0x9fe88171ff27fd35, 2194233, 522238,
     0x1d5f6e5fad7c7873},
    {"429.mcf-like", 2755532242114205977, 488305, 145521, 0x01835e6c9d399d82},
    {"445.gobmk-like", 4737496570658173942, 148739, 56164, 0x5b9ca50dc42582c5},
    {"456.hmmer-like", 7324, 373735, 111882, 0xac5180d07c04b2aa},
    {"458.sjeng-like", 0xe94f7c948378acd9, 194591, 60011, 0xa03af90682976f57},
    {"462.libquantum-like", 0xb17fc3e4f50af9c6, 909663, 532350,
     0x3814f5ce3bcbe392},
    {"464.h264ref-like", 0x968e8100a6481e43, 641752, 220604,
     0x9760fd89fb990ad8},
};

TEST(Golden, SuitePrograms)
{
    const auto &programs = suites::allPrograms();
    ASSERT_EQ(programs.size(), std::size(kSuites));
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const SuiteRow &row = kSuites[i];
        ASSERT_EQ(programs[i].name, row.program);
        auto mod = programs[i].build();
        expectPinned(row.program, *mod,
                     {row.result, row.cost, row.events, row.payload});
    }
}

struct FuzzRow
{
    std::uint64_t seed;
    std::uint64_t result, cost, events, payload;
};

/** fuzz::generateProgram(seed) with default options, seeds 0-63. */
const FuzzRow kFuzz[] = {
    {0, 50, 129194, 54541, 0xc4fc86a81c16e6e5},
    {1, 74, 144414, 51250, 0xc467be7068a136db},
    {2, 0, 138444, 45792, 0xed14298f6483e114},
    {3, 64, 88965, 36187, 0x7a241acfee444e1a},
    {4, 0, 19683, 9120, 0xe5e38e0d10f710b6},
    {5, 3, 24320, 10062, 0xf77d0b2eb66732bb},
    {6, 64810, 119188, 42064, 0x34597f8e19b3633a},
    {7, 0xb5d4332222be3080, 61787, 23385, 0x4193987e821f17c7},
    {8, 35, 88358, 33384, 0xac3299454e2a6712},
    {9, 17, 33109, 12599, 0xc9c7c39f06b9e681},
    {10, 117, 42724, 15489, 0x0a8bdd501b45baa4},
    {11, 17, 106971, 37755, 0x5dc68cfc9a4df34f},
    {12, 0, 50474, 18048, 0x82544372a3307127},
    {13, 17, 79732, 30603, 0x3b53a308ad748206},
    {14, 0, 44813, 18016, 0xbc94ea85fd205cef},
    {15, 228, 103320, 36726, 0x29559a370c2c709c},
    {16, 22, 19741, 8714, 0x282b2d61b026d94d},
    {17, 257, 68630, 26034, 0x5161812310579805},
    {18, 0, 63279, 26772, 0x72cdf4a4fc42fd48},
    {19, 0, 70940, 29006, 0xa012fff77c684c4c},
    {20, 67, 61728, 26199, 0x51f8425ca92a2d38},
    {21, 0, 33765, 11334, 0x6954457f4f37bf2b},
    {22, 111, 143411, 52883, 0x269ae99f0929d7b5},
    {23, 881, 152599, 61775, 0xd39234ea3534a120},
    {24, 54, 24954, 8680, 0xa8eb022cb7fefba4},
    {25, 3, 91333, 35683, 0x9db6571676579f8f},
    {26, 2, 30050, 12733, 0xa6c13078bbd915d7},
    {27, 98, 21587, 7929, 0x4779104e482424d1},
    {28, 17, 4352, 1650, 0xd3224979b136fcc4},
    {29, 0, 30751, 12235, 0xf1b0f95da5dbc02f},
    {30, 1, 1994, 672, 0xdc13c4a36b5c77ad},
    {31, 0, 2065, 815, 0x8a597f57d9794169},
    {32, 0, 4775, 1847, 0x17ebdaa2e1784545},
    {33, 15, 1213, 467, 0x06f1756ea81cc1b0},
    {34, 0, 30918, 11031, 0x3502a1aef5f8b866},
    {35, 0, 56660, 19849, 0x82fa98cc54c9c703},
    {36, 348, 158037, 62941, 0x589200a0210ca7ac},
    {37, 45, 145291, 56455, 0xaf591daaedd3948b},
    {38, 1020, 12194, 4499, 0xec5ff667d01a6db4},
    {39, 80, 97362, 37291, 0x9c263fbec5508e4d},
    {40, 7, 2534, 1002, 0x85a9748501a9e0e8},
    {41, 0, 1753, 592, 0x09d2ec4fe77339ea},
    {42, 0, 1104, 414, 0xad896422b51bb4e0},
    {43, 114, 40702, 17742, 0x71e956a7f41cf56b},
    {44, 28, 52166, 18584, 0x238e4ef8906eeeb6},
    {45, 3, 3883, 1334, 0x80d47d34df8592e0},
    {46, 3, 67295, 25656, 0xa18b03589b8ecaef},
    {47, 17, 47803, 18264, 0xc01ab095bc39e337},
    {48, 3, 27571, 9488, 0x4aa752c33bb32c44},
    {49, 1179, 125290, 45389, 0x004958f090efbedb},
    {50, 3, 19840, 8114, 0xe7f5451454a3b88f},
    {51, 0, 15483, 5801, 0xaed8dae16275d4e7},
    {52, 0, 2370, 863, 0x5cf1adca2b7955ab},
    {53, 3, 77834, 28872, 0x0265890b79ad24d0},
    {54, 18, 4205, 1574, 0x33df1a1c304ffe8d},
    {55, 37, 69321, 28998, 0xde1e4682fc164ef6},
    {56, 25, 14160, 4921, 0x2300e681bc29f81a},
    {57, 1226, 79344, 28669, 0x161b477761bee106},
    {58, 4, 55147, 23946, 0x520603a5ce5442f4},
    {59, 61, 136098, 54569, 0x23cf2fc4c3ca40a2},
    {60, 631, 137327, 42181, 0x654c0987ed39a872},
    {61, 0, 4331, 1634, 0x836e492c6af2ef44},
    {62, 185, 41075, 15693, 0x3c43570b6a3d544c},
    {63, 0, 41865, 16455, 0x1eabedf797d897d6},
};

TEST(Golden, FuzzPrograms)
{
    for (const FuzzRow &row : kFuzz) {
        auto mod = fuzz::generateProgram(row.seed);
        expectPinned(fuzz::programName(row.seed), *mod,
                     {row.result, row.cost, row.events, row.payload});
    }
}

/** FNV-1a of the all-suite sweep document as run_study --json writes it. */
std::uint64_t
sweepDigest(int lintMode)
{
    core::SweepRequest req;
    req.keepGoing = false;
    req.wantJson = true;
    req.lintMode = lintMode;
    std::ostream discard(nullptr);
    const std::string bytes =
        core::runSweep(suites::allPrograms(), req, discard)
            .document.dump(2) +
        "\n";
    return fnv1a(bytes.data(), bytes.size());
}

TEST(Golden, DefaultSweepReport)
{
    EXPECT_EQ(sweepDigest(0), 0x8c76e72920956ceaULL);
}

TEST(Golden, LintSweepReport)
{
    EXPECT_EQ(sweepDigest(1), 0x68aa7d3ad12cd27fULL);
}

} // namespace
} // namespace lp
