/**
 * @file
 * sweep_bench: the measuring half of the sweep benchmark
 * (perfbench/README.md; perfbench/run.py builds and drives it).
 *
 *   sweep_bench --workload suite_sweep|lint_sweep|gen_sweep --seed N
 *               [--gen-seed G] --seconds S --mode e2e|layers --out PATH
 *               --work-dir DIR [--spans PATH]
 *
 * --seed picks the cells checked against the interpret-every-cell path;
 * --gen-seed (default 1) draws gen_sweep's programs.
 *
 * --mode e2e times untraced core::runSweep calls (end-to-end metrics);
 * --mode layers is the traced run (layers.cpp).  Either way the result
 * is one JSON object written to --out, and every sweep's report is
 * checked (bench.hpp, Checker).
 */

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "bench.hpp"
#include "exec/pool.hpp"
#include "support/error.hpp"

using namespace lp;
using namespace lp::bench;

namespace {

/// Set-up takes milliseconds: time several per round.
constexpr int kSetupsPerRound = 10;
/// Full-width sweeps per round: about as long as the round's 1-job
/// sweeps, which give one sample per CPU.
constexpr int kFullPerRound = 3;
/// Timed rounds even when --seconds is short.
constexpr std::size_t kMinRounds = 3;
/**
 * What calibrationSeconds() takes on the reference host, about, with
 * every CPU running it.  Timings are reported scaled to it: a timing
 * is multiplied by this over the kernel's time measured next to it.
 */
constexpr double kReferenceCalibrationS = 0.030;

obs::Json
samplesJson(const std::vector<double> &v)
{
    obs::Json a = obs::Json::array();
    for (double x : v)
        a.push(x);
    return a;
}

/** What a serial worker sends back for one command. */
struct SerialReply
{
    double seconds = 0; ///< the sweep's wall time, or the calibration's
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * One forked copy of this process per allowed CPU, pinned there, each
 * running a 1-job sweep of the workload, or the calibration kernel,
 * whenever asked.  A round's 1-job samples are thus taken on every CPU
 * at once: on a shared host each virtual CPU is slowed by other tenants
 * on its own schedule, and a serial sweep on one CPU at a time reads
 * whichever CPU it landed on.
 *
 * Each child checks its sweeps against the reference it inherited and
 * reports the counts.  The children write their own checkpoint files.
 * They exit when their command pipe closes, which stop() does before it
 * waits for every one of them; a child whose parent dies is killed
 * (PR_SET_PDEATHSIG).
 */
class SerialWorkers
{
  public:
    SerialWorkers(const Workload &w, Checker &check,
                  const std::vector<int> &cpus)
        : check_(check)
    {
        // A dead child must fail the run, not kill this process.
        std::signal(SIGPIPE, SIG_IGN);
        std::cout.flush();
        std::cerr.flush();
        try {
            start(w, check, cpus);
        }
        catch (...) {
            stop();
            throw;
        }
    }

    ~SerialWorkers() { stop(); }

    SerialWorkers(const SerialWorkers &) = delete;
    SerialWorkers &operator=(const SerialWorkers &) = delete;

    /** One 1-job sweep in every child at once; their wall times. */
    std::vector<double> sweep() { return ask('s'); }

    /** calibrationSeconds() in every child at once; their times. */
    std::vector<double> calibrate() { return ask('c'); }

  private:
    struct Child
    {
        pid_t pid;
        int cmd; ///< write end of the child's command pipe
        int res; ///< read end of its reply pipe
    };

    void start(const Workload &w, Checker &check,
               const std::vector<int> &cpus)
    {
        const std::size_t n = std::max<std::size_t>(cpus.size(), 1);
        const pid_t parent = getpid();
        for (std::size_t k = 0; k < n; ++k) {
            int cmd[2], res[2];
            if (pipe(cmd) != 0)
                fatal("serial workers: pipe failed");
            if (pipe(res) != 0) {
                close(cmd[0]);
                close(cmd[1]);
                fatal("serial workers: pipe failed");
            }
            const pid_t pid = fork();
            if (pid < 0) {
                for (int fd : {cmd[0], cmd[1], res[0], res[1]})
                    close(fd);
                fatal("serial workers: fork failed");
            }
            if (pid == 0) {
                close(cmd[1]);
                close(res[0]);
                // Command pipes of earlier siblings stay open in this
                // child otherwise, and those siblings would never see EOF.
                for (const Child &c : children_) {
                    close(c.cmd);
                    close(c.res);
                }
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                if (getppid() != parent)
                    _exit(1);
                serve(w, check, cpus.empty() ? -1 : cpus[k], k, cmd[0],
                      res[1]);
            }
            close(cmd[0]);
            close(res[1]);
            children_.push_back({pid, cmd[1], res[0]});
        }
    }

    /** Close every command pipe (children exit on EOF), then reap. */
    void stop()
    {
        for (const Child &c : children_)
            close(c.cmd);
        for (const Child &c : children_) {
            close(c.res);
            while (waitpid(c.pid, nullptr, 0) < 0 && errno == EINTR) {
            }
        }
        children_.clear();
    }

    std::vector<double> ask(char what)
    {
        for (const Child &c : children_)
            if (write(c.cmd, &what, 1) != 1)
                fatal("serial workers: a worker is gone");
        std::vector<double> seconds;
        for (const Child &c : children_) {
            SerialReply r;
            if (!readAll(c.res, &r, sizeof r))
                fatal("serial workers: a worker died");
            check_.count(r.attempted, r.failed,
                         "a 1-job sweep differs from the reference");
            seconds.push_back(r.seconds);
        }
        return seconds;
    }

    static bool readAll(int fd, void *buf, std::size_t n)
    {
        char *p = static_cast<char *>(buf);
        while (n != 0) {
            const ssize_t got = read(fd, p, n);
            if (got < 0 && errno == EINTR)
                continue;
            if (got <= 0)
                return false;
            p += got;
            n -= static_cast<std::size_t>(got);
        }
        return true;
    }

    [[noreturn]] static void serve(const Workload &w, Checker &check,
                                   int cpu, std::size_t k, int cmdFd,
                                   int resFd)
    {
        if (cpu >= 0) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            sched_setaffinity(0, sizeof(one), &one);
        }
        Workload mine = w;
        if (!mine.request.checkpointPath.empty())
            mine.request.checkpointPath += ".serial" + std::to_string(k);
        char what;
        while (readAll(cmdFd, &what, 1)) {
            SerialReply r;
            try {
                if (what == 'c') {
                    r.seconds = calibrationSeconds();
                }
                else {
                    const std::uint64_t a0 = check.attempted();
                    const std::uint64_t f0 = check.failed();
                    const SweepRun run = runSweepAt(mine, 1);
                    check.checkSweep(run);
                    r.seconds = run.wallS;
                    r.attempted = check.attempted() - a0;
                    r.failed = check.failed() - f0;
                }
            }
            catch (const std::exception &e) {
                std::cerr << "sweep_bench: serial worker: " << e.what()
                          << "\n";
                _exit(1);
            }
            if (write(resFd, &r, sizeof r) != sizeof r)
                break;
        }
        _exit(0);
    }

    Checker &check_;
    std::vector<Child> children_;
};

/** Samples as measured, and each one scaled to the reference speed. */
struct Timings
{
    std::vector<double> raw, scaled;

    void add(double seconds, double calibrationS)
    {
        raw.push_back(seconds);
        scaled.push_back(seconds * kReferenceCalibrationS / calibrationS);
    }
};

/**
 * The end-to-end run: an untimed warm-up (cold sweeps ran about three
 * times slower than warm ones), then rounds until @p seconds have
 * passed.  A round, nothing in it overlapping:
 *
 *  1. on allowed CPU r mod nproc (PinnedThread): the calibration
 *     kernel, a few set-ups, the kernel again;
 *  2. sweeps at full width;
 *  3. the kernel on every CPU at once (SerialWorkers);
 *  4. one 1-job sweep on every CPU at once.
 *
 * Each timing is scaled by the kernel's time next to it (Timings), and
 * every metric is the median of its scaled samples.
 */
obs::Json
runEndToEnd(const Workload &w, Checker &check, unsigned width,
            double seconds)
{
    // setup_s: program list to a prepared Study, on one worker.
    core::StudyOptions so;
    so.keepGoing = true; // as runSweep prepares
    so.jobs = 1;
    std::unique_ptr<core::Study> study;
    const std::vector<int> cpus = allowedCpus();
    Timings setup, wallN, wall1;
    std::vector<double> calOne, calAll;

    // Warm-up: the first document becomes the reference once its
    // sampled cells match the interpret-every-cell path.
    check.checkSweep(runSweepAt(w, width));
    study = std::make_unique<core::Study>(w.programs, so);
    check.checkSample(*study, width);
    study.reset();
    SerialWorkers serial(w, check, cpus);
    serial.sweep(); // the children's own warm-up
    serial.calibrate();

    const Clock::time_point t0 = Clock::now();
    double roundS = 0;
    for (std::size_t round = 0;
         round < kMinRounds || secondsSince(t0) + roundS < seconds;
         ++round) {
        const Clock::time_point r0 = Clock::now();
        {
            std::optional<PinnedThread> pin;
            if (!cpus.empty())
                pin.emplace(cpus[round % cpus.size()]);
            const double before = calibrationSeconds();
            std::vector<double> s;
            for (int i = 0; i < kSetupsPerRound; ++i) {
                study.reset();
                const Clock::time_point s0 = Clock::now();
                study = std::make_unique<core::Study>(w.programs, so);
                s.push_back(secondsSince(s0));
            }
            study.reset();
            const double cal = (before + calibrationSeconds()) / 2;
            calOne.push_back(cal);
            for (double x : s)
                setup.add(x, cal);
        }
        std::vector<double> full;
        for (int i = 0; i < kFullPerRound; ++i) {
            const SweepRun run = runSweepAt(w, width);
            check.checkSweep(run);
            full.push_back(run.wallS);
        }
        const double cal = median(serial.calibrate());
        calAll.push_back(cal);
        for (double x : full)
            wallN.add(x, cal);
        for (double x : serial.sweep())
            wall1.add(x, cal);
        roundS = secondsSince(r0);
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    obs::Json out = obs::Json::object();
    out.set("wall_s", median(wallN.scaled));
    out.set("wall_1j_s", median(wall1.scaled));
    out.set("setup_s", median(setup.scaled));
    out.set("peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0);
    for (const auto &[name, t] :
         {std::pair<const char *, const Timings *>{"wall_s", &wallN},
          {"wall_1j_s", &wall1},
          {"setup_s", &setup}}) {
        const std::string n = name;
        out.set(n + "_raw", median(t->raw));
        out.set(n + "_samples", samplesJson(t->scaled));
        out.set(n + "_raw_samples", samplesJson(t->raw));
    }
    out.set("calibration_reference_s", kReferenceCalibrationS);
    out.set("calibration_one_cpu_s", samplesJson(calOne));
    out.set("calibration_all_cpus_s", samplesJson(calAll));
    return out;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "sweep_bench: " << why
              << "\nusage: sweep_bench --workload NAME --seed N "
                 "[--gen-seed G] --seconds S --mode e2e|layers --out PATH "
                 "--work-dir DIR [--spans PATH]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, mode, outPath, workDir, spansPath;
    std::uint64_t seed = 0, genSeed = 1;
    double seconds = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(a + " needs a value");
        const std::string v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--mode")
            mode = v;
        else if (a == "--out")
            outPath = v;
        else if (a == "--work-dir")
            workDir = v;
        else if (a == "--spans")
            spansPath = v;
        else if (a == "--seed")
            seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--gen-seed")
            genSeed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            seconds = std::strtod(v.c_str(), nullptr);
        else
            usage("unknown option " + a);
    }
    if (workload.empty() || outPath.empty() || workDir.empty() ||
        seconds <= 0 || (mode != "e2e" && mode != "layers") ||
        (mode == "layers" && spansPath.empty()))
        usage("missing or bad arguments");
    if (!optimisedBuild()) {
        std::cerr << "sweep_bench: refusing to time an unoptimised build\n";
        return 2;
    }

    try {
        // Before any jobs override: hardwareThreads() also reads it.
        const unsigned width = fullWidth();
        const obs::Json host = hostRecord(width);
        const Workload w = makeWorkload(workload, genSeed, workDir, width);
        Checker check(w, seed);

        obs::Json out = obs::Json::object();
        out.set("workload", w.name);
        out.set("mode", mode);
        out.set("seed", seed);
        out.set("host", host);
        out.set("inputs", w.inputs);
        out.set("cells", sweepCells(w).size());
        out.set("result", mode == "e2e"
                              ? runEndToEnd(w, check, width, seconds)
                              : runLayers(w, check, width, workDir,
                                          seconds, spansPath));
        out.set("attempted", check.attempted());
        out.set("failed", check.failed());
        out.set("sample_cells", check.sampleSize());
        out.set("report_digest", check.digest());
        obs::Json notes = obs::Json::array();
        for (const std::string &n : check.notes())
            notes.push(n);
        out.set("notes", std::move(notes));

        std::ofstream f(outPath, std::ios::trunc);
        f << out.dump(2) << '\n';
        if (!f) {
            std::cerr << "sweep_bench: cannot write " << outPath << "\n";
            return 1;
        }
    }
    catch (const std::exception &e) {
        std::cerr << "sweep_bench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
