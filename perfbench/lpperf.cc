/**
 * @file
 * lpperf — the repository's benchmark driver. One process runs one
 * workload (so peak RSS is per workload):
 *
 *   lpperf prepare --workload W --dir D
 *       build the libraries the replay workloads load (one-time cost,
 *       never timed) into D.
 *   lpperf run --workload W --seed N --seconds T --trace 0|1 --dir D
 *              [--out O] [--plant-mismatch]
 *       trace 0: closed-loop end-to-end runs for T seconds, untraced;
 *       trace 1: the traced single-thread stage walk (per-layer split)
 *       plus a timestamped engine run. Prints a table, then one JSON
 *       line; writes a result file (and, traced, a Chrome trace) to O.
 *
 * Workloads: campaign-4cfg, cell-delta, build-delta (see README.md).
 * Every run checks its outputs; the exit code is 1 when any check
 * failed.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "codec/zip.hh"
#include "core/builder.hh"
#include "core/campaign.hh"
#include "core/replay.hh"
#include "core/runners.hh"
#include "inputs.hh"
#include "trace.hh"
#include "util/log.hh"
#include "walker.hh"

using namespace lp;
using namespace lpperf;

namespace
{

/** Set-ups per CPU at least, and the time they fill at least. */
constexpr int kSetupsPerCpu = 2;
constexpr double kSetupSeconds = 1.0;

/** Closed-loop iterations at least, however short --seconds is. */
constexpr int kMinIterations = 3;

/** Visit orders per cell-delta round (its ttc_s averages over them). */
constexpr unsigned kCellOrders = 8;

/** Leading windows the traced build walk covers on replay workloads. */
constexpr std::uint64_t kWalkBuildPrefix = 240;

/** Points and alternations of the tracing-overhead measurement. */
constexpr std::size_t kOverheadPoints = 64;
constexpr int kOverheadRounds = 5;

struct Args
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = kBaselineSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string dir;
    std::string out;
    bool plant = false;
};

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        throw std::invalid_argument("usage: lpperf prepare|run ...");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument("missing value for " + k);
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = value();
        else if (k == "--seed")
            a.seed = std::stoull(value());
        else if (k == "--seconds")
            a.seconds = std::stod(value());
        else if (k == "--trace")
            a.trace = value() != "0";
        else if (k == "--dir")
            a.dir = value();
        else if (k == "--out")
            a.out = value();
        else if (k == "--plant-mismatch")
            a.plant = true;
        else
            throw std::invalid_argument("unknown argument " + k);
    }
    if (a.mode != "prepare" && a.mode != "run")
        throw std::invalid_argument("mode must be prepare or run");
    if (a.workload != "campaign-4cfg" && a.workload != "cell-delta" &&
        a.workload != "build-delta")
        throw std::invalid_argument("unknown workload '" + a.workload +
                                    "'");
    if (a.dir.empty())
        throw std::invalid_argument("--dir is required");
    return a;
}

std::string
libPath(const Args &a, const std::string &name)
{
    return a.dir + "/" + name + ".lpl";
}

// --- Host fingerprint ------------------------------------------------

std::string
readFirstLine(const char *path)
{
    std::ifstream f(path);
    std::string line;
    std::getline(f, line);
    return line;
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t c = line.find(':');
            return c == std::string::npos ? line : line.substr(c + 2);
        }
    }
    return "unknown";
}

/** CPU seconds of every thread of this process so far. */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/**
 * The reference (byte-at-a-time) decoder's MB/s over a library's
 * plain records: a machine-speed yardstick, best of three passes.
 */
double
referenceDecodeMBps(const LivePointLibrary &lib)
{
    Blob out;
    double best = 0.0;
    for (int pass = 0; pass < 3; ++pass) {
        std::uint64_t bytes = 0;
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0, used = 0; i < lib.size() && used < 32;
             ++i) {
            if (lib.recordFlags(i))
                continue;
            const ByteSpan r = lib.record(i);
            zipDecompressReferenceInto(r.data, r.size, out);
            bytes += out.size();
            ++used;
        }
        const double dt = secondsSince(t0);
        if (dt > 0)
            best = std::max(best, static_cast<double>(bytes) / dt / 1e6);
    }
    return best;
}

// --- Metrics ----------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    std::size_t n = 0;
    double p99 = std::nan("");
    std::vector<double> samples; //!< every run's value, when several
    bool gated = true;           //!< printed in the result JSON line
};

class Report
{
  public:
    void
    add(const std::string &name, const std::string &unit, double value,
        std::size_t n)
    {
        metrics_.push_back({name, unit, value, n, std::nan(""), {}, true});
    }

    /** A timing: median in @p unit (seconds scaled by @p scale) + p99. */
    void
    timing(const std::string &name, const std::string &unit,
           const std::vector<double> &seconds, double scale)
    {
        const Summary s = summarize(seconds);
        metrics_.push_back(
            {name, unit, s.median * scale, s.n, s.p99 * scale, {}, true});
    }

    /**
     * The median of @p samples, keeping them for the result file; an
     * ungated metric goes to the table and the file only.
     */
    void
    median(const std::string &name, const std::string &unit,
           const std::vector<double> &samples, bool gated = true)
    {
        const Summary s = summarize(samples);
        metrics_.push_back(
            {name, unit, s.median, s.n, std::nan(""), samples, gated});
    }

    const std::vector<Metric> &metrics() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += ' ';
        else
            out += c;
    }
    return out + "\"";
}

struct Host
{
    unsigned nproc = 0;
    std::string cpu;
    std::string loadBefore;
    std::string loadAfter;
    double refDecodeMBps = 0.0;
};

// --- Shared workload pieces ----------------------------------------------

/** The replay workloads' loaded inputs. */
struct ReplayInputs
{
    std::vector<Program> progs;
    std::vector<LivePointLibrary> libs;
    std::vector<double> generateSeconds; //!< per setup
    std::vector<double> loadSeconds;     //!< per library load
};

/** Generate @p names' programs and load their libraries from @p paths. */
void
loadInputs(const std::vector<std::string> &names,
           const std::vector<std::string> &paths, ReplayInputs &in)
{
    in.progs.clear();
    in.libs.clear();
    in.progs.reserve(names.size());
    in.libs.reserve(names.size());
    Clock::time_point t0 = Clock::now();
    for (const std::string &n : names)
        in.progs.push_back(makeProgram(n));
    in.generateSeconds.push_back(secondsSince(t0));
    for (const std::string &p : paths) {
        t0 = Clock::now();
        in.libs.push_back(LivePointLibrary::load(p));
        in.loadSeconds.push_back(secondsSince(t0));
    }
}

void
checkDesigns(const ReplayInputs &in, Checks &checks)
{
    for (std::size_t w = 0; w < in.libs.size(); ++w)
        checks.expect(in.libs[w].design() == designFor(in.progs[w]) &&
                          in.libs[w].size() == kLibraryPoints,
                      "library " + in.progs[w].name +
                          " matches its program's sample design");
}

void
checkHeldOut(const Args &a, Checks &checks)
{
    // The other seed of the pair: the held-out one, or the baseline
    // when this run is the held-out seed.
    const std::uint64_t other =
        a.seed == kHeldOutSeed ? kBaselineSeed : kHeldOutSeed;
    if (a.workload == "build-delta") {
        const Program prog = makeProgram("gcc-2");
        checks.expect(designFor(prog, a.seed).windowStarts() !=
                          designFor(prog, other).windowStarts(),
                      "seeds " + std::to_string(a.seed) + " and " +
                          std::to_string(other) +
                          " sample different windows");
    } else {
        checks.expect(replayOrder(kLibraryPoints,
                                  shuffleSeedFor(a.seed, 0)) !=
                          replayOrder(kLibraryPoints,
                                      shuffleSeedFor(other, 0)),
                      "seeds " + std::to_string(a.seed) + " and " +
                          std::to_string(other) +
                          " generate different visit orders");
    }
}

double
bytesPerPoint(const std::vector<LivePointLibrary> &libs)
{
    std::uint64_t bytes = 0;
    std::uint64_t points = 0;
    for (const LivePointLibrary &l : libs) {
        bytes += l.totalCompressedBytes();
        points += l.size();
    }
    return points ? static_cast<double>(bytes) /
                        static_cast<double>(points)
                  : 0.0;
}

double
median(std::vector<double> v)
{
    return summarize(std::move(v)).median;
}

/** CPU seconds of a repeated set-up. */
struct SetupTimes
{
    std::vector<double> samples; //!< every set-up
    double seconds = 0.0;        //!< mean over CPUs of each one's median
};

/**
 * Repeat a set-up on every CPU this process may use in turn (at least
 * kSetupsPerCpu times and kSetupSeconds in all). On a shared host one
 * vCPU can run a single thread a third slower than another, so a
 * median taken wherever the process happened to start flipped between
 * runs; the mean of the per-CPU medians does not. Must run before the
 * process starts threads: they would inherit the pinned mask.
 */
SetupTimes
repeatSetup(const std::function<void()> &once)
{
    cpu_set_t all;
    CPU_ZERO(&all);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(all), &all) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &all))
                cpus.push_back(c);
    if (cpus.empty())
        cpus.push_back(-1); // affinity unavailable: time where we run
    SetupTimes out;
    for (const int c : cpus) {
        if (c >= 0) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(c, &one);
            sched_setaffinity(0, sizeof(one), &one);
        }
        std::vector<double> times;
        const Clock::time_point start = Clock::now();
        for (int n = 0;
             n < kSetupsPerCpu ||
             secondsSince(start) * static_cast<double>(cpus.size()) <
                 kSetupSeconds;
             ++n) {
            const double cpu0 = processCpuSeconds();
            once();
            times.push_back(processCpuSeconds() - cpu0);
        }
        out.samples.insert(out.samples.end(), times.begin(), times.end());
        out.seconds += median(times) / static_cast<double>(cpus.size());
    }
    if (cpus.front() >= 0)
        sched_setaffinity(0, sizeof(all), &all);
    return out;
}

/** Closed loop: run @p once until @p seconds passed (at least a few). */
void
closedLoop(double seconds, const std::function<void()> &once)
{
    const Clock::time_point t0 = Clock::now();
    for (int it = 0; it < kMinIterations || secondsSince(t0) < seconds;
         ++it)
        once();
}

LivePointRunOptions
cellOptions(std::uint64_t shuffleSeed, unsigned threads)
{
    LivePointRunOptions o;
    o.spec = confidenceSpec();
    o.stopAtConfidence = true;
    o.shuffleSeed = shuffleSeed;
    o.threads = threads;
    return o;
}

CampaignOptions
campaignOptions(std::uint64_t shuffleSeed)
{
    CampaignOptions o;
    o.spec = confidenceSpec();
    o.stopAtConfidence = true;
    o.shuffleSeed = shuffleSeed;
    o.threads = kWorkers;
    return o;
}

// --- prepare ---------------------------------------------------------

void
prepare(const Args &a)
{
    std::filesystem::create_directories(a.dir);
    auto build = [&](const std::string &name, bool delta,
                     const std::string &path) {
        const Program prog = makeProgram(name);
        LivePointBuilder b(builderConfig(delta, 3));
        b.build(prog, designFor(prog)).save(path);
    };
    if (a.workload == "campaign-4cfg") {
        for (const std::string &name : campaignPrograms())
            build(name, false, libPath(a, name));
    } else if (a.workload == "cell-delta") {
        build("gcc-2", false, libPath(a, "gcc-2"));
        build("gcc-2", true, libPath(a, "gcc-2.delta"));
    }
}

// --- End-to-end runs (trace 0) -------------------------------------------

struct E2E
{
    SetupTimes setup;
    std::vector<double> wall;  //!< per run: host seconds to the result
    std::vector<double> cpu;   //!< per run: CPU seconds to the result
    std::vector<double> items; //!< per run: replays folded / points built
    double bytesPerPoint = 0.0;
};

E2E
campaignE2E(const Args &a, Checks &checks, Host &host)
{
    const std::vector<CoreConfig> cfgs = gridConfigs();
    const std::vector<std::string> &names = campaignPrograms();
    std::vector<std::string> paths;
    for (const std::string &n : names)
        paths.push_back(libPath(a, n));
    const CampaignOptions opt = campaignOptions(shuffleSeedFor(a.seed, 0));

    E2E e;
    ReplayInputs in;
    std::unique_ptr<CampaignEngine> engine;
    e.setup = repeatSetup([&]() {
        engine.reset();
        loadInputs(names, paths, in);
        std::vector<CampaignWorkload> wl;
        for (std::size_t w = 0; w < names.size(); ++w)
            wl.push_back({names[w], &in.progs[w], &in.libs[w], nullptr, 0});
        engine = std::make_unique<CampaignEngine>(wl, cfgs, opt);
    });
    checkDesigns(in, checks);

    CampaignResult first;
    bool haveFirst = false;
    closedLoop(a.seconds, [&]() {
        const double cpu0 = processCpuSeconds();
        CampaignResult r = engine->run();
        e.cpu.push_back(processCpuSeconds() - cpu0);
        std::uint64_t folded = 0;
        for (const CampaignCell &c : r.cells) {
            folded += c.processed;
            checks.expect(c.converged && !c.failed,
                          strfmt("campaign cell (%zu, %zu) converged",
                                 c.workload, c.config));
        }
        e.wall.push_back(r.wallSeconds);
        e.items.push_back(static_cast<double>(folded));
        if (!haveFirst) {
            first = std::move(r);
            haveFirst = true;
            return;
        }
        for (std::size_t i = 0; i < r.cells.size(); ++i)
            checks.expect(
                r.cells[i].processed == first.cells[i].processed &&
                    r.cells[i].cpi() == first.cells[i].cpi(),
                          strfmt("campaign cell %zu repeats its run", i));
    });
    e.bytesPerPoint = bytesPerPoint(in.libs);
    host.refDecodeMBps = referenceDecodeMBps(in.libs[0]);

    // Per-cell bit identity with a standalone single-worker run: the
    // worker-count and decode-once fan-out contracts at once.
    std::uint64_t foldedOneWorker = 0;
    for (std::size_t w = 0; w < names.size(); ++w) {
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
            const LivePointRunResult r =
                runLivePoints(in.progs[w], in.libs[w], cfgs[c],
                              cellOptions(opt.shuffleSeed, 1));
            const CampaignCell &cell = first.cell(w, c, cfgs.size());
            foldedOneWorker += r.processed;
            checks.expectSameBits(cell.cpi(), r.cpi(),
                                  strfmt("campaign cell %s/%s CPI equals "
                                         "a 1-worker runLivePoints",
                                         names[w].c_str(),
                                         cfgs[c].name.c_str()));
            checks.expect(cell.processed == r.processed,
                          strfmt("campaign cell %s/%s folds as many "
                                 "points as a 1-worker run",
                                 names[w].c_str(), cfgs[c].name.c_str()));
        }
    }
    checks.expect(static_cast<double>(foldedOneWorker) == e.items.front(),
                  "points_folded repeats at 1 and 2 workers");
    return e;
}

E2E
cellDeltaE2E(const Args &a, Checks &checks, Host &host)
{
    const CoreConfig cfg = CoreConfig::eightWay();
    E2E e;
    ReplayInputs in;
    // One round runs the cell under kCellOrders visit orders (one
    // engine each); the round's ttc is their mean, so a run's figure
    // does not hinge on where a single order happens to stop.
    std::vector<std::unique_ptr<CampaignEngine>> engines;
    e.setup = repeatSetup([&]() {
        engines.clear();
        loadInputs({"gcc-2"}, {libPath(a, "gcc-2.delta")}, in);
        for (unsigned j = 0; j < kCellOrders; ++j)
            engines.push_back(std::make_unique<CampaignEngine>(
                std::vector<CampaignWorkload>{
                    {"gcc-2", &in.progs[0], &in.libs[0], nullptr, 0}},
                std::vector<CoreConfig>{cfg},
                campaignOptions(shuffleSeedFor(a.seed, j))));
    });
    checkDesigns(in, checks);
    checks.expect(in.libs[0].deltaCount() > 0,
                  "cell-delta library holds delta records");

    std::vector<CampaignCell> first;
    closedLoop(a.seconds, [&]() {
        double wall = 0.0;
        double folded = 0.0;
        const double cpu0 = processCpuSeconds();
        for (unsigned j = 0; j < kCellOrders; ++j) {
            const CampaignResult r = engines[j]->run();
            const CampaignCell &cell = r.cells[0];
            checks.expect(cell.converged && !cell.failed,
                          strfmt("cell-delta order %u converged", j));
            wall += r.wallSeconds;
            folded += static_cast<double>(cell.processed);
            if (first.size() < kCellOrders) {
                first.push_back(cell);
                continue;
            }
            checks.expect(cell.processed == first[j].processed &&
                              cell.cpi() == first[j].cpi(),
                          strfmt("cell-delta order %u repeats its run",
                                 j));
        }
        e.cpu.push_back((processCpuSeconds() - cpu0) / kCellOrders);
        e.wall.push_back(wall / kCellOrders);
        e.items.push_back(folded / kCellOrders);
    });
    e.bytesPerPoint = bytesPerPoint(in.libs);

    // The delta library must estimate exactly what the plain library
    // of the same points does, here at one worker.
    const LivePointLibrary plain =
        LivePointLibrary::load(libPath(a, "gcc-2"));
    host.refDecodeMBps = referenceDecodeMBps(plain);
    checks.expect(plain.design() == in.libs[0].design(),
                  "plain and delta libraries share a design");
    for (unsigned j = 0; j < kCellOrders; ++j) {
        const LivePointRunResult r =
            runLivePoints(in.progs[0], plain, cfg,
                          cellOptions(shuffleSeedFor(a.seed, j), 1));
        checks.expectSameBits(first[j].cpi(), r.cpi(),
                              strfmt("cell-delta order %u CPI equals the "
                                     "plain library's at 1 worker",
                                     j));
        checks.expect(first[j].processed == r.processed,
                      strfmt("cell-delta order %u folds as many points "
                             "as the plain library",
                             j));
    }
    return e;
}

E2E
buildDeltaE2E(const Args &a, Checks &checks, Host &host)
{
    E2E e;
    Program prog;
    SampleDesign design;
    e.setup = repeatSetup([&]() {
        prog = makeProgram("gcc-2");
        design = designFor(prog, a.seed);
    });
    const std::string path = libPath(a, "built.delta");
    std::unique_ptr<LivePointLibrary> first;
    closedLoop(a.seconds, [&]() {
        LivePointBuilder builder(builderConfig(true, 0));
        const double cpu0 = processCpuSeconds();
        LivePointLibrary lib = builder.build(prog, design);
        e.cpu.push_back(processCpuSeconds() - cpu0);
        const BuilderStats &st = builder.stats();
        e.wall.push_back(st.wallSeconds);
        e.items.push_back(static_cast<double>(st.points));
        lib.save(path);
        const LivePointLibrary back = LivePointLibrary::load(path);
        checks.expect(identicalRecords(lib, back) &&
                          lib.contentHash() == back.contentHash(),
                      "built library round-trips through save/load");
        if (!first) {
            checks.expect(lib.deltaCount() > 0 &&
                              lib.size() == kLibraryPoints,
                          "built library holds delta records");
            first = std::make_unique<LivePointLibrary>(std::move(lib));
            return;
        }
        checks.expect(identicalRecords(lib, *first),
                      "library build repeats byte for byte");
    });
    std::filesystem::remove(path);
    e.bytesPerPoint = static_cast<double>(first->totalCompressedBytes()) /
                      static_cast<double>(first->size());
    host.refDecodeMBps = referenceDecodeMBps(*first);
    return e;
}

void
reportE2E(const E2E &e, Report &rep)
{
    std::vector<double> perCpu;
    std::vector<double> perWall;
    for (std::size_t i = 0; i < e.items.size(); ++i) {
        perCpu.push_back(e.items[i] / e.cpu[i]);
        perWall.push_back(e.items[i] / e.wall[i]);
    }
    rep.median("ttc_cpu_s", "s", e.cpu);
    rep.median("items_per_cpu_s", "1/s", perCpu);
    // Deterministic: every run folds (or builds) the same points.
    rep.add("points_folded", "count", e.items.front(), e.items.size());
    rep.add("bytes_per_point", "B", e.bytesPerPoint, 1);
    rep.add("setup_s", "s", e.setup.seconds, e.setup.samples.size());
    // Wall-clock figures: what a user waits, but steal time on a
    // shared host moves them far more than the code does.
    rep.median("ttc_s", "s", e.wall, false);
    rep.median("items_per_s", "1/s", perWall, false);
}

// --- Traced stage walk (trace 1) ----------------------------------------

/** What the traced pass needs per replayed library. */
struct WalkJob
{
    const Program *prog;
    const LivePointLibrary *lib;
    std::vector<CoreConfig> cfgs;
    std::vector<std::size_t> order;
};

void
compareTracks(const ReplayTrack &walk, const ReplayTrack &eng,
              const std::string &what, Checks &checks)
{
    checks.expect(walk.mask == eng.mask,
                  what + ": walker and engine fold the same points");
    const std::size_t nc = walk.nc;
    const std::size_t n = std::min(walk.mask.size(), eng.mask.size());
    std::size_t bad = 0;
    for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t c = 0; c < nc; ++c) {
            if (!((walk.mask[k] >> c) & 1))
                continue;
            const WindowResult &x = walk.results[k * nc + c];
            const WindowResult &y = eng.results[k * nc + c];
            if (x.cpi != y.cpi || x.cycles != y.cycles ||
                x.insts != y.insts ||
                x.unavailableLoads != y.unavailableLoads)
                ++bad;
        }
    }
    checks.expect(bad == 0, what + ": walker WindowResult equals the "
                                   "engine's at every folded point");
    for (std::size_t c = 0; c < nc; ++c) {
        checks.expectSameBits(walk.estimate[c].mean, eng.estimate[c].mean,
                              strfmt("%s config %zu: walker estimate "
                                     "equals the engine's",
                                     what.c_str(), c));
        checks.expect(walk.converged[c] && eng.converged[c],
                      strfmt("%s config %zu converged", what.c_str(), c));
    }
}

void
checkBuildPrefix(const LivePointLibrary &walked,
                 const LivePointLibrary &built, const std::string &what,
                 Checks &checks)
{
    bool same = walked.size() <= built.size();
    for (std::size_t i = 0; same && i < walked.size(); ++i) {
        const ByteSpan x = walked.record(i);
        const ByteSpan y = built.record(i);
        same = x.size == y.size && walked.windowIndex(i) ==
                                       built.windowIndex(i) &&
               walked.recordFlags(i) == built.recordFlags(i) &&
               std::memcmp(x.data, y.data, x.size) == 0;
    }
    checks.expect(same, what + ": walked build equals the builder's "
                               "records");
}

void
traced(const Args &a, Checks &checks, Host &host, Report &rep)
{
    Trace tr(true);
    ReplayInputs in;
    LivePointLibrary built;
    std::vector<WalkJob> jobs;
    std::vector<double> saveSeconds;
    BuildCounts bc;
    double cpiErrPct = 0.0;
    const std::string scratchPath = libPath(a, "walk.scratch");

    // Builder walk and the libraries the replay walk runs over.
    if (a.workload == "build-delta") {
        in.progs.push_back(makeProgram("gcc-2"));
        const SampleDesign design = designFor(in.progs[0], a.seed);
        LivePointBuilder builder(builderConfig(true, 0));
        built = builder.build(in.progs[0], design);
        LivePointLibrary walked =
            walkBuild(tr, in.progs[0], design, builderConfig(true, 0),
                      kLibraryPoints, bc);
        checks.expect(identicalRecords(walked, built),
                      "walked build equals LivePointBuilder::build");
        checks.expect(bc.instsWarmed == builder.stats().instsSimulated,
                      "walked build warms as many instructions as the "
                      "builder");
        for (int s = 0; s < 3; ++s) {
            Clock::time_point t0 = Clock::now();
            walked.save(scratchPath);
            saveSeconds.push_back(secondsSince(t0));
            t0 = Clock::now();
            const LivePointLibrary back =
                LivePointLibrary::load(scratchPath);
            in.loadSeconds.push_back(secondsSince(t0));
            checks.expect(identicalRecords(back, walked) &&
                              back.contentHash() == walked.contentHash(),
                          "walked library round-trips through save/load");
        }
        in.generateSeconds =
            repeatSetup([]() { makeProgram("gcc-2"); }).samples;
        jobs.push_back({&in.progs[0], &built,
                        {CoreConfig::eightWay()},
                        replayOrder(kLibraryPoints,
                                    shuffleSeedFor(a.seed, 0))});
    } else {
        const bool campaign = a.workload == "campaign-4cfg";
        const std::vector<std::string> names =
            campaign ? campaignPrograms()
                     : std::vector<std::string>{"gcc-2"};
        std::vector<std::string> paths;
        for (const std::string &n : names)
            paths.push_back(libPath(a, campaign ? n : n + ".delta"));
        repeatSetup([&]() { loadInputs(names, paths, in); });
        checkDesigns(in, checks);
        for (std::size_t w = 0; w < names.size(); ++w) {
            LivePointLibrary walked = walkBuild(
                tr, in.progs[w], designFor(in.progs[w]),
                builderConfig(!campaign, 0), kWalkBuildPrefix, bc);
            checkBuildPrefix(walked, in.libs[w], names[w], checks);
            const Clock::time_point t0 = Clock::now();
            in.libs[w].save(scratchPath);
            saveSeconds.push_back(secondsSince(t0));
            jobs.push_back({&in.progs[w], &in.libs[w],
                            campaign ? gridConfigs()
                                     : std::vector<CoreConfig>{
                                           CoreConfig::eightWay()},
                            replayOrder(kLibraryPoints,
                                        shuffleSeedFor(a.seed, 0))});
        }
    }
    std::filesystem::remove(scratchPath);
    const std::size_t block = defaultFoldBlock;

    // Replay walk (traced), then the engine on the same inputs.
    ReplayCounts rc;
    EngineTimes et;
    std::uint64_t folded = 0;
    std::vector<ReplayTrack> walks;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const WalkJob &job = jobs[j];
        walks.push_back(walkReplay(tr, *job.prog, *job.lib, job.cfgs,
                                   job.order, block, confidenceSpec(),
                                   checks, rc));
        const ReplayTrack eng =
            runEngine(*job.prog, *job.lib, job.cfgs, job.order, block,
                      confidenceSpec(), kWorkers, et);
        compareTracks(walks.back(), eng, job.prog->name, checks);
        for (std::size_t p : walks.back().processed)
            folded += p;
    }

    // Tracing overhead: untraced and traced walks of the first job's
    // leading points, alternated so host drift hits both alike.
    std::vector<double> walkOff;
    std::vector<double> walkOn;
    {
        const WalkJob &job = jobs[0];
        const std::vector<std::size_t> head(
            job.order.begin(), job.order.begin() + kOverheadPoints);
        Checks quiet(false);
        ReplayCounts ignored;
        for (int r = 0; r < kOverheadRounds; ++r) {
            for (bool on : {false, true}) {
                Trace t(on);
                const Clock::time_point t0 = Clock::now();
                walkReplay(t, *job.prog, *job.lib, job.cfgs, head, block,
                           confidenceSpec(), quiet, ignored);
                (on ? walkOn : walkOff).push_back(secondsSince(t0));
            }
        }
    }

    // The campaign engine over the same grid: retirement and
    // migration, and its cells against the walker's estimates.
    std::vector<CampaignWorkload> wl;
    for (std::size_t j = 0; j < jobs.size(); ++j)
        wl.push_back({jobs[j].prog->name, jobs[j].prog, jobs[j].lib,
                      nullptr, 0});
    CampaignEngine ce(wl, jobs[0].cfgs,
                      campaignOptions(shuffleSeedFor(a.seed, 0)));
    const CampaignResult cr = ce.run();
    for (std::size_t j = 0; j < jobs.size(); ++j)
        for (std::size_t c = 0; c < jobs[j].cfgs.size(); ++c)
            checks.expectSameBits(
                cr.cell(j, c, jobs[j].cfgs.size()).cpi(),
                walks[j].estimate[c].mean,
                strfmt("campaign cell (%zu, %zu) equals the walker", j, c));

    // Accuracy against complete detailed simulation (8-way cells).
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const CompleteSimResult ref =
            runCompleteDetailed(*jobs[j].prog, CoreConfig::eightWay());
        cpiErrPct += 100.0 *
                     std::fabs(walks[j].estimate[0].mean - ref.cpi) /
                     ref.cpi;
    }
    cpiErrPct /= static_cast<double>(jobs.size());
    host.refDecodeMBps = referenceDecodeMBps(*jobs[0].lib);

    // Coverage: stage self times against the walkers' wall time.
    const std::vector<double> self = tr.selfTimes();
    double walkWall = 0.0;
    double staged = 0.0;
    for (std::size_t i = 0; i < tr.spans().size(); ++i) {
        const Span &s = tr.spans()[i];
        const std::string name = s.name;
        if (name == "walk")
            walkWall += s.end - s.start;
        else if (name != "point" && s.parent >= 0)
            staged += self[i];
    }
    if (!a.out.empty()) {
        const std::string path = a.out + "/" + a.workload + "-seed" +
                                 std::to_string(a.seed) + ".trace.json";
        checks.expect(tr.writeChrome(path), "trace written to " + path);
    }

    auto total = [&](const char *name) {
        double t = 0.0;
        for (double d : tr.durations(name))
            t += d;
        return t;
    };
    const double us = 1e6;
    rep.add("workload.generate_s", "s", median(in.generateSeconds),
            in.generateSeconds.size());
    rep.add("io.load_s", "s", median(in.loadSeconds),
            in.loadSeconds.size());
    rep.add("io.save_s", "s", median(saveSeconds), saveSeconds.size());
    rep.timing("library.decode_us", "us", tr.durations("library.decode"),
               us);
    rep.add("library.chain_records_per_point", "count",
            static_cast<double>(rc.chainRecords) /
                static_cast<double>(rc.points),
            rc.points);
    rep.add("library.chain_bytes_per_point", "B",
            static_cast<double>(rc.chainBytes) /
                static_cast<double>(rc.points),
            rc.points);
    rep.add("codec.decompress_mbps", "MB/s",
            static_cast<double>(rc.rawBytes) / total("codec.decompress") /
                1e6,
            rc.points);
    rep.timing("library.deserialize_us", "us",
               tr.durations("library.deserialize"), us);
    rep.timing("mem.apply_us", "us", tr.durations("mem.apply"), us);
    rep.timing("cache.reconstruct_us", "us",
               tr.durations("cache.reconstruct"), us);
    rep.timing("cache.copy_us", "us", tr.durations("cache.copy"), us);
    rep.add("cache.stash_hit_ratio", "ratio",
            static_cast<double>(rc.cacheCopies) /
                static_cast<double>(rc.cacheCopies + rc.cacheReconstructs),
            rc.cacheCopies + rc.cacheReconstructs);
    rep.timing("bpred.restore_us", "us", tr.durations("bpred.restore"), us);
    rep.timing("bpred.copy_us", "us", tr.durations("bpred.copy"), us);
    rep.timing("uarch.measure_us", "us", tr.durations("uarch.measure"), us);
    rep.add("uarch.cycles_per_replay", "cycles",
            static_cast<double>(rc.cycles) /
                static_cast<double>(rc.replays),
            rc.replays);
    rep.add("uarch.unavailable_loads", "count",
            static_cast<double>(rc.unavailableLoads), rc.replays);
    rep.timing("stats.fold_us", "us", tr.durations("stats.fold"), us);
    rep.add("stats.cpi_err_pct", "%", cpiErrPct, jobs.size());
    rep.add("replay.fold_wait_s", "s", et.foldWaitSeconds, jobs.size());
    rep.add("replay.barrier_s", "s", et.barrierSeconds, jobs.size());
    rep.add("replay.decode_fanout", "ratio",
            static_cast<double>(et.replaysExecuted) /
                static_cast<double>(et.pointsDecoded),
            et.pointsDecoded);
    rep.add("replay.useful_ratio", "ratio",
            static_cast<double>(folded) /
                static_cast<double>(et.replaysExecuted),
            et.replaysExecuted);
    rep.add("campaign.retirements", "count",
            static_cast<double>(cr.retirements), cr.cells.size());
    rep.add("campaign.migrated_replays", "count",
            static_cast<double>(cr.migratedReplays), cr.cells.size());
    rep.add("func.warm_minst_per_s", "Minst/s",
            static_cast<double>(bc.instsWarmed) /
                (total("func.warm") + total("func.capture")) / 1e6,
            bc.points);
    rep.add("builder.insts_warmed", "count",
            static_cast<double>(bc.instsWarmed), bc.points);
    rep.timing("builder.snapshot_us", "us",
               tr.durations("builder.snapshot"), us);
    rep.timing("library.serialize_us", "us",
               tr.durations("library.serialize"), us);
    rep.add("codec.compress_mbps", "MB/s",
            static_cast<double>(bc.compressInBytes) /
                (total("codec.compress") + total("codec.compress_delta")) /
                1e6,
            bc.points);
    rep.add("trace.coverage", "ratio", staged / walkWall,
            tr.spans().size());
    rep.add("trace.overhead", "ratio",
            median(walkOn) / median(walkOff) - 1.0,
            walkOn.size());
}

// --- Output ----------------------------------------------------------

void
emit(const Args &a, const Host &host, const Report &rep,
     const Checks &checks, double peakRss)
{
    const double errorRate =
        checks.attempted()
            ? static_cast<double>(checks.failed()) /
                  static_cast<double>(checks.attempted())
            : 0.0;
    std::printf("\n%s seed %llu (%s)  host: %u cpus, %s, load %s -> %s, "
                "reference decode %.1f MB/s\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                a.trace ? "traced stage walk" : "end to end", host.nproc,
                host.cpu.c_str(), host.loadBefore.c_str(),
                host.loadAfter.c_str(), host.refDecodeMBps);
    std::printf("  %-34s %16s %-8s %6s %14s\n", "metric", "value", "unit",
                "n", "p99");
    for (const Metric &m : rep.metrics())
        std::printf("  %-34s %16.6g %-8s %6zu %14s\n",
                    (m.gated ? m.name : m.name + " (ungated)").c_str(),
                    m.value, m.unit.c_str(), m.n,
                    std::isfinite(m.p99)
                        ? strfmt("%.6g", m.p99).c_str()
                        : "-");
    std::printf("  %-34s %16.6g %-8s %6llu\n", "peak_rss_mb", peakRss, "MB",
                1ull);
    std::printf("  %-34s %16.6g %-8s %6llu\n", "error_rate", errorRate,
                "ratio",
                static_cast<unsigned long long>(checks.attempted()));

    std::ostringstream metrics;
    metrics << "{";
    bool firstMetric = true;
    auto put = [&](const std::string &name, double v,
                   const std::string &unit) {
        metrics << (firstMetric ? "" : ", ") << jsonString(name)
                << ": {\"value\": " << jsonNumber(v)
                << ", \"unit\": " << jsonString(unit) << "}";
        firstMetric = false;
    };
    for (const Metric &m : rep.metrics())
        if (m.gated)
            put(m.name, m.value, m.unit);
    if (!a.trace)
        put("peak_rss_mb", peakRss, "MB");
    metrics << "}";

    if (!a.out.empty()) {
        const std::string path = a.out + "/" + a.workload + "-seed" +
                                 std::to_string(a.seed) + "-trace" +
                                 (a.trace ? "1" : "0") + ".json";
        std::ofstream f(path);
        f << "{\"workload\": " << jsonString(a.workload)
          << ", \"seed\": " << a.seed
          << ", \"baseline_seed\": " << kBaselineSeed
          << ", \"held_out_seed\": " << kHeldOutSeed
          << ", \"trace\": " << (a.trace ? 1 : 0)
          << ", \"seconds\": " << jsonNumber(a.seconds)
          << ",\n \"host\": {\"nproc\": " << host.nproc
          << ", \"cpu_model\": " << jsonString(host.cpu)
          << ", \"loadavg_before\": " << jsonString(host.loadBefore)
          << ", \"loadavg_after\": " << jsonString(host.loadAfter)
          << ", \"reference_decode_mbps\": "
          << jsonNumber(host.refDecodeMBps)
          << "},\n \"metrics\": {";
        bool firstRow = true;
        for (const Metric &m : rep.metrics()) {
            f << (firstRow ? "\n  " : ",\n  ") << jsonString(m.name)
              << ": {\"value\": " << jsonNumber(m.value)
              << ", \"unit\": " << jsonString(m.unit) << ", \"n\": " << m.n
              << ", \"gated\": " << (m.gated ? "true" : "false")
              << ", \"p99\": " << jsonNumber(m.p99);
            if (!m.samples.empty()) {
                f << ", \"samples\": [";
                for (std::size_t i = 0; i < m.samples.size(); ++i)
                    f << (i ? ", " : "") << jsonNumber(m.samples[i]);
                f << "]";
            }
            f << "}";
            firstRow = false;
        }
        f << ",\n  \"peak_rss_mb\": {\"value\": " << jsonNumber(peakRss)
          << ", \"unit\": \"MB\", \"n\": 1, \"p99\": null}"
          << ",\n  \"error_rate\": {\"value\": " << jsonNumber(errorRate)
          << ", \"unit\": \"ratio\", \"n\": " << checks.attempted()
          << ", \"p99\": null}\n },\n \"failures\": [";
        for (std::size_t i = 0; i < checks.failures().size(); ++i)
            f << (i ? ", " : "") << jsonString(checks.failures()[i]);
        f << "]}\n";
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                checks.failed() ? "false" : "true",
                static_cast<unsigned long long>(checks.attempted()),
                static_cast<unsigned long long>(checks.failed()),
                metrics.str().c_str());
    std::fflush(stdout);
}

int
run(const Args &a)
{
    std::filesystem::create_directories(a.dir);
    if (!a.out.empty())
        std::filesystem::create_directories(a.out);
    Host host;
    host.nproc = std::thread::hardware_concurrency();
    host.cpu = cpuModel();
    host.loadBefore = readFirstLine("/proc/loadavg");
    Checks checks(a.plant);
    checkHeldOut(a, checks);
    Report rep;
    if (a.trace) {
        traced(a, checks, host, rep);
    } else {
        const E2E e = a.workload == "campaign-4cfg"
                          ? campaignE2E(a, checks, host)
                      : a.workload == "cell-delta"
                          ? cellDeltaE2E(a, checks, host)
                          : buildDeltaE2E(a, checks, host);
        reportE2E(e, rep);
    }
    host.loadAfter = readFirstLine("/proc/loadavg");
    emit(a, host, rep, checks, peakRssMb());
    return checks.failed() ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    try {
        const Args a = parseArgs(argc, argv);
        if (a.mode == "prepare") {
            prepare(a);
            return 0;
        }
        return run(a);
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "lpperf: %s\n", ex.what());
        return 2;
    }
}
