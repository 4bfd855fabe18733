/**
 * @file
 * The warped-slicer benchmark: fixed, seeded work driven through the
 * simulator's public entry points only (Characterization::prewarm,
 * runCoSchedule, runServe, saveSnapshot/restoreSnapshot), timed from
 * outside, checked for correctness, and reported as one JSON result
 * line. See perfbench/README.md for the workloads and metrics.
 *
 *   wsl-perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--trace-out FILE]   (FILE required with --trace 1)
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 additionally
 * runs one pass with the engine profiler and decision log attached,
 * records spans around every call, writes them to FILE as Chrome
 * trace-event JSON, prints a self-time table, and prints the
 * per-layer metrics. Exit status: 0 ok, 1 a check failed, 2 usage.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_lib.hh"
#include "gpu/gpu.hh"
#include "harness/runner.hh"
#include "harness/solo_cache.hh"
#include "metrics/metrics.hh"
#include "obs/decision_log.hh"
#include "obs/engine_profiler.hh"
#include "serve/engine.hh"
#include "snapshot/snapshot.hh"
#include "workloads/benchmarks.hh"
#include "workloads/kernel_params.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace wsl;
using perfbench::Digest;
using perfbench::median;
using perfbench::secondsSince;
using perfbench::MetricSet;
using perfbench::ReferenceWork;
using perfbench::SpanRecorder;

namespace {

using Clock = SpanRecorder::Clock;
using Scope = SpanRecorder::Scope;

/** Characterization window, pinned (WSL_WINDOW is ignored). */
constexpr Cycle kWindow = 100'000;
/** Set-up repetitions per run; setup_s is their median. */
constexpr unsigned kSetupReps = 201;
/** Timed snapshot save/restore repetitions (median reported). */
constexpr unsigned kSnapshotReps = 5;
/** Serve sessions per pass, each with its own arrival trace and fault
 *  plan: simulated throughput varies with the trace, and the sum over
 *  sessions varies less than any one session. */
constexpr unsigned kServeSessions = 6;

/** A Table III pair (paper Section V-A). The pair lists and the serve
 *  tenants are spelled out here rather than taken from the library, so
 *  a change to the library cannot change the benchmark's job list. */
struct Pair
{
    const char *first;
    const char *second;
};

/** The 14 pairs without a memory-class kernel: 8 Compute+Cache, then
 *  6 Compute+Compute. */
constexpr Pair kComputePairs[] = {
    {"DXT", "MVP"}, {"DXT", "NN"}, {"HOT", "MVP"}, {"HOT", "NN"},
    {"IMG", "MVP"}, {"IMG", "NN"}, {"MM", "MVP"},  {"MM", "NN"},
    {"DXT", "IMG"}, {"HOT", "DXT"}, {"HOT", "IMG"}, {"MM", "DXT"},
    {"MM", "HOT"},  {"MM", "IMG"}};

/** The 16 Compute+Memory pairs. */
constexpr Pair kMemoryPairs[] = {
    {"DXT", "BFS"}, {"DXT", "BLK"}, {"DXT", "KNN"}, {"DXT", "LBM"},
    {"HOT", "BFS"}, {"HOT", "BLK"}, {"HOT", "KNN"}, {"HOT", "LBM"},
    {"IMG", "BFS"}, {"IMG", "BLK"}, {"IMG", "KNN"}, {"IMG", "LBM"},
    {"MM", "BFS"},  {"MM", "BLK"},  {"MM", "KNN"},  {"MM", "LBM"}};

/** One workload's fixed job list, built from the seed. */
struct Workload
{
    std::string name;
    GpuConfig cfg;
    std::vector<std::string> kernels;            //!< characterized
    std::vector<std::vector<std::string>> jobs;  //!< co-run pairs
    std::vector<ServeOptions> sessions;          //!< serve sessions
    /** The pair paused mid co-run for the snapshot check (and, on the
     *  serve workload, for the no-skip check). */
    std::vector<std::string> checkPair;
    std::size_t programInsts = 0;  //!< static size of built programs
};

/** Host time a pass of each workload takes on the reference host;
 *  a run makes round(seconds / this) passes of identical work. */
double
nominalPassSeconds(const std::string &workload)
{
    if (workload == "pairs_compute")
        return 10.0;
    if (workload == "pairs_memory")
        return 11.0;
    return 9.0;
}

Workload
buildWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    w.cfg = GpuConfig::baseline();
    w.cfg.seed = seed;
    w.cfg.tickThreads = 1;  // serial engine; WSL_TICK_THREADS ignored
    w.cfg.clockSkip = true;
    w.cfg.validate();

    auto add_pairs = [&](const auto &pairs) {
        for (const Pair &p : pairs)
            w.jobs.push_back({p.first, p.second});
    };
    if (name == "pairs_compute") {
        add_pairs(kComputePairs);
    } else if (name == "pairs_memory") {
        add_pairs(kMemoryPairs);
    } else if (name == "serve_overload") {
        ServeOptions so;
        so.cfg = w.cfg;
        so.kind = PolicyKind::Dynamic;
        so.window = kWindow;
        so.horizon = 3 * kWindow / 2;
        so.maxBatch = 3;
        // The library's three default tenants.
        so.classes = {
            {"interactive", "NN", 0.25, 6.0, 16, 1, 3.0},
            {"batch", "MM", 0.75, 10.0, 12, 2, 1.5},
            {"bulk", "LBM", 1.0, 16.0, 8, 1, 1.0},
        };
        std::vector<double> weights;
        for (const TenantClass &c : so.classes) {
            weights.push_back(c.arrivalWeight);
            w.kernels.push_back(c.bench);
        }
        so.arrivals.mode = ArrivalConfig::Mode::Trace;
        for (unsigned i = 0; i < kServeSessions; ++i) {
            so.seed = seed * kServeSessions + i;
            so.arrivals.trace = perfbench::makeArrivalTrace(
                so.seed, 4.0, so.horizon, weights);
            so.chaos = perfbench::makeFaultPlan(
                so.seed, 4, so.horizon,
                static_cast<unsigned>(so.classes.size()));
            w.sessions.push_back(resolveServeOptions(so));
        }
        w.checkPair = {"MM", "LBM"};
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }

    for (const auto &job : w.jobs)
        for (const std::string &app : job)
            if (std::find(w.kernels.begin(), w.kernels.end(), app) ==
                w.kernels.end())
                w.kernels.push_back(app);
    if (w.sessions.empty())
        w.checkPair = w.jobs.front();
    for (const std::string &k : w.kernels)
        w.programInsts += buildProgram(benchmark(k)).body.size();
    return w;
}

/** Simulation calls attempted and failed in this run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one call; a false `ok` is a failure, reported on stderr. */
    bool
    record(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "FAIL: %s\n", what.c_str());
        }
        return ok;
    }
};

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ---- Result digests (what "the same simulated results" means) ----

void
addCounter(Digest &d, std::uint64_t v)
{
    d.add(v);
}

template <typename T, std::size_t N>
void
addCounter(Digest &d, const std::array<T, N> &arr)
{
    for (const T &v : arr)
        addCounter(d, v);
}

void
addStats(Digest &d, const GpuStats &s)
{
    auto visit = [&](const char *name, auto member) {
        d.add(std::string_view(name));
        addCounter(d, s.*member);
    };
    SmStats::forEachField(visit);
    PartitionStats::forEachField(visit);
}

std::string
digestCoRun(const CoRunResult &r)
{
    Digest d;
    d.add(r.makespan);
    d.add(std::uint64_t{r.completed});
    d.add(std::uint64_t{r.spatialFallback});
    for (const AppOutcome &a : r.apps) {
        d.add(a.insts);
        d.add(a.cycles);
    }
    for (int c : r.chosenCtas)
        d.add(static_cast<std::uint64_t>(c));
    addStats(d, r.stats);
    return d.hex();
}

std::string
digestServe(const ServeResult &r)
{
    Digest d;
    std::ostringstream slo;
    r.slo.writeJson(slo);
    d.add(slo.str());
    for (std::uint64_t v :
         {std::uint64_t{r.endCycle}, r.slices, r.rebuilds, r.liveLaunches,
          r.snapshots, r.restores, r.preemptions, r.retries,
          r.faultsInjected, std::uint64_t{r.invariantViolations},
          r.threadInsts})
        d.add(v);
    for (const ServeJob &j : r.jobs) {
        d.add(static_cast<std::uint64_t>(j.outcome));
        d.add(j.finishCycle);
        d.add(j.doneInsts);
    }
    return d.hex();
}

std::vector<ClassSlo>
classLedger(const ServeResult &r)
{
    std::vector<ClassSlo> out;
    for (std::size_t i = 0; i < r.slo.numClasses(); ++i)
        out.push_back(r.slo.of(static_cast<unsigned>(i)));
    return out;
}

// ---- One pass over the fixed work ----

struct PassResult
{
    double characterizeS = 0.0;
    std::vector<double> jobMs;  //!< per co-run job or serve session
    /** Host slowdown sampled before the characterization, between
     *  timed calls, and after the last one. */
    std::vector<double> slowdowns;
    std::uint64_t simCycles = 0;
    std::uint64_t threadInsts = 0;
    std::uint64_t soloRuns = 0;
    unsigned failedJobs = 0;

    std::map<std::string, SoloResult> solos;
    std::vector<CoRunResult> coruns;
    std::vector<std::string> jobDigests;
    std::vector<ServeResult> serves;
    std::string digest;

    // Observers, attached on the traced pass only.
    std::vector<EngineProfiler> profilers;
    std::vector<DecisionLog> logs;  //!< per co-run job or serve session

    /** Mean of the two samples bracketing timed call `i` (0 = the
     *  characterization, j + 1 = co-run job or serve session j). */
    double
    callSlowdown(std::size_t i) const
    {
        if (slowdowns.empty())
            return 1.0;
        const std::size_t a = std::min(i, slowdowns.size() - 1);
        const std::size_t b = std::min(i + 1, slowdowns.size() - 1);
        return 0.5 * (slowdowns[a] + slowdowns[b]);
    }

    // Times of the timed calls on this host, and on the reference
    // host (each call divided by the slowdown around it).
    double wallS() const
    {
        double sum = characterizeS;
        for (double ms : jobMs)
            sum += ms / 1e3;
        return sum;
    }
    double characterizeRefS() const
    {
        return characterizeS / callSlowdown(0);
    }
    double jobRefMs(std::size_t j) const
    {
        return jobMs[j] / callSlowdown(j + 1);
    }
    double corunRefS() const
    {
        double sum = 0.0;
        for (std::size_t j = 0; j < jobMs.size(); ++j)
            sum += jobRefMs(j) / 1e3;
        return sum;
    }
    double runS() const { return characterizeRefS() + corunRefS(); }
    double slowdown() const { return ratio(wallS(), runS()); }
};

/** Run one reference slice (outside any timed call); its slowdown. */
double
sampleHost(ReferenceWork &ref, SpanRecorder *rec)
{
    Scope s(rec, "host.reference");
    return ref.slowdown();
}

std::uint64_t
target(const PassResult &r, const std::string &app)
{
    auto it = r.solos.find(app);
    if (it == r.solos.end())
        throw std::runtime_error("no characterization for " + app);
    return it->second.threadInsts;
}

CoRunResult
coRun(const PassResult &r, const std::vector<std::string> &names,
      const GpuConfig &cfg, const CoRunOptions &opts)
{
    std::vector<KernelParams> apps;
    std::vector<std::uint64_t> targets;
    for (const std::string &n : names) {
        apps.push_back(benchmark(n));
        targets.push_back(target(r, n));
    }
    return runCoSchedule(apps, targets, PolicyKind::Dynamic, cfg, opts);
}

void
runCoRunJobs(const Workload &w, bool traced, ReferenceWork &ref,
             SpanRecorder *rec, Tally &tally, PassResult &r)
{
    if (traced) {
        r.profilers.resize(w.jobs.size());
        r.logs.resize(w.jobs.size());
    }
    for (std::size_t j = 0; j < w.jobs.size(); ++j) {
        CoRunOptions opts;
        opts.slicer = scaledSlicerOptions(kWindow);
        if (traced) {
            opts.profiler = &r.profilers[j];
            opts.decisionLog = &r.logs[j];
        }
        const std::string label = w.jobs[j][0] + "+" + w.jobs[j][1];
        r.slowdowns.push_back(sampleHost(ref, rec));
        const auto t0 = Clock::now();
        CoRunResult res;
        try {
            Scope s(rec, "harness.corun_job");
            res = coRun(r, w.jobs[j], w.cfg, opts);
        } catch (const std::exception &e) {
            tally.record(false, "co-run " + label + ": " + e.what());
            ++r.failedJobs;
            r.jobMs.push_back(secondsSince(t0) * 1e3);
            r.coruns.emplace_back();
            r.jobDigests.emplace_back();
            continue;
        }
        r.jobMs.push_back(secondsSince(t0) * 1e3);
        if (!tally.record(res.completed,
                          "co-run " + label + " did not complete"))
            ++r.failedJobs;
        r.simCycles += res.makespan;
        for (const AppOutcome &a : res.apps)
            r.threadInsts += a.insts;
        r.jobDigests.push_back(digestCoRun(res));
        r.coruns.push_back(std::move(res));
    }
}

void
runServeSessions(const Workload &w, bool traced, ReferenceWork &ref,
                 SpanRecorder *rec, Tally &tally, PassResult &r)
{
    if (traced)
        r.logs.resize(w.sessions.size());
    for (std::size_t i = 0; i < w.sessions.size(); ++i) {
        ServeOptions so = w.sessions[i];
        if (traced)
            so.decisionLog = &r.logs[i];
        const std::string label = "serve session " + std::to_string(i);
        r.slowdowns.push_back(sampleHost(ref, rec));
        const auto t0 = Clock::now();
        try {
            Scope s(rec, "serve.session");
            r.serves.push_back(runServe(so));
        } catch (const std::exception &e) {
            tally.record(false, label + ": " + e.what());
            ++r.failedJobs;
            r.jobMs.push_back(secondsSince(t0) * 1e3);
            continue;
        }
        r.jobMs.push_back(secondsSince(t0) * 1e3);
        const ServeResult &s = r.serves.back();
        std::string why;
        for (const std::string &e :
             perfbench::ledgerErrors(classLedger(s), s.jobs))
            why += " [ledger " + e + "]";
        if (s.invariantViolations)
            why += " [" + std::to_string(s.invariantViolations) +
                   " invariant violations]";
        if (!tally.record(why.empty(), label + ":" + why))
            ++r.failedJobs;
        r.simCycles += s.endCycle;
        r.threadInsts += s.threadInsts;
    }
}

PassResult
runPass(const Workload &w, bool traced, ReferenceWork &ref,
        SpanRecorder *rec, Tally &tally)
{
    PassResult r;
    // Every pass characterizes from scratch, as every sweep does.
    SoloCache::global().clear();
    {
        Scope pass(rec, "pass");
        r.slowdowns.push_back(sampleHost(ref, rec));
        const auto t0 = Clock::now();
        {
            Scope s(rec, "harness.characterize");
            Characterization chars(w.cfg, kWindow);
            chars.prewarm(w.kernels, 1);
            for (const std::string &k : w.kernels) {
                try {
                    r.solos.emplace(k, chars.solo(k));
                    tally.record(true, k);
                } catch (const std::exception &e) {
                    tally.record(false, "characterize " + k + ": " +
                                            e.what());
                }
            }
        }
        r.characterizeS = secondsSince(t0);
        r.soloRuns = SoloCache::global().misses();
        if (!w.sessions.empty()) {
            Scope s(rec, "harness.serve");
            runServeSessions(w, traced, ref, rec, tally, r);
        } else {
            Scope s(rec, "harness.corun");
            runCoRunJobs(w, traced, ref, rec, tally, r);
        }
        r.slowdowns.push_back(sampleHost(ref, rec));
    }

    Digest d;
    for (const auto &[name, solo] : r.solos) {
        d.add(name);
        d.add(solo.cycles);
        d.add(solo.threadInsts);
        d.add(solo.warpInsts);
        addStats(d, solo.stats);
        r.simCycles += solo.cycles;
        r.threadInsts += solo.threadInsts;
    }
    for (const std::string &jd : r.jobDigests)
        d.add(jd);
    for (const ServeResult &s : r.serves)
        d.add(digestServe(s));
    r.digest = d.hex();
    return r;
}

// ---- Checks outside the timed region ----

/** One co-run re-simulated per-cycle (clockSkip off) must reproduce
 *  the skipping engine's result exactly. */
void
checkNoSkip(const Workload &w, const PassResult &ref, std::uint64_t seed,
            SpanRecorder *rec, Tally &tally)
{
    Scope s(rec, "check.noskip");
    GpuConfig no_skip = w.cfg;
    no_skip.clockSkip = false;
    CoRunOptions opts;
    opts.slicer = scaledSlicerOptions(kWindow);
    try {
        if (!w.sessions.empty()) {
            const std::string a = digestCoRun(
                coRun(ref, w.checkPair, w.cfg, opts));
            const std::string b = digestCoRun(
                coRun(ref, w.checkPair, no_skip, opts));
            tally.record(a == b, "no-skip replay of " + w.checkPair[0] +
                                     "+" + w.checkPair[1] + " diverged");
        } else {
            const std::size_t j = seed % w.jobs.size();
            const std::string b =
                digestCoRun(coRun(ref, w.jobs[j], no_skip, opts));
            tally.record(b == ref.jobDigests[j],
                         "no-skip replay of job " + std::to_string(j) +
                             " diverged");
        }
    } catch (const std::exception &e) {
        tally.record(false, std::string("no-skip replay: ") + e.what());
    }
}

struct SnapshotTiming
{
    double saveUs = 0.0;
    double restoreUs = 0.0;
    std::size_t bytes = 0;
};

/** Pause the check pair mid co-run, time save and restore (as on the
 *  reference host), and check that a restored fresh machine re-saves
 *  byte-identically. */
SnapshotTiming
checkSnapshot(const Workload &w, const PassResult &ref,
              ReferenceWork &host, SpanRecorder *rec, Tally &tally)
{
    SnapshotTiming t;
    std::vector<double> speed;
    auto make_gpu = [&] {
        return std::make_unique<Gpu>(
            w.cfg, makePolicy(PolicyKind::Dynamic,
                              scaledSlicerOptions(kWindow)));
    };
    try {
        auto gpu = make_gpu();
        for (const std::string &app : w.checkPair)
            gpu->launchKernel(benchmark(app), target(ref, app));
        gpu->run(kWindow / 2);

        std::vector<std::uint8_t> bytes;
        std::vector<double> save_us, restore_us;
        bool same = true;
        speed.push_back(sampleHost(host, rec));
        for (unsigned i = 0; i < kSnapshotReps; ++i) {
            Scope s(rec, "snapshot.save");
            const auto t0 = Clock::now();
            std::vector<std::uint8_t> b = saveSnapshot(*gpu);
            save_us.push_back(secondsSince(t0) * 1e6);
            if (bytes.empty())
                bytes = std::move(b);
            else
                same = same && b == bytes;
        }
        speed.push_back(sampleHost(host, rec));
        for (unsigned i = 0; i < kSnapshotReps; ++i) {
            auto fresh = make_gpu();
            {
                Scope s(rec, "snapshot.restore");
                const auto t0 = Clock::now();
                restoreSnapshot(*fresh, bytes);
                restore_us.push_back(secondsSince(t0) * 1e6);
            }
            same = same && saveSnapshot(*fresh) == bytes;
        }
        tally.record(same, "snapshot of " + w.checkPair[0] + "+" +
                               w.checkPair[1] +
                               " did not re-save byte-identically");
        speed.push_back(sampleHost(host, rec));
        t.saveUs = median(save_us) / median(speed);
        t.restoreUs = median(restore_us) / median(speed);
        t.bytes = bytes.size();
    } catch (const std::exception &e) {
        tally.record(false, std::string("snapshot round trip: ") +
                                e.what());
    }
    return t;
}

// ---- Reporting ----

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/** A run's headline timings, as on the reference host. */
struct RunTimes
{
    double setupS = 0.0;
    double runS = 0.0;       //!< median over passes
    double wallS = 0.0;      //!< median over passes, host seconds
    double slowdown = 0.0;   //!< median over passes
};

void
addEndToEnd(MetricSet &m, const RunTimes &t, const PassResult &ref,
            const Tally &tally)
{
    m.add("setup_s", t.setupS, "s");
    m.add("run_s", t.runS, "s");
    m.add("sim_mcycles_per_s",
          static_cast<double>(ref.simCycles) / t.runS / 1e6, "Mcyc/s");
    m.add("sim_minsts_per_s",
          static_cast<double>(ref.threadInsts) / t.runS / 1e6, "Minst/s");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    m.add("ok_share",
          ratio(static_cast<double>(tally.attempted - tally.failed),
                static_cast<double>(tally.attempted)),
          "share");
}

/** Per-layer metrics of the traced pass `tr`; its host times are
 *  divided by its slowdown like the end-to-end ones. */
void
addPerLayer(MetricSet &m, const Workload &w, const RunTimes &t,
            const PassResult &tr, const SnapshotTiming &snap,
            const SpanRecorder &rec)
{
    std::vector<double> job_ms;
    for (std::size_t j = 0; j < tr.jobMs.size(); ++j)
        job_ms.push_back(tr.jobRefMs(j));
    m.add("host.slowdown", t.slowdown, "x");
    m.add("host.wall_run_s", t.wallS, "s");
    m.add("workloads.build_ms", t.setupS * 1e3, "ms");
    m.add("harness.characterize_s", tr.characterizeRefS(), "s");
    m.add("harness.corun_s", tr.corunRefS(), "s");
    m.add("harness.job_ms_p50", perfbench::percentile(job_ms, 50), "ms");
    m.add("harness.job_samples", static_cast<double>(tr.jobMs.size()),
          "count");
    m.add("harness.solo_runs", static_cast<double>(tr.soloRuns), "count");
    m.add("harness.failed_jobs", tr.failedJobs, "count");

    // Engine phases, summed over the profiled co-run jobs, each job's
    // on the reference host.
    double phase[static_cast<unsigned>(EpochPhase::NumPhases)] = {};
    std::uint64_t ticks = 0, skipped = 0, memo = 0, scans = 0;
    for (std::size_t j = 0; j < tr.profilers.size(); ++j) {
        const EngineProfiler &p = tr.profilers[j];
        for (unsigned ph = 0; ph < std::size(phase); ++ph)
            phase[ph] += static_cast<double>(
                             p.phaseNs(static_cast<EpochPhase>(ph))) /
                         tr.callSlowdown(j + 1);
        ticks += p.ticks();
        skipped += p.skippedCycles();
        memo += p.scanMemoHits();
        scans += p.schedulerScans();
    }
    auto ns = [&](EpochPhase ph) {
        return phase[static_cast<unsigned>(ph)];
    };
    double cycles = 0.0, warp_insts = 0.0, job_ns = 0.0;
    std::vector<double> stp;
    for (std::size_t j = 0; j < tr.coruns.size(); ++j) {
        const CoRunResult &c = tr.coruns[j];
        cycles += static_cast<double>(c.makespan);
        warp_insts += static_cast<double>(c.stats.warpInstsIssued);
        job_ns += tr.jobRefMs(j) * 1e6;
        double sum = 0.0;
        for (std::size_t a = 0; a < c.apps.size(); ++a) {
            AppOutcome app = c.apps[a];
            app.aloneCycles = tr.solos.at(w.jobs[j][a]).cycles;
            sum += speedup(app);
        }
        stp.push_back(sum);
    }
    const double sm_ns =
        ns(EpochPhase::SmCompute) + ns(EpochPhase::FusedCompute);
    const double phases_ns = sm_ns + ns(EpochPhase::IcntMergeRequests) +
                             ns(EpochPhase::PartitionCompute) +
                             ns(EpochPhase::IcntDeliver);
    m.add("gpu.ns_per_cycle", ratio(job_ns, cycles), "ns/cyc");
    m.add("gpu.glue_ns_per_cycle", ratio(job_ns - phases_ns, cycles),
          "ns/cyc");
    m.add("gpu.ticked_share",
          ratio(static_cast<double>(ticks),
                static_cast<double>(ticks + skipped)),
          "share");
    m.add("sm.tick_ns_per_cycle", ratio(sm_ns, cycles), "ns/cyc");
    m.add("sm.scan_memo_hit_ratio",
          ratio(static_cast<double>(memo),
                static_cast<double>(memo + scans)),
          "share");
    m.add("sm.warp_ipc", ratio(warp_insts, cycles), "inst/cyc");
    m.add("icnt.merge_ns_per_cycle",
          ratio(ns(EpochPhase::IcntMergeRequests), cycles), "ns/cyc");
    m.add("icnt.deliver_ns_per_cycle",
          ratio(ns(EpochPhase::IcntDeliver), cycles), "ns/cyc");
    m.add("mem.partition_tick_ns_per_cycle",
          ratio(ns(EpochPhase::PartitionCompute), cycles), "ns/cyc");

    // Simulated memory behaviour over every run whose stats the
    // benchmark sees: solo characterizations plus co-runs.
    GpuStats mem;
    auto add_mem = [&](const GpuStats &s) {
        accumulateStats<SmStats>(mem, s);
        accumulateStats<PartitionStats>(mem, s);
    };
    for (const auto &[name, solo] : tr.solos)
        add_mem(solo.stats);
    for (const CoRunResult &c : tr.coruns)
        add_mem(c.stats);
    m.add("mem.l1_miss_ratio", mem.l1MissRate(), "share");
    m.add("mem.l2_miss_ratio", mem.l2MissRate(), "share");
    m.add("mem.dram_row_hit_ratio",
          ratio(static_cast<double>(mem.dramRowHits),
                static_cast<double>(mem.dramRowHits + mem.dramRowMisses)),
          "share");

    // Decision log: repartitions and the model's prediction error.
    std::vector<const DecisionLogEntry *> entries;
    for (const DecisionLog &log : tr.logs)
        for (const DecisionLogEntry &e : log.entries())
            entries.push_back(&e);
    double spatial = 0.0, err = 0.0, err_n = 0.0;
    for (const DecisionLogEntry *e : entries) {
        spatial += e->spatial ? 1.0 : 0.0;
        if (!e->realizedAt)
            continue;
        for (std::size_t k = 0; k < e->realizedIpc.size() &&
                                k < e->predictedIpc.size();
             ++k) {
            if (e->realizedIpc[k] <= 0.0)
                continue;
            err += std::abs(e->predictedIpc[k] - e->realizedIpc[k]) /
                   e->realizedIpc[k];
            err_n += 1.0;
        }
    }
    m.add("core.decisions", static_cast<double>(entries.size()), "count");
    m.add("core.spatial_fallback_share",
          ratio(spatial, static_cast<double>(entries.size())), "share");
    m.add("core.stp_geomean", stp.empty() ? 0.0 : geomean(stp), "x");
    m.add("core.ipc_prediction_error_pct", 100.0 * ratio(err, err_n),
          "%");

    // Serve sessions, summed (zero on the pairs workloads).
    double slices = 0, rebuilds = 0, live = 0, preempt = 0, restores = 0;
    double arrivals = 0, goodput = 0, shed = 0;
    std::vector<double> latency_kcyc;
    for (const ServeResult &s : tr.serves) {
        slices += static_cast<double>(s.slices);
        rebuilds += static_cast<double>(s.rebuilds);
        live += static_cast<double>(s.liveLaunches);
        preempt += static_cast<double>(s.preemptions);
        restores += static_cast<double>(s.restores);
        for (const ClassSlo &c : classLedger(s)) {
            arrivals += static_cast<double>(c.arrivals);
            goodput += static_cast<double>(c.goodput);
            shed += static_cast<double>(c.shed);
        }
        for (const ServeJob &j : s.jobs)
            if (j.outcome == JobOutcome::Completed)
                latency_kcyc.push_back(
                    static_cast<double>(j.finishCycle - j.arrival) / 1e3);
    }
    const perfbench::Tail tail = perfbench::highestSupportedPercentile(
        latency_kcyc, {50, 90, 99});
    m.add("serve.slices", slices, "count");
    m.add("serve.rebuilds", rebuilds, "count");
    m.add("serve.live_launches", live, "count");
    m.add("serve.preemptions", preempt, "count");
    m.add("serve.restores", restores, "count");
    m.add("serve.host_ms_per_slice", ratio(tr.corunRefS() * 1e3, slices),
          "ms");
    m.add("serve.goodput_ratio", ratio(goodput, arrivals), "share");
    m.add("serve.shed_share", ratio(shed, arrivals), "share");
    m.add("serve.latency_p50_kcyc", perfbench::percentile(latency_kcyc, 50),
          "kcyc");
    m.add("serve.latency_tail_pct", tail.pct, "pct");
    m.add("serve.latency_tail_kcyc", tail.value, "kcyc");
    m.add("serve.latency_samples", static_cast<double>(latency_kcyc.size()),
          "count");

    m.add("snapshot.save_us", snap.saveUs, "us");
    m.add("snapshot.restore_us", snap.restoreUs, "us");
    m.add("snapshot.bytes", static_cast<double>(snap.bytes), "bytes");

    // Tracing cost, and wall time of the traced pass no span covers.
    m.add("obs.profiler_overhead_ratio", ratio(tr.runS(), t.runS), "x");
    const auto self = perfbench::selfTimeByName(rec.spans());
    double pass_ns = 0.0;
    for (const perfbench::Span &s : rec.spans())
        if (s.name == "pass")
            pass_ns += static_cast<double>(s.endNs - s.startNs);
    m.add("obs.unattributed_share",
          ratio(static_cast<double>(self.count("pass") ? self.at("pass")
                                                        : 0),
                pass_ns),
          "share");
}

void
printSelfTimeTable(const SpanRecorder &rec)
{
    std::map<std::string, std::pair<std::size_t, std::int64_t>> totals;
    std::int64_t root_ns = 0;
    for (const perfbench::Span &s : rec.spans()) {
        auto &[calls, ns] = totals[s.name];
        ++calls;
        ns += s.endNs - s.startNs;
        if (s.parent < 0)
            root_ns += s.endNs - s.startNs;
    }
    const auto self = perfbench::selfTimeByName(rec.spans());
    std::printf("# layer self time (span minus its children)\n");
    std::printf("# %-22s %6s %11s %11s %7s\n", "span", "calls",
                "total_ms", "self_ms", "self%");
    for (const auto &[name, t] : totals) {
        const double self_ns = static_cast<double>(self.at(name));
        std::printf("# %-22s %6zu %11.3f %11.3f %6.2f%%\n", name.c_str(),
                    t.first, static_cast<double>(t.second) / 1e6,
                    self_ns / 1e6,
                    100.0 * ratio(self_ns, static_cast<double>(root_ns)));
    }
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned seconds = 0;
    bool trace = false;
    std::string traceOut;  //!< required with --trace 1
};

bool
parseUnsigned(const char *s, std::uint64_t &out)
{
    if (!s || !*s)
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(s, &end, 10);
    return errno == 0 && *end == '\0' && s[0] != '-';
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        std::uint64_t n = 0;
        if (flag == "--workload" && val) {
            a.workload = val;
        } else if (flag == "--seed" && parseUnsigned(val, n)) {
            a.seed = n;
            have_seed = true;
        } else if (flag == "--seconds" && parseUnsigned(val, n) &&
                   n >= 1 && n <= 600) {
            a.seconds = static_cast<unsigned>(n);
            have_seconds = true;
        } else if (flag == "--trace" && parseUnsigned(val, n) && n <= 1) {
            a.trace = n == 1;
            have_trace = true;
        } else if (flag == "--trace-out" && val) {
            a.traceOut = val;
        } else {
            return false;
        }
        ++i;
    }
    return !a.workload.empty() && have_seed && have_seconds && have_trace &&
           (!a.trace || !a.traceOut.empty());
}

const char *
envOr(const char *name)
{
    const char *v = std::getenv(name);
    return v ? v : "<unset>";
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload pairs_compute|pairs_memory|"
                     "serve_overload --seed N --seconds S --trace 0|1 "
                     "[--trace-out FILE]\n",
                     argv[0]);
        return 2;
    }
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "refusing to measure a '%s' build; configure with "
                     "-DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }

    std::printf("# perfbench workload=%s seed=%llu seconds=%u trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("# host hardware_threads=%u build=%s jobs=1 "
                "tick_threads=1 window=%llu\n",
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                static_cast<unsigned long long>(kWindow));
    std::printf("# ignored env WSL_JOBS=%s WSL_TICK_THREADS=%s "
                "WSL_WINDOW=%s\n",
                envOr("WSL_JOBS"), envOr("WSL_TICK_THREADS"),
                envOr("WSL_WINDOW"));

    std::unique_ptr<SpanRecorder> rec;
    if (args.trace)
        rec = std::make_unique<SpanRecorder>(
            args.workload + "-seed" + std::to_string(args.seed));

    // Set-up: configs, kernel programs, job list, arrival trace and
    // fault plan, built kSetupReps times; setup_s is the median, with
    // the host measured before, between and after.
    ReferenceWork host;
    std::vector<double> setup_speed;
    Workload w;
    std::vector<double> setup_times;
    try {
        for (unsigned i = 0; i < kSetupReps; ++i) {
            if (i % (kSetupReps / 2) == 0)
                setup_speed.push_back(sampleHost(host, rec.get()));
            Scope s(rec.get(), "workloads.build");
            const auto t0 = Clock::now();
            Workload built = buildWorkload(args.workload, args.seed);
            setup_times.push_back(secondsSince(t0));
            if (i == 0)
                w = std::move(built);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "set-up failed: %s\n", e.what());
        return 2;
    }
    RunTimes times;
    times.setupS = median(setup_times) / median(setup_speed);
    const unsigned passes = std::max(
        1u, static_cast<unsigned>(args.seconds /
                                      nominalPassSeconds(w.name) +
                                  0.5));
    std::size_t arrivals = 0, faults = 0;
    for (const ServeOptions &so : w.sessions) {
        arrivals += so.arrivals.trace.size();
        faults += so.chaos.faults.size();
    }
    std::printf("# %zu kernels (%zu static instructions), %zu co-run "
                "jobs, %zu serve sessions (%zu arrivals, %zu faults), "
                "%u passes\n",
                w.kernels.size(), w.programInsts, w.jobs.size(),
                w.sessions.size(), arrivals, faults, passes);

    Tally tally;
    std::vector<PassResult> plain;
    std::vector<double> run_s, wall_s, slowdowns;
    for (unsigned p = 0; p < passes; ++p) {
        plain.push_back(runPass(w, false, host, nullptr, tally));
        const PassResult &r = plain.back();
        run_s.push_back(r.runS());
        wall_s.push_back(r.wallS());
        slowdowns.push_back(r.slowdown());
        std::printf("# pass %u: %.4f s on this host, slowdown %.4f, "
                    "%.4f s on the reference host, digest %s\n",
                    p, r.wallS(), r.slowdown(), r.runS(),
                    r.digest.c_str());
    }
    times.runS = median(run_s);
    times.wallS = median(wall_s);
    times.slowdown = median(slowdowns);
    const PassResult &ref = plain.front();

    std::unique_ptr<PassResult> traced;
    if (rec) {
        traced = std::make_unique<PassResult>(
            runPass(w, true, host, rec.get(), tally));
        std::printf("# traced pass: %.4f s on this host, slowdown %.4f, "
                    "digest %s\n",
                    traced->wallS(), traced->slowdown(),
                    traced->digest.c_str());
    }

    // Determinism: every pass, observed or not, simulated exactly the
    // same results.
    bool same = true;
    for (const PassResult &p : plain)
        same = same && p.digest == ref.digest;
    if (traced)
        same = same && traced->digest == ref.digest;
    tally.record(same, "passes disagree on the simulated results");

    checkNoSkip(w, ref, args.seed, rec.get(), tally);
    const SnapshotTiming snap =
        checkSnapshot(w, ref, host, rec.get(), tally);
    std::printf("# result digest %s, reference work checksum %016llx\n",
                ref.digest.c_str(),
                static_cast<unsigned long long>(host.checksum()));

    MetricSet metrics;
    if (traced) {
        printSelfTimeTable(*rec);
        std::ofstream out(args.traceOut);
        rec->writeChromeTrace(out);
        out.close();
        if (tally.record(static_cast<bool>(out),
                         "cannot write trace file " + args.traceOut))
            std::printf("# trace written to %s\n", args.traceOut.c_str());
        addPerLayer(metrics, w, times, *traced, snap, *rec);
    } else {
        addEndToEnd(metrics, times, ref, tally);
    }
    const bool correct = tally.failed == 0;
    std::printf("%s\n",
                metrics.resultLine(correct, tally.attempted, tally.failed)
                    .c_str());
    return correct ? 0 : 1;
}
