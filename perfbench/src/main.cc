/**
 * @file
 * perfbench: the repository benchmark. One process runs one
 * workload single-threaded and prints every metric by name and unit,
 * ending with one JSON line (see perfbench/README.md):
 *
 *   perfbench --workload timing-256|replay-sweep|serve --seed N
 *             --seconds S --trace 0|1
 *   perfbench --spec          # print BENCHMARK.json from spec.cc
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 alternates
 * untraced passes with traced ones (every EngineBackend call timed) and
 * reports the per-layer metrics and the tracing overhead.
 */
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/app.h"
#include "base/logging.h"
#include "harness/serving.h"
#include "swarm/backends/trace_replay_backend.h"
#include "swarm/machine.h"

#include "arith.h"
#include "spec.h"
#include "tracer.h"

extern char** environ;

namespace perfbench {
namespace {

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

/// App::setup repetitions per run; setup_s reports their median.
constexpr int kSetupReps = 5;

using Metrics = std::map<std::string, double>;

struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = kRunSeconds;
    bool trace = false;
};

/** One (app, scheduler, core count, backend) run, or one serveOnce. */
struct Cell
{
    std::string app;
    std::string label;
    uint32_t cores = 0;
    double hostS = 0;
    bool valid = false;
    bool digestOk = true;
    uint64_t digest = 0;
    ssim::SimStats stats;
    // serve only
    double offered = 0;  ///< requests per million cycles
    double achieved = 0; ///< requests per million cycles
    uint64_t requests = 0, p50 = 0, p99 = 0, p999 = 0;
    uint64_t backlog = 0; ///< makespan - last arrival, cycles

    bool ok() const { return valid && digestOk; }
};

/** One line per cell: simulated cycles and aborts of every run, so
 *  layout jitter is visible next to the gmeans. */
void
printCell(const Cell& c)
{
    std::printf("cell %-8s %-12s cycles=%llu committed=%llu aborted=%llu "
                "host_ms=%.3f %s%s\n",
                c.app.c_str(), c.label.c_str(),
                (unsigned long long)c.stats.cycles,
                (unsigned long long)c.stats.tasksCommitted,
                (unsigned long long)c.stats.tasksAborted, c.hostS * 1e3,
                c.valid ? "valid" : "INVALID",
                c.digestOk ? "" : " DIGEST-MISMATCH");
    if (c.requests)
        std::printf("     offered=%.1f achieved=%.1f p50=%llu p99=%llu "
                    "p999=%llu backlog=%llu\n",
                    c.offered, c.achieved, (unsigned long long)c.p50,
                    (unsigned long long)c.p99, (unsigned long long)c.p999,
                    (unsigned long long)c.backlog);
}

uint64_t
events(const ssim::SimStats& s)
{
    uint64_t n = 0;
    for (uint64_t e : s.laneScheduled)
        n += e;
    return n;
}

/** Miss rate misses / (hits + misses), 0 when the level saw nothing. */
double
missRate(uint64_t hits, uint64_t misses)
{
    return hits + misses ? double(misses) / double(hits + misses) : 0;
}

/** Ratio a / b over positive values; 0 otherwise (left out of gmeans). */
double
ratio(double a, double b)
{
    return a > 0 && b > 0 ? a / b : 0;
}

/** gmean over the positive entries of @p v. */
double
gmeanPositive(const std::vector<double>& v)
{
    std::vector<double> pos;
    for (double x : v)
        if (x > 0)
            pos.push_back(x);
    return gmean(pos);
}

ssim::SimConfig
baseConfig(uint32_t cores, ssim::SchedulerType sched, uint64_t seed,
           const char* backend)
{
    ssim::SimConfig cfg = ssim::SimConfig::withCores(cores, sched, seed);
    // Pinned, whatever the defaults become: one host thread, one
    // process, classification off.
    cfg.hostThreads = 1;
    cfg.numShards = 1;
    cfg.classifyMode = "off";
    cfg.concurrentConflicts = false;
    cfg.parallelReplay = false;
    cfg.engineBackend = backend;
    return cfg;
}

/** Base class of the three workloads. */
class Workload
{
  public:
    explicit Workload(const Options& o) : opt_(o) {}
    virtual ~Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;

    /** Build the inputs (and any pre-run). Returns setup_s. */
    virtual double setup(Tracer& tr) = 0;

    /** One measured pass: append its cells, and put the workload's
     *  own modeled metrics in @p m. */
    virtual void pass(Tracer& tr, std::vector<Cell>& cells, Metrics& m) = 0;

    /** Runs counted outside passes (trace-record pre-runs). */
    uint64_t setupAttempted = 0, setupFailed = 0;

  protected:
    /**
     * Set up @p names at @p preset kSetupReps times, keeping the last
     * set; returns the median seconds of one full set.
     */
    double
    setupApps(const std::vector<std::string>& names, ssim::apps::Preset preset,
              Tracer& tr)
    {
        std::vector<double> reps;
        for (int r = 0; r < kSetupReps; r++) {
            apps_.clear(); // free the previous set before building the next
            uint64_t t0 = nowNs();
            for (const std::string& name : names) {
                auto app = ssim::apps::makeApp(name);
                ssim::apps::AppParams p;
                p.preset = preset;
                p.seed = opt_.seed;
                tr.span("apps.setup", [&] { app->setup(p); });
                apps_.push_back(std::move(app));
            }
            reps.push_back(double(nowNs() - t0) * 1e-9);
        }
        return median(reps);
    }

    /** Reset @p app and run it on a fresh Machine, spanning each call. */
    Cell
    runClosed(ssim::apps::App& app, const ssim::SimConfig& cfg,
              const std::string& label, Tracer& tr)
    {
        Cell c;
        c.app = app.name();
        c.label = label;
        c.cores = cfg.totalCores();
        app.reset();
        uint64_t t0 = nowNs();
        std::unique_ptr<ssim::Machine> m;
        tr.span("swarm.build",
                [&] { m = std::make_unique<ssim::Machine>(cfg); });
        app.enqueueInitial(*m);
        tr.span("swarm.run", [&] { m->run(); });
        tr.span("apps.validate", [&] { c.valid = app.validate(); });
        tr.span("apps.digest", [&] { c.digest = app.resultDigest(); });
        c.stats = m->stats();
        tr.span("swarm.build", [&] { m.reset(); });
        c.hostS = double(nowNs() - t0) * 1e-9;
        gate(c);
        return c;
    }

    /** The result digest must match the same app's other runs. */
    void
    gate(Cell& c)
    {
        auto [it, fresh] = refDigest_.emplace(c.app, c.digest);
        c.digestOk = fresh || it->second == c.digest;
    }

    const Options& opt_;
    std::vector<std::unique_ptr<ssim::apps::App>> apps_;
    std::map<std::string, uint64_t> refDigest_;
};

/** Random vs Hints, 8 apps, 256 cores, timing backend. */
class Timing256 final : public Workload
{
  public:
    using Workload::Workload;

    double
    setup(Tracer& tr) override
    {
        return setupApps({"bfs", "sssp", "astar", "des", "nocsim", "silo",
                          "genome", "kvstore"},
                         ssim::apps::Preset::Small, tr);
    }

    void
    pass(Tracer& tr, std::vector<Cell>& cells, Metrics& m) override
    {
        std::vector<double> speedup, wasted, traffic, hintsCycles;
        for (auto& app : apps_) {
            Cell rnd = runClosed(
                *app,
                baseConfig(256, ssim::SchedulerType::Random, opt_.seed,
                           "timing"),
                "random@256", tr);
            Cell hin = runClosed(
                *app,
                baseConfig(256, ssim::SchedulerType::Hints, opt_.seed,
                           "timing"),
                "hints@256", tr);
            const auto abortCycles = [](const Cell& c) {
                return double(c.stats.coreCycles[size_t(
                    ssim::CycleBucket::Abort)]);
            };
            speedup.push_back(
                ratio(double(rnd.stats.cycles), double(hin.stats.cycles)));
            wasted.push_back(ratio(abortCycles(rnd), abortCycles(hin)));
            traffic.push_back(ratio(double(rnd.stats.totalFlits()),
                                    double(hin.stats.totalFlits())));
            hintsCycles.push_back(double(hin.stats.cycles));
            cells.push_back(std::move(rnd));
            cells.push_back(std::move(hin));
        }
        m["sim_cycles"] = gmean(hintsCycles);
        m["hint_speedup"] = gmeanPositive(speedup);
        m["swarm.wasted_work_cut"] = gmeanPositive(wasted);
        m["noc.traffic_cut"] = gmeanPositive(traffic);
    }
};

/** 9 apps: one trace-record run each at 256 cores (setup), replayed at
 *  256 and 64 cores (measured). color and pagerank are left out: their
 *  256-core record runs are 8-10 s abort storms each, which would make
 *  setup most of the benchmark's time budget. */
class ReplaySweep final : public Workload
{
  public:
    using Workload::Workload;

    double
    setup(Tracer& tr) override
    {
        double appsS = setupApps({"bfs", "sssp", "astar", "des", "nocsim",
                                  "silo", "genome", "kmeans", "kvstore"},
                                 ssim::apps::Preset::Small, tr);
        // The trace-record pre-run harness::prepareTraceReplay performs,
        // done here so its makespan, validation and host time are
        // visible: the replay error and speedup are measured against it.
        uint64_t t0 = nowNs();
        for (auto& app : apps_) {
            ssim::SimConfig cfg = baseConfig(
                256, ssim::SchedulerType::Hints, opt_.seed, "trace-record");
            auto sink = std::make_shared<ssim::TraceData>();
            cfg.traceSink = sink;
            Cell rec;
            tr.span("harness.record",
                    [&] { rec = runClosed(*app, cfg, "record@256", tr); });
            sink->recordResultDigest = rec.digest;
            printCell(rec);
            setupAttempted++;
            setupFailed += rec.ok() ? 0 : 1;
            Record& r = records_[rec.app];
            r.trace = std::move(sink);
            r.cycles = rec.stats.cycles;
            r.hostS = rec.hostS;
        }
        return appsS + double(nowNs() - t0) * 1e-9;
    }

    void
    pass(Tracer& tr, std::vector<Cell>& cells, Metrics& m) override
    {
        std::vector<double> err, speed, cycles256;
        for (auto& app : apps_) {
            const Record& rec = records_.at(app->name());
            for (uint32_t cores : {256u, 64u}) {
                ssim::SimConfig cfg =
                    baseConfig(cores, ssim::SchedulerType::Hints, opt_.seed,
                               "trace-replay");
                cfg.traceData = rec.trace;
                Cell c = runClosed(*app, cfg,
                                   "replay@" + std::to_string(cores), tr);
                if (cores == 256) {
                    double r = ratio(double(c.stats.cycles),
                                     double(rec.cycles));
                    err.push_back(r > 0 ? std::max(r, 1 / r) : 0);
                    speed.push_back(ratio(rec.hostS, c.hostS));
                    cycles256.push_back(double(c.stats.cycles));
                }
                cells.push_back(std::move(c));
            }
        }
        m["sim_cycles"] = gmean(cycles256);
        m["replay_cycle_err"] = gmeanPositive(err);
        m["backends.replay_speedup"] = gmeanPositive(speed);
    }

  private:
    struct Record
    {
        std::shared_ptr<const ssim::TraceData> trace;
        ssim::Cycle cycles = 0;
        double hostS = 0;
    };
    std::map<std::string, Record> records_;
};

/** Open-loop serving: silo and kvstore at the full preset, 64 cores. */
class Serve final : public Workload
{
  public:
    using Workload::Workload;

    double
    setup(Tracer& tr) override
    {
        return setupApps(serveApps(), ssim::apps::Preset::Full, tr);
    }

    void
    pass(Tracer& tr, std::vector<Cell>& cells, Metrics& m) override
    {
        const ServeLimit limit;
        std::vector<double> p50, p99, p999, achieved, backlog, sustained,
            makespan;
        double beyond = 0;
        for (auto& app : apps_) {
            const std::string name = app->name();
            std::vector<double> ladder;
            for (uint32_t load : serveLadder())
                ladder.push_back(load);
            size_t first = cells.size();
            double best = sustainedLoad(
                ladder, /*refineSteps=*/3,
                [&](double load) {
                    cells.push_back(runServe(*app, load, tr));
                    const Cell& c = cells.back();
                    return LoadProbe{c.offered, c.achieved, c.p99,
                                     limit.meets(c.offered, c.achieved,
                                                 c.p99)};
                });
            sustained.push_back(best);
            // The ladder's cells come first, in ladder order; the first
            // is the reference load.
            for (size_t i = 0; i < ladder.size(); i++)
                m["serve." + name + ".p99_at_" +
                  std::to_string(serveLadder()[i])] =
                    double(cells[first + i].p99);
            const Cell& ref = cells[first];
            p50.push_back(double(ref.p50));
            p99.push_back(double(ref.p99));
            p999.push_back(double(ref.p999));
            achieved.push_back(ref.achieved);
            backlog.push_back(double(ref.backlog));
            makespan.push_back(double(ref.stats.cycles));
            double b = double(samplesBeyond(ref.requests, 990));
            beyond = &app == &apps_.front() ? b : std::min(beyond, b);
        }
        m["sim_cycles"] = gmean(makespan);
        m["p50_cycles"] = gmean(p50);
        m["p99_cycles"] = gmean(p99);
        m["p99_samples_beyond"] = beyond;
        m["sustained_qps"] = gmeanPositive(sustained);
        m["serve.achieved_qps"] = gmean(achieved);
        m["serve.backlog_cycles"] = gmean(backlog);
        m["serve.p999_cycles"] = gmean(p999);
    }

  private:
    Cell
    runServe(ssim::apps::App& app, double load, Tracer& tr)
    {
        ssim::SimConfig cfg =
            baseConfig(64, ssim::SchedulerType::Hints, opt_.seed, "timing");
        ssim::harness::ServingConfig scfg;
        scfg.arrivals = ssim::harness::ArrivalKind::Poisson;
        scfg.meanGapCycles = std::max<uint64_t>(1, std::llround(1e6 / load));
        scfg.seed = opt_.seed;
        Cell c;
        c.app = app.name();
        c.cores = cfg.totalCores();
        c.offered = 1e6 / double(scfg.meanGapCycles);
        c.label = "serve@" + std::to_string(std::llround(c.offered));
        uint64_t t0 = nowNs();
        ssim::harness::ServingResult r;
        tr.span("harness.serve",
                [&] { r = ssim::harness::serveOnce(app, cfg, scfg); });
        c.hostS = double(nowNs() - t0) * 1e-9;
        // serveOnce validates and digests internally; perfbench repeats
        // both calls to check the outputs itself. The repeat is outside
        // the cell's host time and gives the apps layer's share of it.
        tr.span("apps.validate", [&] { c.valid = r.valid && app.validate(); });
        tr.span("apps.digest", [&] { c.digest = app.resultDigest(); });
        c.valid = c.valid && c.digest == r.resultDigest;
        c.stats = r.stats;
        c.achieved = r.qpmc();
        c.requests = r.requests;
        c.p50 = r.p50;
        c.p99 = r.p99;
        c.p999 = r.p999;
        c.backlog = r.cycles > r.lastArrival ? r.cycles - r.lastArrival : 0;
        gate(c);
        return c;
    }
};

/** Metrics every workload derives the same way from its cells and
 *  spans; the workload's own modeled metrics are already in @p m. */
void
summarize(const std::vector<Cell>& cells, const Tracer& tr, Metrics& m)
{
    double wall = 0;
    std::vector<double> tps, eps;
    ssim::SimStats sum;
    uint64_t nEvents = 0, peakPending = 0;
    for (const Cell& c : cells) {
        const ssim::SimStats& s = c.stats;
        wall += c.hostS;
        tps.push_back(ratio(double(s.tasksCommitted), c.hostS));
        eps.push_back(ratio(double(events(s)), c.hostS));
        nEvents += events(s);
        for (uint64_t p : s.lanePeakPending)
            peakPending = std::max(peakPending, p);
        sum.tasksCommitted += s.tasksCommitted;
        sum.tasksAborted += s.tasksAborted;
        sum.abortsConflict += s.abortsConflict;
        sum.abortsDisplace += s.abortsDisplace;
        sum.abortsGridlock += s.abortsGridlock;
        sum.conflictChecks += s.conflictChecks;
        sum.lineTableRegs += s.lineTableRegs;
        sum.tasksSpilled += s.tasksSpilled;
        sum.dispatchSkips += s.dispatchSkips;
        for (size_t b = 0; b < ssim::kNumCycleBuckets; b++)
            sum.coreCycles[b] += s.coreCycles[b];
        for (size_t f = 0; f < ssim::kNumTrafficClasses; f++)
            sum.flits[f] += s.flits[f];
        sum.l1Hits += s.l1Hits;
        sum.l1Misses += s.l1Misses;
        sum.l2Hits += s.l2Hits;
        sum.l2Misses += s.l2Misses;
        sum.l3Hits += s.l3Hits;
        sum.l3Misses += s.l3Misses;
        sum.traceServedCosts += s.traceServedCosts;
        sum.traceFallbackCosts += s.traceFallbackCosts;
    }
    m["wall_s"] = wall;
    m["tasks_per_s"] = gmean(tps);
    m["events_per_s"] = gmean(eps);

    m["apps.validate_s"] = tr.totalS("apps.validate");
    m["apps.digest_s"] = tr.totalS("apps.digest");
    m["harness.serve_s"] = tr.totalS("harness.serve");
    m["swarm.build_s"] = tr.totalS("swarm.build");
    // Machine::run is reached directly in closed-loop cells and only
    // through serveOnce in serving cells.
    double runS = tr.totalS("swarm.run") + tr.totalS("harness.serve");
    m["swarm.run_s"] = runS;
    m["swarm.run_self_s"] =
        tr.selfS("swarm.run") + tr.selfS("harness.serve");

    m["swarm.committed"] = double(sum.tasksCommitted);
    m["swarm.aborted"] = double(sum.tasksAborted);
    m["swarm.aborts_conflict"] = double(sum.abortsConflict);
    m["swarm.aborts_displace"] = double(sum.abortsDisplace);
    m["swarm.aborts_gridlock"] = double(sum.abortsGridlock);
    m["swarm.commit_ratio"] =
        sum.tasksCommitted + sum.tasksAborted
            ? double(sum.tasksCommitted) /
                  double(sum.tasksCommitted + sum.tasksAborted)
            : 0;
    m["swarm.conflict_checks"] = double(sum.conflictChecks);
    m["swarm.line_table_regs"] = double(sum.lineTableRegs);
    m["swarm.spilled"] = double(sum.tasksSpilled);
    m["swarm.dispatch_skips"] = double(sum.dispatchSkips);
    double core = double(sum.totalCoreCycles());
    const char* buckets[] = {"commit", "abort", "spill", "stall", "empty"};
    for (size_t b = 0; b < ssim::kNumCycleBuckets; b++)
        m[std::string("swarm.cycles_") + buckets[b]] =
            core > 0 ? double(sum.coreCycles[b]) / core : 0;

    m["sim.events"] = double(nEvents);
    m["sim.ns_per_event"] = nEvents ? runS * 1e9 / double(nEvents) : 0;
    m["sim.peak_pending"] = double(peakPending);

    for (size_t i = 0; i < 5; i++) {
        auto meth = BackendMethod(i);
        std::string stem = std::string("backends.") + methodName(meth);
        m[stem + ".calls"] = double(tr.calls(meth));
        m[stem + ".s"] = double(tr.ns(meth)) * 1e-9;
    }
    m["backends.self_s"] = double(tr.backendNs()) * 1e-9;
    m["backends.trace_served"] = double(sum.traceServedCosts);
    m["backends.trace_fallbacks"] = double(sum.traceFallbackCosts);

    m["mem.l1_miss_rate"] = missRate(sum.l1Hits, sum.l1Misses);
    m["mem.l2_miss_rate"] = missRate(sum.l2Hits, sum.l2Misses);
    m["mem.l3_miss_rate"] = missRate(sum.l3Hits, sum.l3Misses);
    m["noc.flits"] = double(sum.totalFlits());
    const char* classes[] = {"mem", "abort", "task", "gvt"};
    for (size_t f = 0; f < ssim::kNumTrafficClasses; f++)
        m[std::string("noc.flits_") + classes[f]] = double(sum.flits[f]);
}

/** Per-layer metrics whose value comes from the traced passes (host time
 *  with the backend decorator registered); the rest come from the
 *  untraced passes. */
bool
fromTracedPass(const std::string& name)
{
    static const std::set<std::string> kTraced = {
        "apps.validate_s", "apps.digest_s",
        "harness.serve_s", "swarm.build_s",  "swarm.run_s",
        "swarm.run_self_s", "backends.self_s"};
    if (kTraced.count(name))
        return true;
    return name.rfind("backends.", 0) == 0 &&
           (name.ends_with(".calls") || name.ends_with(".s"));
}

struct Passes
{
    std::vector<Metrics> metrics;
    std::vector<std::vector<Cell>> cells; ///< per pass
    uint64_t attempted = 0, failed = 0;

    /** Median over passes; 0 when no pass reported @p key (a metric
     *  that does not apply to this workload). */
    double
    median(const std::string& key) const
    {
        std::vector<double> v;
        for (const Metrics& m : metrics) {
            auto it = m.find(key);
            if (it != m.end())
                v.push_back(it->second);
        }
        return perfbench::median(v);
    }
};

/**
 * Run passes until @p seconds of wall-clock have elapsed, and at least
 * two untraced ones so every cell has a fastest pass to pick, into
 * @p plain. With @p traced non-null, passes alternate untraced and
 * traced (ending on a traced one), so host-speed drift hits both alike.
 */
void
runPasses(Workload& w, Tracer& tr, double seconds, Passes& plain,
          Passes* traced)
{
    uint64_t start = nowNs();
    bool tracing = false;
    do {
        setBackendTracing(tracing ? &tr : nullptr);
        tr.clear();
        std::vector<Cell> cells;
        Metrics m;
        w.pass(tr, cells, m);
        summarize(cells, tr, m);
        for (const auto& [name, v] : m)
            if (!specOf(name)) {
                std::fprintf(stderr, "perfbench: metric %s is not in the "
                             "spec\n", name.c_str());
                std::exit(3);
            }
        Passes& out = tracing ? *traced : plain;
        for (const Cell& c : cells) {
            out.attempted++;
            out.failed += c.ok() ? 0 : 1;
            printCell(c);
        }
        std::printf("pass %s %zu: wall_s=%.6f cells=%zu\n",
                    tracing ? "traced" : "untraced", out.metrics.size() + 1,
                    m["wall_s"], cells.size());
        if (tracing)
            std::printf("  traced Machine::run + serveOnce %.6f s = "
                        "run_self %.6f s + backends %.6f s\n",
                        m["swarm.run_s"], m["swarm.run_self_s"],
                        m["backends.self_s"]);
        out.metrics.push_back(std::move(m));
        out.cells.push_back(std::move(cells));
        if (traced)
            tracing = !tracing;
    } while (double(nowNs() - start) * 1e-9 < seconds ||
             plain.metrics.size() < 2 || tracing);
    setBackendTracing(nullptr);
}

/**
 * wall_s, tasks_per_s and events_per_s from each cell's fastest pass.
 * Every pass runs the same cells with the same simulated results, and
 * host contention only ever adds time, so the fastest repeat of a cell
 * is its least disturbed reading.
 */
void
bestOfPasses(const Passes& p, Metrics& m)
{
    std::vector<Cell> best = p.cells.front();
    for (const std::vector<Cell>& pass : p.cells)
        for (size_t i = 0; i < best.size(); i++) {
            if (pass.size() != best.size() || pass[i].label != best[i].label ||
                pass[i].app != best[i].app) {
                std::fprintf(stderr, "perfbench: passes ran different "
                             "cells\n");
                std::exit(3);
            }
            best[i].hostS = std::min(best[i].hostS, pass[i].hostS);
        }
    double wall = 0;
    std::vector<double> tps, eps;
    for (const Cell& c : best) {
        wall += c.hostS;
        tps.push_back(ratio(double(c.stats.tasksCommitted), c.hostS));
        eps.push_back(ratio(double(events(c.stats)), c.hostS));
    }
    m["wall_s"] = wall;
    m["tasks_per_s"] = gmean(tps);
    m["events_per_s"] = gmean(eps);
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KB on Linux
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char b[40];
    std::snprintf(b, sizeof b, "%.17g", v);
    return b;
}

int
runWorkload(const Options& opt)
{
    std::unique_ptr<Workload> w;
    if (opt.workload == "timing-256")
        w = std::make_unique<Timing256>(opt);
    else if (opt.workload == "replay-sweep")
        w = std::make_unique<ReplaySweep>(opt);
    else if (opt.workload == "serve")
        w = std::make_unique<Serve>(opt);
    else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    std::printf("perfbench workload=%s seed=%llu (default %llu, held out "
                "%llu) seconds=%g trace=%d build=%s\n",
                opt.workload.c_str(), (unsigned long long)opt.seed,
                (unsigned long long)kDefaultSeed,
                (unsigned long long)kHeldOutSeed, opt.seconds,
                opt.trace ? 1 : 0, PERFBENCH_BUILD_TYPE);

    Tracer tr;
    Metrics fixed;
    fixed["setup_s"] = w->setup(tr);
    fixed["apps.setup_s"] = tr.totalS("apps.setup") / kSetupReps;
    fixed["harness.record_s"] = tr.totalS("harness.record");
    std::printf("setup: %.6f s (apps %.6f s/rep, record %.6f s)\n",
                fixed["setup_s"], fixed["apps.setup_s"],
                fixed["harness.record_s"]);

    // A traced run alternates untraced and traced passes, for twice the
    // time, so the overhead is read under the same host conditions.
    Passes plain, traced;
    runPasses(*w, tr, opt.trace ? 2 * opt.seconds : opt.seconds, plain,
              opt.trace ? &traced : nullptr);
    fixed["peak_rss_mb"] = peakRssMb();

    uint64_t attempted =
        w->setupAttempted + plain.attempted + traced.attempted;
    uint64_t failed = w->setupFailed + plain.failed + traced.failed;

    fixed["failed_frac"] = attempted ? double(failed) / attempted : 0;
    bestOfPasses(plain, fixed);
    if (opt.trace) {
        Metrics t;
        bestOfPasses(traced, t);
        double tw = t["wall_s"], uw = fixed["wall_s"];
        fixed["trace.wall_s"] = tw;
        fixed["trace.overhead_s"] = tw - uw;
        fixed["trace.overhead_frac"] = uw > 0 ? (tw - uw) / uw : 0;
    }

    Metrics out;
    MetricKind kind = opt.trace ? MetricKind::Layer : MetricKind::EndToEnd;
    for (const MetricSpec& s : metricSpecs()) {
        if (s.kind != kind)
            continue;
        if (fixed.count(s.name))
            out[s.name] = fixed[s.name];
        else if (opt.trace && fromTracedPass(s.name))
            out[s.name] = traced.median(s.name);
        else
            out[s.name] = plain.median(s.name);
    }

    // Every metric by name and unit, then the JSON line last.
    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted) +
            ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool firstOut = true;
    for (const MetricSpec& s : metricSpecs()) {
        if (s.kind != kind)
            continue;
        double v = out[s.name];
        std::printf("metric %-32s %.6g %s\n", s.name.c_str(), v,
                    s.unit.c_str());
        if (s.kind == MetricKind::EndToEnd && !(v > 0))
            std::printf("WARNING: end-to-end metric %s is not positive\n",
                        s.name.c_str());
        json += std::string(firstOut ? "" : ", ") + "\"" + s.name +
                "\": {\"value\": " + jsonNumber(v) + ", \"unit\": \"" +
                s.unit + "\"}";
        firstOut = false;
    }
    if (!opt.trace) {
        // The modeled headline results that apply to this workload.
        std::printf("modeled %-31s %.6g ratio\n", "failed_frac",
                    fixed["failed_frac"]);
        for (const char* k : {"hint_speedup", "replay_cycle_err",
                              "p50_cycles", "p99_cycles",
                              "p99_samples_beyond", "sustained_qps"})
            if (double v = plain.median(k); v > 0)
                std::printf("modeled %-31s %.6g %s\n", k, v,
                            specOf(k)->unit.c_str());
    }
    std::printf("%s}}\n", json.c_str());
    return 0;
}

bool
parseArgs(int argc, char** argv, Options& o, bool& spec)
{
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        std::string val;
        size_t eq = a.find('=');
        if (eq != std::string::npos) {
            val = a.substr(eq + 1);
            a = a.substr(0, eq);
        } else if (a != "--spec") {
            if (i + 1 >= argc)
                return false;
            val = argv[++i];
        }
        char* end = nullptr;
        if (a == "--spec") {
            spec = true;
        } else if (a == "--workload") {
            o.workload = val;
        } else if (a == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end)
                return false;
        } else if (a == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end || !(o.seconds > 0))
                return false;
        } else if (a == "--trace") {
            if (val != "0" && val != "1")
                return false;
            o.trace = val == "1";
        } else {
            return false;
        }
    }
    return spec || !o.workload.empty();
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Options opt;
    bool spec = false;
    if (!parseArgs(argc, argv, opt, spec)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME [--seed N] "
                     "[--seconds S] [--trace 0|1] | --spec\n");
        return 2;
    }
    if (spec) {
        std::fputs(renderBenchmarkJson().c_str(), stdout);
        return 0;
    }
    // runOnce/serveOnce apply SWARMSIM_* overrides silently; a stray one
    // would measure a different configuration under the same name.
    for (char** e = environ; *e; e++)
        if (std::strncmp(*e, "SWARMSIM_", 9) == 0) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set\n", *e);
            return 2;
        }
    if (!kOptimized || kSanitized) {
        std::fprintf(stderr,
                     "perfbench: refusing to report timings from a %s "
                     "build (build type %s)\n",
                     kSanitized ? "sanitized" : "non-optimized",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }
    ssim::setVerbose(false);
    return runWorkload(opt);
}
