/**
 * @file
 * Tests of the benchmark's own arithmetic (src/arith.h) and of the
 * metric table (src/spec.h) against the committed BENCHMARK.json.
 * Run: perfbench_tests (exit status 0 = all pass).
 */
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "arith.h"
#include "spec.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);    \
            failures++;                                                    \
        }                                                                  \
    } while (0)

bool
near(double a, double b, double tol = 1e-9)
{
    return std::fabs(a - b) <= tol * std::max(1.0, std::fabs(b));
}

using namespace perfbench;

void
testGmean()
{
    CHECK(gmean({}) == 0);
    CHECK(near(gmean({4}), 4));
    CHECK(near(gmean({1, 100}), 10));
    CHECK(near(gmean({2, 8, 4}), 4));
    CHECK(gmean({1, 0, 3}) == 0); // a zero can't be averaged in log space
    CHECK(gmean({1, -2}) == 0);
    // Scale invariance: gmean(k * v) == k * gmean(v).
    CHECK(near(gmean({3, 12, 48}), 12));
}

void
testMedian()
{
    CHECK(median({}) == 0);
    CHECK(median({5}) == 5);
    CHECK(median({3, 1, 2}) == 2);
    CHECK(median({4, 1, 3, 2}) == 2.5);
}

void
testNearestRank()
{
    CHECK(nearestRank(0, 500) == 0);
    CHECK(nearestRank(1, 990) == 1);
    CHECK(nearestRank(100, 500) == 50);
    CHECK(nearestRank(100, 990) == 99);
    CHECK(nearestRank(101, 990) == 100); // ceil(99.99)
    CHECK(nearestRank(6000, 990) == 5940);
    CHECK(nearestRank(10, 1000) == 10);
    CHECK(samplesBeyond(6000, 990) == 60);
    CHECK(samplesBeyond(16384, 990) == 163);
    CHECK(samplesBeyond(16384, 999) == 16); // ceil(16367.6) = 16368
    CHECK(samplesBeyond(1000, 999) == 1);
}

/** A probe that meets the limit exactly below @p threshold. */
struct ThresholdProbe
{
    double threshold;
    std::vector<double> seen;

    LoadProbe
    operator()(double load)
    {
        seen.push_back(load);
        ServeLimit lim;
        bool ok = load < threshold;
        LoadProbe p{load, ok ? load : load * 0.5, ok ? 500u : 9000u, false};
        p.meets = lim.meets(p.offered, p.achieved, p.p99);
        return p;
    }
};

void
testSustainedLoad()
{
    const std::vector<double> ladder = {8000, 16000, 32000, 64000};

    // Monotone pass/fail: the answer brackets the threshold to within
    // the refinement's resolution, and the probe count is fixed.
    for (double thr : {10000.0, 23000.0, 50000.0}) {
        ThresholdProbe p{thr, {}};
        double best = sustainedLoad(ladder, 3, std::ref(p));
        CHECK(best < thr);
        CHECK(best > thr / std::pow(2.0, 1.0 / 8) - 1);
        CHECK(p.seen.size() == ladder.size() + 3);
    }

    // Everything passes: the top of the ladder, no refinement probes.
    {
        ThresholdProbe p{1e9, {}};
        CHECK(sustainedLoad(ladder, 3, std::ref(p)) == 64000);
        CHECK(p.seen.size() == ladder.size());
    }

    // Nothing passes: 0 unless a refinement below the first load passes.
    {
        ThresholdProbe p{1000, {}};
        CHECK(sustainedLoad(ladder, 3, std::ref(p)) == 0);
    }
    {
        ThresholdProbe p{7000, {}};
        double best = sustainedLoad(ladder, 3, std::ref(p));
        CHECK(best > 4000 && best < 7000);
    }

    // A pass above a failure never counts (monotone rule): 16000 fails,
    // 32000 passes, so the answer stays below 16000.
    {
        size_t probes = 0;
        double best = sustainedLoad(ladder, 2, [&](double load) {
            probes++;
            bool ok = load < 12000 || (load > 30000 && load < 40000);
            return LoadProbe{load, load, ok ? 100u : 9000u, ok};
        });
        CHECK(best < 16000 && best >= 8000);
        CHECK(probes == ladder.size() + 2);
    }

    // Backlog rule: a low p99 with achieved < 95% of offered fails.
    ServeLimit lim;
    CHECK(lim.meets(1000, 960, 3999));
    CHECK(!lim.meets(1000, 940, 100));
    CHECK(!lim.meets(1000, 1000, 4001));
}

void
testSpecMatchesBenchmarkJson()
{
    std::ifstream f(PERFBENCH_JSON);
    std::stringstream ss;
    ss << f.rdbuf();
    // BENCHMARK.json is spec.cc's table rendered: any metric perfbench
    // can print is declared there by name and unit.
    CHECK(ss.str() == renderBenchmarkJson());

    std::set<std::string> names;
    size_t e2e = 0, setup = 0;
    for (const MetricSpec& m : metricSpecs()) {
        CHECK(names.insert(m.name).second); // each name used once
        CHECK(!m.name.empty() && m.name.size() <= 64);
        CHECK(!m.unit.empty() && m.unit.size() <= 16);
        if (m.kind == MetricKind::EndToEnd) {
            e2e++;
            CHECK(m.bound > 0 && m.bound <= 0.25);
        }
        if (m.name == "setup_s") {
            setup++;
            CHECK(m.unit == "s" && !m.higherIsBetter &&
                  m.kind == MetricKind::EndToEnd);
        }
    }
    CHECK(e2e >= 1 && e2e <= 16);
    CHECK(setup == 1);
    CHECK(names.size() - e2e <= 128);
    for (const WorkloadSpec& w : workloadSpecs())
        CHECK(!w.why.empty() && w.why.size() <= 200 &&
              w.why.find('\n') == std::string::npos);
}

} // namespace

int
main()
{
    testGmean();
    testMedian();
    testNearestRank();
    testSustainedLoad();
    testSpecMatchesBenchmarkJson();
    if (failures) {
        std::printf("%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("all perfbench arithmetic and spec checks pass\n");
    return 0;
}
