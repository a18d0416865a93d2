/**
 * @file
 * The benchmark's own arithmetic: means, medians, nearest-rank
 * percentiles, and the sustained-load search rule. Kept free of any
 * simulator dependency so that a change to the program under test can
 * never shift how the benchmark summarizes it (tests/test_arith.cc).
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/** Geometric mean of positive values; 0 for an empty set or when any
 *  value is not positive (a zero can't be averaged in log space). */
inline double
gmean(const std::vector<double>& v)
{
    if (v.empty())
        return 0;
    double logSum = 0;
    for (double x : v) {
        if (!(x > 0))
            return 0;
        logSum += std::log(x);
    }
    return std::exp(logSum / double(v.size()));
}

/** Median (mean of the two middle values for an even count); 0 if empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * 1-based nearest rank of the @p permille percentile among @p n samples:
 * ceil(n * permille / 1000), clamped to [1, n]. This is the rule
 * harness::LatencyRecorder::percentile applies to its buckets, so a
 * percentile it reports sits at exactly this rank. 0 when n == 0.
 */
inline uint64_t
nearestRank(uint64_t n, uint32_t permille)
{
    if (!n)
        return 0;
    uint64_t rank = (n * permille + 999) / 1000;
    return std::clamp<uint64_t>(rank, 1, n);
}

/** Samples strictly beyond the nearest-rank percentile: n - rank. A tail
 *  percentile is reported only when this is at least 10. */
inline uint64_t
samplesBeyond(uint64_t n, uint32_t permille)
{
    return n - nearestRank(n, permille);
}

/** One offered load the sustained-load search tried. */
struct LoadProbe
{
    double offered = 0;  ///< requests per million cycles
    double achieved = 0; ///< completed requests per million cycles
    uint64_t p99 = 0;    ///< cycles
    bool meets = false;  ///< p99 within the limit and no growing backlog
};

/** The serving limit: p99 at most @p p99Limit cycles, and the machine
 *  keeps up (achieved >= @p minKeepUp of offered), so the backlog does
 *  not grow over the run. */
struct ServeLimit
{
    uint64_t p99Limit = 4000;
    double minKeepUp = 0.95;

    bool
    meets(double offered, double achieved, uint64_t p99) const
    {
        return p99 <= p99Limit && achieved >= minKeepUp * offered;
    }
};

/**
 * Sustained-load search with a fixed probe count, so every run does the
 * same amount of work. Probes every load of @p ladder (ascending), then
 * bisects (geometrically) @p refineSteps times between the last ladder
 * load of the passing prefix and the next one. The answer is monotone:
 * the highest probed load L such that L and every lower probed load meet
 * the limit — a pass above a failure never counts. When every ladder
 * load passes, the answer is the top of the ladder (a lower bound); when
 * none does, it is 0 and the refinement probes below the first load.
 *
 * @p probe runs one offered load and returns its measurement, with
 * the load it actually offered.
 */
inline double
sustainedLoad(const std::vector<double>& ladder, uint32_t refineSteps,
              const std::function<LoadProbe(double)>& probe)
{
    size_t prefix = 0; // ladder loads in the passing prefix
    for (size_t i = 0; i < ladder.size(); i++)
        if (probe(ladder[i]).meets && prefix == i)
            prefix++;
    double best = prefix ? ladder[prefix - 1] : 0;
    if (prefix < ladder.size()) {
        // Every probed load below lo passed and every one at or above hi
        // failed, so a passing midpoint keeps the answer monotone.
        double lo = prefix ? ladder[prefix - 1] : ladder[0] / 2;
        double hi = ladder[prefix];
        for (uint32_t i = 0; i < refineSteps; i++) {
            // The probe may round the load (to a whole-cycle gap), so
            // the bracket moves to what was actually offered.
            LoadProbe p = probe(std::sqrt(lo * hi));
            if (p.meets)
                lo = best = p.offered;
            else
                hi = p.offered;
        }
    }
    return best;
}

} // namespace perfbench
