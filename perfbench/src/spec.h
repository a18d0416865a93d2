/**
 * @file
 * The single definition of the benchmark's workloads and metrics.
 * BENCHMARK.json at the repository root is this table rendered by
 * `perfbench --spec`; tests/test_arith.cc fails when the two drift, so
 * every metric perfbench prints is declared there by name and unit.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** End-to-end metrics are reported by untraced runs (--trace 0) and
 *  carry a regression bound; per-layer metrics by traced runs. */
enum class MetricKind : uint8_t { EndToEnd, Layer };

struct MetricSpec
{
    std::string name;
    std::string unit;
    bool higherIsBetter = false;
    MetricKind kind = MetricKind::Layer;
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    double bound = 0;
};

struct WorkloadSpec
{
    std::string name;
    std::string why;
};

/** Seconds one run measures (BENCHMARK.json "run_seconds"). */
constexpr uint32_t kRunSeconds = 20;

/** Seed the benchmark uses when none is given, and one held out for
 *  checking a claimed gain on inputs it was not tuned on. */
constexpr uint64_t kDefaultSeed = 42;
constexpr uint64_t kHeldOutSeed = 1009;

/** Offered loads (requests per million cycles) the serve workload's
 *  sustained-load search probes on every run; the first is the
 *  reference load its latency metrics are read at. */
const std::vector<uint32_t>& serveLadder();

/** Apps the serve workload runs, in order. */
const std::vector<std::string>& serveApps();

const std::vector<WorkloadSpec>& workloadSpecs();
const std::vector<MetricSpec>& metricSpecs();

/** The spec of metric @p name, or nullptr when there is none. */
const MetricSpec* specOf(const std::string& name);

/** BENCHMARK.json rendered from the tables above. */
std::string renderBenchmarkJson();

} // namespace perfbench
