#include "spec.h"

#include <cstdio>

namespace perfbench {

const std::vector<uint32_t>&
serveLadder()
{
    // Whole-cycle mean gaps of 125, 64, 32, 16, 8 and 4 cycles.
    static const std::vector<uint32_t> v = {8000,  15625,  31250,
                                            62500, 125000, 250000};
    return v;
}

const std::vector<std::string>&
serveApps()
{
    static const std::vector<std::string> v = {"silo", "kvstore"};
    return v;
}

const std::vector<WorkloadSpec>&
workloadSpecs()
{
    static const std::vector<WorkloadSpec> v = {
        {"timing-256",
         "Random vs Hints on 8 apps, 256 cores, timing backend: the "
         "paper's headline; host time goes to the cost model and the "
         "conflict manager"},
        {"replay-sweep",
         "9 apps recorded once at 256 cores, replayed at 256 and 64: "
         "engine-bound with no mem/noc work, so a cost-model gain moves "
         "setup_s here, not wall_s"},
        {"serve",
         "open-loop Poisson arrivals into silo and kvstore on 64 cores: "
         "mid-run injection, epoch re-arming and a sustained-load search"},
    };
    return v;
}

namespace {

MetricSpec
e2e(const char* name, const char* unit, bool higher, double bound)
{
    return {name, unit, higher, MetricKind::EndToEnd, bound};
}

MetricSpec
layer(const std::string& name, const char* unit, bool higher = false)
{
    return {name, unit, higher, MetricKind::Layer, 0};
}

std::vector<MetricSpec>
buildSpecs()
{
    std::vector<MetricSpec> v = {
        e2e("setup_s", "s", false, 0.25),
        e2e("wall_s", "s", false, 0.25),
        e2e("tasks_per_s", "1/s", true, 0.25),
        e2e("events_per_s", "1/s", true, 0.25),
        e2e("peak_rss_mb", "MB", false, 0.25),
        e2e("sim_cycles", "cycles", false, 0.15),

        // Modeled headline results (per workload where they apply).
        layer("failed_frac", "ratio"),
        layer("hint_speedup", "x", true),
        layer("replay_cycle_err", "x"),
        layer("p50_cycles", "cycles"),
        layer("p99_cycles", "cycles"),
        layer("p99_samples_beyond", "count", true),
        layer("sustained_qps", "req/Mcycle", true),

        // apps
        layer("apps.setup_s", "s"),
        layer("apps.validate_s", "s"),
        layer("apps.digest_s", "s"),
        // harness
        layer("harness.record_s", "s"),
        layer("harness.serve_s", "s"),
        // swarm, host time
        layer("swarm.build_s", "s"),
        layer("swarm.run_s", "s"),
        layer("swarm.run_self_s", "s"),
        // swarm, simulated counts
        layer("swarm.committed", "count", true),
        layer("swarm.aborted", "count"),
        layer("swarm.aborts_conflict", "count"),
        layer("swarm.aborts_displace", "count"),
        layer("swarm.aborts_gridlock", "count"),
        layer("swarm.commit_ratio", "ratio", true),
        layer("swarm.conflict_checks", "count"),
        layer("swarm.line_table_regs", "count"),
        layer("swarm.spilled", "count"),
        layer("swarm.dispatch_skips", "count"),
        // swarm, core-cycle shares
        layer("swarm.cycles_commit", "ratio", true),
        layer("swarm.cycles_abort", "ratio"),
        layer("swarm.cycles_spill", "ratio"),
        layer("swarm.cycles_stall", "ratio"),
        layer("swarm.cycles_empty", "ratio"),
        layer("swarm.wasted_work_cut", "x", true),
        // sim
        layer("sim.events", "count"),
        layer("sim.ns_per_event", "ns"),
        layer("sim.peak_pending", "count"),
    };
    // backends
    for (const char* m :
         {"access", "task_send", "dequeue", "rollback", "abort_msg"}) {
        v.push_back(layer(std::string("backends.") + m + ".calls", "count"));
        v.push_back(layer(std::string("backends.") + m + ".s", "s"));
    }
    for (MetricSpec s : {layer("backends.self_s", "s"),
                         layer("backends.trace_served", "count", true),
                         layer("backends.trace_fallbacks", "count"),
                         layer("backends.replay_speedup", "x", true),
                         // mem
                         layer("mem.l1_miss_rate", "ratio"),
                         layer("mem.l2_miss_rate", "ratio"),
                         layer("mem.l3_miss_rate", "ratio"),
                         // noc
                         layer("noc.flits", "count"),
                         layer("noc.flits_mem", "count"),
                         layer("noc.flits_abort", "count"),
                         layer("noc.flits_task", "count"),
                         layer("noc.flits_gvt", "count"),
                         layer("noc.traffic_cut", "x", true),
                         // serve
                         layer("serve.achieved_qps", "req/Mcycle", true),
                         layer("serve.backlog_cycles", "cycles"),
                         layer("serve.p999_cycles", "cycles")})
        v.push_back(s);
    for (const std::string& app : serveApps())
        for (uint32_t load : serveLadder())
            v.push_back(layer("serve." + app + ".p99_at_" +
                                  std::to_string(load),
                              "cycles"));
    // the traced run's own cost
    v.push_back(layer("trace.wall_s", "s"));
    v.push_back(layer("trace.overhead_s", "s"));
    v.push_back(layer("trace.overhead_frac", "ratio"));
    return v;
}

} // namespace

const std::vector<MetricSpec>&
metricSpecs()
{
    static const std::vector<MetricSpec> v = buildSpecs();
    return v;
}

const MetricSpec*
specOf(const std::string& name)
{
    for (const MetricSpec& m : metricSpecs())
        if (m.name == name)
            return &m;
    return nullptr;
}

std::string
renderBenchmarkJson()
{
    std::string out = "{\n";
    out += "  \"command\": [\"python3\", \"perfbench/run.py\"],\n";
    out += "  \"paths\": [\"perfbench\"],\n";
    out += "  \"run_seconds\": " + std::to_string(kRunSeconds) + ",\n";
    out += "  \"workloads\": [\n";
    const auto& ws = workloadSpecs();
    for (size_t i = 0; i < ws.size(); i++)
        out += "    {\"name\": \"" + ws[i].name + "\", \"why\": \"" +
               ws[i].why + "\"}" + (i + 1 < ws.size() ? ",\n" : "\n");
    out += "  ],\n";
    for (MetricKind kind : {MetricKind::EndToEnd, MetricKind::Layer}) {
        bool e = kind == MetricKind::EndToEnd;
        out += e ? "  \"end_to_end\": [\n" : "  \"per_layer\": [\n";
        std::vector<const MetricSpec*> sel;
        for (const MetricSpec& m : metricSpecs())
            if (m.kind == kind)
                sel.push_back(&m);
        for (size_t i = 0; i < sel.size(); i++) {
            const MetricSpec& m = *sel[i];
            out += "    {\"name\": \"" + m.name + "\", \"unit\": \"" +
                   m.unit + "\", \"better\": \"" +
                   (m.higherIsBetter ? "higher" : "lower") + "\"";
            if (e) {
                char b[32];
                std::snprintf(b, sizeof b, "%g", m.bound);
                out += std::string(", \"bound\": ") + b;
            }
            out += i + 1 < sel.size() ? "},\n" : "}\n";
        }
        out += e ? "  ],\n" : "  ]\n";
    }
    out += "}\n";
    return out;
}

} // namespace perfbench
