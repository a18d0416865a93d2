/**
 * @file
 * Spans recorded in the benchmark's own code, around the calls it makes
 * into each layer's public entry points, plus a timing decorator for
 * every EngineBackend method.
 *
 * Coarse spans (app setup, Machine construction, Machine::run, serveOnce,
 * ...) cost two clock reads each and are recorded in every pass.
 * Backend calls number in the millions
 * per run, so they are aggregated per method instead of stored, and are
 * timed only while setBackendTracing() has the decorator registered —
 * that is what "traced" means here, and end-to-end numbers never come
 * from a traced pass.
 */
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

/** Every EngineBackend method; the first five are reported one by one. */
enum class BackendMethod : uint8_t
{
    Access,
    TaskSend,
    Dequeue,
    Rollback,
    AbortMsg,
    Compute,
    Enqueue,
    Finish,
    NoteDispatch,
    Count
};

constexpr size_t kNumMethods = size_t(BackendMethod::Count);

/** Metric-name stem of a method ("access", "task_send", ...). */
const char* methodName(BackendMethod m);

/** A finished span. Backend time spent inside it is kept as its
 *  aggregated child time, so self time = duration - backendNs. */
struct Span
{
    std::string name;
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    uint64_t backendNs = 0;

    uint64_t durNs() const { return endNs - startNs; }
};

class Tracer
{
  public:
    /** Run @p f inside a span named @p name. */
    template <typename F>
    void
    span(const std::string& name, F&& f)
    {
        Span s{name, nowNs(), 0, backendNs_};
        f();
        s.endNs = nowNs();
        s.backendNs = backendNs_ - s.backendNs;
        spans_.push_back(std::move(s));
    }

    /** Aggregated backend-method time and calls (decorator only). */
    void
    addBackend(BackendMethod m, uint64_t ns)
    {
        calls_[size_t(m)]++;
        ns_[size_t(m)] += ns;
        backendNs_ += ns;
    }

    const std::vector<Span>& spans() const { return spans_; }
    uint64_t calls(BackendMethod m) const { return calls_[size_t(m)]; }
    uint64_t ns(BackendMethod m) const { return ns_[size_t(m)]; }
    uint64_t backendNs() const { return backendNs_; }

    /** Summed duration (or self time) of every span named @p name. */
    double totalS(const std::string& name) const;
    double selfS(const std::string& name) const;

    /** Forget everything recorded so far (the spans of one pass are
     *  summarized, then cleared before the next). */
    void clear();

  private:
    std::vector<Span> spans_;
    std::array<uint64_t, kNumMethods> calls_{};
    std::array<uint64_t, kNumMethods> ns_{};
    uint64_t backendNs_ = 0;
};

/**
 * Register, under the names "timing", "trace-record" and "trace-replay",
 * decorators that time every EngineBackend method into @p t and forward
 * to the exported factories; nullptr re-registers the plain factories.
 * Affects Machines constructed afterwards.
 */
void setBackendTracing(Tracer* t);

} // namespace perfbench
