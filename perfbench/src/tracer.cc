#include "tracer.h"

#include <memory>

#include "swarm/backends/engine_backend.h"
#include "swarm/backends/timing_backend.h"
#include "swarm/backends/trace_replay_backend.h"
#include "swarm/policies.h"

namespace perfbench {

const char*
methodName(BackendMethod m)
{
    switch (m) {
      case BackendMethod::Access: return "access";
      case BackendMethod::TaskSend: return "task_send";
      case BackendMethod::Dequeue: return "dequeue";
      case BackendMethod::Rollback: return "rollback";
      case BackendMethod::AbortMsg: return "abort_msg";
      case BackendMethod::Compute: return "compute";
      case BackendMethod::Enqueue: return "enqueue";
      case BackendMethod::Finish: return "finish";
      case BackendMethod::NoteDispatch: return "note_dispatch";
      case BackendMethod::Count: break;
    }
    return "?";
}

double
Tracer::totalS(const std::string& name) const
{
    uint64_t ns = 0;
    for (const Span& s : spans_)
        if (s.name == name)
            ns += s.durNs();
    return double(ns) * 1e-9;
}

double
Tracer::selfS(const std::string& name) const
{
    uint64_t ns = 0;
    for (const Span& s : spans_)
        if (s.name == name)
            ns += s.durNs() - s.backendNs;
    return double(ns) * 1e-9;
}

void
Tracer::clear()
{
    spans_.clear();
    calls_ = {};
    ns_ = {};
    backendNs_ = 0;
}

namespace {

using ssim::EngineBackend;

Tracer* gTracer = nullptr;

/** Times one backend call into gTracer. */
class CallTimer
{
  public:
    explicit CallTimer(BackendMethod m) : m_(m), start_(nowNs()) {}
    ~CallTimer() { gTracer->addBackend(m_, nowNs() - start_); }
    CallTimer(const CallTimer&) = delete;
    CallTimer& operator=(const CallTimer&) = delete;

  private:
    BackendMethod m_;
    uint64_t start_;
};

/**
 * Forwards every EngineBackend method to the wrapped backend, timing
 * each call. inlineEffects() and name() are forwarded untimed: the
 * engine reads inlineEffects() once at construction. Machine's
 * finalizeStats finds the trace-replay backend by dynamic_cast, which
 * this wrapper hides, so trace served/fallback counts come from the
 * untraced pass.
 */
class TimedBackend final : public EngineBackend
{
  public:
    explicit TimedBackend(std::unique_ptr<EngineBackend> inner)
        : inner_(std::move(inner))
    {
    }

    const char* name() const override { return inner_->name(); }
    bool inlineEffects() const override { return inner_->inlineEffects(); }

    void
    noteDispatch(ssim::CoreId core, const void* task_fn) override
    {
        CallTimer t(BackendMethod::NoteDispatch);
        inner_->noteDispatch(core, task_fn);
    }
    uint32_t
    taskSendCost(ssim::TileId src, ssim::TileId dst) override
    {
        CallTimer t(BackendMethod::TaskSend);
        return inner_->taskSendCost(src, dst);
    }
    uint32_t
    accessCost(ssim::CoreId core, ssim::Addr addr, bool is_write,
               uint32_t compared) override
    {
        CallTimer t(BackendMethod::Access);
        return inner_->accessCost(core, addr, is_write, compared);
    }
    uint32_t
    computeCost(uint32_t cycles) override
    {
        CallTimer t(BackendMethod::Compute);
        return inner_->computeCost(cycles);
    }
    uint32_t
    enqueueCost() override
    {
        CallTimer t(BackendMethod::Enqueue);
        return inner_->enqueueCost();
    }
    uint32_t
    dequeueCost(const DispatchInfo& info) override
    {
        CallTimer t(BackendMethod::Dequeue);
        return inner_->dequeueCost(info);
    }
    uint32_t
    finishCost() override
    {
        CallTimer t(BackendMethod::Finish);
        return inner_->finishCost();
    }
    void
    abortMessage(ssim::TileId cause_tile, ssim::TileId victim_tile) override
    {
        CallTimer t(BackendMethod::AbortMsg);
        inner_->abortMessage(cause_tile, victim_tile);
    }
    uint32_t
    rollbackLineCost(ssim::CoreId core, ssim::LineAddr line) override
    {
        CallTimer t(BackendMethod::Rollback);
        return inner_->rollbackLineCost(core, line);
    }

  private:
    std::unique_ptr<EngineBackend> inner_;
};

template <ssim::policies::BackendFactory F>
std::unique_ptr<EngineBackend>
timed(const ssim::SimConfig& cfg, ssim::Mesh& mesh, ssim::MemorySystem& mem)
{
    return std::make_unique<TimedBackend>(F(cfg, mesh, mem));
}

} // namespace

void
setBackendTracing(Tracer* t)
{
    namespace pol = ssim::policies;
    gTracer = t;
    if (t) {
        pol::registerBackend("timing", &timed<&ssim::makeTimingBackend>);
        pol::registerBackend("trace-record",
                             &timed<&ssim::makeTraceRecordBackend>);
        pol::registerBackend("trace-replay",
                             &timed<&ssim::makeTraceReplayBackend>);
    } else {
        pol::registerBackend("timing", &ssim::makeTimingBackend);
        pol::registerBackend("trace-record", &ssim::makeTraceRecordBackend);
        pol::registerBackend("trace-replay", &ssim::makeTraceReplayBackend);
    }
}

} // namespace perfbench
