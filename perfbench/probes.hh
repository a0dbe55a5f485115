/**
 * @file
 * Timing decorators over the public interfaces a System accepts, so a
 * traced benchmark pass can split host time by layer with no change to
 * the simulator:
 *
 *  - TimedPolicy wraps a CodingPolicy and times choose()/observe(); the
 *    Codes it hands to the controller are TimedCode wrappers that time
 *    encode()/decode() (the controller's per-burst encode and its
 *    verifyData round-trip decode);
 *  - TimedWorkload wraps a Workload and times registerRegions() and
 *    makeStream(); its streams are TimedStream wrappers timing next();
 *  - CountingSink is a TraceSink that only counts events.
 *
 * CheckpointWorkload is the one decorator the measured (untraced) runs
 * use: it stamps the wall clock at fixed points of the simulation's
 * progress, which costs one counter increment per next() call.
 *
 * None of these are thread-safe. The decorated pass therefore runs the
 * serial engine (shards 0), with one decorator set per System.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dram/coding_policy.hh"
#include "obs/trace_sink.hh"
#include "workloads/workload.hh"

namespace perfbench
{

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Calls of one instrumented method and host ns spent inside them. */
struct Span
{
    std::uint64_t calls = 0;
    std::int64_t ns = 0;

    void
    add(const Span &o)
    {
        calls += o.calls;
        ns += o.ns;
    }
};

/** Adds the lifetime of the guard to a Span as one call. */
class SpanGuard
{
  public:
    explicit SpanGuard(Span &span) : span_(span), start_(nowNs()) {}

    ~SpanGuard()
    {
        span_.ns += nowNs() - start_;
        ++span_.calls;
    }

    SpanGuard(const SpanGuard &) = delete;
    SpanGuard &operator=(const SpanGuard &) = delete;

  private:
    Span &span_;
    std::int64_t start_;
};

/** Every span one decorated run records, named by module. */
struct LayerTimes
{
    Span encode, decode;            ///< coding
    Span choose, observe;           ///< mil
    Span next, registerRegions, makeStream; ///< workloads

    void
    add(const LayerTimes &o)
    {
        encode.add(o.encode);
        decode.add(o.decode);
        choose.add(o.choose);
        observe.add(o.observe);
        next.add(o.next);
        registerRegions.add(o.registerRegions);
        makeStream.add(o.makeStream);
    }

    /** Host ns inside every span, timer cost included. */
    std::int64_t
    totalNs() const
    {
        return encode.ns + decode.ns + choose.ns + observe.ns + next.ns +
            registerRegions.ns + makeStream.ns;
    }
};

class TimedCode final : public mil::Code
{
  public:
    TimedCode(const mil::Code &inner, LayerTimes &times)
        : inner_(inner), times_(times)
    {
    }

    std::string name() const override { return inner_.name(); }
    unsigned burstLength() const override { return inner_.burstLength(); }
    unsigned lanes() const override { return inner_.lanes(); }
    unsigned extraLatency() const override { return inner_.extraLatency(); }

    mil::BusFrame
    encode(mil::LineView line) const override
    {
        SpanGuard g(times_.encode);
        return inner_.encode(line);
    }

    mil::Line
    decode(const mil::BusFrame &frame) const override
    {
        SpanGuard g(times_.decode);
        return inner_.decode(frame);
    }

    const mil::Code &inner() const { return inner_; }

  private:
    const mil::Code &inner_;
    LayerTimes &times_;
};

class TimedPolicy final : public mil::CodingPolicy
{
  public:
    TimedPolicy(mil::CodingPolicy &inner, LayerTimes &times)
        : inner_(inner), times_(times)
    {
    }

    std::string name() const override { return inner_.name(); }
    unsigned lookahead() const override { return inner_.lookahead(); }
    unsigned latencyAdder() const override { return inner_.latencyAdder(); }
    unsigned maxBusCycles() const override { return inner_.maxBusCycles(); }
    bool stateless() const override { return inner_.stateless(); }

    std::vector<std::string>
    codeNames() const override
    {
        return inner_.codeNames();
    }

    const mil::Code &
    choose(const mil::ColumnContext &ctx) override
    {
        const mil::Code *code = nullptr;
        {
            SpanGuard g(times_.choose);
            code = &inner_.choose(ctx);
        }
        return wrap(*code);
    }

    void
    observe(const mil::Code &code, std::uint64_t bits,
            std::uint64_t zeros) override
    {
        // Stateful policies key their feedback on their own Code
        // objects, so hand back the one choose() returned.
        const auto *timed = dynamic_cast<const TimedCode *>(&code);
        const mil::Code &own = timed != nullptr ? timed->inner() : code;
        SpanGuard g(times_.observe);
        inner_.observe(own, bits, zeros);
    }

  private:
    const mil::Code &
    wrap(const mil::Code &code)
    {
        // A policy returns two or three distinct codes; a linear scan
        // beats any map here.
        for (const auto &[raw, timed] : wrapped_)
            if (raw == &code)
                return *timed;
        wrapped_.emplace_back(&code,
                              std::make_unique<TimedCode>(code, times_));
        return *wrapped_.back().second;
    }

    mil::CodingPolicy &inner_;
    LayerTimes &times_;
    std::vector<std::pair<const mil::Code *, std::unique_ptr<TimedCode>>>
        wrapped_;
};

class TimedStream final : public mil::ThreadStream
{
  public:
    TimedStream(mil::ThreadStreamPtr inner, Span &span)
        : inner_(std::move(inner)), span_(span)
    {
    }

    bool
    next(mil::CoreMemOp &op) override
    {
        SpanGuard g(span_);
        return inner_->next(op);
    }

  private:
    mil::ThreadStreamPtr inner_;
    Span &span_;
};

class TimedWorkload final : public mil::Workload
{
  public:
    TimedWorkload(const mil::Workload &inner, LayerTimes &times)
        : Workload(inner.config()), inner_(inner), times_(times)
    {
    }

    std::string name() const override { return inner_.name(); }

    void
    registerRegions(mil::FunctionalMemory &mem) const override
    {
        SpanGuard g(times_.registerRegions);
        inner_.registerRegions(mem);
    }

    mil::ThreadStreamPtr
    makeStream(unsigned tid, unsigned nthreads) const override
    {
        mil::ThreadStreamPtr stream;
        {
            SpanGuard g(times_.makeStream);
            stream = inner_.makeStream(tid, nthreads);
        }
        if (stream == nullptr)
            return stream;
        return std::make_unique<TimedStream>(std::move(stream),
                                             times_.next);
    }

  private:
    const mil::Workload &inner_;
    LayerTimes &times_;
};

/**
 * Wall-clock stamps at fixed points of a simulation's progress: one
 * every kStride-th ThreadStream::next() call, counted over all threads.
 * The serial engine is deterministic, so the i-th stamp marks the same
 * simulated work in every repetition and the gaps between stamps can be
 * compared repetition by repetition. Not thread-safe.
 */
struct Checkpoints
{
    static constexpr std::uint64_t kStride = 512;

    std::uint64_t calls = 0;
    std::vector<std::int64_t> stamps;

    void
    tick()
    {
        if (++calls % kStride == 0)
            stamps.push_back(nowNs());
    }
};

class CheckpointStream final : public mil::ThreadStream
{
  public:
    CheckpointStream(mil::ThreadStreamPtr inner, Checkpoints &marks)
        : inner_(std::move(inner)), marks_(marks)
    {
    }

    bool
    next(mil::CoreMemOp &op) override
    {
        marks_.tick();
        return inner_->next(op);
    }

  private:
    mil::ThreadStreamPtr inner_;
    Checkpoints &marks_;
};

class CheckpointWorkload final : public mil::Workload
{
  public:
    CheckpointWorkload(const mil::Workload &inner, Checkpoints &marks)
        : Workload(inner.config()), inner_(inner), marks_(marks)
    {
    }

    std::string name() const override { return inner_.name(); }

    void
    registerRegions(mil::FunctionalMemory &mem) const override
    {
        inner_.registerRegions(mem);
    }

    mil::ThreadStreamPtr
    makeStream(unsigned tid, unsigned nthreads) const override
    {
        mil::ThreadStreamPtr stream = inner_.makeStream(tid, nthreads);
        if (stream == nullptr)
            return stream;
        return std::make_unique<CheckpointStream>(std::move(stream),
                                                  marks_);
    }

  private:
    const mil::Workload &inner_;
    Checkpoints &marks_;
};

/** Counts events; the cost measured is the emit sites', not storage. */
class CountingSink final : public mil::obs::TraceSink
{
  public:
    void record(const mil::obs::Event & /* event */) override { ++events; }

    std::uint64_t events = 0;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
