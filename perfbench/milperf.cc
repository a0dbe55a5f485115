/**
 * @file
 * milperf: host-time benchmark of the MiL simulator.
 *
 *   milperf --workload NAME --seed N --seconds S --trace 0|1
 *           --scratch DIR
 *
 * One operation is one simulation (for paper_grid: one grid cell).
 * Every operation's result is fingerprinted and compared with the same
 * build's serial per-cycle oracle (TickMode::Cycle, shards 0), run once
 * per process outside the timed section; a mismatch or an exception is
 * a failed operation.
 *
 * --trace 0 measures the end-to-end metrics: one untimed warm-up, then
 * back-to-back repetitions of the same simulation until S seconds have
 * passed. Host time on a shared machine is inflated by contention for
 * cache and memory, never deflated, so the fastest time is the
 * steadiest estimate. A serial run is cut into segments at fixed points
 * of its progress (Checkpoints in probes.hh), and run_s sums each
 * segment's fastest repetition: a quiet moment then only has to cover
 * one segment, not a whole repetition. Set-up is the median over
 * batches of back-to-back set-ups of each batch's fastest.
 *
 * --trace 1 measures the per-layer metrics: the same simulation wrapped
 * in the timing decorators of probes.hh, a run with a counting trace
 * sink, and the untraced and sharded runs they are compared against.
 *
 * The last line of standard output is one JSON object:
 * {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
 * A workload whose counts drift away from the profile it was chosen
 * for fails its self-check: the result says correct=false and the
 * exit code is 1.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/sim_error.hh"
#include "common/thread_pool.hh"
#include "mil/policies.hh"
#include "probes.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/sweep_runner.hh"
#include "store/result_store.hh"
#include "workloads/trace_workload.hh"

namespace perfbench
{
namespace
{

using namespace mil;

constexpr int kMinReps = 3;
constexpr int kMinGridReps = 2;
constexpr int kSetupBatch = 25; ///< Back-to-back set-ups.
constexpr std::size_t kSetupBatches = 20; ///< At least, per run.
constexpr int kSetupBatchesPerRep = 2; ///< Spread over the run.
constexpr std::size_t kGridSetupSamples = 15;
constexpr int kGridSetupsPerRep = 3;

// Profile bounds the workloads were chosen for (see README.md).
constexpr double kLatencyMaxCodingShare = 0.05;
constexpr double kLatencyMaxUtilization = 0.02;
constexpr double kGupsMinUtilization = 0.50;
constexpr double kFrontendMaxL2MissRate = 0.10;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string scratch = ".bench_build/tmp";
};

unsigned
hostCores()
{
    return ThreadPool::hardwareConcurrency();
}

double
toSeconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Failed/attempted operations plus the profile self-checks. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool profileOk = true;

    void
    op(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "FAILED operation: %s\n", what.c_str());
        }
    }

    void
    expect(bool ok, const std::string &what)
    {
        if (!ok) {
            profileOk = false;
            std::fprintf(stderr, "SELF-CHECK FAILED: %s\n", what.c_str());
        }
    }
};

/** Metrics in print order, rendered as the result line. */
class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics_.push_back({name, value, unit});
    }

    /** Human-readable lines, then the JSON result as the last line. */
    void
    print(const std::string &workload, const Tally &tally) const
    {
        for (const auto &m : metrics_)
            std::printf("%-16s %-34s %16.6g %s\n", workload.c_str(),
                        m.name.c_str(), m.value, m.unit.c_str());
        std::string json = "{\"correct\": ";
        json += tally.failed == 0 && tally.profileOk ? "true" : "false";
        json += ", \"attempted\": " + std::to_string(tally.attempted);
        json += ", \"failed\": " + std::to_string(tally.failed);
        json += ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            char value[64];
            std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
            json += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
                "\": {\"value\": " + value + ", \"unit\": \"" +
                metrics_[i].unit + "\"}";
        }
        json += "}}";
        std::printf("%s\n", json.c_str());
        std::fflush(stdout);
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
};

/**
 * The correctness fingerprint of one simulation: cycles, retired ops,
 * bits and zeros moved, bursts per coding scheme and total DRAM
 * energy, all exact.
 */
std::string
fingerprint(const SimResult &r)
{
    std::ostringstream os;
    os << "cycles=" << r.cycles << " ops=" << r.totalOps
       << " bits=" << r.bus.bitsTransferred
       << " zeros=" << r.bus.zerosTransferred;
    for (const auto &[scheme, usage] : r.bus.schemes)
        os << ' ' << scheme << '=' << usage.bursts;
    char energy[64];
    std::snprintf(energy, sizeof(energy), "%.17g",
                  r.dramEnergy.totalMj());
    os << " dram_mj=" << energy;
    return os.str();
}

/** How to build one simulation; make() is part of timed set-up. */
struct SimSpec
{
    std::string label;
    std::string system;
    std::string policy;
    unsigned lookahead = 8;
    std::uint64_t opsPerThread = 0;
    unsigned shards = 0; ///< Crew of the end-to-end run.
    std::function<WorkloadPtr()> make;
};

/**
 * The pointer-chase replay: blocking loads over 512 KB with 1500-3000
 * compute cycles between them, replayed whole by every thread. Time
 * is almost all gap arithmetic, which the skip machinery collapses.
 */
SimSpec
latencyReplay(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    auto ops = std::make_shared<std::vector<TraceOp>>();
    ops->reserve(6000);
    for (int i = 0; i < 6000; ++i) {
        TraceOp op;
        op.addr = (rng() % (Addr{1} << 19)) & ~Addr{7};
        op.blocking = true;
        op.gap = 1500 + static_cast<std::uint32_t>(rng() % 1500);
        ops->push_back(op);
    }
    SimSpec s{"latency_replay", "ddr4", "MiL", 8, 0, 0, {}};
    s.make = [ops] {
        return std::make_unique<TraceWorkload>(WorkloadConfig{}, *ops);
    };
    return s;
}

SimSpec
named(const std::string &label, const std::string &system,
      const std::string &workload, double scale, std::uint64_t seed,
      std::uint64_t ops, unsigned shards)
{
    SimSpec s{label, system, "MiL", 8, ops, shards, {}};
    s.make = [workload, scale, seed] {
        WorkloadConfig wc;
        wc.seed = seed;
        wc.scale = scale;
        return makeWorkload(workload, wc);
    };
    return s;
}

/** One grid cell as runSpecFresh would build it. */
SimSpec
fromRunSpec(const RunSpec &spec)
{
    SimSpec s{spec.key(), spec.system, spec.policy, spec.lookahead,
              spec.opsPerThread, spec.shards, {}};
    s.make = [spec] {
        WorkloadConfig wc;
        wc.scale = spec.scale;
        if (spec.seed != 0)
            wc.seed = spec.seed;
        return makeWorkload(spec.workload, wc);
    };
    return s;
}

/** Instrumentation for one run; null members are off. */
struct Probe
{
    LayerTimes *times = nullptr;
    obs::TraceSink *sink = nullptr;
    Checkpoints *marks = nullptr;
};

/** One System ready to run, owning everything it borrows. */
struct Prepared
{
    WorkloadPtr workload;
    std::unique_ptr<CodingPolicy> policy;
    std::unique_ptr<TimedWorkload> timedWorkload;
    std::unique_ptr<TimedPolicy> timedPolicy;
    std::unique_ptr<CheckpointWorkload> checkpointWorkload;
    std::unique_ptr<System> system;
};

Prepared
prepare(const SimSpec &spec, TickMode mode, unsigned shards,
        const Probe &probe)
{
    Prepared p;
    p.workload = spec.make();
    p.policy = makePolicy(spec.policy, spec.lookahead);
    SystemConfig config = makeSystemConfig(spec.system);
    config.tickMode = mode;
    config.shards = shards;
    const Workload *workload = p.workload.get();
    CodingPolicy *policy = p.policy.get();
    if (probe.times != nullptr) {
        p.timedWorkload =
            std::make_unique<TimedWorkload>(*workload, *probe.times);
        p.timedPolicy =
            std::make_unique<TimedPolicy>(*policy, *probe.times);
        workload = p.timedWorkload.get();
        policy = p.timedPolicy.get();
    }
    if (probe.marks != nullptr) {
        p.checkpointWorkload =
            std::make_unique<CheckpointWorkload>(*workload, *probe.marks);
        workload = p.checkpointWorkload.get();
    }
    p.system = std::make_unique<System>(config, *workload, policy,
                                        spec.opsPerThread);
    if (probe.sink != nullptr)
        p.system->setTraceSink(probe.sink);
    return p;
}

struct Run
{
    SimResult result;
    double setupS = 0.0;
    double runS = 0.0;
    std::uint64_t toCycle = 0;
    std::uint64_t toEvent = 0;
    /// Host s between consecutive checkpoints, from the start of run()
    /// to its end; the whole run as one segment without checkpoints.
    std::vector<double> segmentsS;

    double wallS() const { return setupS + runS; }
};

Run
simulate(const SimSpec &spec, TickMode mode, unsigned shards,
         const Probe &probe = {})
{
    Run out;
    const std::int64_t t0 = nowNs();
    Prepared p = prepare(spec, mode, shards, probe);
    const std::int64_t t1 = nowNs();
    out.result = p.system->run();
    const std::int64_t t2 = nowNs();
    out.setupS = toSeconds(t1 - t0);
    out.runS = toSeconds(t2 - t1);
    std::int64_t from = t1;
    if (probe.marks != nullptr) {
        for (const std::int64_t stamp : probe.marks->stamps) {
            out.segmentsS.push_back(toSeconds(stamp - from));
            from = stamp;
        }
    }
    out.segmentsS.push_back(toSeconds(t2 - from));
    out.toCycle = p.system->autoSwitchesToCycle();
    out.toEvent = p.system->autoSwitchesToEvent();
    return out;
}

/** The fastest of kSetupBatch back-to-back set-ups. */
double
setupBatch(const SimSpec &spec, unsigned shards)
{
    double fastest = 0.0;
    for (int i = 0; i < kSetupBatch; ++i) {
        const std::int64_t t0 = nowNs();
        Prepared p = prepare(spec, TickMode::Auto, shards, {});
        const double s = toSeconds(nowNs() - t0);
        if (i == 0 || s < fastest)
            fastest = s;
    }
    return fastest;
}

/** Host ns the SpanGuard itself adds inside a span (median). */
double
spanCostNs()
{
    std::vector<double> batches;
    for (int b = 0; b < 9; ++b) {
        Span span;
        for (int i = 0; i < 4000; ++i)
            SpanGuard g(span);
        batches.push_back(static_cast<double>(span.ns) / 4000.0);
    }
    return median(batches);
}

/** Mean ns per call with the guard's own cost taken out. */
double
netNsPerCall(const Span &span, double cost)
{
    if (span.calls == 0)
        return 0.0;
    const double net = static_cast<double>(span.ns) -
        cost * static_cast<double>(span.calls);
    return std::max(0.0, net) / static_cast<double>(span.calls);
}

double
netSeconds(const Span &span, double cost)
{
    return netNsPerCall(span, cost) * static_cast<double>(span.calls) *
        1e-9;
}

/** The bursts of MiL's long sparse code are the look-ahead's wins. */
std::string
longCodeName(const std::string &policy)
{
    const auto p = makePolicy(policy);
    const auto *mil = dynamic_cast<const MilPolicy *>(p.get());
    return mil != nullptr ? mil->longCode().name() : "";
}

/** Simulated counts summed over one or more results. */
struct Counts
{
    std::uint64_t cycles = 0, ops = 0, bursts = 0, longBursts = 0;
    std::uint64_t busBusy = 0, busCycles = 0, rowHits = 0, rowMisses = 0;
    std::uint64_t l1Hits = 0, l1Misses = 0, l2Hits = 0, l2Misses = 0;
    std::uint64_t prefetches = 0;

    void
    add(const SimResult &r, const std::string &longCode)
    {
        cycles += r.cycles;
        ops += r.totalOps;
        for (const auto &[scheme, usage] : r.bus.schemes) {
            bursts += usage.bursts;
            if (scheme == longCode)
                longBursts += usage.bursts;
        }
        busBusy += r.bus.busBusyCycles;
        busCycles += r.bus.totalCycles;
        rowHits += r.bus.rowHits;
        rowMisses += r.bus.rowMisses;
        l1Hits += r.l1.hits;
        l1Misses += r.l1.misses;
        l2Hits += r.l2.hits;
        l2Misses += r.l2.misses;
        prefetches += r.prefetcher.prefetchesIssued;
    }

    double utilization() const { return ratio(busBusy, busCycles); }
    double l2MissRate() const { return ratio(l2Misses, l2Hits + l2Misses); }
};

/** What the traced pass measured, before it is turned into metrics. */
struct Traced
{
    LayerTimes times;      ///< Spans of the decorated run(s).
    double decoratedS = 0; ///< Host s of the decorated run(s).
    double plainS = 0;     ///< Host s of the same runs undecorated.
    double sinkS = 0;      ///< Host s with the counting sink attached.
    std::uint64_t events = 0;
    Counts counts;
    std::uint64_t toCycle = 0, toEvent = 0;
    double shardSpeedup = 0;
    double cellMaxS = 0, cellSumS = 0, parallelEfficiency = 0;
    double findUs = 0, warmS = 0;
};

/** Share of the decorated run's host time spent in encode/decode. */
double
codingShare(const Traced &t, double cost)
{
    return ratio(netSeconds(t.times.encode, cost) +
                     netSeconds(t.times.decode, cost),
                 t.decoratedS);
}

void
addLayerMetrics(Report &rep, const Traced &t)
{
    const double cost = spanCostNs();
    const LayerTimes &lt = t.times;
    const Counts &c = t.counts;
    const double residualS = t.decoratedS - toSeconds(lt.totalNs());

    rep.add("coding.encode_calls", lt.encode.calls, "count");
    rep.add("coding.encode_ns", netNsPerCall(lt.encode, cost), "ns/call");
    rep.add("coding.decode_calls", lt.decode.calls, "count");
    rep.add("coding.decode_ns", netNsPerCall(lt.decode, cost), "ns/call");
    rep.add("coding.share", codingShare(t, cost), "ratio");
    rep.add("mil.choose_calls", lt.choose.calls, "count");
    rep.add("mil.choose_ns", netNsPerCall(lt.choose, cost), "ns/call");
    rep.add("mil.observe_ns", netNsPerCall(lt.observe, cost), "ns/call");
    rep.add("mil.long_code_ratio", ratio(c.longBursts, c.bursts), "ratio");
    rep.add("workloads.next_calls", lt.next.calls, "count");
    rep.add("workloads.next_ns", netNsPerCall(lt.next, cost), "ns/call");
    rep.add("workloads.register_s", netSeconds(lt.registerRegions, cost),
            "s");
    rep.add("workloads.make_stream_s", netSeconds(lt.makeStream, cost),
            "s");
    rep.add("dram.bursts", c.bursts, "count");
    rep.add("dram.bus_utilization", c.utilization(), "ratio");
    rep.add("dram.row_hit_rate", ratio(c.rowHits, c.rowHits + c.rowMisses),
            "ratio");
    rep.add("dram.bursts_per_kcycle", ratio(1000.0 * c.bursts, c.cycles),
            "1/kcycle");
    rep.add("mem.l1_accesses", c.l1Hits + c.l1Misses, "count");
    rep.add("mem.l1_miss_rate", ratio(c.l1Misses, c.l1Hits + c.l1Misses),
            "ratio");
    rep.add("mem.l2_miss_rate", c.l2MissRate(), "ratio");
    rep.add("mem.prefetches", c.prefetches, "count");
    rep.add("mem.ops_per_kcycle", ratio(1000.0 * c.ops, c.cycles),
            "1/kcycle");
    rep.add("sim.cycles", c.cycles, "cycles");
    rep.add("sim.residual_s", residualS, "s");
    rep.add("sim.residual_ns_per_cycle", ratio(residualS * 1e9, c.cycles),
            "ns/cycle");
    rep.add("sim.auto_to_cycle", t.toCycle, "count");
    rep.add("sim.auto_to_event", t.toEvent, "count");
    rep.add("sim.shard_speedup", t.shardSpeedup, "ratio");
    rep.add("sim.trace_overhead", ratio(t.decoratedS, t.plainS), "ratio");
    rep.add("sim.cell_s_max", t.cellMaxS, "s");
    rep.add("sim.cell_s_sum", t.cellSumS, "s");
    rep.add("sim.parallel_efficiency", t.parallelEfficiency, "ratio");
    rep.add("store.find_us", t.findUs, "us");
    rep.add("store.warm_grid_s", t.warmS, "s");
    rep.add("obs.events", t.events, "count");
    rep.add("obs.record_ns",
            ratio((t.sinkS - t.plainS) * 1e9, t.events), "ns/event");
}

void
addEndToEnd(Report &rep, std::uint64_t cycles, double runS,
            const std::vector<double> &setups)
{
    rep.add("sim_cycles_per_s", ratio(cycles, runS), "1/s");
    rep.add("run_s", runS, "s");
    rep.add("setup_s", median(setups), "s");
    rep.add("peak_rss_mb", peakRssMb(), "MB");
}

/** Mean microseconds per find() over every key, repeated. */
double
findUs(store::ResultStore &store, const std::vector<std::string> &keys)
{
    const std::size_t passes = std::max<std::size_t>(1, 4000 / keys.size());
    const std::int64_t t0 = nowNs();
    for (std::size_t p = 0; p < passes; ++p)
        for (const auto &key : keys)
            if (!store.find(key))
                throw SimError("result store lost key " + key);
    return static_cast<double>(nowNs() - t0) * 1e-3 /
        static_cast<double>(passes * keys.size());
}

/** Deletes a per-process scratch directory on every exit path. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &root)
        : path_(std::filesystem::path(root) /
                ("milperf-" + std::to_string(::getpid())))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    /** A fresh, not yet existing path inside the directory. */
    std::string
    fresh(const std::string &stem)
    {
        return (path_ / (stem + "-" + std::to_string(next_++))).string();
    }

  private:
    std::filesystem::path path_;
    unsigned next_ = 0;
};

// ---------------------------------------------------------------------
// Single-simulation workloads.

void
checkSingleProfile(const std::string &name, const Counts &c, Tally &tally)
{
    char what[160];
    if (name == "latency_replay") {
        std::snprintf(what, sizeof(what),
                      "latency_replay bus utilization %.4f >= %.2f",
                      c.utilization(), kLatencyMaxUtilization);
        tally.expect(c.utilization() < kLatencyMaxUtilization, what);
    } else if (name == "gups_bandwidth") {
        std::snprintf(what, sizeof(what),
                      "gups_bandwidth bus utilization %.4f < %.2f",
                      c.utilization(), kGupsMinUtilization);
        tally.expect(c.utilization() >= kGupsMinUtilization, what);
    } else if (name == "frontend_sharded") {
        std::snprintf(what, sizeof(what),
                      "frontend_sharded L2 miss rate %.4f >= %.2f",
                      c.l2MissRate(), kFrontendMaxL2MissRate);
        tally.expect(c.l2MissRate() < kFrontendMaxL2MissRate, what);
    }
}

int
runSingle(const SimSpec &spec, const Options &opt, ScratchDir &scratch)
{
    Tally tally;
    const std::string oracle =
        fingerprint(simulate(spec, TickMode::Cycle, 0).result);

    auto attempt = [&](unsigned shards, const Probe &probe,
                       const std::string &what) -> std::optional<Run> {
        try {
            Run r = simulate(spec, TickMode::Auto, shards, probe);
            const std::string fp = fingerprint(r.result);
            tally.op(fp == oracle, what + ": " + fp + " != oracle " +
                                       oracle);
            if (fp == oracle)
                return r;
        } catch (const std::exception &e) {
            tally.op(false, what + ": " + e.what());
        }
        return std::nullopt;
    };

    attempt(spec.shards, {}, "warm-up");
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(opt.seconds * 1e9);
    Report rep;

    if (!opt.trace) {
        // run_s sums, segment by segment, the fastest repetition of each
        // segment (see README.md). A crew calls next() from several
        // threads, so there each repetition is one segment.
        std::optional<Run> first;
        std::vector<double> fastest;
        std::vector<double> setups;
        for (int reps = 0; reps < kMinReps || nowNs() < deadline; ++reps) {
            Checkpoints marks;
            auto r = attempt(spec.shards,
                             {nullptr, nullptr,
                              spec.shards == 0 ? &marks : nullptr},
                             "repetition");
            if (!r)
                continue;
            if (!first) {
                fastest = r->segmentsS;
                first = std::move(r);
            } else if (r->segmentsS.size() != fastest.size()) {
                tally.expect(false, "checkpoint count differs between "
                                    "repetitions");
            } else {
                for (std::size_t i = 0; i < fastest.size(); ++i)
                    fastest[i] = std::min(fastest[i], r->segmentsS[i]);
            }
            for (int k = 0; k < kSetupBatchesPerRep; ++k)
                setups.push_back(setupBatch(spec, spec.shards));
        }
        while (setups.size() < kSetupBatches)
            setups.push_back(setupBatch(spec, spec.shards));
        if (!first)
            throw SimError("every repetition failed");
        double runS = 0.0;
        for (const double s : fastest)
            runS += s;
        Counts c;
        c.add(first->result, longCodeName(spec.policy));
        checkSingleProfile(spec.label, c, tally);
        addEndToEnd(rep, first->result.cycles, runS, setups);
        rep.print(spec.label, tally);
        return tally.profileOk ? 0 : 1;
    }

    // Traced: interleave the serial, decorated, sink and crew runs so
    // drift on a shared host hits each of them alike; keep the fastest
    // of each. The decorators are not thread-safe, so the decorated and
    // sink runs use the serial engine, and the serial run is their
    // baseline. The crew run is the measured configuration's crew, or
    // a crew of two when that is serial.
    const unsigned crew =
        spec.shards != 0 ? spec.shards : std::min(2u, hostCores());
    std::optional<Run> serial, decorated, sunk, crewRun;
    Traced t;
    auto keepFastest = [](std::optional<Run> &best, std::optional<Run> r) {
        if (r && (!best || r->wallS() < best->wallS()))
            best = std::move(r);
    };
    for (int round = 0; round < 2 || nowNs() < deadline; ++round) {
        keepFastest(serial, attempt(0, {}, "serial"));
        LayerTimes times;
        auto d = attempt(0, {&times, nullptr}, "decorated");
        if (d && (!decorated || d->wallS() < decorated->wallS()))
            t.times = times;
        keepFastest(decorated, std::move(d));
        CountingSink sink;
        keepFastest(sunk, attempt(0, {nullptr, &sink}, "counting sink"));
        t.events = sink.events;
        keepFastest(crewRun, attempt(crew, {}, "crew"));
    }
    if (!serial || !decorated || !sunk || !crewRun)
        throw SimError("a traced configuration failed every round");

    const std::string longCode = longCodeName(spec.policy);
    t.counts.add(decorated->result, longCode);
    t.decoratedS = decorated->wallS();
    t.plainS = serial->wallS();
    t.sinkS = sunk->wallS();
    t.toCycle = decorated->toCycle;
    t.toEvent = decorated->toEvent;
    t.shardSpeedup = serial->runS / crewRun->runS;
    // One simulation is a grid of one cell on one job.
    const Run &measured = spec.shards != 0 ? *crewRun : *serial;
    t.cellMaxS = t.cellSumS = measured.runS;
    t.parallelEfficiency = 1.0;

    // Store round trip of this one result, as a resumed sweep would
    // serve it.
    const std::string dir = scratch.fresh("store");
    const std::string key = spec.label + "/seed" + std::to_string(opt.seed);
    const std::string csv = CsvReporter::metricsFragment(serial->result);
    {
        store::ResultStore store(dir, sweepStoreVersion());
        store.put({key, "ok", "", csv});
    }
    const std::int64_t w0 = nowNs();
    {
        store::ResultStore store(dir, sweepStoreVersion());
        const auto rec = store.find(key);
        std::ostringstream row;
        if (rec)
            CsvReporter::writeRowParts(row, spec.system, spec.label,
                                       spec.policy, rec->csv);
        tally.op(rec && rec->csv == csv, "store round trip");
        t.warmS = toSeconds(nowNs() - w0);
        t.findUs = findUs(store, {key});
    }

    checkSingleProfile(spec.label, t.counts, tally);
    if (spec.label == "latency_replay") {
        const double share = codingShare(t, spanCostNs());
        char what[160];
        std::snprintf(what, sizeof(what),
                      "latency_replay coding share %.4f >= %.2f", share,
                      kLatencyMaxCodingShare);
        tally.expect(share < kLatencyMaxCodingShare, what);
    }
    addLayerMetrics(rep, t);
    rep.print(spec.label, tally);
    return tally.profileOk ? 0 : 1;
}

// ---------------------------------------------------------------------
// The paper grid.

/** {ddr4, lpddr3} x Table 3 x {DBI, MiL} at the harness defaults. */
SweepGrid
paperGrid(std::uint64_t seed)
{
    SweepGrid g;
    g.systems = {"ddr4", "lpddr3"};
    g.workloads = workloadNames();
    g.policies = {"DBI", "MiL"};
    g.opsPerThread = 3000;
    g.scale = 0.25;
    g.baseSeed = seed;
    return g;
}

std::string
sweepCsv(const std::vector<SweepResult> &results)
{
    std::ostringstream os;
    writeSweepCsv(os, results);
    return os.str();
}

std::vector<std::string>
csvLines(const std::string &csv)
{
    std::vector<std::string> lines;
    std::istringstream is(csv);
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    return lines;
}

/** Tally one operation per cell: its row must equal the oracle's. */
void
tallyRows(const std::string &csv, const std::vector<std::string> &oracle,
          const std::string &what, Tally &tally)
{
    const std::vector<std::string> rows = csvLines(csv);
    const bool shapeOk = rows.size() == oracle.size() &&
        !rows.empty() && rows[0] == oracle[0];
    for (std::size_t i = 1; i < oracle.size(); ++i)
        tally.op(shapeOk && rows[i] == oracle[i],
                 what + " row " + std::to_string(i) + ": " +
                     (shapeOk ? rows[i] : "header/row count differs"));
}

struct GridRun
{
    std::vector<SweepResult> results;
    double runS = 0.0;
    std::vector<double> cellS; ///< Per-cell host s (when timed).
};

/**
 * One SweepRunner pass, into a ResultStore opened in @p storeDir
 * unless that is empty. With timeCells, each cell's host time is the
 * gap between consecutive completions on its worker.
 */
GridRun
runGrid(const SweepGrid &grid, unsigned jobs, const std::string &storeDir,
        bool timeCells)
{
    GridRun out;
    std::optional<store::ResultStore> store;
    if (!storeDir.empty())
        store.emplace(storeDir, sweepStoreVersion());
    SweepRunner runner(jobs);
    runner.setUseCache(false);
    if (store)
        runner.setStore(&*store);
    std::int64_t start = 0;
    std::map<std::thread::id, std::int64_t> lastDone;
    if (timeCells) {
        // Progress callbacks are serialized by the runner.
        runner.setCellProgress([&](std::size_t, std::size_t,
                                   const SweepRunStats &) {
            const std::int64_t now = nowNs();
            const auto it =
                lastDone.try_emplace(std::this_thread::get_id(), start)
                    .first;
            out.cellS.push_back(toSeconds(now - it->second));
            it->second = now;
        });
    }
    start = nowNs();
    out.results = runner.run(grid);
    out.runS = toSeconds(nowNs() - start);
    return out;
}

/**
 * The grid's set-up: a fresh ResultStore and the runner, plus every
 * cell's workload and System, which SweepRunner::run builds before
 * each cell simulates. Store I/O alone is too noisy to time.
 */
double
gridSetupOnce(const std::vector<RunSpec> &specs, const std::string &dir)
{
    const std::int64_t t0 = nowNs();
    store::ResultStore store(dir, sweepStoreVersion());
    SweepRunner runner(1);
    runner.setUseCache(false);
    runner.setStore(&store);
    for (const RunSpec &spec : specs)
        prepare(fromRunSpec(spec), spec.tickMode, spec.shards, {});
    return toSeconds(nowNs() - t0);
}

/** Per-cell result of the decorated or sink pass over the grid. */
struct CellRun
{
    bool ok = false;
    std::string error;
    Run run;
    LayerTimes times;
    std::uint64_t events = 0;
};

/** Every cell through simulate() with its own probes, jobs at a time. */
std::vector<CellRun>
runCells(const std::vector<RunSpec> &specs, unsigned jobs, bool decorate,
         bool sink)
{
    std::vector<CellRun> cells(specs.size());
    ThreadPool pool(jobs - 1);
    pool.parallelFor(specs.size(), [&](std::size_t i) {
        CellRun &cell = cells[i];
        CountingSink counter;
        Probe probe{decorate ? &cell.times : nullptr,
                    sink ? &counter : nullptr};
        try {
            cell.run = simulate(fromRunSpec(specs[i]), specs[i].tickMode,
                                specs[i].shards, probe);
            cell.ok = true;
        } catch (const std::exception &e) {
            cell.error = e.what();
        }
        cell.events = counter.events;
    });
    return cells;
}

std::string
cellsCsv(const std::vector<RunSpec> &specs,
         const std::vector<CellRun> &cells)
{
    std::vector<SweepResult> results(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        results[i].spec = specs[i];
        results[i].result = cells[i].run.result;
        if (!cells[i].ok) {
            results[i].status = "error";
            results[i].error = cells[i].error;
        }
    }
    return sweepCsv(results);
}

int
runPaperGrid(const Options &opt, ScratchDir &scratch)
{
    Tally tally;
    const SweepGrid grid = paperGrid(opt.seed);
    // Untimed passes use the pool; the measured grid runs on one job,
    // where the grid's wall time is the sum of its cells' times.
    const unsigned jobs = std::min(2u, hostCores());

    SweepGrid oracleGrid = grid;
    oracleGrid.tickMode = TickMode::Cycle;
    const std::vector<SweepResult> oracleResults =
        runGrid(oracleGrid, jobs, "", false).results;
    const std::vector<std::string> oracle =
        csvLines(sweepCsv(oracleResults));
    std::size_t oracleOk = 0;
    for (const auto &r : oracleResults)
        oracleOk += r.ok() ? 1 : 0;
    tally.expect(oracleOk == grid.size() && grid.size() == 44,
                 "paper_grid oracle: " + std::to_string(oracleOk) + " of " +
                     std::to_string(grid.size()) + " cells ok, want 44");

    tallyRows(sweepCsv(runGrid(grid, jobs, scratch.fresh("store"), false)
                           .results),
              oracle, "warm-up", tally);
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(opt.seconds * 1e9);
    Report rep;
    const std::string tag = "paper_grid";

    const std::vector<RunSpec> specs = grid.expand();
    if (!opt.trace) {
        // A grid holds too few repetitions for the fastest one to be
        // steady, so take the fastest repetition of each cell instead:
        // on one job their sum is the grid's wall time on a quiet host.
        std::vector<double> cellMin(grid.size(), 0.0);
        std::vector<double> setups;
        std::vector<SweepResult> results;
        for (int reps = 0; reps < kMinGridReps || nowNs() < deadline;
             ++reps) {
            GridRun g = runGrid(grid, 1, scratch.fresh("store"), true);
            tallyRows(sweepCsv(g.results), oracle, "repetition", tally);
            for (std::size_t i = 0; i < cellMin.size(); ++i)
                if (reps == 0 || g.cellS[i] < cellMin[i])
                    cellMin[i] = g.cellS[i];
            results = std::move(g.results);
            for (int k = 0; k < kGridSetupsPerRep; ++k)
                setups.push_back(
                    gridSetupOnce(specs, scratch.fresh("setup")));
        }
        while (setups.size() < kGridSetupSamples)
            setups.push_back(gridSetupOnce(specs, scratch.fresh("setup")));
        std::uint64_t cycles = 0;
        for (const auto &r : results)
            cycles += r.result.cycles;
        double runS = 0.0;
        for (double c : cellMin)
            runS += c;
        addEndToEnd(rep, cycles, runS, setups);
        rep.print(tag, tally);
        return tally.profileOk ? 0 : 1;
    }

    // Traced: one pass of each configuration, fastest over rounds.
    Traced t;
    std::optional<GridRun> plain;
    double autoShardsS = 0.0;
    std::vector<std::string> keys;
    for (const auto &spec : specs)
        keys.push_back(storeKeyFor(spec));
    std::string plainStore;
    for (int round = 0; round < 1 || nowNs() < deadline; ++round) {
        const std::string dir = scratch.fresh("store");
        GridRun g = runGrid(grid, jobs, dir, true);
        tallyRows(sweepCsv(g.results), oracle, "timed cells", tally);
        if (!plain || g.runS < plain->runS) {
            plain = std::move(g);
            plainStore = dir;
        }

        SweepGrid sharded = grid;
        sharded.shardsAuto = true;
        GridRun s = runGrid(sharded, jobs, "", false);
        tallyRows(sweepCsv(s.results), oracle, "shards auto", tally);
        if (round == 0 || s.runS < autoShardsS)
            autoShardsS = s.runS;

        // The decorated and sink passes are compared with a plain pass
        // through the same per-cell loop, not with the runner above.
        const std::vector<CellRun> base = runCells(specs, jobs, false, false);
        tallyRows(cellsCsv(specs, base), oracle, "plain cells", tally);
        const std::vector<CellRun> dec = runCells(specs, jobs, true, false);
        tallyRows(cellsCsv(specs, dec), oracle, "decorated", tally);
        const std::vector<CellRun> sunk = runCells(specs, jobs, false, true);
        tallyRows(cellsCsv(specs, sunk), oracle, "counting sink", tally);
        double baseS = 0.0, decS = 0.0, sinkS = 0.0;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            baseS += base[i].run.wallS();
            decS += dec[i].run.wallS();
            sinkS += sunk[i].run.wallS();
        }
        if (round == 0 || baseS < t.plainS)
            t.plainS = baseS;
        if (round == 0 || decS < t.decoratedS) {
            t.decoratedS = decS;
            t.times = LayerTimes{};
            t.counts = Counts{};
            t.toCycle = t.toEvent = 0;
            for (std::size_t i = 0; i < specs.size(); ++i) {
                t.times.add(dec[i].times);
                t.counts.add(dec[i].run.result,
                             longCodeName(specs[i].policy));
                t.toCycle += dec[i].run.toCycle;
                t.toEvent += dec[i].run.toEvent;
            }
        }
        if (round == 0 || sinkS < t.sinkS) {
            t.sinkS = sinkS;
            t.events = 0;
            for (const auto &cell : sunk)
                t.events += cell.events;
        }
    }

    t.cellMaxS = *std::max_element(plain->cellS.begin(), plain->cellS.end());
    for (double s : plain->cellS)
        t.cellSumS += s;
    t.parallelEfficiency = ratio(t.cellSumS, jobs * plain->runS);
    t.shardSpeedup = ratio(plain->runS, autoShardsS);

    // The same grid served entirely from the store it was written to.
    const std::int64_t w0 = nowNs();
    GridRun warm = runGrid(grid, jobs, plainStore, false);
    t.warmS = toSeconds(nowNs() - w0);
    tallyRows(sweepCsv(warm.results), oracle, "warm store", tally);
    {
        store::ResultStore store(plainStore, sweepStoreVersion());
        t.findUs = findUs(store, keys);
    }

    addLayerMetrics(rep, t);
    rep.print(tag, tally);
    return tally.profileOk ? 0 : 1;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload latency_replay|gups_bandwidth|"
                 "frontend_sharded|paper_grid --seed N --seconds S "
                 "--trace 0|1 [--scratch DIR]\n",
                 argv0);
    return 2;
}

int
benchMain(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value, &end);
        } else if (flag == "--trace") {
            opt.trace = std::strcmp(value, "1") == 0;
            if (!opt.trace && std::strcmp(value, "0") != 0)
                return usage(argv[0]);
        } else if (flag == "--scratch") {
            opt.scratch = value;
        } else {
            return usage(argv[0]);
        }
        if (end != nullptr && (*end != '\0' || end == value))
            return usage(argv[0]);
    }
    if (argc % 2 == 0 || !(opt.seconds > 0.0 && opt.seconds <= 600.0))
        return usage(argv[0]);

    ScratchDir scratch(opt.scratch);
    if (opt.workload == "latency_replay")
        return runSingle(latencyReplay(opt.seed), opt, scratch);
    if (opt.workload == "gups_bandwidth")
        return runSingle(named(opt.workload, "ddr4", "GUPS", 0.25,
                               opt.seed, 2500, 0),
                         opt, scratch);
    if (opt.workload == "frontend_sharded")
        return runSingle(named(opt.workload, "datacenter-8ch", "OCEAN",
                               0.05, opt.seed, 8000,
                               std::min(2u, hostCores())),
                         opt, scratch);
    if (opt.workload == "paper_grid")
        return runPaperGrid(opt, scratch);
    return usage(argv[0]);
}

} // anonymous namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::benchMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "milperf: %s\n", e.what());
        return 3;
    }
}
