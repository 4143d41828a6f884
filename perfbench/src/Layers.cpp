/**
 * @file
 * The traced run: per-layer host timings measured from outside the
 * library. Every timed call into a layer's public entry point gets a
 * span in one support::TraceCollector, which also receives the
 * serving engine's and session's own spans; the collector is written
 * as a c4cam-trace-v1 document at the end.
 *
 * Layers, in compiler order: frontend (TorchScript parse), passes
 * (each pipeline pass alone), runtime (plan compile, plan optimizer,
 * plan replay), sim (CAM search, write, clone) and core (compile,
 * sessions, the async serving tier).
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "Bench.h"
#include "core/AsyncServingEngine.h"
#include "core/Compiler.h"
#include "core/ExecutionSession.h"
#include "core/PlanCache.h"
#include "dialects/AllDialects.h"
#include "frontend/TorchScriptFrontend.h"
#include "ir/Context.h"
#include "ir/Pass.h"
#include "passes/CamMapping.h"
#include "passes/Canonicalize.h"
#include "passes/CimFuseOps.h"
#include "passes/CimSimilarityMatching.h"
#include "passes/TorchToCim.h"
#include "runtime/ExecutionPlan.h"
#include "runtime/PlanOptimizer.h"
#include "sim/CamDevice.h"
#include "support/Json.h"
#include "support/Trace.h"

namespace c4cam::perfbench {

namespace {

using ExecPhase = rt::Interpreter::ExecPhase;

/** Pipeline passes in the order Compiler::buildPipeline runs them, as
 *  span names (recorded spans must point at static storage). */
constexpr int kNumPasses = 5;
constexpr const char *kPassSpans[kNumPasses] = {
    "passes.torch-to-cim", "passes.cim-fuse-ops",
    "passes.cim-similarity-match", "passes.cam-map", "passes.canonicalize"};

/**
 * Records the benchmark's own spans: one trace for the whole run, an
 * optional enclosing section span, and one span per timed call.
 */
class BenchTracer
{
  public:
    explicit BenchTracer(support::TraceCollector &collector)
        : collector_(collector), traceId_(collector.newTraceId())
    {
    }

    /** Time @p fn as one span named @p name; @return microseconds. */
    template <typename Fn>
    double
    time(const char *name, Fn &&fn)
    {
        Clock::time_point t0 = Clock::now();
        fn();
        Clock::time_point t1 = Clock::now();
        record(name, t0, t1, section_);
        return usBetween(t0, t1);
    }

    /** Open a section span that parents the spans timed inside it. */
    void
    beginSection()
    {
        section_ = collector_.newSpanId();
        sectionStart_ = Clock::now();
    }

    void
    endSection(const char *name)
    {
        record(name, sectionStart_, Clock::now(), 0, section_);
        section_ = 0;
    }

  private:
    void
    record(const char *name, Clock::time_point t0, Clock::time_point t1,
           std::uint64_t parent, std::uint64_t span = 0)
    {
        support::TraceEvent ev;
        ev.name = name;
        ev.traceId = traceId_;
        ev.spanId = span ? span : collector_.newSpanId();
        ev.parentSpanId = parent;
        ev.startUs = collector_.toUs(t0);
        ev.durUs = usBetween(t0, t1);
        collector_.record(ev);
    }

    support::TraceCollector &collector_;
    std::uint64_t traceId_;
    std::uint64_t section_ = 0;
    Clock::time_point sectionStart_;
};

/** Repetition policy: at least @p min, and while the budget lasts, at
 *  most @p max. */
struct Reps
{
    int min;
    int max;
    double budgetS;

    template <typename Body>
    void
    run(Body body) const
    {
        Clock::time_point start = Clock::now();
        for (int n = 0; n < min || (n < max && secondsSince(start) < budgetS);
             ++n)
            body();
    }
};

/** Per-layer figures for one architecture spec (medians, us). */
struct LayerSample
{
    double parseUs = 0.0;
    double passUs[kNumPasses] = {};
    double irOps = 0.0;
    double planCompileUs = 0.0;
    double planOptUs = 0.0;
    double queryInstrs = 0.0;
    double replayUs = 0.0;
    double searchUs = 0.0;
    double searchNsPerCell = 0.0;
    double searchesPerQuery = 0.0;
    double allocUs = 0.0;      ///< per allocated subarray
    double writeUs = 0.0;      ///< per writeValue call
    double programUs = 0.0;    ///< allocate + write all stored tiles
    double subarrays = 0.0;    ///< subarrays the kernel allocates
    double cloneUs = 0.0;
    double compileUs = 0.0;
    double createSessionUs = 0.0;
    double candidateRunUs = 0.0;
    double queryUs = 0.0;
    double hitRatio = 0.0;
};

/** Subarray handles of a programmed device, in hierarchy order. */
std::vector<sim::Handle>
programmedSubarrays(const sim::CamDevice &device)
{
    const arch::ArchSpec &spec = device.spec();
    std::vector<sim::Handle> handles;
    for (std::int64_t b = 0; b < device.numBanks(); ++b)
        for (int m = 0; m < spec.matsPerBank; ++m)
            for (int a = 0; a < spec.arraysPerMat; ++a)
                for (int s = 0; s < spec.subarraysPerArray; ++s) {
                    try {
                        handles.push_back(device.subarrayAt(b, m, a, s));
                    } catch (const CompilerError &) {
                        // Not allocated: the mapping left it unused.
                    }
                }
    return handles;
}

/**
 * Allocate @p count subarrays on @p device the way the cam dialect
 * does: banks of mats of arrays of subarrays, each level filled
 * before the next is opened.
 */
std::vector<sim::Handle>
allocateSubarrays(sim::CamDevice &device, std::size_t count)
{
    const arch::ArchSpec &spec = device.spec();
    std::vector<sim::Handle> handles;
    while (handles.size() < count) {
        sim::Handle bank = device.allocBank(spec.rows, spec.cols);
        for (int m = 0; m < spec.matsPerBank && handles.size() < count; ++m) {
            sim::Handle mat = device.allocMat(bank);
            for (int a = 0; a < spec.arraysPerMat && handles.size() < count;
                 ++a) {
                sim::Handle array = device.allocArray(mat);
                for (int s = 0;
                     s < spec.subarraysPerArray && handles.size() < count; ++s)
                    handles.push_back(device.allocSubarray(array));
            }
        }
    }
    return handles;
}

/** The stored data cut into (at most) rows x cols tiles, each stored
 *  cell once, row block by row block. */
std::vector<std::vector<std::vector<float>>>
storedTiles(const Dataset &data, int rows, int cols)
{
    std::vector<std::vector<std::vector<float>>> tiles;
    const int n_rows = static_cast<int>(data.stored.size());
    const int n_cols = static_cast<int>(data.stored.front().size());
    for (int r0 = 0; r0 < n_rows; r0 += rows)
        for (int c0 = 0; c0 < n_cols; c0 += cols) {
            std::vector<std::vector<float>> tile;
            for (int r = r0; r < std::min(n_rows, r0 + rows); ++r)
                tile.emplace_back(data.stored[r].begin() + c0,
                                  data.stored[r].begin() +
                                      std::min(n_cols, c0 + cols));
            tiles.push_back(std::move(tile));
        }
    return tiles;
}

/**
 * Times every layer for one architecture spec. The set-up calls
 * (parse, each pass, plan compile and optimizer, kernel compile,
 * session creation, single-shot run, device clone, CAM writes) run in
 * one interleaved loop and the per-query calls (plan replay, a search
 * round, runQuery) in another, so a noisy stretch of host time hits
 * every layer of a loop alike and their shares stay comparable.
 */
class LayerProbe
{
  public:
    LayerProbe(BenchTracer &tracer, const Dataset &data, Result &result,
               Reps setup_reps, Reps query_reps)
        : tracer_(tracer), data_(data), result_(result),
          setupReps_(setup_reps), queryReps_(query_reps)
    {
    }

    LayerSample measure(const arch::ArchSpec &spec);

  private:
    void
    check(bool ok)
    {
        ++result_.attempted;
        if (!ok)
            ++result_.failed;
    }

    BenchTracer &tracer_;
    const Dataset &data_;
    Result &result_;
    Reps setupReps_;
    Reps queryReps_;
};

LayerSample
LayerProbe::measure(const arch::ArchSpec &spec)
{
    core::CompilerOptions options;
    options.spec = spec;
    core::Compiler compiler(options);
    const std::vector<std::vector<std::vector<float>>> tiles =
        storedTiles(data_, spec.rows, spec.cols);

    std::vector<double> parse, pass_us[kNumPasses], plan_compile, plan_opt;
    std::vector<double> compile, create, single_run, clone, alloc, write,
        program;
    std::shared_ptr<ir::Context> ctx;
    std::optional<ir::Module> module;
    std::shared_ptr<const rt::ExecutionPlan> plan;
    std::unique_ptr<core::CompiledKernel> kernel;
    std::optional<core::ExecutionSession> session;
    std::size_t q = 0;
    double allocated = 0.0;
    core::PlanCacheStats before = core::PlanCache::instance().stats();
    setupReps_.run([&] {
        // frontend: TorchScript to a torch-level module.
        module.reset();
        ctx = std::make_shared<ir::Context>();
        dialects::loadAllDialects(*ctx);
        parse.push_back(tracer_.time("frontend.parse", [&] {
            module.emplace(
                frontend::parseTorchScriptModule(*ctx, data_.source));
        }));

        // passes: the pipeline, one pass per PassManager.
        for (int p = 0; p < kNumPasses; ++p) {
            ir::PassManager pm;
            switch (p) {
              case 0: pm.add<passes::TorchToCimPass>(); break;
              case 1: pm.add<passes::CimFuseOpsPass>(); break;
              case 2: pm.add<passes::CimSimilarityMatchingPass>(); break;
              case 3: pm.add<passes::CamMappingPass>(spec); break;
              default: pm.add<passes::CanonicalizePass>(); break;
            }
            pass_us[p].push_back(
                tracer_.time(kPassSpans[p], [&] { pm.run(*module); }));
        }

        // runtime: plan compile, then the optimizer pipeline.
        const std::string entry =
            module->functions().front()->strAttr("sym_name");
        std::shared_ptr<const rt::ExecutionPlan> raw;
        plan_compile.push_back(tracer_.time("runtime.plan_compile", [&] {
            raw = rt::ExecutionPlan::compile(*module, entry);
        }));
        plan_opt.push_back(tracer_.time(
            "runtime.plan_opt", [&] { plan = rt::PlanOptimizer::optimize(*raw); }));

        // core: cold compile, session creation, single-shot run.
        session.reset();
        kernel.reset();
        core::PlanCache::instance().clear();
        compile.push_back(tracer_.time("core.compile", [&] {
            kernel = std::make_unique<core::CompiledKernel>(
                compiler.compileTorchScript(data_.source));
        }));
        create.push_back(tracer_.time("core.create_session", [&] {
            session.emplace(kernel->createSession(data_.args(0)));
        }));
        core::ExecutionResult r;
        single_run.push_back(tracer_.time(
            "core.candidate_run", [&] { r = kernel->run(data_.args(q)); }));
        check(top1Of(r.outputs) == data_.answer(q));
        ++q;

        // sim: replicate the programmed device; program every stored
        // tile into a fresh one.
        std::unique_ptr<sim::CamDevice> copy;
        clone.push_back(tracer_.time("sim.clone", [&] {
            copy = session->device()->cloneProgrammed();
        }));
        // As many subarrays as the kernel allocates; dense targets pack
        // several tiles into one subarray at successive row offsets.
        sim::CamDevice fresh(spec);
        const std::size_t n_subs = static_cast<std::size_t>(
            session->device()->numAllocatedSubarrays());
        std::vector<sim::Handle> subs;
        double total = tracer_.time(
            "sim.alloc", [&] { subs = allocateSubarrays(fresh, n_subs); });
        alloc.push_back(total / static_cast<double>(n_subs));
        allocated = static_cast<double>(n_subs);
        for (std::size_t t = 0; t < tiles.size(); ++t) {
            int row_offset = static_cast<int>(t / n_subs) *
                             static_cast<int>(tiles.front().size());
            double us = tracer_.time("sim.write", [&] {
                fresh.writeValue(subs[t % n_subs], tiles[t], row_offset);
            });
            write.push_back(us);
            total += us;
        }
        program.push_back(total);
    });
    core::PlanCacheStats after = core::PlanCache::instance().stats();

    LayerSample out;
    out.parseUs = medianOf(parse);
    for (int p = 0; p < kNumPasses; ++p)
        out.passUs[p] = medianOf(pass_us[p]);
    std::int64_t ops = 0;
    module->walk([&ops](ir::Operation *) { ++ops; });
    out.irOps = static_cast<double>(ops);
    out.planCompileUs = medianOf(plan_compile);
    out.planOptUs = medianOf(plan_opt);
    out.queryInstrs =
        static_cast<double>(plan->numInstructions(ExecPhase::QueryOnly));
    out.compileUs = medianOf(compile);
    out.createSessionUs = medianOf(create);
    out.candidateRunUs = medianOf(single_run);
    std::uint64_t hits = after.hits - before.hits;
    std::uint64_t lookups = hits + (after.misses - before.misses);
    out.hitRatio = lookups ? double(hits) / double(lookups) : 0.0;
    out.cloneUs = medianOf(clone);
    out.allocUs = medianOf(alloc);
    out.subarrays = allocated;
    out.writeUs = medianOf(write);
    out.programUs = medianOf(program);

    // Per query: plan replay on a device the plan's own setup prologue
    // programmed; the functional search round-robin over every
    // programmed subarray (so the working set matches a real query);
    // the session's runQuery.
    auto device = std::make_unique<sim::CamDevice>(spec);
    rt::PlanFrame frame = plan->makeFrame();
    plan->run(frame, device.get(), rt::toRtValues(data_.args(0)),
              ExecPhase::SetupOnly);
    std::vector<sim::Handle> handles = programmedSubarrays(*device);
    // Each search senses one batch of stored rows (at most a subarray's
    // rows); dense targets pack several batches into one subarray and
    // search them through row windows.
    const int batch_rows =
        std::min<int>(spec.rows, static_cast<int>(data_.stored.size()));
    std::vector<int> window;
    double cells = 0.0;
    for (sim::Handle h : handles) {
        window.push_back(std::min(batch_rows, device->subarray(h).writtenRows()));
        cells += double(window.back()) * spec.cols;
    }
    const std::vector<float> &query = data_.queries.front();
    std::vector<std::vector<float>> slices;
    for (std::size_t i = 0; i < handles.size(); ++i) {
        std::vector<float> slice(static_cast<std::size_t>(spec.cols));
        for (std::size_t c = 0; c < slice.size(); ++c)
            slice[c] = query[(i * slice.size() + c) % query.size()];
        slices.push_back(std::move(slice));
    }
    std::vector<double> replay, search, runquery;
    queryReps_.run([&] {
        std::vector<rt::RtValue> args = rt::toRtValues(data_.args(q));
        std::vector<rt::RtValue> outputs;
        device->beginQueryWindow();
        replay.push_back(tracer_.time("runtime.replay", [&] {
            outputs = plan->run(frame, device.get(), args, ExecPhase::QueryOnly);
        }));
        check(top1Of(outputs) == data_.answer(q));
        out.searchesPerQuery = static_cast<double>(device->report().searches);

        device->beginQueryWindow();
        double round_us = tracer_.time("sim.search-round", [&] {
            for (std::size_t i = 0; i < handles.size(); ++i)
                device->search(handles[i], slices[i], arch::SearchKind::Best,
                               data_.euclidean, 0, window[i], 0.0,
                               spec.selectiveSearch);
        });
        search.push_back(round_us / static_cast<double>(handles.size()));

        core::ExecutionResult r;
        runquery.push_back(tracer_.time(
            "core.query", [&] { r = session->runQuery(data_.args(q)); }));
        check(top1Of(r.outputs) == data_.answer(q));
        ++q;
    });
    out.replayUs = medianOf(replay);
    out.searchUs = medianOf(search);
    out.searchNsPerCell =
        out.searchUs * 1000.0 / (cells / static_cast<double>(handles.size()));
    out.queryUs = medianOf(runquery);
    return out;
}

/** Mean of one LayerSample field over the specs. */
template <typename Field>
double
meanOver(const std::vector<LayerSample> &samples, Field field)
{
    double sum = 0.0;
    for (const LayerSample &s : samples)
        sum += field(s);
    return sum / static_cast<double>(samples.size());
}

/** Serving-tier figures from one traced open-loop burst pass. */
struct ServingProbe
{
    double queueWaitP50Us = 0.0, queueWaitP99Us = 0.0;
    double executeP50Us = 0.0, executeP99Us = 0.0;
    double fusedShare = 0.0, fuseWidth = 0.0;
    double fallbackRetries = 0.0, rejected = 0.0, dropped = 0.0;
    double lateP99Ms = 0.0;
    double burstQps = 0.0;
};

/**
 * Serve @p bursts bursts through an async engine over a replica pool
 * and read the serving tier's figures. With @p collector set, the
 * engine records its own spans there and the queue-wait / execute
 * percentiles come from its "enqueue-wait" and "execute" spans.
 */
ServingProbe
probeServing(const Dataset &data, core::CompiledKernel &kernel,
             const std::vector<sim::PerfReport> &serial, int bursts,
             std::uint64_t seed, support::TraceCollector *collector,
             Result &result)
{
    core::AsyncServingOptions options = burstyServingOptions();
    options.trace = collector;
    std::size_t first_event = collector ? collector->size() : 0;
    auto engine = kernel.createAsyncServingEngine(
        data.args(0), servingReplicas(), options);
    std::vector<Arrival> schedule =
        burstSchedule(seed, bursts, data.queries.size());
    OpenLoopRun run = serveOpenLoop(*engine, data, schedule, serial);
    result.attempted += static_cast<std::int64_t>(run.ok.size());
    result.failed += run.failed();
    core::AsyncServingStats stats = engine->stats();
    engine.reset();

    ServingProbe probe;
    probe.lateP99Ms = percentileOf(run.lateMs(), 99.0);
    std::vector<double> rates;
    for (const Burst &burst : splitBursts(schedule, run))
        if (burst.busySeconds > 0.0)
            rates.push_back(double(burst.latencyMs.size()) / burst.busySeconds);
    probe.burstQps = medianOf(rates);
    probe.fusedShare =
        stats.completed ? double(stats.fusedQueries) / stats.completed : 0.0;
    probe.fuseWidth = stats.fusedWindows
                          ? double(stats.fusedQueries) / stats.fusedWindows
                          : 0.0;
    probe.fallbackRetries = static_cast<double>(stats.fallbackRetries);
    probe.rejected = static_cast<double>(stats.rejected);
    probe.dropped = static_cast<double>(stats.dropped);
    if (collector) {
        std::vector<support::TraceEvent> events = collector->snapshot();
        std::vector<double> wait, exec;
        for (std::size_t i = first_event; i < events.size(); ++i) {
            std::string name = events[i].name;
            if (name == "enqueue-wait")
                wait.push_back(events[i].durUs);
            else if (name == "execute")
                exec.push_back(events[i].durUs);
        }
        probe.queueWaitP50Us = percentileOf(wait, 50.0);
        probe.queueWaitP99Us = percentileOf(wait, 99.0);
        probe.executeP50Us = percentileOf(exec, 50.0);
        probe.executeP99Us = percentileOf(exec, 99.0);
    }
    return probe;
}

} // namespace

Result
runLayers(const std::string &workload, const Dataset &data,
          const std::vector<arch::ArchSpec> &specs, const Options &options)
{
    Result result;
    support::TraceCollector collector(1u << 18);
    BenchTracer tracer(collector);
    const bool dse = specs.size() > 1;

    // Layer by layer, on every spec of the workload.
    tracer.beginSection();
    // Half the run goes to the layers, split evenly over the specs.
    const double per_spec_s = 0.5 * options.seconds / specs.size();
    LayerProbe probe(tracer, data, result,
                     Reps{dse ? 2 : 7, 200, 0.4 * per_spec_s},
                     Reps{dse ? 10 : 50, 20000, 0.6 * per_spec_s});
    std::vector<LayerSample> samples;
    for (const arch::ArchSpec &spec : specs)
        samples.push_back(probe.measure(spec));
    tracer.endSection("bench.layers");

    // A session and its serial reports for the serving probe and the
    // trace-overhead comparison.
    core::CompilerOptions copts;
    copts.spec = specs.front();
    core::Compiler compiler(copts);
    core::CompiledKernel kernel = compiler.compileTorchScript(data.source);
    core::ExecutionSession session = kernel.createSession(data.args(0));
    std::vector<sim::PerfReport> serial;
    for (std::size_t q = 0; q < data.queries.size(); ++q)
        serial.push_back(session.runQuery(data.args(q)).perf);

    // The serving tier: one traced phase-1 schedule (10 bursts) on
    // bursty-open, 3 bursts elsewhere.
    const int bursts = workload == "bursty-open" ? 10 : 3;
    tracer.beginSection();
    ServingProbe serving = probeServing(data, kernel, serial, bursts,
                                        options.seed, &collector, result);
    tracer.endSection("bench.serving-probe");

    // Trace overhead: the workload's own unit of work untraced, then
    // with the engine/session/plan-cache spans switched on.
    double untraced_qps = 0.0, traced_qps = 0.0;
    const double window_s = 0.1 * options.seconds;
    if (workload == "bursty-open") {
        untraced_qps = probeServing(data, kernel, serial, bursts,
                                    options.seed + 1, nullptr, result)
                           .burstQps;
        traced_qps = probeServing(data, kernel, serial, bursts,
                                  options.seed + 1, &collector, result)
                         .burstQps;
    } else {
        auto closed_loop = [&](bool traced) {
            session.enableTracing(traced ? &collector : nullptr);
            core::PlanCache::instance().setTraceCollector(
                traced ? &collector : nullptr);
            std::size_t n = 0;
            Clock::time_point start = Clock::now();
            while (secondsSince(start) < window_s) {
                if (dse) {
                    // One candidate evaluation, as in the sweep.
                    const arch::ArchSpec &spec = specs[n % specs.size()];
                    if (n % specs.size() == 0)
                        core::PlanCache::instance().clear();
                    core::CompilerOptions o;
                    o.spec = spec;
                    core::CompiledKernel k =
                        core::Compiler(o).compileTorchScript(data.source);
                    core::ExecutionResult r = k.run(data.args(n));
                    ++result.attempted;
                    result.failed += top1Of(r.outputs) != data.answer(n);
                } else {
                    core::ExecutionResult r = session.runQuery(data.args(n));
                    ++result.attempted;
                    result.failed += top1Of(r.outputs) != data.answer(n);
                }
                ++n;
            }
            double qps = double(n) / secondsSince(start);
            session.enableTracing(nullptr);
            core::PlanCache::instance().setTraceCollector(nullptr);
            return qps;
        };
        untraced_qps = closed_loop(false);
        traced_qps = closed_loop(true);
    }
    double overhead = traced_qps > 0.0 ? untraced_qps / traced_qps : 0.0;

    // Report: per-spec medians, averaged over the specs (one spec on the
    // serving workloads, the 20 DSE candidates on dse-sweep).
    auto mean = [&](auto field) { return meanOver(samples, field); };
    double search_us = mean([](const LayerSample &s) { return s.searchUs; });
    double searches =
        mean([](const LayerSample &s) { return s.searchesPerQuery; });
    double replay_us = mean([](const LayerSample &s) { return s.replayUs; });
    double query_us = mean([](const LayerSample &s) { return s.queryUs; });
    double self_us = mean([](const LayerSample &s) {
        return s.replayUs - s.searchesPerQuery * s.searchUs;
    });

    result.add("frontend.parse_us",
               mean([](const LayerSample &s) { return s.parseUs; }), "us");
    for (int p = 0; p < kNumPasses; ++p)
        result.add(std::string(kPassSpans[p]) + "_us",
                   mean([p](const LayerSample &s) { return s.passUs[p]; }),
                   "us");
    result.add("passes.ir_ops",
               mean([](const LayerSample &s) { return s.irOps; }), "count");
    result.add("runtime.plan_compile_us",
               mean([](const LayerSample &s) { return s.planCompileUs; }),
               "us");
    result.add("runtime.plan_opt_us",
               mean([](const LayerSample &s) { return s.planOptUs; }), "us");
    result.add("runtime.query_instrs",
               mean([](const LayerSample &s) { return s.queryInstrs; }),
               "count");
    result.add("runtime.replay_us", replay_us, "us");
    result.add("runtime.self_us", self_us, "us");
    result.add("sim.search_us", search_us, "us");
    result.add("sim.search_ns_per_cell",
               mean([](const LayerSample &s) { return s.searchNsPerCell; }),
               "ns");
    result.add("sim.searches_per_query", searches, "count");
    result.add("sim.alloc_us",
               mean([](const LayerSample &s) { return s.allocUs; }), "us");
    result.add("sim.write_us",
               mean([](const LayerSample &s) { return s.writeUs; }), "us");
    result.add("sim.clone_us",
               mean([](const LayerSample &s) { return s.cloneUs; }), "us");
    double compile_us = mean([](const LayerSample &s) { return s.compileUs; });
    double run_us =
        mean([](const LayerSample &s) { return s.candidateRunUs; });
    result.add("core.compile_us", compile_us, "us");
    result.add("core.create_session_us",
               mean([](const LayerSample &s) { return s.createSessionUs; }),
               "us");
    result.add("core.candidate_run_us", run_us, "us");
    result.add("core.plan_cache_hit_ratio",
               mean([](const LayerSample &s) { return s.hitRatio; }), "ratio");
    result.add("core.query_us", query_us, "us");
    result.add("core.session_self_us", query_us - replay_us, "us");
    result.add("core.queue_wait_p50_us", serving.queueWaitP50Us, "us");
    result.add("core.queue_wait_p99_us", serving.queueWaitP99Us, "us");
    result.add("core.execute_p50_us", serving.executeP50Us, "us");
    result.add("core.execute_p99_us", serving.executeP99Us, "us");
    result.add("core.fused_share", serving.fusedShare, "ratio");
    result.add("core.fuse_width", serving.fuseWidth, "count");
    result.add("core.fallback_retries", serving.fallbackRetries, "count");
    result.add("core.rejected", serving.rejected, "count");
    result.add("core.dropped", serving.dropped, "count");
    result.add("bench.late_p99_ms", serving.lateP99Ms, "ms");
    result.add("bench.trace_overhead", overhead, "ratio");

    for (const Metric &m : result.metrics)
        std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    // Shares that confirm what each workload is for, per spec, then
    // averaged over the specs.
    std::printf(
        "  share: search %.1f%% of runQuery, runtime self %.1f%%, session "
        "self %.1f%%\n",
        100.0 * mean([](const LayerSample &s) {
            return s.searchesPerQuery * s.searchUs / s.queryUs;
        }),
        100.0 * mean([](const LayerSample &s) {
            return (s.replayUs - s.searchesPerQuery * s.searchUs) / s.queryUs;
        }),
        100.0 * mean([](const LayerSample &s) {
            return (s.queryUs - s.replayUs) / s.queryUs;
        }));
    auto of_candidate = [&](auto part) {
        return 100.0 * mean([part](const LayerSample &s) {
            return part(s) / (s.compileUs + s.candidateRunUs);
        });
    };
    std::printf(
        "  share: of compile + single-shot run: compile %.1f%%, subarray "
        "alloc %.1f%%, CAM writes %.1f%%, compile + alloc + writes %.1f%%\n",
        of_candidate([](const LayerSample &s) { return s.compileUs; }),
        of_candidate([](const LayerSample &s) {
            return s.allocUs * s.subarrays;
        }),
        of_candidate([](const LayerSample &s) {
            return s.programUs - s.allocUs * s.subarrays;
        }),
        of_candidate(
            [](const LayerSample &s) { return s.compileUs + s.programUs; }));
    std::printf("  trace: %zu spans (%lld dropped), untraced %.1f/s vs "
                "traced %.1f/s\n",
                collector.size(), static_cast<long long>(collector.dropped()),
                untraced_qps, traced_qps);

    JsonValue doc = collector.toJson();
    JsonValue stamp = JsonValue::makeObject();
    stamp.set("workload", JsonValue(workload));
    stamp.set("source", JsonValue(options.sourceId));
    stamp.set("build_type", JsonValue(std::string(PERFBENCH_BUILD_TYPE)));
    stamp.set("compiler", JsonValue(std::string(__VERSION__)));
    stamp.set("seed", JsonValue(static_cast<double>(options.seed)));
    doc.set("perfbench", std::move(stamp));
    std::FILE *f = std::fopen(options.traceOut.c_str(), "w");
    bool written = f && std::fputs(doc.dump().c_str(), f) >= 0;
    if (f)
        written = std::fclose(f) == 0 && written;
    if (!written) {
        std::printf("  FAIL: cannot write the trace document %s\n",
                    options.traceOut.c_str());
        result.correct = false;
    }
    return result;
}

} // namespace c4cam::perfbench
