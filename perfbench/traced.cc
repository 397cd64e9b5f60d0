#include "traced.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "apps/barnes/barnes_hut.hh"
#include "apps/cg/grid_cg.hh"
#include "apps/cg/unstructured_cg.hh"
#include "apps/fft/fft2d.hh"
#include "apps/fft/fft3d.hh"
#include "apps/fft/parallel_fft.hh"
#include "apps/lu/blocked_cholesky.hh"
#include "apps/lu/blocked_lu.hh"
#include "apps/volrend/renderer.hh"
#include "apps/volrend/volume.hh"
#include "core/watchdog.hh"
#include "replay/scheduled_sink.hh"
#include "trace/address_space.hh"
#include "trace/sinks.hh"

namespace wsg::perfbench
{

void
LayerClock::merge(const LayerClock &other)
{
    for (std::size_t i = 0; i < kSpanCount; ++i)
        seconds[i] += other.seconds[i];
    refs += other.refs;
    syncs += other.syncs;
    batches += other.batches;
    simRefs += other.simRefs;
    raceRefs += other.raceRefs;
    migrations += other.migrations;
    intervals += other.intervals;
    readCoherence += other.readCoherence;
    invalidationsSent += other.invalidationsSent;
    upgradesSent += other.upgradesSent;
    maxFootprintBytes =
        std::max(maxFootprintBytes, other.maxFootprintBytes);
    profilerBytes = std::max(profilerBytes, other.profilerBytes);
    l1Misses += other.l1Misses;
    l2Misses += other.l2Misses;
    curvePoints += other.curvePoints;
    knees += other.knees;
    reportBytes += other.reportBytes;
}

void
LayerClock::countStudy(const core::StudyResult &result)
{
    migrations += result.schedulerMigrations;
    intervals += result.schedulerIntervals;
    readCoherence += result.aggregate.readCoherence;
    invalidationsSent += result.aggregate.invalidationsSent;
    upgradesSent += result.aggregate.upgradesSent;
    maxFootprintBytes =
        std::max(maxFootprintBytes, result.maxFootprintBytes);
    profilerBytes =
        std::max(profilerBytes, result.sampling.profilerBytes);
    l1Misses += result.nodeHierarchy.l1Misses;
    l2Misses += result.nodeHierarchy.l2Misses;
    curvePoints += result.curve.size();
    knees += result.workingSets.size();
}

void
LayerClock::countReport(double span, std::size_t bytes)
{
    seconds[ReportSpan] += span;
    seconds[StudySpan] += span;
    reportBytes += bytes;
}

double
LayerClock::appsSelf() const
{
    return seconds[AppsSpan] - seconds[ChainSpan];
}

double
LayerClock::chainSelf() const
{
    // Batch dispatch and the watchdog, the tee's fan-out, and building
    // and tearing down the chain itself.
    double tee = seconds[TeeSpan] > 0.0
                     ? seconds[TeeSpan] - seconds[SimSpan] -
                           seconds[RaceSpan]
                     : 0.0;
    return seconds[ChainSpan] - seconds[ReplaySpan] + tee +
           seconds[ChainBuildSpan];
}

double
LayerClock::replaySelf() const
{
    double below =
        seconds[TeeSpan] > 0.0 ? seconds[TeeSpan] : seconds[SimSpan];
    return seconds[ReplaySpan] - below;
}

double
LayerClock::raceSelf() const
{
    return seconds[RaceSpan];
}

double
LayerClock::simAccess() const
{
    return seconds[SimSpan];
}

double
LayerClock::simBuild() const
{
    return seconds[SimBuildSpan];
}

double
LayerClock::curveSelf() const
{
    return seconds[AnalyzeSpan] - seconds[KneeSpan];
}

double
LayerClock::kneeSelf() const
{
    return seconds[KneeSpan];
}

double
LayerClock::reportSelf() const
{
    return seconds[ReportSpan];
}

namespace
{

/** Adds the duration of @p span's scope to @p clock. */
class ScopedSpan
{
  public:
    ScopedSpan(LayerClock &clock, Span span)
        : clock_(clock), span_(span), start_(nowSeconds())
    {}
    ~ScopedSpan() { clock_.seconds[span_] += nowSeconds() - start_; }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    LayerClock &clock_;
    Span span_;
    double start_;
};

/**
 * Pass-through sink that times every call into @p inner and counts
 * what crosses the boundary. Two clock reads per call; below the
 * batcher a call carries a whole block of references.
 */
class TimedSink : public trace::MemorySink
{
  public:
    TimedSink(trace::MemorySink &inner, LayerClock &clock, Span span,
              std::uint64_t *refs = nullptr)
        : inner_(inner), clock_(clock), span_(span), refs_(refs)
    {}

    void
    access(const trace::MemRef &ref) override
    {
        double t0 = nowSeconds();
        inner_.access(ref);
        clock_.seconds[span_] += nowSeconds() - t0;
        count(1);
    }

    void
    accessBatch(const trace::MemRef *refs, std::size_t n) override
    {
        double t0 = nowSeconds();
        inner_.accessBatch(refs, n);
        clock_.seconds[span_] += nowSeconds() - t0;
        count(n);
    }

    void
    sync(const trace::SyncEvent &event) override
    {
        double t0 = nowSeconds();
        inner_.sync(event);
        clock_.seconds[span_] += nowSeconds() - t0;
        if (span_ == ChainSpan)
            ++clock_.syncs;
    }

  private:
    void
    count(std::size_t n)
    {
        if (refs_ != nullptr)
            *refs_ += n;
        if (span_ == ChainSpan)
            ++clock_.batches;
    }

    trace::MemorySink &inner_;
    LayerClock &clock_;
    Span span_;
    std::uint64_t *refs_;
};

/**
 * The study runner's sink chain with a TimedSink at every boundary.
 * Same members, same order and the same flush points as the runner's
 * own chain, so the simulator sees the identical stream.
 */
class TracedChain
{
  public:
    TracedChain(sim::Multiprocessor &mp,
                const trace::SharedAddressSpace &space,
                const core::StudyConfig &study, LayerClock &clock)
        : watchdog_(study.timeoutSeconds), mp_(mp),
          simTimer_(mp, clock, SimSpan, &clock.simRefs)
    {
        trace::MemorySink *below = &simTimer_;
        if (study.analyzeRaces) {
            analysis::RaceConfig config;
            config.numProcs = mp.config().numProcs;
            detector_ = std::make_unique<analysis::RaceDetector>(config);
            detector_->attachAddressSpace(&space);
            raceTimer_ = std::make_unique<TimedSink>(
                *detector_, clock, RaceSpan, &clock.raceRefs);
            tee_ = std::make_unique<trace::TeeSink>(simTimer_,
                                                    *raceTimer_);
            teeTimer_ = std::make_unique<TimedSink>(*tee_, clock, TeeSpan);
            below = teeTimer_.get();
        }
        scheduler_ = std::make_unique<replay::ScheduledReplaySink>(
            *below, study.scheduler, mp.config().numProcs);
        replayTimer_ =
            std::make_unique<TimedSink>(*scheduler_, clock, ReplaySpan);
        trace::MemorySink *top = replayTimer_.get();
        if (watchdog_.enabled()) {
            guard_ = std::make_unique<core::WatchdogSink>(*top, watchdog_);
            top = guard_.get();
        }
        chainTimer_ =
            std::make_unique<TimedSink>(*top, clock, ChainSpan, &clock.refs);
        batcher_ = std::make_unique<trace::BatchingSink>(*chainTimer_);
    }

    trace::MemorySink *sink() const { return batcher_.get(); }

    void
    setMeasuring(bool measuring)
    {
        batcher_->flush();
        mp_.setMeasuring(measuring);
    }

    void
    checkDeadline()
    {
        batcher_->flush();
        watchdog_.check();
    }

    core::StudyResult
    finish(core::StudyResult result)
    {
        batcher_->flush();
        watchdog_.check();
        if (detector_ != nullptr)
            result.races = detector_->result();
        result.scheduler = scheduler_->spec();
        result.schedulerIntervals = scheduler_->intervals();
        result.schedulerMigrations = scheduler_->migrations();
        return result;
    }

  private:
    core::StudyWatchdog watchdog_;
    sim::Multiprocessor &mp_;
    TimedSink simTimer_;
    std::unique_ptr<analysis::RaceDetector> detector_;
    std::unique_ptr<TimedSink> raceTimer_;
    std::unique_ptr<trace::TeeSink> tee_;
    std::unique_ptr<TimedSink> teeTimer_;
    std::unique_ptr<replay::ScheduledReplaySink> scheduler_;
    std::unique_ptr<TimedSink> replayTimer_;
    std::unique_ptr<core::WatchdogSink> guard_;
    std::unique_ptr<TimedSink> chainTimer_;
    std::unique_ptr<trace::BatchingSink> batcher_;
};

/** The key=value lines of a wsg-study-config-v1 serialization. */
class CanonicalConfig
{
  public:
    explicit CanonicalConfig(const std::string &text)
    {
        std::istringstream in(text);
        std::string line;
        while (std::getline(in, line)) {
            std::string::size_type eq = line.find('=');
            if (eq != std::string::npos)
                kv_[line.substr(0, eq)] = line.substr(eq + 1);
        }
    }

    const std::string &
    str(const std::string &key) const
    {
        auto it = kv_.find(key);
        if (it == kv_.end())
            throw std::invalid_argument("canonical config lacks '" +
                                        key + "'");
        return it->second;
    }

    std::uint32_t
    u32(const std::string &key) const
    {
        return static_cast<std::uint32_t>(std::stoul(str(key)));
    }

    std::uint64_t u64(const std::string &key) const
    {
        return std::stoull(str(key));
    }

    double num(const std::string &key) const { return std::stod(str(key)); }

    bool flag(const std::string &key) const { return u32(key) != 0; }

  private:
    std::map<std::string, std::string> kv_;
};

/** What an application run leaves for the analysis step. */
struct Emitted
{
    core::Metric metric = core::Metric::MissesPerFlop;
    std::uint64_t flops = 0;
    std::string curveName;
};

/** Processor count of the app a canonical config describes. */
std::uint32_t
numProcsOf(const CanonicalConfig &c)
{
    const std::string &app = c.str("app");
    if (app == "lu" || app == "cholesky")
        return c.u32("proc_rows") * c.u32("proc_cols");
    if (app == "cg")
        return c.u32("proc_x") * c.u32("proc_y") *
               (c.u32("dims") == 3 ? c.u32("proc_z") : 1);
    return c.u32("num_procs");
}

// The emitters below replay the study bodies of core/runners.cc
// phase for phase (set-up, warm-up, measured run) against the traced
// chain. The benchmark's fidelity check compares the resulting report
// bytes with the library's own job, so any drift here fails the run.

Emitted
emitLu(const CanonicalConfig &c, trace::SharedAddressSpace &space,
       TracedChain &chain, bool cholesky)
{
    apps::lu::LuConfig cfg;
    cfg.n = c.u32("n");
    cfg.blockSize = c.u32("block_size");
    cfg.procRows = c.u32("proc_rows");
    cfg.procCols = c.u32("proc_cols");
    Emitted out;
    out.curveName = std::string(cholesky ? "Cholesky" : "LU") +
                    " n=" + std::to_string(cfg.n) +
                    " B=" + std::to_string(cfg.blockSize);
    if (cholesky) {
        apps::lu::BlockedCholesky app(cfg, space, chain.sink());
        app.randomizeSpd(1234);
        app.factor();
        chain.checkDeadline();
        out.flops = app.flops().totalFlops();
    } else {
        apps::lu::BlockedLu app(cfg, space, chain.sink());
        app.randomize(1234);
        app.factor();
        chain.checkDeadline();
        out.flops = app.flops().totalFlops();
    }
    return out;
}

/** Runs @p warmup unmeasured, then @p measured; returns the FLOPs
 *  of the measured phase. */
template <typename App, typename Warmup, typename Measured>
std::uint64_t
measuredFlops(App &app, TracedChain &chain, Warmup warmup,
              Measured measured)
{
    chain.setMeasuring(false);
    warmup(app);
    std::uint64_t warm_flops = app.flops().totalFlops();
    chain.setMeasuring(true);
    measured(app);
    chain.checkDeadline();
    return app.flops().totalFlops() - warm_flops;
}

/** Calls @p app.forward() @p times times. */
template <typename App>
void
transforms(App &app, std::uint32_t times)
{
    for (std::uint32_t t = 0; t < times; ++t)
        app.forward();
}

Emitted
emitCg(const CanonicalConfig &c, trace::SharedAddressSpace &space,
       TracedChain &chain)
{
    apps::cg::CgConfig cfg;
    cfg.n = c.u32("n");
    cfg.dims = static_cast<int>(c.u32("dims"));
    cfg.procX = c.u32("proc_x");
    cfg.procY = c.u32("proc_y");
    cfg.procZ = c.u32("proc_z");
    cfg.stripWidth = c.u32("strip_width");
    apps::cg::GridCg app(cfg, space, chain.sink());
    app.buildSystem();
    Emitted out;
    out.flops = measuredFlops(
        app, chain,
        [&c](auto &a) { a.run(c.u32("warmup_iters"), 0.0); },
        [&c](auto &a) { a.run(c.u32("iters"), 0.0); });
    out.curveName = "CG " + std::to_string(cfg.dims) +
                    "-D n=" + std::to_string(cfg.n);
    return out;
}

Emitted
emitUcg(const CanonicalConfig &c, trace::SharedAddressSpace &space,
        TracedChain &chain)
{
    apps::cg::UnstructuredConfig cfg;
    cfg.numVertices = c.u32("num_vertices");
    cfg.neighbors = c.u32("neighbors");
    cfg.numProcs = c.u32("num_procs");
    cfg.partition =
        static_cast<apps::cg::PartitionKind>(c.u32("partition"));
    cfg.seed = c.u64("seed");
    apps::cg::UnstructuredCg app(cfg, space, chain.sink());
    app.buildSystem();
    Emitted out;
    out.flops = measuredFlops(
        app, chain,
        [&c](auto &a) { a.run(c.u32("warmup_iters"), 0.0); },
        [&c](auto &a) { a.run(c.u32("iters"), 0.0); });
    out.curveName = "UnstructuredCG n=" + std::to_string(cfg.numVertices);
    return out;
}

Emitted
emitFft(const CanonicalConfig &c, trace::SharedAddressSpace &space,
        TracedChain &chain)
{
    apps::fft::FftConfig cfg;
    cfg.logN = c.u32("log_n");
    cfg.numProcs = c.u32("num_procs");
    cfg.internalRadix = c.u32("internal_radix");
    apps::fft::ParallelFft app(cfg, space, chain.sink());
    for (std::uint64_t i = 0; i < cfg.N(); ++i)
        app.setInput(i, {std::sin(0.001 * static_cast<double>(i)),
                         std::cos(0.003 * static_cast<double>(i))});
    Emitted out;
    out.flops = measuredFlops(
        app, chain,
        [&c](auto &a) { transforms(a, c.u32("warmup_transforms")); },
        [&c](auto &a) { transforms(a, c.u32("transforms")); });
    out.curveName = "FFT logN=" + std::to_string(cfg.logN) +
                    " r=" + std::to_string(cfg.internalRadix);
    return out;
}

Emitted
emitFft2d(const CanonicalConfig &c, trace::SharedAddressSpace &space,
          TracedChain &chain)
{
    apps::fft::Fft2dConfig cfg;
    cfg.logRows = c.u32("log_rows");
    cfg.logCols = c.u32("log_cols");
    cfg.numProcs = c.u32("num_procs");
    cfg.internalRadix = c.u32("internal_radix");
    apps::fft::Fft2d app(cfg, space, chain.sink());
    for (std::uint64_t r = 0; r < cfg.rows(); ++r) {
        for (std::uint64_t col = 0; col < cfg.cols(); ++col) {
            double t = 0.001 * static_cast<double>(r * cfg.cols() + col);
            app.setInput(r, col, {std::sin(t), std::cos(3.0 * t)});
        }
    }
    Emitted out;
    out.flops = measuredFlops(
        app, chain,
        [&c](auto &a) { transforms(a, c.u32("warmup_transforms")); },
        [&c](auto &a) { transforms(a, c.u32("transforms")); });
    out.curveName = "FFT2D " + std::to_string(cfg.rows()) + "x" +
                    std::to_string(cfg.cols());
    return out;
}

Emitted
emitFft3d(const CanonicalConfig &c, trace::SharedAddressSpace &space,
          TracedChain &chain)
{
    apps::fft::Fft3dConfig cfg;
    cfg.log0 = c.u32("log0");
    cfg.log1 = c.u32("log1");
    cfg.log2 = c.u32("log2");
    cfg.numProcs = c.u32("num_procs");
    cfg.internalRadix = c.u32("internal_radix");
    apps::fft::Fft3d app(cfg, space, chain.sink());
    std::uint64_t flat = 0;
    for (std::uint64_t i0 = 0; i0 < cfg.n0(); ++i0) {
        for (std::uint64_t i1 = 0; i1 < cfg.n1(); ++i1) {
            for (std::uint64_t i2 = 0; i2 < cfg.n2(); ++i2, ++flat) {
                double t = 0.001 * static_cast<double>(flat);
                app.setInput(i0, i1, i2, {std::sin(t), std::cos(3.0 * t)});
            }
        }
    }
    Emitted out;
    out.flops = measuredFlops(
        app, chain,
        [&c](auto &a) { transforms(a, c.u32("warmup_transforms")); },
        [&c](auto &a) { transforms(a, c.u32("transforms")); });
    out.curveName = "FFT3D " + std::to_string(cfg.n0()) + "x" +
                    std::to_string(cfg.n1()) + "x" +
                    std::to_string(cfg.n2());
    return out;
}

Emitted
emitBarnes(const CanonicalConfig &c, trace::SharedAddressSpace &space,
           TracedChain &chain)
{
    apps::barnes::BarnesConfig cfg;
    cfg.numBodies = c.u32("num_bodies");
    cfg.numProcs = c.u32("num_procs");
    cfg.theta = c.num("theta");
    cfg.dt = c.num("dt");
    cfg.softening = c.num("softening");
    cfg.quadrupole = c.flag("quadrupole");
    cfg.seed = c.u64("seed");
    apps::barnes::BarnesHut app(cfg, space, chain.sink());
    app.initPlummer();
    chain.setMeasuring(false);
    for (std::uint32_t s = 0; s < c.u32("warmup_steps"); ++s)
        app.step();
    chain.setMeasuring(true);
    for (std::uint32_t s = 0; s < c.u32("steps"); ++s)
        app.step();
    chain.checkDeadline();
    Emitted out;
    out.metric = core::Metric::ReadMissRate;
    out.curveName = "Barnes-Hut n=" + std::to_string(cfg.numBodies) +
                    " theta=" + std::to_string(cfg.theta).substr(0, 4);
    return out;
}

Emitted
emitVolrend(const CanonicalConfig &c, trace::SharedAddressSpace &space,
            TracedChain &chain)
{
    apps::volrend::VolumeDims dims{c.u32("nx"), c.u32("ny"), c.u32("nz")};
    apps::volrend::RenderConfig render;
    render.imageWidth = c.u32("image_width");
    render.imageHeight = c.u32("image_height");
    render.numProcs = c.u32("num_procs");
    render.degreesPerFrame = c.num("degrees_per_frame");
    render.sampleStep = c.num("sample_step");
    render.opacityCutoff = c.num("opacity_cutoff");
    render.densityFloor =
        static_cast<std::uint16_t>(c.u32("density_floor"));
    render.stealChunk = c.u32("steal_chunk");
    render.useOctree = c.flag("use_octree");
    render.perspective = c.flag("perspective");
    render.fovDegrees = c.num("fov_degrees");
    apps::volrend::Volume vol(dims, space, chain.sink());
    vol.buildHeadPhantom();
    vol.buildOctree();
    apps::volrend::Renderer renderer(render, vol, space, chain.sink());
    chain.setMeasuring(false);
    for (std::uint32_t f = 0; f < c.u32("warmup_frames"); ++f)
        renderer.renderFrame();
    chain.setMeasuring(true);
    for (std::uint32_t f = 0; f < c.u32("frames"); ++f)
        renderer.renderFrame();
    chain.checkDeadline();
    Emitted out;
    out.metric = core::Metric::ReadMissRate;
    out.curveName = "Volrend " + std::to_string(dims.nx) + "^3";
    return out;
}

Emitted
emitApp(const CanonicalConfig &c, trace::SharedAddressSpace &space,
        TracedChain &chain)
{
    const std::string &app = c.str("app");
    if (app == "lu" || app == "cholesky")
        return emitLu(c, space, chain, app == "cholesky");
    if (app == "cg")
        return emitCg(c, space, chain);
    if (app == "ucg")
        return emitUcg(c, space, chain);
    if (app == "fft")
        return emitFft(c, space, chain);
    if (app == "fft2d")
        return emitFft2d(c, space, chain);
    if (app == "fft3d")
        return emitFft3d(c, space, chain);
    if (app == "barnes")
        return emitBarnes(c, space, chain);
    if (app == "volrend")
        return emitVolrend(c, space, chain);
    throw std::invalid_argument("traced run cannot drive app '" + app +
                                "'");
}

core::StudyResult
runTraced(const CanonicalConfig &c, const core::StudyConfig &study,
          const core::StudyContext &ctx, LayerClock &clock)
{
    std::optional<trace::SharedAddressSpace> space;
    std::optional<sim::Multiprocessor> mp;
    {
        ScopedSpan span(clock, SimBuildSpan);
        sim::SimConfig config;
        config.numProcs = numProcsOf(c);
        config.lineBytes = c.u32("line_bytes");
        config.sampling = study.sampling;
        config.profiler = study.profiler;
        config.protocol = study.protocol;
        config.hierarchy = study.hierarchy;
        space.emplace();
        mp.emplace(config);
        mp->attachAddressSpace(&*space);
    }
    std::optional<TracedChain> chain;
    {
        ScopedSpan span(clock, ChainBuildSpan);
        chain.emplace(*mp, *space, study, clock);
    }
    Emitted emitted;
    {
        ScopedSpan span(clock, AppsSpan);
        emitted = emitApp(c, *space, *chain);
    }
    core::StudyResult result;
    {
        ScopedSpan span(clock, AnalyzeSpan);
        result = core::analyzeWorkingSets(*mp, study, emitted.metric,
                                          emitted.flops,
                                          emitted.curveName, ctx.pool);
    }
    {
        ScopedSpan span(clock, KneeSpan);
        stats::KneeConfig knee = study.knee;
        knee.rateFloor = std::max(knee.rateFloor, result.floorRate);
        std::vector<stats::WorkingSet> again =
            stats::detectWorkingSets(result.curve, knee);
        if (again.size() != result.workingSets.size())
            throw std::logic_error("knee detection is not repeatable");
    }
    {
        ScopedSpan span(clock, ChainBuildSpan);
        result = chain->finish(std::move(result));
        chain.reset();
    }
    {
        ScopedSpan span(clock, SimBuildSpan);
        mp.reset();
        space.reset();
    }
    clock.countStudy(result);
    return result;
}

} // namespace

core::StudyJob
tracedJob(const core::StudyJob &job, const core::StudyConfig &base,
          SharedClock &clock)
{
    CanonicalConfig config(job.canonicalConfig);
    core::StudyConfig study = base;
    study.minCacheBytes = config.u64("min_cache_bytes");
    core::StudyJob traced;
    traced.name = job.name;
    traced.canonicalConfig = job.canonicalConfig;
    traced.body = [config, study,
                   &clock](const core::StudyContext &ctx) {
        LayerClock local;
        double t0 = nowSeconds();
        core::StudyResult result;
        try {
            result = runTraced(config, study, ctx, local);
        } catch (...) {
            local.seconds[StudySpan] += nowSeconds() - t0;
            clock.merge(local);
            throw;
        }
        local.seconds[StudySpan] += nowSeconds() - t0;
        clock.merge(local);
        return result;
    };
    return traced;
}

} // namespace wsg::perfbench
