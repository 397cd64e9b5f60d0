#include "core/runners.hh"

#include <cmath>
#include <concepts>
#include <memory>
#include <string_view>

#include "core/watchdog.hh"
#include "replay/scheduled_sink.hh"
#include "stats/json_report.hh"
#include "trace/address_space.hh"
#include "trace/sinks.hh"

namespace wsg::core
{

namespace
{

sim::SimConfig
simConfigFor(std::uint32_t num_procs, std::uint32_t line_bytes,
             const StudyConfig &study)
{
    sim::SimConfig config;
    config.numProcs = num_procs;
    config.lineBytes = line_bytes;
    config.sampling = study.sampling;
    config.profiler = study.profiler;
    config.protocol = study.protocol;
    config.hierarchy = study.hierarchy;
    return config;
}

/**
 * The per-study sink chain: the Multiprocessor innermost, optionally
 * teed into a RaceDetector (StudyConfig::analyzeRaces — the detector
 * sees the exact reference and sync-event stream the caches see,
 * warm-up included, since a warm-up race is still a bug), fronted by a
 * ScheduledReplaySink applying StudyConfig::scheduler (upstream of the
 * tee, so the race check observes the *scheduled* stream — the one the
 * caches see), optionally wrapped in a WatchdogSink
 * (StudyConfig::timeoutSeconds) so a runaway study fails with
 * StudyTimeoutError instead of hanging its worker,
 * and always fronted by a BatchingSink so the whole chain below it is
 * traversed once per block of references instead of once per
 * reference. Batching is invisible to the results: the buffer is
 * drained before every point where simulator state is read or its mode
 * toggled — sync events (inside BatchingSink), measurement switches
 * (setMeasuring), phase boundaries (checkDeadline) and study
 * completion (finish).
 */
class SinkChain
{
  public:
    SinkChain(sim::Multiprocessor &mp,
              const trace::SharedAddressSpace &space,
              const StudyConfig &study)
        : watchdog_(study.timeoutSeconds), mp_(mp), sink_(&mp)
    {
        if (study.analyzeRaces) {
            analysis::RaceConfig config;
            config.numProcs = mp.config().numProcs;
            detector_ =
                std::make_unique<analysis::RaceDetector>(config);
            detector_->attachAddressSpace(&space);
            tee_ = std::make_unique<trace::TeeSink>(mp, *detector_);
            sink_ = tee_.get();
        }
        // Always present: the static default takes the identity fast
        // path, so an unscheduled study's bytes and speed are
        // unchanged while the scheduler axis is exercised everywhere.
        scheduler_ = std::make_unique<replay::ScheduledReplaySink>(
            *sink_, study.scheduler, mp.config().numProcs);
        sink_ = scheduler_.get();
        if (watchdog_.enabled()) {
            guard_ =
                std::make_unique<WatchdogSink>(*sink_, watchdog_);
            sink_ = guard_.get();
        }
        batcher_ = std::make_unique<trace::BatchingSink>(*sink_);
        sink_ = batcher_.get();
    }

    /** Sink to hand the application. */
    trace::MemorySink *sink() const { return sink_; }

    /** Warm-up switch: drains the buffer first so every buffered
     *  reference is counted under the mode it was issued in. */
    void
    setMeasuring(bool measuring)
    {
        batcher_->flush();
        mp_.setMeasuring(measuring);
    }

    /** Explicit deadline check between study phases; drains the buffer
     *  so the downstream simulator state is complete. */
    void
    checkDeadline()
    {
        batcher_->flush();
        watchdog_.check();
    }

    /** Final deadline check + stamp the race outcome into the result. */
    StudyResult
    finish(StudyResult result)
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
    StudyWatchdog watchdog_;
    sim::Multiprocessor &mp_;
    std::unique_ptr<analysis::RaceDetector> detector_;
    std::unique_ptr<trace::TeeSink> tee_;
    std::unique_ptr<replay::ScheduledReplaySink> scheduler_;
    std::unique_ptr<WatchdogSink> guard_;
    std::unique_ptr<trace::BatchingSink> batcher_;
    trace::MemorySink *sink_;
};

// ---------------------------------------------------------------------
// Canonical config serialization (wsg-study-config-v1).
//
// One key=value per line, fixed key order, app parameters first, then
// the shared study parameters. Every field that can change the study's
// report bytes is present; StudyConfig::timeoutSeconds is deliberately
// absent (it bounds wall-clock, never the result), so a request with a
// different watchdog budget still hits the same cache entry. Doubles
// are rendered with the JSON writer's shortest round-trip form so
// equal values always canonicalize to equal bytes.
// ---------------------------------------------------------------------

/** Capacity reserved for a canonical config: above the longest one
 *  (about 600 bytes, volrend with every study axis off its default),
 *  so it is built in a single allocation. */
constexpr std::size_t kCanonicalReserve = 768;

/** Append one canonical "key=value\n" line. */
void
appendLine(std::string &out, std::string_view key, std::string_view value)
{
    out += key;
    out += '=';
    out += value;
    out += '\n';
}

/** Integers and flags render in decimal (a flag as 1 or 0). */
template <std::integral T>
void
appendLine(std::string &out, std::string_view key, T value)
{
    appendLine(out, key, std::to_string(value));
}

/** Doubles render in the JSON writer's shortest round-trip form. */
void
appendLine(std::string &out, std::string_view key, double value)
{
    appendLine(out, key, stats::JsonWriter::formatDouble(value));
}

void
appendStudyConfig(std::string &out, const StudyConfig &study,
                  std::uint32_t line_bytes)
{
    appendLine(out, "line_bytes", line_bytes);
    appendLine(out, "min_cache_bytes", study.minCacheBytes);
    appendLine(out, "max_cache_bytes", study.maxCacheBytes);
    appendLine(out, "points_per_octave", study.pointsPerOctave);
    appendLine(out, "include_cold", study.includeCold);
    appendLine(out, "knee_min_step_drop", study.knee.minStepDrop);
    appendLine(out, "knee_min_knee_factor", study.knee.minKneeFactor);
    appendLine(out, "knee_rate_floor", study.knee.rateFloor);
    appendLine(out, "analyze_races", study.analyzeRaces);
    appendLine(out, "profiler", memsys::profilerKindName(study.profiler));
    appendLine(out, "sampling_mode",
               approx::samplingModeName(study.sampling.mode));
    if (study.sampling.mode == approx::SamplingMode::FixedRate)
        appendLine(out, "sampling_rate", study.sampling.rate);
    if (study.sampling.mode == approx::SamplingMode::FixedSize)
        appendLine(out, "sampling_max_lines", study.sampling.maxLines);
    if (study.sampling.enabled())
        appendLine(out, "sampling_hash_salt", study.sampling.hashSalt);
    // The machine axes are appended only when off their defaults so
    // every pre-existing study config — and therefore every content
    // hash, cache entry and campaign resume key — keeps its bytes.
    if (study.protocol != sim::CoherenceProtocol::WriteInvalidate)
        appendLine(out, "protocol",
                   sim::coherenceProtocolName(study.protocol));
    if (study.hierarchy.twoLevel())
        appendLine(out, "hierarchy", memsys::hierarchyLabel(study.hierarchy));
    if (study.scheduler.kind != replay::SchedulerKind::Static) {
        appendLine(out, "scheduler",
                   replay::schedulerKindName(study.scheduler.kind));
        if (study.scheduler.kind == replay::SchedulerKind::WorkStealing) {
            appendLine(out, "steal_rate", study.scheduler.stealRate);
            appendLine(out, "steal_seed", study.scheduler.stealSeed);
        }
    }
}

/** Fields most traits share: the app type and its config, the step
 *  counts, and the misses-per-flop metric. */
template <typename AppT, typename ConfigT>
struct AppTrait
{
    using App = AppT;
    static constexpr Metric kMetric = Metric::MissesPerFlop;
    /** Canonical key of the step count ("iters", "transforms", ...);
     *  null for the one-shot factorizations, which have none. */
    static constexpr const char *kStepKey = nullptr;
    ConfigT config;
    std::uint32_t steps = 1;
    std::uint32_t warmup = 0;

    static void init(App &) {}
};

/** Run @p n steps of @p app: one Trait::run(app, n) call where the
 *  step count is a loop bound inside the app (CG), else n calls of
 *  Trait::step(app). */
template <typename Trait>
void
runSteps(typename Trait::App &app, std::uint32_t n)
{
    if constexpr (requires { Trait::run(app, n); }) {
        Trait::run(app, n);
    } else {
        for (std::uint32_t i = 0; i < n; ++i)
            Trait::step(app);
    }
}

/**
 * The one study shape (Section 2.2): build the app against a fresh
 * address space and sink chain, initialise it, run `warmup` steps
 * unmeasured so cold-start misses stay out of the curve, run `steps`
 * measured ones, and analyze the working sets. @p Trait (an AppTrait)
 * supplies what differs between applications:
 *
 *  - kKind, name(), appendConfig() and kStepKey: the canonical `app=`
 *    value, the job and report name, and the app's canonical-config
 *    lines, which end with the step counts under kStepKey;
 *  - numProcs(): the simulated processor count;
 *  - App, constructed as App(config, space, sink), then init(App &);
 *  - step(App &), or run(App &, n) for n steps in one call;
 *  - kMetric: misses per flop divide by the flops of the measured
 *    steps; a read miss rate carries no flop count.
 *
 * The body captures the trait by value so the StudyJob can outlive the
 * caller's locals (benches build job vectors up front).
 */
template <typename Trait>
StudyJob
makeStudyJob(const Trait &trait, const StudyConfig &study,
             std::uint32_t line_bytes)
{
    StudyJob job;
    job.name = trait.name();
    std::string &config = job.canonicalConfig;
    config.reserve(kCanonicalReserve);
    config += "wsg-study-config-v1\n";
    appendLine(config, "app", Trait::kKind);
    trait.appendConfig(config);
    if constexpr (Trait::kStepKey != nullptr) {
        appendLine(config, Trait::kStepKey, trait.steps);
        config += "warmup_"; // then warmup_<key>=<warmup>
        appendLine(config, Trait::kStepKey, trait.warmup);
    }
    appendStudyConfig(config, study, line_bytes);
    job.body = [trait, study, line_bytes](const StudyContext &ctx) {
        trace::SharedAddressSpace space;
        sim::Multiprocessor mp(
            simConfigFor(trait.numProcs(), line_bytes, study));
        mp.attachAddressSpace(&space);
        SinkChain chain(mp, space, study);
        typename Trait::App app(trait.config, space, chain.sink());
        Trait::init(app);

        chain.setMeasuring(false);
        runSteps<Trait>(app, trait.warmup);
        std::uint64_t flops = 0;
        if constexpr (Trait::kMetric == Metric::MissesPerFlop)
            flops = app.flops().totalFlops();
        chain.setMeasuring(true);
        runSteps<Trait>(app, trait.steps);
        if constexpr (Trait::kMetric == Metric::MissesPerFlop)
            flops = app.flops().totalFlops() - flops;

        chain.checkDeadline();
        return chain.finish(analyzeWorkingSets(
            mp, study, Trait::kMetric, flops, trait.name(), ctx.pool));
    };
    return job;
}

// ---------------------------------------------------------------------
// Per-app traits.
// ---------------------------------------------------------------------

/** LU and Cholesky: blocked factorizations of one n x n matrix on a
 *  procRows x procCols grid. One-shot: no warm-up and one measured
 *  step, the AppTrait defaults. */
template <typename AppT>
struct FactorTrait : AppTrait<AppT, apps::lu::LuConfig>
{
    void
    appendConfig(std::string &out) const
    {
        appendLine(out, "n", this->config.n);
        appendLine(out, "block_size", this->config.blockSize);
        appendLine(out, "proc_rows", this->config.procRows);
        appendLine(out, "proc_cols", this->config.procCols);
    }

    std::uint32_t numProcs() const { return this->config.numProcs(); }
    static void step(AppT &app) { app.factor(); }
};

struct LuTrait : FactorTrait<apps::lu::BlockedLu>
{
    static constexpr const char *kKind = "lu";

    std::string
    name() const
    {
        return "LU n=" + std::to_string(config.n) +
               " B=" + std::to_string(config.blockSize);
    }

    static void init(App &app) { app.randomize(1234); }
};

struct CholeskyTrait : FactorTrait<apps::lu::BlockedCholesky>
{
    static constexpr const char *kKind = "cholesky";

    std::string
    name() const
    {
        return "Cholesky n=" + std::to_string(config.n) +
               " B=" + std::to_string(config.blockSize);
    }

    static void init(App &app) { app.randomizeSpd(1234); }
};

struct CgTrait : AppTrait<apps::cg::GridCg, apps::cg::CgConfig>
{
    static constexpr const char *kKind = "cg";
    static constexpr const char *kStepKey = "iters";

    std::string
    name() const
    {
        return "CG " + std::to_string(config.dims) +
               "-D n=" + std::to_string(config.n);
    }

    void
    appendConfig(std::string &out) const
    {
        appendLine(out, "n", config.n);
        appendLine(out, "dims", config.dims);
        appendLine(out, "proc_x", config.procX);
        appendLine(out, "proc_y", config.procY);
        appendLine(out, "proc_z", config.procZ);
        appendLine(out, "strip_width", config.stripWidth);
    }

    std::uint32_t numProcs() const { return config.numProcs(); }
    static void init(App &app) { app.buildSystem(); }
    static void run(App &app, std::uint32_t n) { app.run(n, 0.0); }
};

struct UnstructuredTrait
    : AppTrait<apps::cg::UnstructuredCg, apps::cg::UnstructuredConfig>
{
    static constexpr const char *kKind = "ucg";
    static constexpr const char *kStepKey = "iters";

    std::string
    name() const
    {
        return "UnstructuredCG n=" + std::to_string(config.numVertices);
    }

    void
    appendConfig(std::string &out) const
    {
        appendLine(out, "num_vertices", config.numVertices);
        appendLine(out, "neighbors", config.neighbors);
        appendLine(out, "num_procs", config.numProcs);
        appendLine(out, "partition", static_cast<int>(config.partition));
        appendLine(out, "seed", config.seed);
    }

    std::uint32_t numProcs() const { return config.numProcs; }
    static void init(App &app) { app.buildSystem(); }
    static void run(App &app, std::uint32_t n) { app.run(n, 0.0); }
};

struct FftTrait : AppTrait<apps::fft::ParallelFft, apps::fft::FftConfig>
{
    static constexpr const char *kKind = "fft";
    static constexpr const char *kStepKey = "transforms";

    std::string
    name() const
    {
        return "FFT logN=" + std::to_string(config.logN) +
               " r=" + std::to_string(config.internalRadix);
    }

    void
    appendConfig(std::string &out) const
    {
        appendLine(out, "log_n", config.logN);
        appendLine(out, "num_procs", config.numProcs);
        appendLine(out, "internal_radix", config.internalRadix);
    }

    std::uint32_t numProcs() const { return config.numProcs; }

    static void
    init(App &app)
    {
        for (std::uint64_t i = 0; i < app.config().N(); ++i)
            app.setInput(i, {std::sin(0.001 * static_cast<double>(i)),
                             std::cos(0.003 * static_cast<double>(i))});
    }

    static void step(App &app) { app.forward(); }
};

struct Fft2dTrait : AppTrait<apps::fft::Fft2d, apps::fft::Fft2dConfig>
{
    static constexpr const char *kKind = "fft2d";
    static constexpr const char *kStepKey = "transforms";

    std::string
    name() const
    {
        return "FFT2D " + std::to_string(config.rows()) + "x" +
               std::to_string(config.cols());
    }

    void
    appendConfig(std::string &out) const
    {
        appendLine(out, "log_rows", config.logRows);
        appendLine(out, "log_cols", config.logCols);
        appendLine(out, "num_procs", config.numProcs);
        appendLine(out, "internal_radix", config.internalRadix);
    }

    std::uint32_t numProcs() const { return config.numProcs; }

    static void
    init(App &app)
    {
        const apps::fft::Fft2dConfig &c = app.config();
        for (std::uint64_t r = 0; r < c.rows(); ++r) {
            for (std::uint64_t col = 0; col < c.cols(); ++col) {
                double t = 0.001 * static_cast<double>(r * c.cols() + col);
                app.setInput(r, col, {std::sin(t), std::cos(3.0 * t)});
            }
        }
    }

    static void step(App &app) { app.forward(); }
};

struct Fft3dTrait : AppTrait<apps::fft::Fft3d, apps::fft::Fft3dConfig>
{
    static constexpr const char *kKind = "fft3d";
    static constexpr const char *kStepKey = "transforms";

    std::string
    name() const
    {
        return "FFT3D " + std::to_string(config.n0()) + "x" +
               std::to_string(config.n1()) + "x" +
               std::to_string(config.n2());
    }

    void
    appendConfig(std::string &out) const
    {
        appendLine(out, "log0", config.log0);
        appendLine(out, "log1", config.log1);
        appendLine(out, "log2", config.log2);
        appendLine(out, "num_procs", config.numProcs);
        appendLine(out, "internal_radix", config.internalRadix);
    }

    std::uint32_t numProcs() const { return config.numProcs; }

    static void
    init(App &app)
    {
        const apps::fft::Fft3dConfig &c = app.config();
        std::uint64_t flat = 0;
        for (std::uint64_t i0 = 0; i0 < c.n0(); ++i0) {
            for (std::uint64_t i1 = 0; i1 < c.n1(); ++i1) {
                for (std::uint64_t i2 = 0; i2 < c.n2(); ++i2, ++flat) {
                    double t = 0.001 * static_cast<double>(flat);
                    app.setInput(i0, i1, i2,
                                 {std::sin(t), std::cos(3.0 * t)});
                }
            }
        }
    }

    static void step(App &app) { app.forward(); }
};

struct BarnesTrait
    : AppTrait<apps::barnes::BarnesHut, apps::barnes::BarnesConfig>
{
    static constexpr const char *kKind = "barnes";
    static constexpr const char *kStepKey = "steps";
    static constexpr Metric kMetric = Metric::ReadMissRate;

    std::string
    name() const
    {
        return "Barnes-Hut n=" + std::to_string(config.numBodies) +
               " theta=" + std::to_string(config.theta).substr(0, 4);
    }

    void
    appendConfig(std::string &out) const
    {
        appendLine(out, "num_bodies", config.numBodies);
        appendLine(out, "num_procs", config.numProcs);
        appendLine(out, "theta", config.theta);
        appendLine(out, "dt", config.dt);
        appendLine(out, "softening", config.softening);
        appendLine(out, "quadrupole", config.quadrupole);
        appendLine(out, "seed", config.seed);
    }

    std::uint32_t numProcs() const { return config.numProcs; }
    static void init(App &app) { app.initPlummer(); }
    static void step(App &app) { app.step(); }
};

/** Volume rendering's configuration: the volume and the renderer. */
struct VolrendConfig
{
    apps::volrend::VolumeDims dims;
    apps::volrend::RenderConfig render;
};

/** The phantom head volume and its renderer. The renderer is built on
 *  the finished volume and octree: allocation order fixes the
 *  simulated addresses. */
struct VolrendApp
{
    VolrendApp(const VolrendConfig &config,
               trace::SharedAddressSpace &space, trace::MemorySink *sink)
        : volume(config.dims, space, sink),
          renderer(config.render, withHead(volume), space, sink)
    {
    }

    static apps::volrend::Volume &
    withHead(apps::volrend::Volume &volume)
    {
        volume.buildHeadPhantom();
        volume.buildOctree();
        return volume;
    }

    apps::volrend::Volume volume;
    apps::volrend::Renderer renderer;
};

struct VolrendTrait : AppTrait<VolrendApp, VolrendConfig>
{
    static constexpr const char *kKind = "volrend";
    static constexpr const char *kStepKey = "frames";
    static constexpr Metric kMetric = Metric::ReadMissRate;

    std::string
    name() const
    {
        return "Volrend " + std::to_string(config.dims.nx) + "^3";
    }

    void
    appendConfig(std::string &out) const
    {
        const apps::volrend::RenderConfig &r = config.render;
        appendLine(out, "nx", config.dims.nx);
        appendLine(out, "ny", config.dims.ny);
        appendLine(out, "nz", config.dims.nz);
        appendLine(out, "image_width", r.imageWidth);
        appendLine(out, "image_height", r.imageHeight);
        appendLine(out, "num_procs", r.numProcs);
        appendLine(out, "degrees_per_frame", r.degreesPerFrame);
        appendLine(out, "sample_step", r.sampleStep);
        appendLine(out, "opacity_cutoff", r.opacityCutoff);
        appendLine(out, "density_floor", r.densityFloor);
        appendLine(out, "steal_chunk", r.stealChunk);
        appendLine(out, "use_octree", r.useOctree);
        appendLine(out, "perspective", r.perspective);
        appendLine(out, "fov_degrees", r.fovDegrees);
    }

    std::uint32_t numProcs() const { return config.render.numProcs; }
    static void step(App &app) { app.renderer.renderFrame(); }
};

} // namespace

StudyJob
luStudyJob(const apps::lu::LuConfig &app_config,
           const StudyConfig &study, std::uint32_t line_bytes)
{
    return makeStudyJob(LuTrait{{{app_config}}}, study, line_bytes);
}

StudyJob
choleskyStudyJob(const apps::lu::LuConfig &app_config,
                 const StudyConfig &study, std::uint32_t line_bytes)
{
    return makeStudyJob(CholeskyTrait{{{app_config}}}, study, line_bytes);
}

StudyJob
cgStudyJob(const apps::cg::CgConfig &app_config, std::uint32_t iters,
           std::uint32_t warmup_iters, const StudyConfig &study,
           std::uint32_t line_bytes)
{
    return makeStudyJob(CgTrait{{app_config, iters, warmup_iters}}, study,
                        line_bytes);
}

StudyJob
unstructuredStudyJob(const apps::cg::UnstructuredConfig &app_config,
                     std::uint32_t iters, std::uint32_t warmup_iters,
                     const StudyConfig &study, std::uint32_t line_bytes)
{
    return makeStudyJob(UnstructuredTrait{{app_config, iters, warmup_iters}},
                        study, line_bytes);
}

StudyJob
fftStudyJob(const apps::fft::FftConfig &app_config,
            std::uint32_t transforms, std::uint32_t warmup_transforms,
            const StudyConfig &study, std::uint32_t line_bytes)
{
    return makeStudyJob(
        FftTrait{{app_config, transforms, warmup_transforms}}, study,
        line_bytes);
}

StudyJob
fft2dStudyJob(const apps::fft::Fft2dConfig &app_config,
              std::uint32_t transforms, std::uint32_t warmup_transforms,
              const StudyConfig &study, std::uint32_t line_bytes)
{
    return makeStudyJob(
        Fft2dTrait{{app_config, transforms, warmup_transforms}}, study,
        line_bytes);
}

StudyJob
fft3dStudyJob(const apps::fft::Fft3dConfig &app_config,
              std::uint32_t transforms, std::uint32_t warmup_transforms,
              const StudyConfig &study, std::uint32_t line_bytes)
{
    return makeStudyJob(
        Fft3dTrait{{app_config, transforms, warmup_transforms}}, study,
        line_bytes);
}

StudyJob
barnesStudyJob(const apps::barnes::BarnesConfig &app_config,
               std::uint32_t steps, std::uint32_t warmup_steps,
               const StudyConfig &study, std::uint32_t line_bytes)
{
    return makeStudyJob(BarnesTrait{{app_config, steps, warmup_steps}},
                        study, line_bytes);
}

StudyJob
volrendStudyJob(const apps::volrend::VolumeDims &dims,
                const apps::volrend::RenderConfig &render,
                std::uint32_t frames, std::uint32_t warmup_frames,
                const StudyConfig &study, std::uint32_t line_bytes)
{
    return makeStudyJob(
        VolrendTrait{{{dims, render}, frames, warmup_frames}}, study,
        line_bytes);
}

StudyResult
runStudy(const StudyJob &job)
{
    return job.body(StudyContext{});
}

} // namespace wsg::core
