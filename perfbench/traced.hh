/**
 * @file
 * Layer tracing for the study-pipeline benchmark.
 *
 * The traced run hands each application a sink chain that this file
 * assembles from the public sinks, in the same order the study runner
 * builds its own (core/runners.cc):
 *
 *   app -> BatchingSink -> [WatchdogSink] -> ScheduledReplaySink
 *       -> Multiprocessor                              (no race check)
 *       -> TeeSink -> Multiprocessor + RaceDetector    (race check)
 *
 * A TimedSink sits at every boundary below the batcher. It reads the
 * clock twice per call, and the batcher calls it once per block of
 * 256 references, so the tracing cost stays far below the simulator's
 * per-reference cost. Study phases outside the reference stream
 * (machine construction, curve analysis, knee detection, report
 * emission) are timed around their public entry points. A layer's
 * self time is its span minus the spans of the layers it calls.
 */

#ifndef WSG_PERFBENCH_TRACED_HH
#define WSG_PERFBENCH_TRACED_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "core/study_runner.hh"
#include "core/working_set_study.hh"

namespace wsg::perfbench
{

/** Seconds on the steady clock since an arbitrary origin. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Spans accumulated by the traced run (inclusive durations). */
enum Span : std::size_t
{
    /** One whole study: job body plus its report. */
    StudySpan,
    /** Multiprocessor and address-space construction and teardown. */
    SimBuildSpan,
    /** Sink-chain construction and teardown. */
    ChainBuildSpan,
    /** The application: construction, every phase, teardown. */
    AppsSpan,
    /** Calls from the batcher into the rest of the chain. */
    ChainSpan,
    /** Calls into the ScheduledReplaySink. */
    ReplaySpan,
    /** Calls into the TeeSink (race check only). */
    TeeSpan,
    /** Calls into the Multiprocessor. */
    SimSpan,
    /** Calls into the RaceDetector (race check only). */
    RaceSpan,
    /** core::analyzeWorkingSets (curve evaluation plus its knees). */
    AnalyzeSpan,
    /** A separate stats::detectWorkingSets call on the same curve. */
    KneeSpan,
    /** core::jsonReport of the finished study. */
    ReportSpan,
    kSpanCount,
};

/**
 * Per-layer spans and deterministic counts. Each traced study fills
 * its own clock and merges it into a shared total under a mutex, so
 * studies on different threads never share a clock.
 */
struct LayerClock
{
    std::array<double, kSpanCount> seconds{};

    // Counted at the sink boundaries.
    std::uint64_t refs = 0;
    std::uint64_t syncs = 0;
    std::uint64_t batches = 0;
    std::uint64_t simRefs = 0;
    std::uint64_t raceRefs = 0;

    // Read off each finished study.
    std::uint64_t migrations = 0;
    std::uint64_t intervals = 0;
    std::uint64_t readCoherence = 0;
    std::uint64_t invalidationsSent = 0;
    std::uint64_t upgradesSent = 0;
    std::uint64_t maxFootprintBytes = 0;
    std::uint64_t profilerBytes = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t curvePoints = 0;
    std::uint64_t knees = 0;
    std::uint64_t reportBytes = 0;

    /** Add @p other's spans and counts (maxima for the memory gauges). */
    void merge(const LayerClock &other);

    /** Record the deterministic counters of one finished study. */
    void countStudy(const core::StudyResult &result);

    /** Record one report emission. */
    void countReport(double seconds, std::size_t bytes);

    /** Self times of the named layers, in seconds. */
    double appsSelf() const;
    double chainSelf() const;
    double replaySelf() const;
    double raceSelf() const;
    double simAccess() const;
    double simBuild() const;
    double curveSelf() const;
    double kneeSelf() const;
    double reportSelf() const;
};

/** A LayerClock shared by concurrently traced studies. */
class SharedClock
{
  public:
    void
    merge(const LayerClock &clock)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        total_.merge(clock);
    }

    LayerClock
    total() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return total_;
    }

  private:
    mutable std::mutex mutex_;
    LayerClock total_;
};

/**
 * The traced form of @p job: same name and canonical config, but the
 * body runs the application through the benchmark's timed chain. The
 * app and its parameters are read back from the job's canonical
 * config, so the traced body covers every suite preset and variant;
 * @p base must be the StudyConfig the job was built from. Each run
 * of the body merges its spans and counts into @p clock.
 *
 * @throws std::invalid_argument when the canonical config names an
 *         application this file does not drive.
 */
core::StudyJob tracedJob(const core::StudyJob &job,
                         const core::StudyConfig &base,
                         SharedClock &clock);

} // namespace wsg::perfbench

#endif // WSG_PERFBENCH_TRACED_HH
