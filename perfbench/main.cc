/**
 * @file
 * wsg_perfbench: the study-pipeline benchmark. See README.md beside
 * this file for the workloads, the metrics and how to read them.
 *
 *   wsg_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--socket-dir DIR]
 *   wsg_perfbench --pin FILE
 *
 * Run it from the repository root: it reads the pinned outputs from
 * perfbench/expected.json.
 *
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * The exit status is 0 only when every study was ok and every report
 * hash matched.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "campaign/driver.hh"
#include "campaign/grid.hh"
#include "campaign/report.hh"
#include "core/suite.hh"
#include "replay/splitmix.hh"
#include "serve/server.hh"
#include "stats/hash.hh"
#include "stats/json_parse.hh"
#include "stats/json_report.hh"
#include "traced.hh"

namespace wsg::perfbench
{
namespace
{

/** The seed at which the pinned report hashes were taken. */
constexpr std::uint64_t kDefaultSeed = 1;
/** Set-ups per run: at least kMinSetups, then more until
 *  kSetupSeconds have been spent; setup_s is their median. */
constexpr std::size_t kMinSetups = 5;
constexpr double kSetupSeconds = 0.5;
/** Warm campaign passes after each cold one (126 hits each). */
constexpr int kWarmPasses = 8;

/**
 * Hand freed heap back to the OS. glibc keeps a study's freed memory
 * in the arena of the thread that ran it, and a study on another pool
 * or service thread cannot reuse it, so without this peak RSS depends
 * on which thread ran which study: 420-575 MB across runs of `large`,
 * against 185 MB for its largest study. Callers keep it out of every
 * timed span.
 */
void
releaseFreedHeap()
{
    malloc_trim(0);
}

/** Nearest-rank quantile of @p v (0 when empty). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double rank = std::ceil(q * static_cast<double>(v.size()));
    std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** One study of a workload, as the pin mode replays it serially. */
struct Study
{
    /** Key of its report hash (grid entry or suite variant name). */
    std::string key;
    core::StudyJob job;
    core::StudyConfig base;
};

/** What one measured pass produced. */
struct PassResult
{
    double wall = 0.0;
    /** Per-study latency, seconds. */
    std::vector<double> studySeconds;
    /** Campaign warm-pass cache-hit latency, seconds. */
    std::vector<double> hitSeconds;
    /** Report hash per study key. */
    std::map<std::string, std::string> hashes;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    fail(const std::string &what)
    {
        ++failed;
        errors.push_back(what);
    }
};

/** Metrics in print order: name -> (value, unit). */
struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        items;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        items.push_back({name, {value, unit}});
    }
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the inputs, the runner or the daemon (timed: setup_s).
     *  @p traced selects the benchmark's traced chain for the studies
     *  the daemon computes. */
    virtual void setUp(bool traced) = 0;
    virtual void tearDown() = 0;
    /** One measured pass. */
    virtual PassResult pass(bool traced) = 0;
    /** Every study of a pass, for the serial pin mode. */
    virtual std::vector<Study> studies() = 0;
    /** True when each pass needs a fresh set-up (cold caches). */
    virtual bool freshPerPass() const { return false; }
    /** Layer metrics only this workload's layers produce. */
    virtual void addServeMetrics(Metrics &m) const;

    SharedClock clock;
};

void
Workload::addServeMetrics(Metrics &m) const
{
    for (const char *name :
         {"serve.service_p50_ms", "serve.service_p95_ms",
          "serve.hit_p50_ms", "serve.hit_p99_ms"})
        m.add(name, 0.0, "ms");
    for (const char *name : {"serve.hits", "serve.misses", "serve.joins",
                             "serve.overloaded"})
        m.add(name, 0.0, "count");
    m.add("campaign.expand_s", 0.0, "s");
    m.add("campaign.report_s", 0.0, "s");
    m.add("campaign.retries", 0.0, "count");
}

/** Hash and check one finished study's timing-free report. */
std::string
reportOf(const core::JobReport &report, PassResult &out, LayerClock *clock)
{
    double t0 = nowSeconds();
    std::string payload = core::jsonReport({report});
    if (clock != nullptr)
        clock->countReport(nowSeconds() - t0, payload.size());
    if (!report.ok)
        out.fail(report.name + ": study failed: " + report.error);
    return stats::fnv1a64Hex(payload);
}

/**
 * suite, large and axes: preset studies on a StudyRunner, submitted
 * one at a time so a multi-worker runner can only help inside a study.
 */
class RunnerWorkload : public Workload
{
  public:
    RunnerWorkload(std::vector<std::string> names, core::StudyConfig base,
                   unsigned workers)
        : names_(std::move(names)), base_(base), workers_(workers)
    {}

    void
    setUp(bool) override
    {
        jobs_.clear();
        for (const std::string &name : names_)
            jobs_.push_back(core::figureSuiteJob(name, base_));
        core::RunnerConfig config;
        config.jobs = workers_;
        runner_ = std::make_unique<core::StudyRunner>(config);
    }

    void
    tearDown() override
    {
        runner_.reset();
        jobs_.clear();
    }

    PassResult
    pass(bool traced) override
    {
        PassResult out;
        LayerClock reports;
        double untimed = 0.0;
        double t0 = nowSeconds();
        for (const core::StudyJob &job : jobs_) {
            double s0 = nowSeconds();
            std::vector<core::JobReport> done = runner_->run(
                {traced ? tracedJob(job, base_, clock) : job});
            out.hashes[job.name] =
                reportOf(done.front(), out, traced ? &reports : nullptr);
            double s1 = nowSeconds();
            out.studySeconds.push_back(s1 - s0);
            ++out.attempted;
            // A pool runs each study on whichever worker is free.
            if (workers_ > 1) {
                releaseFreedHeap();
                untimed += nowSeconds() - s1;
            }
        }
        out.wall = nowSeconds() - t0 - untimed;
        clock.merge(reports);
        return out;
    }

    std::vector<Study>
    studies() override
    {
        std::vector<Study> out;
        for (const std::string &name : names_)
            out.push_back({name, core::figureSuiteJob(name, base_), base_});
        return out;
    }

  private:
    std::vector<std::string> names_;
    core::StudyConfig base_;
    unsigned workers_;
    std::vector<core::StudyJob> jobs_;
    std::unique_ptr<core::StudyRunner> runner_;
};

/**
 * Client-observed latency per completed campaign entry. The driver
 * calls its progress hook serialized, from the worker thread that just
 * finished an entry, right before that worker takes its next one; the
 * time since the same thread's previous completion is therefore the
 * entry's round trip.
 */
class LatencyRecorder
{
  public:
    explicit LatencyRecorder(double start) : start_(start) {}

    void
    completed()
    {
        double now = nowSeconds();
        auto it =
            last_.try_emplace(std::this_thread::get_id(), start_).first;
        seconds.push_back(now - it->second);
        it->second = now;
    }

    std::vector<double> seconds;

  private:
    double start_;
    std::map<std::thread::id, double> last_;
};

/**
 * campaign: the small-tier grid through an in-process daemon, one cold
 * pass then warm passes answered from its memory cache.
 */
class CampaignWorkload : public Workload
{
  public:
    CampaignWorkload(std::uint64_t seed, const std::string &socket_dir)
        : seed_(seed),
          socket_(socket_dir + "/wsg-perfbench-" +
                  std::to_string(::getpid()) + ".sock")
    {
        spec_.sizes = {core::ProblemSize::Small};
        spec_.lineBytes = {8, 32, 128};
        spec_.pointsPerOctave = {4, 8, 16};
    }

    ~CampaignWorkload() override { CampaignWorkload::tearDown(); }

    void
    setUp(bool traced) override
    {
        double t0 = nowSeconds();
        grid_ = campaign::expandGrid(spec_);
        // The seed only permutes the submission order.
        replay::SplitMix64 rng(seed_);
        auto &entries = grid_.entries;
        for (std::size_t i = entries.size(); i > 1; --i)
            std::swap(entries[i - 1], entries[rng.nextBelow(i)]);
        expandSeconds_.push_back(nowSeconds() - t0);

        serve::ServerConfig config;
        config.socketPath = socket_;
        config.service.concurrency = 2;
        serve::StudyService::JobFactory factory;
        if (traced) {
            factory = [this](const std::string &name,
                             const core::StudyConfig &base) {
                return stashingJob(
                    tracedJob(core::figureSuiteJob(name, base), base,
                              clock));
            };
        }
        server_ = std::make_unique<serve::Server>(config, factory);
        server_->start();
    }

    void
    tearDown() override
    {
        if (server_ != nullptr) {
            server_->requestShutdown();
            server_->wait();
            server_.reset();
            releaseFreedHeap();
        }
    }

    bool freshPerPass() const override { return true; }

    PassResult
    pass(bool traced) override
    {
        PassResult out;
        stash_.clear();
        double t0 = nowSeconds();
        LatencyRecorder cold(t0);
        campaign::CampaignResult result = runPass(cold);
        out.wall = nowSeconds() - t0;
        out.studySeconds = cold.seconds;
        serve::ServiceStats cold_stats = server_->service().stats();
        check(result, false, out);
        if (traced)
            traceReports(result, out);

        for (int w = 0; w < kWarmPasses; ++w) {
            LatencyRecorder warm(nowSeconds());
            campaign::CampaignResult again = runPass(warm);
            out.hitSeconds.insert(out.hitSeconds.end(),
                                  warm.seconds.begin(),
                                  warm.seconds.end());
            check(again, true, out);
        }
        // The daemon's figures come from the untraced pass: the traced
        // job factory also runs on every cache hit.
        if (!traced) {
            serviceP50_ = cold_stats.p50Seconds;
            serviceP95_ = cold_stats.p95Seconds;
            retries_ = result.telemetry.retriedRoundTrips;
            final_ = server_->service().stats();
            hitSeconds_ = out.hitSeconds;
        }
        return out;
    }

    std::vector<Study>
    studies() override
    {
        campaign::Grid grid = campaign::expandGrid(spec_);
        std::vector<Study> out;
        for (const campaign::CampaignEntry &entry : grid.entries) {
            core::StudyConfig base = entry.request.studyConfig();
            out.push_back({entry.name,
                           core::figureSuiteJob(entry.request.preset, base),
                           base});
        }
        return out;
    }

    void
    addServeMetrics(Metrics &m) const override
    {
        m.add("serve.service_p50_ms", serviceP50_ * 1e3, "ms");
        m.add("serve.service_p95_ms", serviceP95_ * 1e3, "ms");
        m.add("serve.hit_p50_ms", quantile(hitSeconds_, 0.5) * 1e3, "ms");
        m.add("serve.hit_p99_ms", quantile(hitSeconds_, 0.99) * 1e3, "ms");
        m.add("serve.hits", static_cast<double>(final_.hits()), "count");
        m.add("serve.misses", static_cast<double>(final_.misses), "count");
        m.add("serve.joins", static_cast<double>(final_.coalescedJoins),
              "count");
        m.add("serve.overloaded", static_cast<double>(final_.rejections),
              "count");
        m.add("campaign.expand_s", median(expandSeconds_), "s");
        m.add("campaign.report_s", campaignReportSeconds_, "s");
        m.add("campaign.retries", static_cast<double>(retries_), "count");
    }

  private:
    campaign::CampaignResult
    runPass(LatencyRecorder &latency)
    {
        campaign::DriverConfig config;
        config.socketPath = socket_;
        config.concurrency = 2;
        config.progress = [&latency](const std::string &,
                                     const std::string &, std::size_t,
                                     std::size_t) {
            latency.completed();
        };
        return campaign::runCampaign(grid_, config);
    }

    /** Count and check every outcome of a pass. The cold pass records
     *  the report hashes; a warm pass must serve the same bytes. */
    void
    check(const campaign::CampaignResult &result, bool warm,
          PassResult &out)
    {
        const std::string cache = warm ? "hit" : "miss";
        for (std::size_t i = 0; i < grid_.entries.size(); ++i) {
            const campaign::CampaignEntry &entry = grid_.entries[i];
            const campaign::EntryOutcome &o = result.outcomes[i];
            std::string hash = stats::fnv1a64Hex(o.payload);
            ++out.attempted;
            if (o.status != "ok")
                out.fail(entry.name + ": " + o.status + " " + o.error);
            else if (o.cache != cache)
                out.fail(entry.name + ": cache '" + o.cache +
                         "', expected '" + cache + "'");
            else if (warm && out.hashes[entry.name] != hash)
                out.fail(entry.name + ": warm payload differs from cold");
            if (!warm)
                out.hashes[entry.name] = hash;
        }
    }

    /** Wraps a traced job so its result is kept for report timing. */
    core::StudyJob
    stashingJob(core::StudyJob job)
    {
        std::string hash = stats::fnv1a64Hex(job.canonicalConfig);
        job.body = [this, hash, body = std::move(job.body)](
                       const core::StudyContext &ctx) {
            core::StudyResult result = body(ctx);
            std::lock_guard<std::mutex> lock(stashMutex_);
            stash_[hash] = result;
            return result;
        };
        return job;
    }

    /**
     * The daemon writes each report on its own threads, out of reach
     * of the benchmark's spans; time the same core::jsonReport call on
     * the stashed results instead, and check it reproduces the served
     * bytes. Then time the campaign's own report.
     */
    void
    traceReports(const campaign::CampaignResult &result, PassResult &out)
    {
        LayerClock reports;
        for (std::size_t i = 0; i < grid_.entries.size(); ++i) {
            const campaign::CampaignEntry &entry = grid_.entries[i];
            auto it = stash_.find(entry.configHash);
            if (it == stash_.end()) {
                out.fail(entry.name + ": traced study did not run");
                continue;
            }
            core::JobReport report;
            report.name = entry.request.preset;
            report.result = it->second;
            report.ok = true;
            report.configHash = entry.configHash;
            if (reportOf(report, out, &reports) !=
                out.hashes[entry.name])
                out.fail(entry.name +
                         ": re-emitted report differs from served");
        }
        clock.merge(reports);
        double t0 = nowSeconds();
        std::string text = campaign::writeCampaignReport(
            campaign::buildCampaignReport(grid_, result));
        campaignReportSeconds_ = nowSeconds() - t0;
        if (text.empty())
            out.fail("empty campaign report");
    }

    std::uint64_t seed_;
    campaign::GridSpec spec_;
    std::string socket_;
    campaign::Grid grid_;
    std::unique_ptr<serve::Server> server_;
    std::mutex stashMutex_;
    std::map<std::string, core::StudyResult> stash_;
    std::vector<double> expandSeconds_;
    std::vector<double> hitSeconds_;
    double serviceP50_ = 0.0;
    double serviceP95_ = 0.0;
    double campaignReportSeconds_ = 0.0;
    std::uint64_t retries_ = 0;
    serve::ServiceStats final_;
};

std::vector<std::string>
suiteNames(const std::string &suffix)
{
    std::vector<std::string> names;
    for (const std::string &name : core::figureSuiteNames())
        names.push_back(name + suffix);
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &socket_dir)
{
    if (name == "suite")
        return std::make_unique<RunnerWorkload>(suiteNames(""),
                                                core::StudyConfig{}, 1);
    if (name == "large")
        return std::make_unique<RunnerWorkload>(
            std::vector<std::string>{"fig4-cg-3d@size=large",
                                     "fig5-fft-radix8@size=large"},
            core::StudyConfig{}, 4);
    if (name == "axes") {
        core::StudyConfig base;
        base.protocol = sim::CoherenceProtocol::Mesi;
        base.hierarchy = memsys::parseHierarchySpec("incl:4096:65536");
        base.scheduler = replay::parseSchedulerSpec(
            "steal:r0.1:s" + std::to_string(seed));
        base.analyzeRaces = true;
        // Generous: a guard against a hung study, never a limit the
        // workload reaches.
        base.timeoutSeconds = 120.0;
        return std::make_unique<RunnerWorkload>(suiteNames("@size=small"),
                                                base, 1);
    }
    if (name == "campaign")
        return std::make_unique<CampaignWorkload>(seed, socket_dir);
    return nullptr;
}

const char *const kWorkloads[] = {"suite", "large", "axes", "campaign"};

/** Pinned outputs of one workload at the default seed. */
struct Expected
{
    std::uint64_t refs = 0;
    std::map<std::string, std::string> reports;
};

std::map<std::string, Expected>
loadExpected(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::stringstream text;
    text << in.rdbuf();
    stats::JsonValue doc = stats::parseJson(text.str());
    if (doc.at("schema").asString() != "wsg-perfbench-expected-v1")
        throw std::runtime_error(path + ": unknown schema");
    std::map<std::string, Expected> out;
    for (const auto &[name, w] : doc.at("workloads").members()) {
        Expected e;
        e.refs = static_cast<std::uint64_t>(w.at("refs").asNumber());
        for (const auto &[key, hash] : w.at("reports").members())
            e.reports[key] = hash.asString();
        out[name] = std::move(e);
    }
    return out;
}

/** Does the seed leave this workload's outputs at their pinned bytes? */
bool
pinnedAt(const std::string &workload, std::uint64_t seed)
{
    return workload != "axes" || seed == kDefaultSeed;
}

/** Compare a pass's hashes with a reference set. */
void
compareHashes(PassResult &pass,
              const std::map<std::string, std::string> &want,
              const std::string &what)
{
    for (const auto &[key, hash] : want) {
        auto it = pass.hashes.find(key);
        if (it == pass.hashes.end())
            pass.fail(key + ": missing from the pass");
        else if (it->second != hash)
            pass.fail(key + ": report hash " + it->second + " != " + what +
                      " " + hash);
    }
    if (pass.hashes.size() != want.size())
        pass.fail("pass has " + std::to_string(pass.hashes.size()) +
                  " studies, " + what + " has " +
                  std::to_string(want.size()));
}

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Where the campaign daemon puts its socket (keep it short: a
     *  socket path is limited to about 100 bytes). */
    std::string socketDir = ".";
    std::string pin;
};

/** Totals over every pass of a run. */
struct RunTotals
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(const PassResult &pass)
    {
        attempted += pass.attempted;
        failed += pass.failed;
        for (const std::string &e : pass.errors)
            std::cerr << "FAIL " << e << "\n";
    }
};

/**
 * The end-to-end run. @p pinned holds the expected report hashes, or
 * is null when the seed moves the outputs off their pinned bytes.
 */
Metrics
runUntraced(Workload &w, const Options &opt,
            const std::map<std::string, std::string> *pinned,
            std::uint64_t refs, RunTotals &totals)
{
    std::vector<double> setups;
    for (double spent = 0.0;
         setups.size() < kMinSetups || spent < kSetupSeconds;) {
        if (!setups.empty())
            w.tearDown();
        double t0 = nowSeconds();
        w.setUp(false);
        setups.push_back(nowSeconds() - t0);
        spent += setups.back();
    }
    // An unpinned seed is checked by agreement between passes.
    std::size_t min_passes = pinned != nullptr ? 1 : 2;
    std::vector<PassResult> passes;
    double start = nowSeconds();
    for (;;) {
        double p0 = nowSeconds();
        if (!passes.empty() && w.freshPerPass()) {
            w.tearDown();
            double t0 = nowSeconds();
            w.setUp(false);
            setups.push_back(nowSeconds() - t0);
        }
        passes.push_back(w.pass(false));
        double last = nowSeconds() - p0;
        double elapsed = nowSeconds() - start;
        if (passes.size() >= min_passes && elapsed + last > opt.seconds)
            break;
    }
    w.tearDown();

    // Per-pass quantiles, then their median over the passes.
    std::vector<double> walls, p50, p90, hits;
    for (PassResult &p : passes) {
        if (pinned != nullptr)
            compareHashes(p, *pinned, "pinned");
        else
            compareHashes(p, passes.front().hashes, "first pass");
        totals.add(p);
        walls.push_back(p.wall);
        p50.push_back(quantile(p.studySeconds, 0.5));
        p90.push_back(quantile(p.studySeconds, 0.9));
        hits.insert(hits.end(), p.hitSeconds.begin(), p.hitSeconds.end());
    }
    double wall = median(walls);
    Metrics m;
    m.add("setup_s", median(setups), "s");
    m.add("wall_s", wall, "s");
    m.add("refs_per_s", static_cast<double>(refs) / wall, "1/s");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    std::cout << "set-ups " << setups.size() << ", passes "
              << passes.size() << ", studies per pass "
              << passes.front().studySeconds.size() << ", walls";
    for (double x : walls)
        std::cout << " " << x;
    std::cout << "\n";
    // Printed, not bounded: a 0.5 s study's time spreads too much
    // between runs on a shared machine (see README.md).
    std::cout << "study_p50_s " << median(p50) << " s\nstudy_p90_s "
              << median(p90) << " s\n";
    if (!hits.empty())
        std::cout << "hit_p50_ms " << quantile(hits, 0.5) * 1e3
                  << " ms\nhit_p99_ms " << quantile(hits, 0.99) * 1e3
                  << " ms (" << hits.size() << " hits)\n";
    return m;
}

/** The layer run: one untraced pass, then one traced pass. */
Metrics
runTraced(Workload &w, const std::map<std::string, std::string> *pinned,
          std::uint64_t refs, RunTotals &totals)
{
    w.setUp(false);
    PassResult plain = w.pass(false);
    w.tearDown();
    w.setUp(true);
    PassResult traced = w.pass(true);
    w.tearDown();

    if (pinned != nullptr)
        compareHashes(plain, *pinned, "pinned");
    compareHashes(traced, plain.hashes, "untraced");
    LayerClock c = w.clock.total();
    if (c.refs != refs)
        traced.fail("traced run processed " + std::to_string(c.refs) +
                    " references, pinned " + std::to_string(refs));
    totals.add(plain);
    totals.add(traced);

    // Runner workloads trace one study at a time on this thread, so
    // the self times should cover the traced wall; the daemon runs
    // studies on two threads at once, so there the base is the sum of
    // the studies' own spans.
    double base = w.freshPerPass() ? c.seconds[StudySpan] : traced.wall;
    auto n = [](std::uint64_t x) { return static_cast<double>(x); };
    Metrics m;
    m.add("study.p50_s", quantile(plain.studySeconds, 0.5), "s");
    m.add("study.p90_s", quantile(plain.studySeconds, 0.9), "s");
    m.add("trace.wall_s", traced.wall, "s");
    m.add("trace.overhead_s", traced.wall - plain.wall, "s");
    // Self time per layer, in the order of the reference's path.
    const std::pair<const char *, double> selves[] = {
        {"apps.self_s", c.appsSelf()},
        {"trace.chain_self_s", c.chainSelf()},
        {"replay.self_s", c.replaySelf()},
        {"analysis.race_s", c.raceSelf()},
        {"sim.access_s", c.simAccess()},
        {"sim.build_s", c.simBuild()},
        {"stats.curve_s", c.curveSelf()},
        {"stats.knee_s", c.kneeSelf()},
        {"core.report_s", c.reportSelf()},
    };
    double attributed = 0.0;
    for (const auto &[name, seconds] : selves) {
        m.add(name, seconds, "s");
        attributed += seconds;
    }
    m.add("trace.attributed_frac", base > 0 ? attributed / base : 0.0,
          "frac");
    m.add("apps.refs", n(c.refs), "count");
    m.add("apps.syncs", n(c.syncs), "count");
    m.add("trace.batches", n(c.batches), "count");
    m.add("replay.migrations", n(c.migrations), "count");
    m.add("replay.intervals", n(c.intervals), "count");
    m.add("analysis.race_refs", n(c.raceRefs), "count");
    m.add("sim.ns_per_ref",
          c.simRefs > 0 ? c.simAccess() * 1e9 / n(c.simRefs) : 0, "ns");
    m.add("sim.read_coherence", n(c.readCoherence), "count");
    m.add("sim.invalidations_sent", n(c.invalidationsSent), "count");
    m.add("sim.upgrades_sent", n(c.upgradesSent), "count");
    m.add("sim.max_footprint_bytes", n(c.maxFootprintBytes), "B");
    m.add("memsys.profiler_bytes", n(c.profilerBytes), "B");
    m.add("memsys.l1_misses", n(c.l1Misses), "count");
    m.add("memsys.l2_misses", n(c.l2Misses), "count");
    m.add("stats.curve_points", n(c.curvePoints), "count");
    m.add("stats.knees", n(c.knees), "count");
    m.add("core.report_bytes", n(c.reportBytes), "B");
    w.addServeMetrics(m);

    std::cout << "untraced wall " << plain.wall << " s, traced wall "
              << traced.wall << " s, layer base " << base << " s\n";
    if (base > 0) {
        for (const auto &[name, seconds] : selves)
            std::cout << "  share " << name << " " << 100.0 * seconds / base
                      << " %\n";
    }
    return m;
}

/** Serial reference: every study inline, plain and traced. */
int
pin(const std::string &path, const std::string &socket_dir)
{
    std::ostringstream os;
    stats::JsonWriter j(os);
    j.beginObject();
    j.member("schema", std::string("wsg-perfbench-expected-v1"));
    j.member("default_seed", kDefaultSeed);
    j.key("workloads");
    j.beginObject();
    int status = 0;
    for (const char *name : kWorkloads) {
        std::unique_ptr<Workload> w =
            makeWorkload(name, kDefaultSeed, socket_dir);
        j.key(name);
        j.beginObject();
        std::map<std::string, std::string> reports;
        for (const Study &s : w->studies()) {
            PassResult out;
            std::string plain =
                reportOf(core::runJobInline(s.job), out, nullptr);
            std::string traced = reportOf(
                core::runJobInline(tracedJob(s.job, s.base, w->clock)), out,
                nullptr);
            if (plain != traced || out.failed != 0) {
                std::cerr << name << " " << s.key
                          << ": traced report differs or failed\n";
                status = 1;
            }
            reports[s.key] = plain;
        }
        j.member("refs", w->clock.total().refs);
        j.key("reports");
        j.beginObject();
        for (const auto &[key, hash] : reports)
            j.member(key, hash);
        j.endObject();
        j.endObject();
        std::cerr << "pinned " << name << ": " << reports.size()
                  << " reports, " << w->clock.total().refs << " refs\n";
    }
    j.endObject();
    j.endObject();
    std::ofstream out(path);
    out << os.str() << "\n";
    return out ? status : 1;
}

void
printResult(const Metrics &m, const RunTotals &totals)
{
    std::cout << std::setprecision(12);
    for (const auto &[name, v] : m.items)
        std::cout << name << " " << v.first << " " << v.second << "\n";
    std::cout << "failed_frac "
              << (totals.attempted
                      ? static_cast<double>(totals.failed) /
                            static_cast<double>(totals.attempted)
                      : 1.0)
              << "\n";
    std::ostringstream os;
    stats::JsonWriter j(os, true);
    j.beginObject();
    j.member("correct", totals.failed == 0 && totals.attempted > 0);
    j.member("attempted", totals.attempted);
    j.member("failed", totals.failed);
    j.key("metrics");
    j.beginObject();
    for (const auto &[name, v] : m.items) {
        j.key(name);
        j.beginObject();
        j.member("value", v.first);
        j.member("unit", v.second);
        j.endObject();
    }
    j.endObject();
    j.endObject();
    std::cout << os.str() << std::endl;
}

int
usage(const char *why)
{
    std::cerr << "wsg_perfbench: " << why
              << "\nusage: wsg_perfbench --workload suite|large|axes|"
                 "campaign --seed N --seconds S --trace 0|1 "
                 "[--socket-dir DIR]\n"
                 "       wsg_perfbench --pin FILE\n";
    return 2;
}

int
run(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--seed")
            opt.seed = std::stoull(value);
        else if (flag == "--seconds")
            opt.seconds = std::stod(value);
        else if (flag == "--trace")
            opt.trace = value == "1";
        else if (flag == "--socket-dir")
            opt.socketDir = value;
        else if (flag == "--pin")
            opt.pin = value;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (!opt.pin.empty())
        return pin(opt.pin, opt.socketDir);
    std::unique_ptr<Workload> w =
        makeWorkload(opt.workload, opt.seed, opt.socketDir);
    if (w == nullptr)
        return usage(("unknown workload '" + opt.workload + "'").c_str());
    std::map<std::string, Expected> expected =
        loadExpected("perfbench/expected.json");
    auto it = expected.find(opt.workload);
    if (it == expected.end())
        return usage(("no pinned outputs for " + opt.workload).c_str());
    // The reference count does not depend on the seed; the report
    // bytes may.
    const Expected &e = it->second;
    const std::map<std::string, std::string> *pinned =
        pinnedAt(opt.workload, opt.seed) ? &e.reports : nullptr;

    RunTotals totals;
    Metrics m = opt.trace ? runTraced(*w, pinned, e.refs, totals)
                          : runUntraced(*w, opt, pinned, e.refs, totals);
    printResult(m, totals);
    return totals.failed == 0 ? 0 : 1;
}

} // namespace
} // namespace wsg::perfbench

int
main(int argc, char **argv)
{
    try {
        return wsg::perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "wsg_perfbench: " << e.what() << "\n";
        return 2;
    }
}
