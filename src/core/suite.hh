/**
 * @file
 * The named figure-study suite — the studies behind Figures 2, 4, 5, 6
 * and 7 plus the four remaining instrumented applications, each
 * addressable by a stable preset name ("fig2-lu-B16", "app-fft3d", …).
 *
 * Historically this list lived inside bench_figure_suite; it moved here
 * so that every consumer agrees on what, say, "fig5-fft-radix8" means:
 * the bench builds its batch from it, the serving daemon resolves
 * request presets through it, and the load generator enumerates it.
 * Because all of them share one factory (and with it the canonical
 * config serialization in core/runners.hh), a study served from the
 * daemon's cache is byte-identical to the same study's figure-bench
 * JSON — which is what makes the content-addressed cache sound.
 *
 * Variants. Each preset additionally exists at three named problem
 * sizes (small / base / large — the base tier is the canonical figure
 * experiment) and at any coherence-line size, addressed by a
 * variant-suffixed name:
 *
 *   fig2-lu-B16@size=small@line=32
 *
 * The suffix grammar is "@key=value" segments in any order; unknown
 * keys are rejected. The campaign subsystem (src/campaign) expands its
 * sweep grids into exactly these names, so a thousand-study sweep and a
 * single wsg-submit both resolve through this one factory.
 */

#ifndef WSG_CORE_SUITE_HH
#define WSG_CORE_SUITE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/study_runner.hh"
#include "core/working_set_study.hh"

namespace wsg::core
{

/** Named problem-size tier of a suite preset. */
enum class ProblemSize : std::uint8_t
{
    /** Reduced problem — fast, for sweeps and smoke tests. */
    Small,
    /** The canonical figure experiment (the historical suite). */
    Base,
    /** Enlarged problem — stresses footprints past the base tier. */
    Large,
};

/** Canonical tier name (also the grid-file and name-suffix spelling). */
const char *problemSizeName(ProblemSize size);

/** Parse a tier name. @throws std::invalid_argument on unknown names. */
ProblemSize parseProblemSize(const std::string &name);

/** Per-preset overrides selecting one point of the variant space. */
struct SuiteVariant
{
    ProblemSize size = ProblemSize::Base;
    /** Coherence-line size in bytes; 0 = the preset's canonical line. */
    std::uint32_t lineBytes = 0;

    bool
    isBase() const
    {
        return size == ProblemSize::Base && lineBytes == 0;
    }
};

/**
 * Canonical variant-suffixed name: the bare preset when @p variant is
 * the base point, else "@size=…" and/or "@line=…" segments (in that
 * order, defaults omitted). parseSuiteName inverts this exactly.
 */
std::string suiteVariantName(const std::string &preset,
                             const SuiteVariant &variant);

/**
 * Split a possibly variant-suffixed name into its bare preset and
 * variant. Does not check that the preset itself exists (the job
 * factory does); the suffix grammar is validated here.
 *
 * @throws std::invalid_argument on a malformed suffix, an unknown or
 *         repeated suffix key, an out-of-range value, or a line size
 *         not spelled as plain digits without a leading zero (so that
 *         every accepted name is already canonical).
 */
std::pair<std::string, SuiteVariant>
parseSuiteName(const std::string &name);

/** Names of the suite's studies, in canonical (submission) order. */
std::vector<std::string> figureSuiteNames();

/** True when @p name is one of figureSuiteNames() (bare names only). */
bool isFigureSuiteName(const std::string &name);

/**
 * Build one suite study by (possibly variant-suffixed) preset name.
 * @p base supplies the cross-cutting knobs (sampling, profiler,
 * analyzeRaces, timeoutSeconds, knee thresholds…); the preset overrides
 * minCacheBytes with its study's canonical sweep start, exactly as the
 * figure benches do. The returned job carries the canonical
 * variant-suffixed name as its name and a filled-in canonicalConfig.
 *
 * @throws std::invalid_argument for an unknown preset name or a
 *         malformed variant suffix.
 */
StudyJob figureSuiteJob(const std::string &name,
                        const StudyConfig &base = {});

/** figureSuiteJob with the variant passed explicitly (no suffix
 *  parsing); @p preset must be a bare suite name. */
StudyJob figureSuiteJob(const std::string &preset,
                        const StudyConfig &base,
                        const SuiteVariant &variant);

/** The whole suite (base variants), in canonical order, sharing
 *  @p base. */
std::vector<StudyJob> figureSuiteJobs(const StudyConfig &base = {});

} // namespace wsg::core

#endif // WSG_CORE_SUITE_HH
