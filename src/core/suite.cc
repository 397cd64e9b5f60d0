#include "core/suite.hh"

#include <stdexcept>

#include "core/presets.hh"
#include "core/runners.hh"

namespace wsg::core
{

namespace
{

/**
 * One suite entry: stable name, canonical sweep start, canonical line
 * size, and a maker parameterized over the variant space.
 */
struct SuiteEntry
{
    const char *name;
    std::uint64_t minCacheBytes;
    std::uint32_t defaultLineBytes;
    StudyJob (*make)(const StudyConfig &study, ProblemSize size,
                     std::uint32_t line_bytes);
};

// Each maker matches the corresponding figure bench's construction
// exactly at ProblemSize::Base (problem preset, warm-up shape, line
// size defaults), so the suite is the single source of truth for "the
// Figure N experiment". The small/large tiers scale the one canonical
// problem dimension while keeping every divisibility constraint the
// application enforces (block size, processor grid, power-of-two
// lengths).

/** Pick the sized value of a dimension. */
template <typename T>
T
sized(ProblemSize size, T small, T base, T large)
{
    switch (size) {
    case ProblemSize::Small:
        return small;
    case ProblemSize::Large:
        return large;
    case ProblemSize::Base:
        break;
    }
    return base;
}

/** LU with block size @p B (Figure 2 runs 4, 16 and 64). */
template <std::uint32_t B>
StudyJob
makeLu(const StudyConfig &study, ProblemSize size, std::uint32_t line_bytes)
{
    apps::lu::LuConfig cfg = presets::simLu(B);
    cfg.n = sized<std::uint32_t>(size, 128, 256, 384);
    return luStudyJob(cfg, study, line_bytes);
}

StudyJob
makeCg2d(const StudyConfig &s, ProblemSize size, std::uint32_t line)
{
    apps::cg::CgConfig cfg = presets::simCg2d();
    cfg.n = sized<std::uint32_t>(size, 64, 128, 192);
    return cgStudyJob(cfg, 3, 1, s, line);
}

StudyJob
makeCg3d(const StudyConfig &s, ProblemSize size, std::uint32_t line)
{
    apps::cg::CgConfig cfg = presets::simCg3d();
    cfg.n = sized<std::uint32_t>(size, 16, 32, 48);
    return cgStudyJob(cfg, 3, 1, s, line);
}

/** FFT with internal radix @p R (Figure 5 runs 2, 8 and 32). */
template <std::uint32_t R>
StudyJob
makeFft(const StudyConfig &study, ProblemSize size, std::uint32_t line_bytes)
{
    apps::fft::FftConfig cfg = presets::simFft(R);
    cfg.logN = sized<std::uint32_t>(size, 12, 14, 16);
    return fftStudyJob(cfg, 1, 1, study, line_bytes);
}

StudyJob
makeBarnes(const StudyConfig &s, ProblemSize size, std::uint32_t line)
{
    apps::barnes::BarnesConfig cfg = presets::simBarnesFig6();
    cfg.numBodies = sized<std::uint32_t>(size, 512, 1024, 2048);
    return barnesStudyJob(cfg, 2, 1, s, line);
}

StudyJob
makeVolrend(const StudyConfig &s, ProblemSize size, std::uint32_t line)
{
    std::uint32_t edge = sized<std::uint32_t>(size, 64, 96, 128);
    apps::volrend::VolumeDims dims{edge, edge, edge};
    apps::volrend::RenderConfig render = presets::simVolrendRender();
    render.imageWidth = edge;
    render.imageHeight = edge;
    return volrendStudyJob(dims, render, 2, 1, s, line);
}

StudyJob
makeCholesky(const StudyConfig &s, ProblemSize size, std::uint32_t line)
{
    apps::lu::LuConfig cfg = presets::simCholesky();
    cfg.n = sized<std::uint32_t>(size, 128, 256, 384);
    return choleskyStudyJob(cfg, s, line);
}

StudyJob
makeUcg(const StudyConfig &s, ProblemSize size, std::uint32_t line)
{
    apps::cg::UnstructuredConfig cfg = presets::simUnstructured();
    cfg.numVertices = sized<std::uint32_t>(size, 2048, 4096, 8192);
    return unstructuredStudyJob(cfg, 3, 1, s, line);
}

StudyJob
makeFft2d(const StudyConfig &s, ProblemSize size, std::uint32_t line)
{
    apps::fft::Fft2dConfig cfg = presets::simFft2d();
    cfg.logRows = sized<std::uint32_t>(size, 5, 6, 7);
    cfg.logCols = cfg.logRows;
    return fft2dStudyJob(cfg, 1, 1, s, line);
}

StudyJob
makeFft3d(const StudyConfig &s, ProblemSize size, std::uint32_t line)
{
    apps::fft::Fft3dConfig cfg = presets::simFft3d();
    cfg.log0 = sized<std::uint32_t>(size, 3, 4, 5);
    cfg.log1 = cfg.log0;
    cfg.log2 = cfg.log0;
    return fft3dStudyJob(cfg, 1, 1, s, line);
}

constexpr SuiteEntry kSuite[] = {
    {"fig2-lu-B4", 16, 8, makeLu<4>},
    {"fig2-lu-B16", 16, 8, makeLu<16>},
    {"fig2-lu-B64", 16, 8, makeLu<64>},
    {"fig4-cg-2d", 16, 8, makeCg2d},
    {"fig4-cg-3d", 16, 8, makeCg3d},
    {"fig5-fft-radix2", 16, 8, makeFft<2>},
    {"fig5-fft-radix8", 16, 8, makeFft<8>},
    {"fig5-fft-radix32", 16, 8, makeFft<32>},
    {"fig6-barnes", 64, 32, makeBarnes},
    {"fig7-volrend", 64, 16, makeVolrend},
    {"app-cholesky", 16, 8, makeCholesky},
    {"app-ucg", 16, 8, makeUcg},
    {"app-fft2d", 16, 8, makeFft2d},
    {"app-fft3d", 16, 8, makeFft3d},
};

StudyJob
buildEntry(const SuiteEntry &entry, const StudyConfig &base,
           const SuiteVariant &variant)
{
    StudyConfig study = base;
    study.minCacheBytes = entry.minCacheBytes;
    std::uint32_t line = variant.lineBytes != 0 ? variant.lineBytes
                                                : entry.defaultLineBytes;
    StudyJob job = entry.make(study, variant.size, line);
    job.name = suiteVariantName(entry.name, variant);
    return job;
}

} // namespace

const char *
problemSizeName(ProblemSize size)
{
    switch (size) {
    case ProblemSize::Small:
        return "small";
    case ProblemSize::Large:
        return "large";
    case ProblemSize::Base:
        break;
    }
    return "base";
}

ProblemSize
parseProblemSize(const std::string &name)
{
    if (name == "small")
        return ProblemSize::Small;
    if (name == "base")
        return ProblemSize::Base;
    if (name == "large")
        return ProblemSize::Large;
    throw std::invalid_argument("unknown problem size '" + name +
                                "' (expected small, base or large)");
}

std::string
suiteVariantName(const std::string &preset, const SuiteVariant &variant)
{
    std::string name = preset;
    if (variant.size != ProblemSize::Base)
        name += std::string("@size=") + problemSizeName(variant.size);
    if (variant.lineBytes != 0)
        name += "@line=" + std::to_string(variant.lineBytes);
    return name;
}

std::pair<std::string, SuiteVariant>
parseSuiteName(const std::string &name)
{
    std::string::size_type at = name.find('@');
    std::string preset = name.substr(0, at);
    SuiteVariant variant;
    while (at != std::string::npos) {
        std::string::size_type next = name.find('@', at + 1);
        std::string segment =
            name.substr(at + 1, next == std::string::npos
                                    ? std::string::npos
                                    : next - at - 1);
        std::string::size_type eq = segment.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq + 1 >= segment.size()) {
            throw std::invalid_argument(
                "malformed variant segment '@" + segment +
                "' in preset name '" + name + "'");
        }
        std::string key = segment.substr(0, eq);
        std::string value = segment.substr(eq + 1);
        // A name is a cache and manifest key, so each variant has
        // exactly one spelling: every key at most once, and line sizes
        // as plain decimal digits without a leading zero.
        if (name.find("@" + key + "=") != at) {
            throw std::invalid_argument("repeated variant key '" + key +
                                        "' in preset name '" + name +
                                        "'");
        }
        if (key == "size") {
            variant.size = parseProblemSize(value);
        } else if (key == "line") {
            bool digits =
                value[0] != '0' &&
                value.find_first_not_of("0123456789") == std::string::npos;
            std::size_t pos = 0;
            unsigned long bytes = 0;
            try {
                bytes = std::stoul(value, &pos);
            } catch (const std::exception &) {
                pos = 0;
            }
            if (!digits || pos != value.size() || bytes == 0 ||
                bytes > (1u << 20)) {
                throw std::invalid_argument(
                    "variant line size must be a positive byte "
                    "count, got '" +
                    value + "'");
            }
            variant.lineBytes = static_cast<std::uint32_t>(bytes);
        } else {
            throw std::invalid_argument("unknown variant key '" + key +
                                        "' in preset name '" + name +
                                        "'");
        }
        at = next;
    }
    return {preset, variant};
}

std::vector<std::string>
figureSuiteNames()
{
    std::vector<std::string> names;
    names.reserve(std::size(kSuite));
    for (const SuiteEntry &entry : kSuite)
        names.emplace_back(entry.name);
    return names;
}

bool
isFigureSuiteName(const std::string &name)
{
    for (const SuiteEntry &entry : kSuite) {
        if (name == entry.name)
            return true;
    }
    return false;
}

StudyJob
figureSuiteJob(const std::string &name, const StudyConfig &base)
{
    auto [preset, variant] = parseSuiteName(name);
    return figureSuiteJob(preset, base, variant);
}

StudyJob
figureSuiteJob(const std::string &preset, const StudyConfig &base,
               const SuiteVariant &variant)
{
    for (const SuiteEntry &entry : kSuite) {
        if (preset == entry.name)
            return buildEntry(entry, base, variant);
    }
    throw std::invalid_argument("unknown figure-suite preset: " +
                                preset);
}

std::vector<StudyJob>
figureSuiteJobs(const StudyConfig &base)
{
    std::vector<StudyJob> jobs;
    jobs.reserve(std::size(kSuite));
    for (const SuiteEntry &entry : kSuite)
        jobs.push_back(buildEntry(entry, base, SuiteVariant{}));
    return jobs;
}

} // namespace wsg::core
