#include "inputs.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "util/rng.hh"
#include "workload/profile.hh"

namespace lpperf
{

using namespace lp;

const std::vector<std::string> &
campaignPrograms()
{
    static const std::vector<std::string> names{"gcc-2", "mcf", "swim"};
    return names;
}

std::vector<CoreConfig>
gridConfigs()
{
    std::vector<CoreConfig> cfgs{CoreConfig::eightWay()};
    CoreConfig c = cfgs[0];
    c.name = "mem-140";
    c.mem.memLatency = 140;
    cfgs.push_back(c);
    c = cfgs[0];
    c.name = "L2-512K";
    c.mem.l2.sizeBytes = 512 * 1024;
    cfgs.push_back(c);
    c = cfgs[0];
    c.name = "RUU-64";
    c.ruuSize = 64;
    cfgs.push_back(c);
    return cfgs;
}

ConfidenceSpec
confidenceSpec()
{
    return ConfidenceSpec{0.95, 0.03};
}

LivePointBuilderConfig
builderConfig(bool delta, unsigned encodeThreads)
{
    LivePointBuilderConfig bc = restrictedBuilderConfig(gridConfigs());
    bc.buildThreads = 1;
    bc.pipelineEncode = true;
    bc.encodeThreads = encodeThreads;
    bc.deltaEncode = delta;
    bc.maxDeltaChain = kMaxDeltaChain;
    return bc;
}

Program
makeProgram(const std::string &name)
{
    WorkloadProfile p = findProfile(name);
    p.targetInsts = static_cast<InstCount>(
        static_cast<double>(p.targetInsts) * kLengthScale);
    // Keep the phase structure proportional to the scaled length, as
    // the paper benches do.
    p.phaseInsts = std::clamp<InstCount>(
        p.targetInsts / (400 * static_cast<InstCount>(p.phases)), 5'000,
        150'000);
    return generateProgram(p);
}

SampleDesign
designFor(const Program &prog, std::uint64_t phase)
{
    const CoreConfig cfg = CoreConfig::eightWay();
    InstCount span = measureProgramLength(prog);
    if (phase)
        span -= 1 + hashCombine(0x7068617365ull, phase) % 4096;
    return SampleDesign::systematic(span, kLibraryPoints, 1000,
                                    cfg.detailedWarming);
}

std::uint64_t
shuffleSeedFor(std::uint64_t seed, unsigned j)
{
    return hashCombine(hashCombine(0x6c70706572666265ull, seed), j) | 1;
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    failures_.push_back(what);
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

void
Checks::expectSameBits(double got, double want, const std::string &what)
{
    if (plant_) {
        plant_ = false;
        want = std::nextafter(want, std::numeric_limits<double>::max());
    }
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, &got, sizeof(a));
    std::memcpy(&b, &want, sizeof(b));
    char buf[96];
    std::snprintf(buf, sizeof(buf), " (%.17g vs %.17g)", got, want);
    expect(a == b, what + buf);
}

} // namespace lpperf
