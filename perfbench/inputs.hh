/**
 * @file
 * What every workload of the benchmark shares: the seeds, the
 * programs and sample design, the 4-configuration grid, the library
 * build settings, and the correctness-check ledger behind `failed`.
 */

#ifndef LPPERF_INPUTS_HH
#define LPPERF_INPUTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/builder.hh"
#include "core/sample.hh"
#include "uarch/config.hh"
#include "workload/generator.hh"

namespace lpperf
{

/** Seed the figures in README.md were tuned on. */
inline constexpr std::uint64_t kBaselineSeed = 1;

/** Seed kept out of tuning, for checking a claimed gain. */
inline constexpr std::uint64_t kHeldOutSeed = 1009;

/** Live-points per library: enough for every cell to converge. */
inline constexpr std::uint64_t kLibraryPoints = 1200;

/** Program length as a share of the suite profile's length. */
inline constexpr double kLengthScale = 0.25;

/** Simulation workers of every replay (decode producers: auto). */
inline constexpr unsigned kWorkers = 2;

/** Keyframe cadence of the delta libraries. */
inline constexpr unsigned kMaxDeltaChain = 8;

/** The campaign's programs: branchy int, pointer chasing, FP loop. */
const std::vector<std::string> &campaignPrograms();

/** The standard 4-config grid: 8-way, mem-140, L2-512K, RUU-64. */
std::vector<lp::CoreConfig> gridConfigs();

/** ±3% at 95% confidence. */
lp::ConfidenceSpec confidenceSpec();

/**
 * Builder settings of every library: warm state restricted to the
 * grid's geometry (all four configurations replay from it), plain or
 * predecessor-delta encoded, @p encodeThreads encoders (0: auto).
 */
lp::LivePointBuilderConfig builderConfig(bool delta,
                                         unsigned encodeThreads);

/** Suite program @p name at kLengthScale. */
lp::Program makeProgram(const std::string &name);

/**
 * The systematic kLibraryPoints-window design over @p prog. A nonzero
 * @p phase shortens the span the design covers by a seed-derived few
 * thousand instructions, which moves every window within its period:
 * another sample of the same program.
 */
lp::SampleDesign designFor(const lp::Program &prog,
                           std::uint64_t phase = 0);

/** Nonzero shuffle seed of visit order @p j under benchmark @p seed. */
std::uint64_t shuffleSeedFor(std::uint64_t seed, unsigned j);

/**
 * The correctness ledger: every check is one attempted operation,
 * every mismatch one failed operation. With a planted mismatch (the
 * self-test), the first bit comparison is made against a perturbed
 * expectation, so the ledger must record a failure.
 */
class Checks
{
  public:
    explicit Checks(bool plantMismatch) : plant_(plantMismatch) {}

    void expect(bool ok, const std::string &what);

    /** Exact equality of two doubles' bit patterns. */
    void expectSameBits(double got, double want, const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    bool plant_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

} // namespace lpperf

#endif // LPPERF_INPUTS_HH
