/**
 * @file
 * The traced pass: single-thread stage walkers that drive each
 * layer's public API from outside, one span per call, plus a
 * ReplayEngine run whose fold callbacks are timestamped. The replay
 * walker reproduces what a ReplayEngine worker does for one point
 * (decode, memory-image apply, cache/predictor reconstruct or stash
 * copy, detailed simulation per configuration, block fold) so that
 * its per-point results must equal the engine's bit for bit; the
 * build walker reproduces the sequential library builder so that
 * its records must equal LivePointBuilder's byte for byte.
 */

#ifndef LPPERF_WALKER_HH
#define LPPERF_WALKER_HH

#include <cstdint>
#include <vector>

#include "core/library.hh"
#include "core/sample.hh"
#include "inputs.hh"
#include "trace.hh"
#include "uarch/core.hh"

namespace lpperf
{

/** Per-point outcome of a replay walk or a captured engine run. */
struct ReplayTrack
{
    std::size_t nc = 0;
    std::vector<lp::WindowResult> results; //!< [k * nc + c]
    std::vector<std::uint64_t> mask;       //!< configs folded at k
    std::vector<lp::OnlineSnapshot> estimate; //!< per config, at stop
    std::vector<std::size_t> processed;       //!< per config
    std::vector<char> converged;              //!< per config
};

/** Counts the replay walker makes at the layer boundaries. */
struct ReplayCounts
{
    std::uint64_t points = 0;
    std::uint64_t replays = 0;
    std::uint64_t chainRecords = 0; //!< records decompressed
    std::uint64_t chainBytes = 0;   //!< LivePointLibrary::chargeBytes
    std::uint64_t rawBytes = 0;     //!< bytes the codec produced
    std::uint64_t cacheCopies = 0;
    std::uint64_t cacheReconstructs = 0;
    std::uint64_t cycles = 0;       //!< simulated, summed over replays
    std::uint64_t unavailableLoads = 0;
};

/**
 * Walk @p lib in @p order under @p cfgs with campaign semantics: fold
 * in blocks of @p block, retire a configuration once its estimate
 * meets @p spec, stop when none is left. @p lib must be stored in
 * build order (delta bases precede their records).
 */
ReplayTrack walkReplay(Trace &tr, const lp::Program &prog,
                       const lp::LivePointLibrary &lib,
                       const std::vector<lp::CoreConfig> &cfgs,
                       const std::vector<std::size_t> &order,
                       std::size_t block, const lp::ConfidenceSpec &spec,
                       Checks &checks, ReplayCounts &counts);

/** Timestamps of the fold thread in a captured engine run. */
struct EngineTimes
{
    double foldWaitSeconds = 0.0; //!< fold thread waiting for blocks
    double barrierSeconds = 0.0;  //!< inside foldBarrier callbacks
    std::uint64_t pointsDecoded = 0;
    std::uint64_t replaysExecuted = 0;
};

/**
 * One ReplayEngine::run with the same semantics as walkReplay and
 * @p threads workers, recording every folded result.
 */
ReplayTrack runEngine(const lp::Program &prog,
                      const lp::LivePointLibrary &lib,
                      const std::vector<lp::CoreConfig> &cfgs,
                      const std::vector<std::size_t> &order,
                      std::size_t block, const lp::ConfidenceSpec &spec,
                      unsigned threads, EngineTimes &times);

/** Counts the build walker makes at the layer boundaries. */
struct BuildCounts
{
    std::uint64_t points = 0;
    std::uint64_t instsWarmed = 0;    //!< functional instructions run
    std::uint64_t compressInBytes = 0; //!< raw bytes fed to the codec
};

/**
 * Build the first @p count points of @p design the way the
 * sequential LivePointBuilder does, one span per layer call.
 */
lp::LivePointLibrary walkBuild(Trace &tr, const lp::Program &prog,
                               const lp::SampleDesign &design,
                               const lp::LivePointBuilderConfig &cfg,
                               std::uint64_t count, BuildCounts &counts);

} // namespace lpperf

#endif // LPPERF_WALKER_HH
