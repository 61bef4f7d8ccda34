#include "walker.hh"

#include <memory>
#include <stdexcept>
#include <string>

#include "codec/zip.hh"
#include "core/replay.hh"
#include "func/functional.hh"
#include "util/log.hh"

namespace lpperf
{

using namespace lp;

namespace
{

CoreBindings
bindings(const Program &prog, MemPort &port, MemHierarchy &hier,
         BranchPredictor &bp)
{
    CoreBindings b;
    b.prog = &prog;
    b.mem = &port;
    b.hier = &hier;
    b.bp = &bp;
    return b;
}

/** One configuration's reusable state, as a replay worker keeps it. */
struct Unit
{
    Unit(const Program &prog, const CoreConfig &c, MemPort &port)
        : cfg(c), bpredKey(c.bpred.key()), hier(c.mem), bp(c.bpred),
          core(c, bindings(prog, port, hier, bp))
    {
    }

    CoreConfig cfg;
    std::string bpredKey;
    MemHierarchy hier;
    BranchPredictor bp;
    OoOCore core;
};

bool
sameCacheGeometry(const MemHierarchyConfig &a, const MemHierarchyConfig &b)
{
    return a.l1i == b.l1i && a.l1d == b.l1d && a.l2 == b.l2 &&
           a.itlb == b.itlb && a.dtlb == b.dtlb;
}

void
copyCaches(MemHierarchy &dst, MemHierarchy &src)
{
    dst.l1i().copyStateFrom(src.l1i());
    dst.l1d().copyStateFrom(src.l1d());
    dst.l2().copyStateFrom(src.l2());
    dst.itlb().copyStateFrom(src.itlb());
    dst.dtlb().copyStateFrom(src.dtlb());
}

/**
 * Rebuilds a record's raw bytes with the codec alone, keeping the
 * last record as the chain cache the way LivePointDecodeScratch does.
 * A delta record's base is the record stored just before it.
 */
class ChainDecoder
{
  public:
    /** Decode record @p i into raw(); returns records decompressed. */
    std::size_t
    rebuild(const LivePointLibrary &lib, std::size_t i,
            std::uint64_t &bytesOut)
    {
        chain_.clear();
        std::size_t p = i;
        bool fromCache = false;
        while (true) {
            if (p == cachedPos_) {
                fromCache = true;
                break;
            }
            chain_.push_back(p);
            const std::uint8_t flags = lib.recordFlags(p);
            if (flags & LivePointLibrary::kFlagDict)
                throw std::runtime_error(
                    "benchmark libraries carry no dictionary");
            if (!(flags & LivePointLibrary::kFlagDelta))
                break;
            if (p == 0)
                throw std::runtime_error("delta record without a base");
            --p;
        }
        std::size_t k = chain_.size();
        Blob *cur = &cache_;
        if (!fromCache) {
            --k;
            const ByteSpan r = lib.record(chain_[k]);
            zipDecompressInto(r.data, r.size, a_);
            bytesOut += a_.size();
            cur = &a_;
        }
        while (k--) {
            Blob *dst = cur == &a_ ? &b_ : &a_;
            const ByteSpan r = lib.record(chain_[k]);
            zipDecompressDeltaInto(r.data, r.size, ByteSpan(*cur), *dst);
            bytesOut += dst->size();
            cur = dst;
        }
        if (cur != &cache_)
            std::swap(cache_, *cur);
        cachedPos_ = i;
        return chain_.size();
    }

    const Blob &raw() const { return cache_; }

  private:
    std::vector<std::size_t> chain_;
    std::size_t cachedPos_ = ~std::size_t(0);
    Blob cache_;
    Blob a_;
    Blob b_;
};

} // namespace

ReplayTrack
walkReplay(Trace &tr, const Program &prog, const LivePointLibrary &lib,
           const std::vector<CoreConfig> &cfgs,
           const std::vector<std::size_t> &order, std::size_t block,
           const ConfidenceSpec &spec, Checks &checks,
           ReplayCounts &counts)
{
    const std::size_t nc = cfgs.size();
    const std::size_t n = order.size();
    SparseMemory mem;
    DirectMemPort direct(mem);
    OverlayMemPort overlay(mem);
    // One configuration replays straight into the pooled memory, as
    // ReplayContext::simulate does; several share the point's memory
    // through a write-private overlay.
    MemPort &port = nc == 1 ? static_cast<MemPort &>(direct) : overlay;
    std::vector<std::unique_ptr<Unit>> units;
    for (const CoreConfig &c : cfgs)
        units.push_back(std::make_unique<Unit>(prog, c, port));

    // Units sharing a cache geometry (predictor table size) share one
    // stash: the first to replay a point reconstructs, the rest copy.
    std::vector<int> cacheStashOf(nc, -1);
    std::vector<int> bpredStashOf(nc, -1);
    std::vector<std::unique_ptr<MemHierarchy>> cacheStash;
    std::vector<std::unique_ptr<BranchPredictor>> bpredStash;
    for (std::size_t j = 1; j < nc; ++j) {
        for (std::size_t i = 0; i < j; ++i) {
            if (cacheStashOf[j] < 0 &&
                sameCacheGeometry(cfgs[i].mem, cfgs[j].mem)) {
                if (cacheStashOf[i] < 0) {
                    cacheStashOf[i] = static_cast<int>(cacheStash.size());
                    cacheStash.push_back(
                        std::make_unique<MemHierarchy>(cfgs[i].mem));
                }
                cacheStashOf[j] = cacheStashOf[i];
            }
            if (bpredStashOf[j] < 0 &&
                cfgs[i].bpred.tableEntries == cfgs[j].bpred.tableEntries) {
                if (bpredStashOf[i] < 0) {
                    bpredStashOf[i] = static_cast<int>(bpredStash.size());
                    bpredStash.push_back(
                        std::make_unique<BranchPredictor>(cfgs[i].bpred));
                }
                bpredStashOf[j] = bpredStashOf[i];
            }
        }
    }
    std::vector<char> cacheFilled(cacheStash.size());
    std::vector<char> bpredFilled(bpredStash.size());

    ReplayTrack out;
    out.nc = nc;
    out.results.resize(n * nc);
    out.processed.assign(nc, 0);
    out.converged.assign(nc, 0);
    std::vector<OnlineEstimator> est(nc, OnlineEstimator(spec));
    std::vector<RunningStat> pending(nc);
    std::uint64_t active = replayMaskAll(nc);

    LivePointDecodeScratch scratch;
    LivePoint point;
    LivePoint probe;
    ChainDecoder chain;

    Scope walk(tr, "walk");
    for (std::size_t k = 0; k < n && active; ++k) {
        const std::size_t i = order[k];
        const auto id = static_cast<std::int64_t>(i);
        Scope sp(tr, "point", id);
        {
            Scope s(tr, "library.decode", id);
            lib.decodeInto(i, scratch, point);
        }
        {
            Scope s(tr, "library.deserialize", id);
            LivePoint::deserializeInto(scratch.payload, probe);
        }
        {
            Scope s(tr, "codec.decompress", id);
            counts.chainRecords += chain.rebuild(lib, i, counts.rawBytes);
        }
        {
            Scope s(tr, "bench.check", id);
            checks.expect(chain.raw() == scratch.payload,
                          strfmt("codec chain rebuild of point %zu "
                                 "equals the library decode",
                                 i));
        }
        counts.chainBytes += lib.chargeBytes(i);
        ++counts.points;
        {
            Scope s(tr, "mem.apply", id);
            mem.reset();
            point.memImage.applyTo(mem);
        }
        std::fill(cacheFilled.begin(), cacheFilled.end(), 0);
        std::fill(bpredFilled.begin(), bpredFilled.end(), 0);

        for (std::size_t c = 0; c < nc; ++c) {
            if (!((active >> c) & 1))
                continue;
            Unit &u = *units[c];
            const int cs = cacheStashOf[c];
            if (cs >= 0 && cacheFilled[cs]) {
                Scope s(tr, "cache.copy", id);
                copyCaches(u.hier, *cacheStash[cs]);
                ++counts.cacheCopies;
            } else {
                Scope s(tr, "cache.reconstruct", id);
                point.l1i.reconstruct(u.hier.l1i());
                point.l1d.reconstruct(u.hier.l1d());
                point.l2.reconstruct(u.hier.l2());
                point.itlb.reconstruct(u.hier.itlb());
                point.dtlb.reconstruct(u.hier.dtlb());
                if (cs >= 0) {
                    copyCaches(*cacheStash[cs], u.hier);
                    cacheFilled[cs] = 1;
                }
                ++counts.cacheReconstructs;
            }
            const int bs = bpredStashOf[c];
            if (bs >= 0 && bpredFilled[bs]) {
                Scope s(tr, "bpred.copy", id);
                u.bp.copyStateFrom(*bpredStash[bs]);
            } else {
                Scope s(tr, "bpred.restore", id);
                const Blob *image = point.findBpredImage(u.bpredKey);
                if (!image)
                    throw std::runtime_error(
                        "library does not cover predictor " + u.bpredKey);
                u.bp.deserialize(*image);
                if (bs >= 0) {
                    bpredStash[bs]->copyStateFrom(u.bp);
                    bpredFilled[bs] = 1;
                }
            }
            WindowResult r;
            {
                Scope s(tr, "uarch.measure", id);
                if (nc > 1)
                    overlay.clear();
                CoreBindings b = bindings(prog, port, u.hier, u.bp);
                b.initialRegs = point.regs;
                b.availability = &point.memImage;
                u.core.rebind(b);
                u.core.setApproxWrongPath(false);
                r = u.core.measure(point.warmLen, point.measureLen);
            }
            out.results[k * nc + c] = r;
            pending[c].add(r.cpi);
            ++counts.replays;
            counts.cycles += r.cycles;
            counts.unavailableLoads += r.unavailableLoads;
        }
        out.mask.push_back(active);

        if ((k + 1) % block == 0 || k + 1 == n) {
            Scope s(tr, "stats.fold", id);
            for (std::size_t c = 0; c < nc; ++c) {
                if (!((active >> c) & 1))
                    continue;
                const OnlineSnapshot snap = est[c].fold(pending[c]);
                pending[c] = RunningStat();
                out.processed[c] = k + 1;
                if (snap.satisfied) {
                    out.converged[c] = 1;
                    active &= ~(1ull << c);
                }
            }
        }
    }
    out.results.resize(out.mask.size() * nc);
    for (const OnlineEstimator &e : est)
        out.estimate.push_back(e.snapshot());
    return out;
}

ReplayTrack
runEngine(const Program &prog, const LivePointLibrary &lib,
          const std::vector<CoreConfig> &cfgs,
          const std::vector<std::size_t> &order, std::size_t block,
          const ConfidenceSpec &spec, unsigned threads,
          EngineTimes &times)
{
    const std::size_t nc = cfgs.size();
    ReplayTrack out;
    out.nc = nc;
    out.processed.assign(nc, 0);
    out.converged.assign(nc, 0);
    std::vector<OnlineEstimator> est(nc, OnlineEstimator(spec));
    std::vector<RunningStat> pending(nc);
    std::uint64_t active = replayMaskAll(nc);

    ReplayEngineOptions opt;
    opt.threads = threads;
    ReplayEngine engine(prog, cfgs, opt);
    Clock::time_point lastReturn = Clock::now();
    engine.run(
        lib, order, block, true,
        [&](std::size_t k, const WindowResult *row) {
            if (k % block == 0)
                times.foldWaitSeconds += secondsSince(lastReturn);
            for (std::size_t c = 0; c < nc; ++c) {
                out.results.push_back(row[c]);
                if ((active >> c) & 1)
                    pending[c].add(row[c].cpi);
            }
            out.mask.push_back(active);
        },
        [&](std::size_t end) -> std::uint64_t {
            const Clock::time_point in = Clock::now();
            for (std::size_t c = 0; c < nc; ++c) {
                if (!((active >> c) & 1))
                    continue;
                const OnlineSnapshot snap = est[c].fold(pending[c]);
                pending[c] = RunningStat();
                out.processed[c] = end;
                if (snap.satisfied) {
                    out.converged[c] = 1;
                    active &= ~(1ull << c);
                }
            }
            lastReturn = Clock::now();
            times.barrierSeconds +=
                std::chrono::duration<double>(lastReturn - in).count();
            return active;
        });
    times.pointsDecoded += engine.pointsDecoded();
    times.replaysExecuted += engine.replaysExecuted();
    for (const OnlineEstimator &e : est)
        out.estimate.push_back(e.snapshot());
    return out;
}

LivePointLibrary
walkBuild(Trace &tr, const Program &prog, const SampleDesign &design,
          const LivePointBuilderConfig &cfg, std::uint64_t count,
          BuildCounts &counts)
{
    MemHierarchyConfig maxMem;
    maxMem.l1i = cfg.maxL1i;
    maxMem.l1d = cfg.maxL1d;
    maxMem.l2 = cfg.maxL2;
    maxMem.itlb = cfg.maxItlb;
    maxMem.dtlb = cfg.maxDtlb;
    FunctionalSimulator sim(prog);
    MemHierarchy hier(maxMem);
    std::vector<std::unique_ptr<BranchPredictor>> preds;
    for (const BpredConfig &bc : cfg.bpredConfigs)
        preds.push_back(std::make_unique<BranchPredictor>(bc));
    sim.setHierarchy(&hier);
    for (auto &bp : preds)
        sim.addPredictor(bp.get());

    LivePointLibrary lib(prog.name, design);
    const std::uint64_t chain = std::max(cfg.maxDeltaChain, 1u);
    Blob prevRaw;
    Scope walk(tr, "walk");
    for (std::uint64_t i = 0; i < count; ++i) {
        const auto id = static_cast<std::int64_t>(i);
        Scope sp(tr, "point", id);
        const InstCount start = design.windowStart(i);
        {
            Scope s(tr, "func.warm", id);
            counts.instsWarmed += start - sim.regs().instIndex;
            sim.run(start - sim.regs().instIndex);
        }
        LivePoint point;
        {
            Scope s(tr, "builder.snapshot", id);
            point.index = i;
            point.windowStart = start;
            point.warmLen = design.warmLen;
            point.measureLen = design.measureLen;
            point.regs = sim.regs();
            point.l1i = CacheSetRecord(hier.l1i());
            point.l1d = CacheSetRecord(hier.l1d());
            point.l2 = CacheSetRecord(hier.l2());
            point.itlb = CacheSetRecord(hier.itlb());
            point.dtlb = CacheSetRecord(hier.dtlb());
            for (std::size_t b = 0; b < preds.size(); ++b)
                point.bpredImages.emplace(cfg.bpredConfigs[b].key(),
                                          preds[b]->serialize());
        }
        {
            Scope s(tr, "func.capture", id);
            MemoryImage image(cfg.imageBlockBytes);
            sim.setCaptureImage(&image);
            sim.run(design.windowLen());
            sim.setCaptureImage(nullptr);
            point.memImage = std::move(image);
            counts.instsWarmed += design.windowLen();
        }
        Blob raw;
        {
            Scope s(tr, "library.serialize", id);
            raw = point.serialize();
        }
        Blob bytes;
        {
            Scope s(tr, "codec.compress", id);
            bytes = zipCompress(raw);
            counts.compressInBytes += raw.size();
        }
        std::uint8_t flags = 0;
        std::uint64_t rawHash = 0;
        if (cfg.deltaEncode && i > 0 && i % chain != 0) {
            Blob delta;
            {
                Scope s(tr, "codec.compress_delta", id);
                delta = zipCompressDelta(raw, ByteSpan(prevRaw));
                counts.compressInBytes += raw.size();
            }
            if (delta.size() < bytes.size()) {
                Scope s(tr, "library.hash", id);
                bytes = std::move(delta);
                flags = LivePointLibrary::kFlagDelta;
                rawHash = livePointRawHash(raw.data(), raw.size());
            }
        }
        {
            Scope s(tr, "library.add", id);
            if (flags)
                lib.addEncoded(bytes, raw.size(), i, flags, rawHash);
            else
                lib.addCompressed(bytes, raw.size(), i);
        }
        prevRaw = std::move(raw);
        ++counts.points;
    }
    return lib;
}

} // namespace lpperf
