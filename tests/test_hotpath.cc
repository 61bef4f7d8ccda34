/**
 * Hot-path guarantees of the replay core:
 *
 *  - Steady-state replay performs ZERO heap allocations per point.
 *    The test binary overrides global operator new/delete with a
 *    counter, warms a pooled ReplayContext over a full library pass
 *    (growing every recycled buffer to its high-water mark), then
 *    asserts that a second full pass — decode, image apply, warm-state
 *    reconstruction, detailed simulation — never enters the allocator.
 *    At the engine level, a warm ReplayEngine::run over the whole
 *    library allocates no more than one over two fold blocks.
 *  - The SoA CacheModel is behaviourally identical to the simple
 *    AoS true-LRU reference model it replaced: per-access hit and
 *    writeback results and final tag/recency/dirty state match on
 *    randomized streams across associativities (including odd assoc,
 *    which exercises the vectorized scan's scalar tail).
 *  - The flat epoch-stamped OverlayMemPort matches a map-based
 *    reference overlay through growth and O(1) clear() epochs.
 *  - A MemoryImage decoded into flat replay storage re-serializes
 *    byte-identically and applies the same bytes to memory as the
 *    capture-time map form.
 */

#include "test_util.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <unordered_map>

#include "core/replay.hh"
#include "mem/memport.hh"

// --- global allocation counter -------------------------------------

static std::atomic<std::uint64_t> gAllocs{0};

void *
operator new(std::size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace lp;

/** The pre-SoA AoS cache model, kept verbatim as the test oracle. */
class RefCache
{
  public:
    explicit RefCache(const CacheGeometry &geom) : geom_(geom)
    {
        sets_.resize(std::max<std::uint64_t>(geom_.numSets(), 1));
    }

    AccessResult access(Addr a, bool write)
    {
        const Addr tag = a - (a % geom_.lineBytes);
        auto &set = sets_[(a / geom_.lineBytes) % sets_.size()];
        ++clock_;
        AccessResult res;
        for (CacheLine &line : set) {
            if (line.tag == tag) {
                line.lastAccess = clock_;
                line.dirty = line.dirty || write;
                res.hit = true;
                return res;
            }
        }
        if (set.size() >= geom_.assoc) {
            std::size_t victim = 0;
            for (std::size_t i = 1; i < set.size(); ++i)
                if (set[i].lastAccess < set[victim].lastAccess)
                    victim = i;
            res.writeback = set[victim].dirty;
            set[victim] = CacheLine{tag, clock_, write};
        } else {
            set.push_back(CacheLine{tag, clock_, write});
        }
        return res;
    }

    const std::vector<CacheLine> &linesOfSet(std::uint64_t s) const
    {
        return sets_[s];
    }

    std::uint64_t numSets() const { return sets_.size(); }

  private:
    CacheGeometry geom_;
    std::vector<std::vector<CacheLine>> sets_;
    std::uint64_t clock_ = 0;
};

/** Full-state comparison: tags, recency stamps, and dirty bits. */
bool
sameCacheState(const CacheModel &a, const RefCache &b)
{
    if (a.numSets() != b.numSets())
        return false;
    for (std::uint64_t s = 0; s < a.numSets(); ++s) {
        auto keyed = [](const std::vector<CacheLine> &lines) {
            std::vector<std::tuple<std::uint64_t, Addr, bool>> v;
            for (const CacheLine &l : lines)
                v.emplace_back(l.lastAccess, l.tag, l.dirty);
            std::sort(v.begin(), v.end());
            return v;
        };
        if (keyed(a.linesOfSet(s)) != keyed(b.linesOfSet(s)))
            return false;
    }
    return true;
}

void
cacheEquivalence()
{
    const CacheGeometry geoms[] = {
        {16 * 1024, 1, 64}, {32 * 1024, 2, 64},  {64 * 1024, 3, 64},
        {64 * 1024, 4, 128}, {256 * 1024, 8, 64},
    };
    for (const CacheGeometry &g : geoms) {
        CacheModel soa(g, "soa");
        RefCache ref(g);
        Rng rng(g.assoc * 1000 + 7, "hotpath-cache");
        for (int i = 0; i < 200'000; ++i) {
            // Mix a hot region with cold sweeps so hits, misses,
            // evictions, and writebacks all occur.
            const Addr a = rng.nextBool(0.7)
                               ? rng.nextBounded(g.sizeBytes / 2)
                               : rng.nextBounded(64ull << 20);
            const bool write = rng.nextBool(0.3);
            const AccessResult rs = soa.access(a, write);
            const AccessResult rr = ref.access(a, write);
            CHECK_EQ(static_cast<int>(rs.hit), static_cast<int>(rr.hit));
            CHECK_EQ(static_cast<int>(rs.writeback),
                     static_cast<int>(rr.writeback));
            if (lpTestFailures)
                return; // one divergence floods the log otherwise
        }
        CHECK(sameCacheState(soa, ref));

        // probe() agrees with membership and never perturbs state.
        Rng rng2(g.assoc, "hotpath-probe");
        for (int i = 0; i < 1000; ++i) {
            const Addr a = rng2.nextBounded(64ull << 20);
            const Addr line = a - (a % g.lineBytes);
            bool inRef = false;
            for (const CacheLine &l :
                 ref.linesOfSet((a / g.lineBytes) % ref.numSets()))
                inRef = inRef || l.tag == line;
            CHECK_EQ(static_cast<int>(soa.probe(a)),
                     static_cast<int>(inRef));
        }
        CHECK(sameCacheState(soa, ref));

        // copyStateFrom() reproduces the full state.
        CacheModel copy(g, "copy");
        copy.copyStateFrom(soa);
        CHECK(sameCacheState(copy, ref));
        CHECK_EQ(copy.accessClock(), soa.accessClock());
    }
}

void
overlayEquivalence()
{
    SparseMemory base;
    for (Addr a = 0; a < 4096; a += 8)
        base.write64(a, a * 3 + 1);

    // Tiny initial reserve so the test crosses several growth steps.
    OverlayMemPort ov(base, 4);
    std::unordered_map<Addr, std::uint64_t> ref;
    Rng rng(99, "hotpath-overlay");
    for (int epoch = 0; epoch < 5; ++epoch) {
        for (int i = 0; i < 20'000; ++i) {
            const Addr a = rng.nextBounded(1 << 20) & ~7ull;
            if (rng.nextBool(0.6)) {
                const std::uint64_t v = rng.next();
                ov.write64(a, v);
                ref[a] = v;
            } else {
                const auto it = ref.find(a);
                const std::uint64_t expect =
                    it != ref.end() ? it->second : base.read64(a);
                CHECK_EQ(ov.read64(a), expect);
            }
            if (lpTestFailures)
                return;
        }
        ov.clear();
        ref.clear();
        // After a clear, every read falls through to the base again.
        for (Addr a = 0; a < 4096; a += 512)
            CHECK_EQ(ov.read64(a), base.read64(a));
    }
}

void
memoryImageFlatPath()
{
    SparseMemory mem;
    MemoryImage captured(64);
    Rng rng(5, "hotpath-image");
    for (int i = 0; i < 400; ++i) {
        const Addr a = rng.nextBounded(1 << 18) & ~7ull;
        mem.write64(a, rng.next());
        captured.captureBeforeAccess(mem, a);
    }
    DerWriter w;
    captured.serialize(w);
    const Blob bytes = w.finish();

    MemoryImage flat;
    {
        DerReader r(bytes);
        MemoryImage::deserializeInto(r, flat);
    }
    CHECK_EQ(flat.blockCount(), captured.blockCount());
    CHECK_EQ(flat.payloadBytes(), captured.payloadBytes());

    // Flat storage re-serializes byte-identically (canonical order).
    DerWriter w2;
    flat.serialize(w2);
    CHECK(w2.finish() == bytes);

    // contains() and applyTo() agree between the two forms.
    SparseMemory a1;
    SparseMemory a2;
    captured.applyTo(a1);
    flat.applyTo(a2);
    Rng rng2(6, "hotpath-image-2");
    for (int i = 0; i < 2000; ++i) {
        const Addr a = rng2.nextBounded(1 << 18) & ~7ull;
        CHECK_EQ(static_cast<int>(captured.contains(a)),
                 static_cast<int>(flat.contains(a)));
        CHECK_EQ(a1.read64(a), a2.read64(a));
        if (lpTestFailures)
            return;
    }

    // A replay image must reject capture attempts.
    CHECK_THROWS(flat.captureBeforeAccess(mem, 0));
}

/**
 * The satellite contract: once warm, replay allocates nothing — not
 * in decode, not in live-state apply, not in warm-state
 * reconstruction, not in the timing loop.
 */
void
zeroAllocSteadyState()
{
    const lptest::TinyLib t = lptest::buildTinyLibrary(
        "hotpath", 60'000, 31, 6,
        {lptest::baseConfig(), lptest::slowMemConfig()});
    const std::size_t n = t.lib.size();
    CHECK(n >= 4);

    // Single-configuration path.
    {
        ReplayContext ctx(t.prog, lptest::baseConfig());
        LivePointDecodeScratch scratch;
        LivePoint point;
        std::vector<WindowResult> warm(n);
        for (std::size_t i = 0; i < n; ++i) {
            t.lib.decodeInto(i, scratch, point);
            warm[i] = ctx.simulate(point);
        }
        const std::uint64_t before =
            gAllocs.load(std::memory_order_relaxed);
        for (std::size_t i = 0; i < n; ++i) {
            t.lib.decodeInto(i, scratch, point);
            const WindowResult r = ctx.simulate(point);
            CHECK_EQ(r.cycles, warm[i].cycles); // pooled = warm pass
        }
        const std::uint64_t after =
            gAllocs.load(std::memory_order_relaxed);
        CHECK_EQ(after - before, 0u);
    }

    // Decode-once fan-out path (shared-geometry stash, overlay).
    {
        ReplayContext ctx(t.prog,
                          std::vector<CoreConfig>{
                              lptest::baseConfig(),
                              lptest::slowMemConfig()});
        LivePointDecodeScratch scratch;
        LivePoint point;
        for (std::size_t i = 0; i < n; ++i) {
            t.lib.decodeInto(i, scratch, point);
            ctx.loadPoint(point);
            ctx.replay(0);
            ctx.replay(1);
        }
        const std::uint64_t before =
            gAllocs.load(std::memory_order_relaxed);
        for (std::size_t i = 0; i < n; ++i) {
            t.lib.decodeInto(i, scratch, point);
            ctx.loadPoint(point);
            ctx.replay(0);
            ctx.replay(1);
        }
        const std::uint64_t after =
            gAllocs.load(std::memory_order_relaxed);
        CHECK_EQ(after - before, 0u);
    }
}

/**
 * The same contract one level up: the engine's per-worker decode
 * scratch, point and context are reused across points and runs. After
 * warm runs, a run over the whole library allocates exactly as much as
 * a run over two fold blocks — only the per-run bookkeeping, nothing
 * per point — at threads 1 and 2, single-config and fanned out.
 */
void
zeroAllocEngineRun()
{
    const std::vector<CoreConfig> both{lptest::baseConfig(),
                                       lptest::slowMemConfig()};
    const lptest::TinyLib t =
        lptest::buildTinyLibrary("hotpath-engine", 60'000, 33, 16, both);
    const std::size_t n = t.lib.size();
    const std::size_t block = 4;
    CHECK(n >= 4 * block);
    const std::vector<std::size_t> whole = replayOrder(n, 0);
    const std::vector<std::size_t> twoBlocks(whole.begin(),
                                             whole.begin() + 2 * block);

    for (const std::size_t nc : {std::size_t{1}, std::size_t{2}}) {
        const std::vector<CoreConfig> cfgs(both.begin(),
                                           both.begin() + nc);
        for (const unsigned threads : {1u, 2u}) {
            ReplayEngineOptions ropt;
            ropt.threads = threads;
            ReplayEngine engine(t.prog, cfgs, ropt);
            std::uint64_t cycles = 0;
            const std::function<void(std::size_t, const WindowResult *)>
                fold = [&](std::size_t, const WindowResult *w) {
                    cycles += w[0].cycles;
                };
            const std::function<std::uint64_t(std::size_t)> barrier =
                [nc](std::size_t) { return replayMaskAll(nc); };
            auto allocsOf = [&](const std::vector<std::size_t> &order) {
                const std::uint64_t before =
                    gAllocs.load(std::memory_order_relaxed);
                engine.run(t.lib, order, block, false, fold, barrier);
                return gAllocs.load(std::memory_order_relaxed) - before;
            };
            allocsOf(whole);
            // A worker's buffers reach their high-water mark once it
            // has met the largest point, and which worker meets which
            // point is up to the scheduler; so the pair is measured
            // again until neither run grew a buffer. A per-point
            // allocation would make every whole run the larger one.
            std::uint64_t wholeRun = 0;
            std::uint64_t perRun = 1;
            for (int tries = 0; tries < 8 && wholeRun != perRun; ++tries) {
                perRun = allocsOf(twoBlocks);
                wholeRun = allocsOf(whole);
            }
            CHECK_EQ(wholeRun, perRun);
            CHECK(cycles > 0);
        }
    }
}

} // namespace

int
main()
{
    cacheEquivalence();
    overlayEquivalence();
    memoryImageFlatPath();
    zeroAllocSteadyState();
    zeroAllocEngineRun();
    return TEST_MAIN_RESULT();
}
