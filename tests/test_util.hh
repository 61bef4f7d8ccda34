/**
 * @file
 * Shared fixtures for the ctest suites: the tiny-library builder
 * boilerplate every replay-facing test repeats, common configuration
 * presets, and tolerance/throw assertions on top of harness.hh. Test
 * binaries stay single-file; this header is the one place fixture
 * conventions live.
 */

#ifndef LP_TESTS_TEST_UTIL_HH
#define LP_TESTS_TEST_UTIL_HH

#include "harness.hh"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "codec/der.hh"
#include "core/builder.hh"
#include "core/library.hh"
#include "uarch/config.hh"
#include "util/rng.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

/** |a - b| <= rel * |b| (relative tolerance against the reference). */
#define CHECK_REL(a, b, rel)                                              \
    do {                                                                  \
        const double ra_ = (a);                                           \
        const double rb_ = (b);                                           \
        if (!(std::fabs(ra_ - rb_) <= (rel)*std::fabs(rb_))) {            \
            std::fprintf(stderr,                                          \
                         "FAIL %s:%d: |%s - %s| = |%g - %g| > %g rel\n", \
                         __FILE__, __LINE__, #a, #b, ra_, rb_,            \
                         static_cast<double>(rel));                       \
            ++lpTestFailures;                                             \
        }                                                                 \
    } while (0)

/** The expression must throw a std::exception (any derived type). */
#define CHECK_THROWS(expr)                                                \
    do {                                                                  \
        bool threw_ = false;                                              \
        try {                                                             \
            (void)(expr);                                                 \
        } catch (const std::exception &) {                                \
            threw_ = true;                                                \
        }                                                                 \
        if (!threw_) {                                                    \
            std::fprintf(stderr, "FAIL %s:%d: %s did not throw\n",       \
                         __FILE__, __LINE__, #expr);                      \
            ++lpTestFailures;                                             \
        }                                                                 \
    } while (0)

namespace lptest
{

/** A generated benchmark with a systematic design laid over it. */
struct TinyBench
{
    lp::WorkloadProfile profile;
    lp::Program prog;
    lp::InstCount length = 0;
    lp::SampleDesign design;
};

/**
 * Generate a tiny deterministic benchmark and its design: @p windows
 * measured windows of 1000 instructions, warmed per @p warmLen
 * (default: the 8-way baseline's detailed warming).
 */
inline TinyBench
makeTinyBench(const std::string &name, lp::InstCount insts,
              std::uint64_t seed, std::uint64_t windows,
              lp::InstCount warmLen = 0)
{
    TinyBench t;
    t.profile = lp::tinyProfile(insts, seed);
    t.profile.name = name;
    t.prog = lp::generateProgram(t.profile);
    t.length = lp::measureProgramLength(t.prog);
    t.design = lp::SampleDesign::systematic(
        t.length, windows, 1000,
        warmLen ? warmLen : lp::CoreConfig::eightWay().detailedWarming);
    return t;
}

/** A generated benchmark with a built live-point library. */
struct TinyLib
{
    lp::WorkloadProfile profile;
    lp::Program prog;
    lp::InstCount length = 0;
    lp::SampleDesign design;
    lp::LivePointLibrary lib;
};

/**
 * The standard test fixture: generate a tiny deterministic benchmark,
 * lay a systematic design over it, and build its live-point library
 * covering every predictor in @p cfgs (all of @p cfgs must share the
 * detailed-warming length of cfgs[0], which sizes the windows).
 * @p shuffleSeed != 0 also shuffles the library. @p tweak (optional)
 * edits the builder configuration before the build — the hook the
 * dictionary/delta and threading variants use.
 */
inline TinyLib
buildTinyLibrary(
    const std::string &name, lp::InstCount insts, std::uint64_t seed,
    std::uint64_t windows,
    const std::vector<lp::CoreConfig> &cfgs =
        {lp::CoreConfig::eightWay()},
    std::uint64_t shuffleSeed = 0,
    const std::function<void(lp::LivePointBuilderConfig &)> &tweak = {})
{
    TinyLib t;
    TinyBench b = makeTinyBench(name, insts, seed, windows,
                                cfgs.front().detailedWarming);
    t.profile = std::move(b.profile);
    t.prog = std::move(b.prog);
    t.length = b.length;
    t.design = b.design;
    lp::LivePointBuilderConfig bc;
    bc.bpredConfigs.clear();
    for (const lp::CoreConfig &c : cfgs) {
        bool seen = false;
        for (const lp::BpredConfig &have : bc.bpredConfigs)
            seen = seen || have.key() == c.bpred.key();
        if (!seen)
            bc.bpredConfigs.push_back(c.bpred);
    }
    if (tweak)
        tweak(bc);
    lp::LivePointBuilder builder(bc);
    t.lib = builder.build(t.prog, t.design);
    if (shuffleSeed) {
        lp::Rng rng(shuffleSeed, "test-shuffle");
        t.lib.shuffle(rng);
    }
    return t;
}

/** The paper's 8-way baseline (Table 1). */
inline lp::CoreConfig
baseConfig()
{
    return lp::CoreConfig::eightWay();
}

/** The baseline with plainly slower memory — a surely-visible delta. */
inline lp::CoreConfig
slowMemConfig()
{
    lp::CoreConfig c = lp::CoreConfig::eightWay();
    c.name = "slow-mem";
    c.mem.memLatency = 400;
    c.mem.l2Latency = 40;
    return c;
}

/** Read a whole file (empty if it cannot be read). */
inline lp::Blob
slurpFile(const std::string &path)
{
    lp::Blob out;
    if (FILE *f = std::fopen(path.c_str(), "rb")) {
        std::fseek(f, 0, SEEK_END);
        out.resize(static_cast<std::size_t>(std::ftell(f)));
        std::fseek(f, 0, SEEK_SET);
        if (!out.empty() &&
            std::fread(out.data(), 1, out.size(), f) != out.size())
            out.clear();
        std::fclose(f);
    }
    return out;
}

/** Overwrite a whole file. */
inline void
spewFile(const std::string &path, const lp::Blob &data)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    CHECK(f != nullptr);
    if (!f)
        return;
    if (!data.empty())
        CHECK(std::fwrite(data.data(), 1, data.size(), f) ==
              data.size());
    std::fclose(f);
}

/** Little-endian u64 at @p off of @p b. */
inline std::uint64_t
u64At(const lp::Blob &b, std::size_t off)
{
    std::uint64_t v = 0;
    for (unsigned j = 0; j < 8; ++j)
        v |= static_cast<std::uint64_t>(b[off + j]) << (8 * j);
    return v;
}

/** Store @p v little-endian at @p off of @p b. */
inline void
putU64At(lp::Blob &b, std::size_t off, std::uint64_t v)
{
    for (unsigned j = 0; j < 8; ++j)
        b[off + j] = static_cast<std::uint8_t>(v >> (8 * j));
}

/** The container layouts the library reads but no longer writes. */
enum class LegacyFormat
{
    lpl2, //!< one DER sequence: magic, meta, (rawSize, index, bytes)*
    lpl3  //!< 64-byte header, meta, 32-byte rows, records
};

/**
 * Test-only legacy emitter: rewrite the plain LPLIB4 file at @p src
 * into @p fmt at @p dst — the same meta, records and stored order,
 * without the flags/base/checksum columns. The legacy loaders keep
 * their coverage (backend matrix, bit-identical decode, field
 * corruption) through files made this way. A delta record, which
 * neither legacy layout can represent, throws.
 */
inline void
writeLegacyLibrary(const std::string &src, const std::string &dst,
                   LegacyFormat fmt)
{
    const lp::Blob in = slurpFile(src);
    if (in.size() < 80 || std::memcmp(in.data(), "LPLIB4\n", 8) != 0)
        throw std::runtime_error("legacy emitter: not an LPLIB4 file");
    const std::uint64_t count = u64At(in, 16);
    const std::uint64_t metaAt = u64At(in, 24);
    const std::uint64_t metaSize = u64At(in, 32);
    const std::uint64_t tableAt = u64At(in, 56);
    const std::uint64_t dataAt = u64At(in, 64);
    struct Row
    {
        std::uint64_t rel, size, rawSize, index;
    };
    std::vector<Row> rows;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::size_t r = static_cast<std::size_t>(tableAt + i * 56);
        if (u64At(in, r + 32) != 0)
            throw std::runtime_error(
                "legacy emitter: encoded records have no legacy form");
        rows.push_back({u64At(in, r), u64At(in, r + 8),
                        u64At(in, r + 16), u64At(in, r + 24)});
    }
    const std::uint8_t *meta = in.data() + metaAt;
    const std::uint8_t *data = in.data() + dataAt;

    lp::Blob out;
    if (fmt == LegacyFormat::lpl2) {
        lp::DerReader mr(lp::ByteSpan(meta, metaSize));
        const std::string bench = mr.getString();
        lp::DerReader ds = mr.getSequence();
        lp::DerWriter w;
        w.beginSequence();
        w.putUint(0x4c504c494232ull); // "LPLIB2"
        w.putString(bench);
        w.beginSequence();
        for (int k = 0; k < 4; ++k) // benchLength, count, measure, warm
            w.putUint(ds.getUint());
        w.endSequence();
        w.putUint(count);
        for (const Row &r : rows) {
            w.putUint(r.rawSize);
            w.putUint(r.index);
            w.putBytes(data + r.rel, r.size);
        }
        w.endSequence();
        out = w.finish();
    } else {
        const std::uint64_t table3 = 64 + metaSize;
        const std::uint64_t data3 = table3 + count * 32;
        out.assign(data3, 0);
        std::memcpy(out.data(), "LPLIB3\n", 8);
        putU64At(out, 8, 1); // version
        putU64At(out, 16, count);
        putU64At(out, 24, 64);
        putU64At(out, 32, metaSize);
        putU64At(out, 40, table3);
        putU64At(out, 48, data3);
        putU64At(out, 56, data3 + (in.size() - dataAt));
        std::memcpy(out.data() + 64, meta, metaSize);
        for (std::uint64_t i = 0; i < count; ++i) {
            const std::size_t r = static_cast<std::size_t>(table3 + i * 32);
            putU64At(out, r, rows[i].rel);
            putU64At(out, r + 8, rows[i].size);
            putU64At(out, r + 16, rows[i].rawSize);
            putU64At(out, r + 24, rows[i].index);
        }
        out.insert(out.end(), data, in.data() + in.size());
    }
    spewFile(dst, out);
}

namespace jsondetail
{

struct JsonCursor
{
    const char *p;
    const char *e;
};

inline void
jvSkipWs(JsonCursor &c)
{
    while (c.p < c.e && (*c.p == ' ' || *c.p == '\t' ||
                         *c.p == '\n' || *c.p == '\r'))
        ++c.p;
}

inline bool
jvString(JsonCursor &c)
{
    if (c.p >= c.e || *c.p != '"')
        return false;
    ++c.p;
    while (c.p < c.e) {
        const unsigned char u = static_cast<unsigned char>(*c.p);
        if (u == '"') {
            ++c.p;
            return true;
        }
        if (u < 0x20)
            return false; // raw control byte: must be \uXXXX-escaped
        if (u == '\\') {
            ++c.p;
            if (c.p >= c.e)
                return false;
            const char esc = *c.p;
            if (esc == '"' || esc == '\\' || esc == '/' ||
                esc == 'b' || esc == 'f' || esc == 'n' ||
                esc == 'r' || esc == 't') {
                ++c.p;
                continue;
            }
            if (esc == 'u') {
                ++c.p;
                for (int i = 0; i < 4; ++i, ++c.p)
                    if (c.p >= c.e ||
                        !std::isxdigit(
                            static_cast<unsigned char>(*c.p)))
                        return false;
                continue;
            }
            return false;
        }
        ++c.p;
    }
    return false;
}

inline bool
jvNumber(JsonCursor &c)
{
    if (c.p < c.e && *c.p == '-')
        ++c.p;
    if (c.p >= c.e || !std::isdigit(static_cast<unsigned char>(*c.p)))
        return false;
    if (*c.p == '0')
        ++c.p;
    else
        while (c.p < c.e &&
               std::isdigit(static_cast<unsigned char>(*c.p)))
            ++c.p;
    if (c.p < c.e && *c.p == '.') {
        ++c.p;
        if (c.p >= c.e ||
            !std::isdigit(static_cast<unsigned char>(*c.p)))
            return false;
        while (c.p < c.e &&
               std::isdigit(static_cast<unsigned char>(*c.p)))
            ++c.p;
    }
    if (c.p < c.e && (*c.p == 'e' || *c.p == 'E')) {
        ++c.p;
        if (c.p < c.e && (*c.p == '+' || *c.p == '-'))
            ++c.p;
        if (c.p >= c.e ||
            !std::isdigit(static_cast<unsigned char>(*c.p)))
            return false;
        while (c.p < c.e &&
               std::isdigit(static_cast<unsigned char>(*c.p)))
            ++c.p;
    }
    return true;
}

inline bool
jvLiteral(JsonCursor &c, const char *lit)
{
    const std::size_t n = std::strlen(lit);
    if (static_cast<std::size_t>(c.e - c.p) < n ||
        std::strncmp(c.p, lit, n) != 0)
        return false;
    c.p += n;
    return true;
}

inline bool
jvValue(JsonCursor &c, int depth)
{
    if (depth > 64)
        return false;
    jvSkipWs(c);
    if (c.p >= c.e)
        return false;
    const char ch = *c.p;
    if (ch == '{') {
        ++c.p;
        jvSkipWs(c);
        if (c.p < c.e && *c.p == '}') {
            ++c.p;
            return true;
        }
        for (;;) {
            jvSkipWs(c);
            if (!jvString(c))
                return false;
            jvSkipWs(c);
            if (c.p >= c.e || *c.p != ':')
                return false;
            ++c.p;
            if (!jvValue(c, depth + 1))
                return false;
            jvSkipWs(c);
            if (c.p >= c.e)
                return false;
            if (*c.p == ',') {
                ++c.p;
                continue;
            }
            if (*c.p == '}') {
                ++c.p;
                return true;
            }
            return false;
        }
    }
    if (ch == '[') {
        ++c.p;
        jvSkipWs(c);
        if (c.p < c.e && *c.p == ']') {
            ++c.p;
            return true;
        }
        for (;;) {
            if (!jvValue(c, depth + 1))
                return false;
            jvSkipWs(c);
            if (c.p >= c.e)
                return false;
            if (*c.p == ',') {
                ++c.p;
                continue;
            }
            if (*c.p == ']') {
                ++c.p;
                return true;
            }
            return false;
        }
    }
    if (ch == '"')
        return jvString(c);
    if (ch == 't')
        return jvLiteral(c, "true");
    if (ch == 'f')
        return jvLiteral(c, "false");
    if (ch == 'n')
        return jvLiteral(c, "null");
    return jvNumber(c);
}

} // namespace jsondetail

/**
 * Strict RFC 8259 JSON validator: true iff @p s is exactly one valid
 * JSON value plus optional trailing whitespace. No extensions — raw
 * control bytes inside strings, bad escapes, trailing commas,
 * leading zeros, NaN/Infinity all fail. This is the picky parser the
 * campaign report must round-trip even with hostile failure details.
 */
inline bool
jsonValidate(const std::string &s)
{
    jsondetail::JsonCursor c{s.data(), s.data() + s.size()};
    if (!jsondetail::jvValue(c, 0))
        return false;
    jsondetail::jvSkipWs(c);
    return c.p == c.e;
}

} // namespace lptest

#endif // LP_TESTS_TEST_UTIL_HH
