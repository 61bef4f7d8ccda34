/**
 * @file
 * The fleet result store — a compact binary database of finished
 * campaign cells, so a re-submitted or widened design-space grid pays
 * O(lookup) instead of O(replay). Every converged (or
 * ran-to-completion) cell the campaign engine produces is
 * content-addressed by its full replay identity:
 *
 *   (library contentHash, config digest, shuffle seed, block size,
 *    wrong-path mode, stopping mode, confidence-spec bits)
 *
 * and the engine's determinism guarantee makes that key sufficient:
 * two runs with the same key fold the same observations in the same
 * order and stop at the same point, so the stored RunningStat::State
 * and CPI bits ARE the result a fresh replay would produce, bit for
 * bit. Matched-pair deltas are stored under the analogous
 * (libHash, baseDigest, testDigest, ...) key.
 *
 * On-disk container (`LPRES1`, one file, written atomically):
 *
 *   header   48 B: magic "LPRES1\n\0", version, meta size, cell
 *            count, pair count, FNV-1a of the preceding 40 bytes
 *   meta     DER sequence (role string + the counts again) — the
 *            extensible part of the format
 *   index    cellCount x 8 B: each cell record's key hash (FNV-1a of
 *            its 8 key words), in record order, so a reader can
 *            binary-probe candidates without touching record bodies
 *   cells    cellCount x 136 B fixed-width records, each ending in
 *            its own FNV-1a
 *   pairs    pairCount x 112 B fixed-width records, ditto
 *   footer   16 B checksum footer over everything above
 *            (appendChecksumFooter)
 *
 * Loading is corruption-strict in the library-container sense: any
 * truncation or byte flip anywhere in the file — header, meta,
 * index, record bodies, per-record checksums, footer — throws
 * IoError; there is no partial or best-effort load. Duplicate keys
 * (an append-style producer, or a crashed compaction) are legal in
 * the container and resolve last-writer-wins at load; compact()
 * rewrites the file with the survivors only.
 *
 * The in-memory store is internally synchronized: concurrent service
 * workers may publish() while the daemon answers queries.
 */

#ifndef LP_STORE_RESULT_STORE_HH
#define LP_STORE_RESULT_STORE_HH

#include <cstring>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sample.hh"
#include "io/source.hh"
#include "stats/running_stat.hh"
#include "util/types.hh"

namespace lp
{

/** IEEE-754 bit pattern of @p v (the exact-identity currency). */
inline std::uint64_t
doubleBits(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/** Inverse of doubleBits(). */
inline double
bitsFromDouble(std::uint64_t b)
{
    double v;
    std::memcpy(&v, &b, sizeof(v));
    return v;
}

/**
 * The full replay identity of one campaign cell. Two cells with equal
 * keys produce bit-identical results (the campaign engine's
 * determinism contract), which is what makes memoization sound.
 *
 * When stopAtConfidence is false the confidence spec cannot affect
 * the fold trajectory (the run always consumes the whole library), so
 * keys are canonicalized with the spec bits zeroed — a full-library
 * result is reusable under any spec.
 */
struct ResultKey
{
    std::uint64_t libHash = 0;      //!< LivePointLibrary::contentHash()
    std::uint64_t configDigest = 0; //!< CoreConfig digest
    std::uint64_t shuffleSeed = 0;
    std::uint64_t blockSize = 0;
    bool stopAtConfidence = false;
    bool approxWrongPath = false;
    std::uint64_t levelBits = 0;  //!< doubleBits(spec.level)
    std::uint64_t relErrBits = 0; //!< doubleBits(spec.relativeError)

    /** Canonical key for a cell replayed under @p spec. */
    static ResultKey make(std::uint64_t libHash,
                          std::uint64_t configDigest,
                          std::uint64_t shuffleSeed,
                          std::uint64_t blockSize,
                          bool stopAtConfidence, bool approxWrongPath,
                          const ConfidenceSpec &spec);

    /** FNV-1a over the 8 key words (the on-disk index entry). */
    std::uint64_t hash() const;

    bool operator==(const ResultKey &o) const
    {
        return libHash == o.libHash &&
               configDigest == o.configDigest &&
               shuffleSeed == o.shuffleSeed &&
               blockSize == o.blockSize &&
               stopAtConfidence == o.stopAtConfidence &&
               approxWrongPath == o.approxWrongPath &&
               levelBits == o.levelBits && relErrBits == o.relErrBits;
    }
};

/** One memoized cell: its key plus everything needed to restore it. */
struct CellRecord
{
    ResultKey key;
    std::uint64_t libPoints = 0; //!< library size when recorded
    std::uint64_t processed = 0; //!< points folded at the stop point
    std::uint64_t unavailableLoads = 0;
    bool converged = false; //!< retired by its confidence target
    std::uint64_t cpiBits = 0; //!< doubleBits of the cell's CPI
    RunningStat::State stat;   //!< the complete fold state
};

/** One memoized matched-pair delta between two configs. */
struct PairRecord
{
    std::uint64_t libHash = 0;
    std::uint64_t baseDigest = 0;
    std::uint64_t testDigest = 0;
    std::uint64_t shuffleSeed = 0;
    std::uint64_t blockSize = 0;
    bool stopAtConfidence = false;
    bool approxWrongPath = false;
    std::uint64_t levelBits = 0;
    std::uint64_t relErrBits = 0;
    RunningStat::State delta;

    /** FNV-1a over the 9 identity words. */
    std::uint64_t hash() const;
};

class ResultStore
{
  public:
    ResultStore() = default;
    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Load @p path (through a LibrarySource backend, so a large store
     * can be mmap'ed) into this store, replacing its contents.
     * Corruption-strict: throws IoError on any truncation, bad
     * checksum, malformed header/meta, or size inconsistency.
     * Duplicate keys resolve last-writer-wins; supersededRecords()
     * reports how many were shadowed.
     */
    void load(const std::string &path,
              StorageBackend backend = StorageBackend::autoSelect);

    /**
     * load() when the file exists, empty store otherwise — the
     * open-or-create path the service uses. Remembers @p path so
     * save() with no argument rewrites the same file.
     */
    void open(const std::string &path,
              StorageBackend backend = StorageBackend::autoSelect);

    /** Serialize to @p path atomically (write-temp/fsync/rename). */
    void save(const std::string &path) const;

    /** save() to the path open() remembered. */
    void save() const;

    /** Insert or overwrite (last-writer-wins) one cell record. */
    void put(const CellRecord &rec);

    /** Insert or overwrite one pair record. */
    void putPair(const PairRecord &rec);

    /**
     * The record stored under exactly @p key, or nullopt. The engine
     * memoizes on exact-key hits only — that is the "confidence spec
     * no looser" rule in its bit-identity-preserving form (an equal
     * spec is no looser, and only an equal spec reproduces the same
     * stopping point).
     */
    bool find(const ResultKey &key, CellRecord *out) const;

    /** The pair delta for (libHash, base, test) under the run key. */
    bool findPair(const PairRecord &probe, PairRecord *out) const;

    /** Snapshot of all cell records, file order. */
    std::vector<CellRecord> cells() const;

    /** Snapshot of all pair records, file order. */
    std::vector<PairRecord> pairs() const;

    std::size_t cellCount() const;
    std::size_t pairCount() const;

    /** Duplicate-key records shadowed by the last load(). */
    std::size_t supersededRecords() const;

    /**
     * Drop superseded duplicates from the in-memory store (the loaded
     * maps already resolved them; this rewrites the record vectors so
     * a subsequent save() emits each key once). Returns the number of
     * records removed.
     */
    std::size_t compact();

    /** The path open() remembered ("" before open()). */
    std::string path() const;

  private:
    void rebuildIndexLocked();
    Blob serializeLocked() const;
    void parseLocked(const std::uint8_t *data, std::size_t size,
                     const std::string &path);

    mutable std::mutex mu_;
    mutable std::mutex saveM_; //!< orders concurrent save() snapshots
    std::string path_;
    std::vector<CellRecord> cells_;
    std::vector<PairRecord> pairs_;
    std::unordered_map<std::uint64_t, std::size_t> cellIdx_;
    std::unordered_map<std::uint64_t, std::size_t> pairIdx_;
    std::size_t superseded_ = 0;
};

} // namespace lp

#endif // LP_STORE_RESULT_STORE_HH
