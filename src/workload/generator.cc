#include "workload/generator.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.hh"

namespace lp
{

namespace
{

constexpr Addr kCodeBase = 0x40000000ull;
constexpr Addr kDataBase = 0x10000000ull;
constexpr std::uint64_t kHotBytes = 64 * 1024;
/** Chunk-phase table cap (4 MB); later chunks hash their phase. */
constexpr InstCount kMaxTableChunks = InstCount{1} << 22;

std::uint64_t
hashVal(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
        std::uint64_t salt)
{
    return hashMix(hashCombine(hashCombine(seed, a), hashCombine(b, salt)));
}

/** Uniform double in [0,1) from a 64-bit hash. */
double
toU01(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/** Uniform double in [0,1) from a hash of (seed, a, b, salt). */
double
hashU01(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
        std::uint64_t salt)
{
    return toU01(hashVal(seed, a, b, salt));
}

/** Static role of a slot in a phase's loop body. */
Opcode
slotRole(const PhaseSpec &ph, std::uint64_t seed, unsigned phase,
         unsigned slot)
{
    if (slot + 1 == ph.bodySize)
        return Opcode::Bne; // loop-back branch
    const double u = hashU01(seed, phase, slot, 0x201e);
    double t = ph.loadFrac;
    if (u < t)
        return Opcode::Load;
    t += ph.storeFrac;
    if (u < t)
        return Opcode::Store;
    t += ph.branchFrac;
    if (u < t)
        return Opcode::Bne;
    t += ph.fpFrac;
    if (u < t)
        return Opcode::FpAlu;
    t += ph.mulFrac;
    if (u < t)
        return Opcode::IntMul;
    return Opcode::IntAlu;
}

} // namespace

Blob
ArchRegs::serialize() const
{
    DerWriter w;
    serialize(w);
    return w.finish();
}

void
ArchRegs::serialize(DerWriter &w) const
{
    w.beginSequence();
    w.putUint(instIndex);
    for (const std::uint64_t v : r)
        w.putUint(v);
    w.endSequence();
}

ArchRegs
ArchRegs::deserialize(DerReader &rd)
{
    DerReader seq = rd.getSequence();
    ArchRegs regs;
    regs.instIndex = seq.getUint();
    for (std::uint64_t &v : regs.r)
        v = seq.getUint();
    return regs;
}

namespace
{

/**
 * Phase of a chunk: hash-based rather than round-robin, so a
 * systematic sample can never alias with the phase schedule (a
 * sampling hazard that would bias pilot variance estimates).
 */
unsigned
chunkPhase(std::uint64_t seed, std::uint64_t chunk, std::size_t nPhases)
{
    return static_cast<unsigned>(hashVal(seed, chunk, 0, 0x9a5e) %
                                 nPhases);
}

/** Phase index of @p chunk: the table, else the hash. */
unsigned
phaseOfChunk(const Program &prog, std::uint64_t chunk)
{
    return chunk < prog.chunkPhases.size()
               ? prog.chunkPhases[chunk]
               : chunkPhase(prog.profile.seed, chunk, prog.phases.size());
}

/**
 * hashVal(seed, index, slot, salt) with the slot half
 * (instanceKey = hashCombine(slot, salt)) taken from the slot table.
 */
std::uint64_t
instanceHash(std::uint64_t seed, InstCount index, std::uint64_t instanceKey)
{
    return hashMix(hashCombine(hashCombine(seed, index), instanceKey));
}

/** Decode slot @p slot of phase @p phase (the static part of fetch). */
SlotDecode
decodeSlot(const PhaseSpec &ph, std::uint64_t seed, unsigned phase,
           unsigned slot)
{
    SlotDecode sd;
    sd.op = slotRole(ph, seed, phase, slot);

    const std::uint64_t h = hashVal(seed, phase, slot, 0x0b5);
    switch (sd.op) {
      case Opcode::Load:
      case Opcode::IntAlu:
      case Opcode::IntMul:
        sd.dst = static_cast<std::uint8_t>(1 + (h % 15));
        sd.src1 = static_cast<std::uint8_t>(1 + ((h >> 8) % 15));
        sd.src2 = static_cast<std::uint8_t>(1 + ((h >> 16) % 15));
        break;
      case Opcode::Store:
        // Stores define no register (dst 0 = hardwired zero).
        sd.src1 = static_cast<std::uint8_t>(1 + ((h >> 8) % 15));
        sd.src2 = static_cast<std::uint8_t>(1 + ((h >> 16) % 15));
        break;
      case Opcode::FpAlu:
      case Opcode::FpMul:
        sd.dst = static_cast<std::uint8_t>(16 + (h % 15));
        sd.src1 = static_cast<std::uint8_t>(16 + ((h >> 8) % 15));
        sd.src2 = static_cast<std::uint8_t>(16 + ((h >> 16) % 15));
        break;
      case Opcode::Bne:
      case Opcode::Jump:
        sd.src1 = static_cast<std::uint8_t>(1 + (h % 15));
        sd.src2 = static_cast<std::uint8_t>(1 + ((h >> 8) % 15));
        break;
    }

    using Dynamic = SlotDecode::Dynamic;
    if (sd.op == Opcode::Load || sd.op == Opcode::Store) {
        // Locality class is a property of the static slot; the
        // concrete address varies per dynamic instance.
        const double lu = hashU01(seed, phase, slot, 0x10c);
        if (lu < ph.randomFrac) {
            sd.dynamic = Dynamic::RandomAddr;
            sd.instanceKey = hashCombine(slot, 0xadd);
        } else if (lu < ph.randomFrac + ph.hotFrac) {
            sd.dynamic = Dynamic::HotAddr;
            sd.instanceKey = hashCombine(slot, 0x607);
        } else {
            sd.dynamic = Dynamic::StridedAddr;
            sd.stride = 8ull << (hashVal(seed, phase, slot, 0x57) % 4);
        }
    } else if (sd.op == Opcode::Bne) {
        if (slot + 1 == ph.bodySize) {
            sd.dynamic = Dynamic::LoopBack;
            sd.target = ph.pcBase;
        } else {
            sd.target = ph.pcBase + slot + 1 + (h % 16);
            if (hashU01(seed, phase, slot, 0x4015e) < ph.noiseFrac) {
                sd.dynamic = Dynamic::NoisyDir;
                sd.instanceKey = hashCombine(slot, 0xd1ce);
            } else {
                // Stable per-site direction with rare flips.
                sd.dynamic = Dynamic::StableDir;
                sd.dir = hashU01(seed, phase, slot, 0xd12) < ph.takenBias;
                sd.instanceKey = hashCombine(slot, 0xf11b);
            }
        }
    }
    return sd;
}

} // namespace

const PhaseSpec &
Program::phaseAt(InstCount index) const
{
    return phases[phaseOfChunk(*this, index / chunkInsts)];
}

Instruction
Program::fetch(InstCount index) const
{
    const std::uint64_t chunk = index / chunkInsts;
    const InstCount chunkOff = index % chunkInsts;
    const PhaseSpec &ph = phases[phaseOfChunk(*this, chunk)];
    const unsigned slot = static_cast<unsigned>(chunkOff % ph.bodySize);
    const SlotDecode &sd = slots[ph.firstSlot + slot];

    Instruction ins;
    ins.op = sd.op;
    ins.dst = sd.dst;
    ins.src1 = sd.src1;
    ins.src2 = sd.src2;
    ins.pc = ph.pcBase + slot;
    ins.target = sd.target;

    const std::uint64_t seed = profile.seed;
    std::uint64_t off = 0;
    switch (sd.dynamic) {
      case SlotDecode::Dynamic::None:
        return ins;
      case SlotDecode::Dynamic::RandomAddr: {
        // A drifting random neighborhood: pointer-heavy code revisits
        // a working frontier that advances through the footprint.
        // Reuse mass stays short-distance (as in real programs)
        // instead of the fat uniform tail a whole-region random draw
        // would give MRRL.
        const std::uint64_t neighborhood = 32 * 1024;
        const std::uint64_t frontier = (index / 4096) * 2048;
        const std::uint64_t h = instanceHash(seed, index, sd.instanceKey);
        off = (frontier + h % neighborhood) % ph.regionBytes;
        break;
      }
      case SlotDecode::Dynamic::HotAddr:
        off = instanceHash(seed, index, sd.instanceKey) % ph.hotBytes;
        break;
      case SlotDecode::Dynamic::StridedAddr: {
        const std::uint64_t iter = index / ph.bodySize; // global
        off = (iter * sd.stride + slot * 8) % ph.regionBytes;
        break;
      }
      case SlotDecode::Dynamic::LoopBack:
        ins.taken = (chunkOff + 1 != chunkInsts);
        return ins;
      case SlotDecode::Dynamic::NoisyDir:
        ins.taken = toU01(instanceHash(seed, index, sd.instanceKey)) < 0.5;
        return ins;
      case SlotDecode::Dynamic::StableDir:
        ins.taken =
            sd.dir !=
            (toU01(instanceHash(seed, index, sd.instanceKey)) < 0.04);
        return ins;
    }
    ins.addr = ph.regionBase + (off & ~7ull);
    return ins;
}

Instruction
Program::wrongPath(InstCount index, unsigned k) const
{
    const std::uint64_t seed = profile.seed;
    const PhaseSpec &ph = phaseAt(index);
    const std::uint64_t h = hashVal(seed, index, k, 0x3209);

    Instruction ins;
    ins.pc = ph.pcBase + (h % ph.bodySize);
    ins.dst = static_cast<std::uint8_t>(1 + (h % 15));
    ins.src1 = static_cast<std::uint8_t>(1 + ((h >> 8) % 15));
    ins.src2 = static_cast<std::uint8_t>(1 + ((h >> 16) % 15));
    if ((h >> 24) % 100 < 30) {
        ins.op = Opcode::Load;
        if ((h >> 32) % 100 < 3) {
            // Rarely, a genuinely cold address in the region.
            ins.addr =
                ph.regionBase +
                ((hashVal(seed, index, k, 0xc01d) % ph.regionBytes) &
                 ~7ull);
        } else {
            // Usually data the correct path touched recently: the
            // same 64-byte block as a nearby load/store (wrong paths
            // mostly re-reference live data, so under restricted
            // live-state only the rare cold access is unavailable).
            const std::uint64_t back = 1 + (h >> 40) % 32;
            Addr base = ph.regionBase;
            for (unsigned s = 0; s < 12; ++s) {
                const InstCount j =
                    index > back + s ? index - back - s : 0;
                const Instruction recent = fetch(j);
                if (recent.isMem()) {
                    base = recent.addr;
                    break;
                }
            }
            ins.addr = (base & ~63ull) + ((h >> 48) % 8) * 8;
        }
    } else {
        ins.op = Opcode::IntAlu;
    }
    return ins;
}

Program
generateProgram(const WorkloadProfile &profile)
{
    if (profile.phases > Program::kMaxPhases)
        throw std::invalid_argument(
            "generateProgram: " + std::to_string(profile.phases) +
            " phases exceed the limit of " +
            std::to_string(Program::kMaxPhases));

    Program prog;
    prog.name = profile.name;
    prog.profile = profile;
    prog.codeBase = kCodeBase;
    prog.dataBase = kDataBase;
    prog.chunkInsts = std::max<InstCount>(profile.phaseInsts, 1'000);

    const std::uint64_t seed = profile.seed;
    const unsigned nPhases = std::max(1u, profile.phases);
    const std::uint64_t footprint =
        std::max<std::uint64_t>(profile.footprintBytes, 1u << 20);
    // Phase regions overlap so their union approximates the footprint
    // while consecutive phases still share data.
    const std::uint64_t regionBytes = std::max<std::uint64_t>(
        footprint / 2, 256 * 1024);
    const std::uint64_t step =
        nPhases > 1 ? (footprint - regionBytes) / (nPhases - 1) : 0;

    for (unsigned p = 0; p < nPhases; ++p) {
        PhaseSpec ph;
        ph.regionBase = kDataBase + ((step * p) & ~4095ull);
        ph.regionBytes = regionBytes;
        ph.hotBytes = std::min<std::uint64_t>(kHotBytes, regionBytes);
        ph.pcBase = static_cast<PcIndex>(p) * 0x100000ull;
        const double v = profile.phaseVariation;
        auto mod = [&](double x, std::uint64_t salt) {
            const double f =
                1.0 + v * (2.0 * hashU01(seed, p, 0, salt) - 1.0);
            return std::clamp(x * f, 0.0, 0.45);
        };
        ph.loadFrac = mod(profile.loadFrac, 0x10ad);
        ph.storeFrac = mod(profile.storeFrac, 0x5702e);
        ph.branchFrac = mod(profile.branchFrac, 0xb2a);
        ph.fpFrac = mod(profile.fpFrac, 0xf9);
        ph.mulFrac = mod(profile.mulFrac, 0x301);
        ph.takenBias = std::clamp(
            profile.branchTakenBias +
                0.15 * (2.0 * hashU01(seed, p, 0, 0xb1a5) - 1.0),
            0.05, 0.95);
        ph.noiseFrac = std::clamp(
            profile.branchNoise *
                (1.0 + v * (2.0 * hashU01(seed, p, 0, 0x4015) - 1.0)),
            0.0, 0.8);
        ph.randomFrac = mod(profile.randomAccessFrac, 0x2a4d);
        ph.hotFrac = mod(profile.hotAccessFrac, 0x607);
        ph.bodySize = static_cast<unsigned>(std::clamp<std::uint64_t>(
            profile.loopBodySize / 2 +
                hashVal(seed, p, 0, 0xb0d) %
                    std::max(1u, profile.loopBodySize),
            32, 1024));
        ph.firstSlot = prog.slots.size();
        for (unsigned slot = 0; slot < ph.bodySize; ++slot)
            prog.slots.push_back(decodeSlot(ph, seed, p, slot));
        prog.phases.push_back(ph);
    }

    const InstCount chunks =
        std::max<InstCount>(profile.targetInsts / prog.chunkInsts, 1);
    prog.length = chunks * prog.chunkInsts;
    prog.chunkPhases.resize(std::min<InstCount>(chunks, kMaxTableChunks));
    for (std::size_t c = 0; c < prog.chunkPhases.size(); ++c)
        prog.chunkPhases[c] =
            static_cast<std::uint8_t>(chunkPhase(seed, c, nPhases));

    // Initial data: a deterministic pattern over the first hot region
    // so early loads see nonzero values (one hash per 8-byte word,
    // stored little-endian).
    prog.dataInit.resize(kHotBytes);
    for (std::size_t w = 0; w < kHotBytes / 8; ++w) {
        const std::uint64_t h = hashVal(seed, w, 0, 0xda7a);
        for (unsigned b = 0; b < 8; ++b)
            prog.dataInit[w * 8 + b] =
                static_cast<std::uint8_t>(h >> (b * 8));
    }

    return prog;
}

InstCount
measureProgramLength(const Program &prog)
{
    return prog.length;
}

void
executeArch(const Instruction &ins, ArchRegs &regs, MemPort &mem)
{
    auto &r = regs.r;
    switch (ins.op) {
      case Opcode::IntAlu:
      case Opcode::FpAlu:
        r[ins.dst] = r[ins.src1] + r[ins.src2] + 1;
        break;
      case Opcode::IntMul:
      case Opcode::FpMul:
        r[ins.dst] = r[ins.src1] * (r[ins.src2] | 1);
        break;
      case Opcode::Load:
        r[ins.dst] = mem.read64(ins.addr);
        break;
      case Opcode::Store:
        mem.write64(ins.addr, r[ins.src1]);
        break;
      case Opcode::Bne:
      case Opcode::Jump:
        break;
    }
    r[0] = 0;
    ++regs.instIndex;
}

} // namespace lp
