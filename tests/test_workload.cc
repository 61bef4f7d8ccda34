/**
 * Same-seed reproducibility of programs and functional execution, and
 * the table-driven decoder against the hash-per-call reference.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "harness.hh"

#include "func/functional.hh"
#include "util/rng.hh"
#include "util/threadpool.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace
{

using namespace lp;

// --- Reference decoder ------------------------------------------------
// The instruction stream as a pure function of (profile, index),
// re-deriving every static fact with hashes on each call. The
// table-driven Program::fetch/phaseAt/wrongPath and the dataInit
// pattern must reproduce it exactly.

std::uint64_t
refHash(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
        std::uint64_t salt)
{
    return hashMix(hashCombine(hashCombine(seed, a), hashCombine(b, salt)));
}

double
refU01(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
       std::uint64_t salt)
{
    return static_cast<double>(refHash(seed, a, b, salt) >> 11) * 0x1.0p-53;
}

Opcode
refSlotRole(const PhaseSpec &ph, std::uint64_t seed, unsigned phase,
            unsigned slot)
{
    if (slot + 1 == ph.bodySize)
        return Opcode::Bne;
    const double u = refU01(seed, phase, slot, 0x201e);
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

unsigned
refPhaseIndex(const Program &prog, InstCount index)
{
    const std::uint64_t chunk = index / prog.chunkInsts;
    return static_cast<unsigned>(refHash(prog.profile.seed, chunk, 0,
                                         0x9a5e) %
                                 prog.phases.size());
}

Instruction
refFetch(const Program &prog, InstCount index)
{
    const std::uint64_t seed = prog.profile.seed;
    const unsigned phase = refPhaseIndex(prog, index);
    const PhaseSpec &ph = prog.phases[phase];
    const InstCount chunkOff = index % prog.chunkInsts;
    const unsigned slot = static_cast<unsigned>(chunkOff % ph.bodySize);
    const std::uint64_t iter = index / ph.bodySize;

    Instruction ins;
    ins.op = refSlotRole(ph, seed, phase, slot);
    ins.pc = ph.pcBase + slot;

    const std::uint64_t h = refHash(seed, phase, slot, 0x0b5);
    switch (ins.op) {
      case Opcode::Load:
      case Opcode::IntAlu:
      case Opcode::IntMul:
        ins.dst = static_cast<std::uint8_t>(1 + (h % 15));
        ins.src1 = static_cast<std::uint8_t>(1 + ((h >> 8) % 15));
        ins.src2 = static_cast<std::uint8_t>(1 + ((h >> 16) % 15));
        break;
      case Opcode::Store:
        ins.src1 = static_cast<std::uint8_t>(1 + ((h >> 8) % 15));
        ins.src2 = static_cast<std::uint8_t>(1 + ((h >> 16) % 15));
        break;
      case Opcode::FpAlu:
      case Opcode::FpMul:
        ins.dst = static_cast<std::uint8_t>(16 + (h % 15));
        ins.src1 = static_cast<std::uint8_t>(16 + ((h >> 8) % 15));
        ins.src2 = static_cast<std::uint8_t>(16 + ((h >> 16) % 15));
        break;
      case Opcode::Bne:
      case Opcode::Jump:
        ins.src1 = static_cast<std::uint8_t>(1 + (h % 15));
        ins.src2 = static_cast<std::uint8_t>(1 + ((h >> 8) % 15));
        break;
    }

    if (ins.isMem()) {
        const double lu = refU01(seed, phase, slot, 0x10c);
        std::uint64_t off;
        if (lu < ph.randomFrac) {
            const std::uint64_t h2 = refHash(seed, index, slot, 0xadd);
            const std::uint64_t frontier = (index / 4096) * 2048;
            off = (frontier + (h2 % (32 * 1024))) % ph.regionBytes;
        } else if (lu < ph.randomFrac + ph.hotFrac) {
            off = refHash(seed, index, slot, 0x607) % ph.hotBytes;
        } else {
            const std::uint64_t stride =
                8ull << (refHash(seed, phase, slot, 0x57) % 4);
            off = (iter * stride + slot * 8) % ph.regionBytes;
        }
        ins.addr = ph.regionBase + (off & ~7ull);
    }

    if (ins.op == Opcode::Bne) {
        if (slot + 1 == ph.bodySize) {
            ins.target = ph.pcBase;
            ins.taken = (chunkOff + 1 != prog.chunkInsts);
        } else {
            ins.target = ins.pc + 1 + (h % 16);
            if (refU01(seed, phase, slot, 0x4015e) < ph.noiseFrac) {
                ins.taken = refU01(seed, index, slot, 0xd1ce) < 0.5;
            } else {
                const bool dir =
                    refU01(seed, phase, slot, 0xd12) < ph.takenBias;
                const bool flip = refU01(seed, index, slot, 0xf11b) < 0.04;
                ins.taken = dir != flip;
            }
        }
    }
    return ins;
}

Instruction
refWrongPath(const Program &prog, InstCount index, unsigned k)
{
    const std::uint64_t seed = prog.profile.seed;
    const PhaseSpec &ph = prog.phases[refPhaseIndex(prog, index)];
    const std::uint64_t h = refHash(seed, index, k, 0x3209);

    Instruction ins;
    ins.pc = ph.pcBase + (h % ph.bodySize);
    ins.dst = static_cast<std::uint8_t>(1 + (h % 15));
    ins.src1 = static_cast<std::uint8_t>(1 + ((h >> 8) % 15));
    ins.src2 = static_cast<std::uint8_t>(1 + ((h >> 16) % 15));
    if ((h >> 24) % 100 < 30) {
        ins.op = Opcode::Load;
        if ((h >> 32) % 100 < 3) {
            ins.addr = ph.regionBase +
                       ((refHash(seed, index, k, 0xc01d) % ph.regionBytes) &
                        ~7ull);
        } else {
            const std::uint64_t back = 1 + (h >> 40) % 32;
            Addr base = ph.regionBase;
            for (unsigned s = 0; s < 12; ++s) {
                const InstCount j = index > back + s ? index - back - s : 0;
                const Instruction recent = refFetch(prog, j);
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

bool
sameInstruction(const Instruction &a, const Instruction &b)
{
    return a.op == b.op && a.dst == b.dst && a.src1 == b.src1 &&
           a.src2 == b.src2 && a.pc == b.pc && a.target == b.target &&
           a.addr == b.addr && a.taken == b.taken;
}

/**
 * Mismatches between @p prog's decoder and the reference: every index
 * in [0, length), a tail past length (the chunk-phase fallback),
 * wrong-path instructions k = 0..23 at strided indices, and every
 * dataInit byte. Prints the first mismatch and adds the number of
 * indices fetched to @p checked.
 */
std::uint64_t
oracleMismatches(const Program &prog, std::uint64_t &checked)
{
    std::uint64_t bad = 0;
    auto report = [&](const char *what, InstCount index, unsigned k) {
        if (bad++ == 0)
            std::fprintf(stderr, "%s: %s mismatch at index %llu k %u\n",
                         prog.name.c_str(), what,
                         static_cast<unsigned long long>(index), k);
    };
    const InstCount tail = 3 * prog.chunkInsts + 17;
    for (InstCount i = 0; i < prog.length + tail; ++i) {
        if (!sameInstruction(prog.fetch(i), refFetch(prog, i)))
            report("fetch", i, 0);
        if (&prog.phaseAt(i) != &prog.phases[refPhaseIndex(prog, i)])
            report("phaseAt", i, 0);
    }
    checked += prog.length + tail;
    for (InstCount i = 0; i < prog.length + tail; i += 4099) {
        for (unsigned k = 0; k < 24; ++k)
            if (!sameInstruction(prog.wrongPath(i, k),
                                 refWrongPath(prog, i, k)))
                report("wrongPath", i, k);
    }
    if (prog.dataInit.size() != 64 * 1024)
        report("dataInit size", prog.dataInit.size(), 0);
    for (std::size_t i = 0; i < prog.dataInit.size(); ++i) {
        const auto want = static_cast<std::uint8_t>(
            refHash(prog.profile.seed, i >> 3, 0, 0xda7a) >> ((i & 7) * 8));
        if (prog.dataInit[i] != want)
            report("dataInit", i, 0);
    }
    return bad;
}

} // namespace

int
main()
{
    using namespace lp;

    const WorkloadProfile profile = tinyProfile(300'000, 11);

    // generateProgram is deterministic: identical streams.
    {
        const Program a = generateProgram(profile);
        const Program b = generateProgram(profile);
        CHECK_EQ(a.length, b.length);
        CHECK(measureProgramLength(a) == a.length);
        for (InstCount i = 0; i < a.length; i += 97) {
            const Instruction x = a.fetch(i);
            const Instruction y = b.fetch(i);
            CHECK(x.op == y.op);
            CHECK_EQ(x.pc, y.pc);
            CHECK_EQ(x.addr, y.addr);
            CHECK(x.taken == y.taken);
        }
    }

    // Different seeds give different streams.
    {
        WorkloadProfile other = profile;
        other.seed = 12;
        const Program a = generateProgram(profile);
        const Program b = generateProgram(other);
        bool anyDiff = false;
        for (InstCount i = 0; i < a.length && !anyDiff; i += 13) {
            const Instruction x = a.fetch(i);
            const Instruction y = b.fetch(i);
            anyDiff = x.op != y.op || x.addr != y.addr;
        }
        CHECK(anyDiff);
    }

    // Two functional runs land in identical architectural state, and
    // fetch() is consistent with resumption from any point.
    {
        const Program prog = generateProgram(profile);
        FunctionalSimulator a(prog);
        FunctionalSimulator b(prog);
        a.run(prog.length);
        b.run(prog.length / 3);
        b.run(prog.length); // clamps at program end
        CHECK(a.finished() && b.finished());
        CHECK_EQ(a.regs().instIndex, b.regs().instIndex);
        for (int i = 0; i < 32; ++i)
            CHECK_EQ(a.regs().r[i], b.regs().r[i]);
        CHECK_EQ(a.memory().footprintBytes(),
                 b.memory().footprintBytes());
    }

    // ArchRegs serialization round-trips.
    {
        const Program prog = generateProgram(profile);
        FunctionalSimulator sim(prog);
        sim.run(12345);
        const Blob data = sim.regs().serialize();
        DerReader r(data);
        const ArchRegs back = ArchRegs::deserialize(r);
        CHECK_EQ(back.instIndex, sim.regs().instIndex);
        for (int i = 0; i < 32; ++i)
            CHECK_EQ(back.r[i], sim.regs().r[i]);
    }

    // The instruction mix roughly matches the profile.
    {
        const Program prog = generateProgram(profile);
        InstCount mem = 0;
        InstCount branches = 0;
        const InstCount probe = std::min<InstCount>(prog.length, 100'000);
        for (InstCount i = 0; i < probe; ++i) {
            const Instruction ins = prog.fetch(i);
            if (ins.isMem())
                ++mem;
            if (ins.isBranch())
                ++branches;
        }
        const double memFrac =
            static_cast<double>(mem) / static_cast<double>(probe);
        const double brFrac =
            static_cast<double>(branches) / static_cast<double>(probe);
        CHECK(memFrac > 0.15 && memFrac < 0.60);
        CHECK(brFrac > 0.05 && brFrac < 0.40);
    }

    // The table-driven decoder equals the hash-per-call reference,
    // field for field, for every suite benchmark (at a quarter of its
    // length, as the benchmark runs it) and the tiny profile. The
    // programs are split over a few threads; checks run on this one.
    {
        std::vector<WorkloadProfile> profiles = spec2kSuite();
        for (WorkloadProfile &p : profiles) {
            p.targetInsts /= 4;
            p.phaseInsts = std::clamp<InstCount>(
                p.targetInsts / (400 * static_cast<InstCount>(p.phases)),
                5'000, 150'000);
        }
        profiles.push_back(profile);
        std::vector<std::uint64_t> bad(profiles.size());
        std::vector<std::uint64_t> checked(profiles.size());
        std::atomic<std::size_t> next{0};
        ThreadPool pool(
            std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
        pool.run([&](unsigned) {
            for (std::size_t i = next++; i < profiles.size(); i = next++)
                bad[i] = oracleMismatches(generateProgram(profiles[i]),
                                          checked[i]);
        });
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < profiles.size(); ++i) {
            CHECK_EQ(bad[i], 0u);
            total += checked[i];
        }
        std::printf("decoder oracle: %llu indices checked\n",
                    static_cast<unsigned long long>(total));
    }

    // The chunk-phase table's element type bounds the phase count:
    // one phase too many is refused before anything is allocated.
    {
        WorkloadProfile p = profile;
        p.phases = Program::kMaxPhases;
        CHECK_EQ(generateProgram(p).phases.size(), Program::kMaxPhases);
        p.phases = Program::kMaxPhases + 1;
        bool threw = false;
        try {
            generateProgram(p);
        } catch (const std::invalid_argument &) {
            threw = true;
        }
        CHECK(threw);
        // A count far past the bound fails the same way, without
        // trying to allocate its phase or slot tables.
        p.phases = 1u << 30;
        threw = false;
        try {
            generateProgram(p);
        } catch (const std::invalid_argument &) {
            threw = true;
        }
        CHECK(threw);
    }

    return TEST_MAIN_RESULT();
}
