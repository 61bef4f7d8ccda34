/**
 * @file
 * Synthetic benchmark programs. A Program's dynamic instruction stream
 * is a *pure function* of (profile, instruction index): any position
 * can be re-fetched without replaying history. That property is what
 * makes live-points exact — a checkpoint is just (index, registers,
 * touched memory), and re-execution from it reproduces the original
 * run bit-for-bit.
 *
 * Programs cycle through `phases` distinct phases in fixed-length
 * chunks. Each phase has its own loop body (static instructions with
 * stable roles, so branch predictors and caches see realistic reuse),
 * working-set region, instruction mix, and locality behaviour.
 *
 * Everything that depends only on (seed, phase, slot) — opcode,
 * registers, locality class, stride, branch target and bias — and the
 * phase of each chunk are decoded once, in generateProgram, into
 * Program::slots and Program::chunkPhases. fetch() reads those tables
 * and hashes only the per-instance parts (a random or hot address, a
 * noisy or flipped direction). A Program must therefore come from
 * generateProgram, and its `phases` must not be edited afterwards.
 */

#ifndef LP_WORKLOAD_GENERATOR_HH
#define LP_WORKLOAD_GENERATOR_HH

#include <array>
#include <vector>

#include "codec/der.hh"
#include "mem/memport.hh"
#include "util/types.hh"
#include "workload/profile.hh"

namespace lp
{

enum class Opcode : std::uint8_t
{
    IntAlu,
    IntMul,
    FpAlu,
    FpMul,
    Load,
    Store,
    Bne, //!< conditional branch
    Jump //!< unconditional
};

struct Instruction
{
    Opcode op = Opcode::IntAlu;
    std::uint8_t dst = 0;
    std::uint8_t src1 = 0;
    std::uint8_t src2 = 0;
    PcIndex pc = 0;
    PcIndex target = 0; //!< branch target
    Addr addr = 0;      //!< effective address of a load/store
    bool taken = false; //!< resolved direction of a branch

    bool isMem() const
    {
        return op == Opcode::Load || op == Opcode::Store;
    }

    bool isBranch() const
    {
        return op == Opcode::Bne || op == Opcode::Jump;
    }
};

/** Architectural state: position + 32 integer/fp registers. */
struct ArchRegs
{
    InstCount instIndex = 0;
    std::array<std::uint64_t, 32> r{};

    Blob serialize() const;
    void serialize(DerWriter &w) const;
    static ArchRegs deserialize(DerReader &r);
};

/** Derived, deterministic description of one program phase. */
struct PhaseSpec
{
    Addr regionBase = 0;
    std::uint64_t regionBytes = 0;
    std::uint64_t hotBytes = 0;
    PcIndex pcBase = 0;
    unsigned bodySize = 0;
    double loadFrac = 0;
    double storeFrac = 0;
    double branchFrac = 0;
    double fpFrac = 0;
    double mulFrac = 0;
    double takenBias = 0;
    double noiseFrac = 0;
    double randomFrac = 0;
    double hotFrac = 0;
    std::size_t firstSlot = 0; //!< slot 0's entry in Program::slots
};

/**
 * The static decode of one loop-body slot of one phase, plus what
 * fetch() must still derive per dynamic instance of it.
 */
struct SlotDecode
{
    enum class Dynamic : std::uint8_t
    {
        None,        //!< ALU work: nothing varies per instance
        RandomAddr,  //!< address in a drifting random neighbourhood
        HotAddr,     //!< address in the phase's hot region
        StridedAddr, //!< address of a strided walk
        LoopBack,    //!< taken unless the iteration ends the chunk
        NoisyDir,    //!< data-dependent direction (a coin flip)
        StableDir    //!< `dir`, with rare per-instance flips
    };

    Opcode op = Opcode::IntAlu;
    std::uint8_t dst = 0;
    std::uint8_t src1 = 0;
    std::uint8_t src2 = 0;
    Dynamic dynamic = Dynamic::None;
    bool dir = false;         //!< StableDir: the site's direction
    std::uint64_t stride = 0; //!< StridedAddr: bytes per iteration
    PcIndex target = 0;       //!< branch target
    /** hashCombine(slot, salt) of the per-instance hash, if any. */
    std::uint64_t instanceKey = 0;
};

struct Program
{
    std::string name;
    WorkloadProfile profile;
    std::vector<PhaseSpec> phases;
    InstCount length = 0;     //!< total dynamic instructions
    InstCount chunkInsts = 0; //!< instructions per phase chunk
    Addr codeBase = 0;
    Addr dataBase = 0;
    std::vector<std::uint8_t> dataInit; //!< initial bytes at dataBase

    /** Derived: every phase's slots, phase p's from firstSlot on. */
    std::vector<SlotDecode> slots;

    /**
     * Derived: the phase index of each chunk in [0, length), capped at
     * 4M chunks. Its element type bounds the phase count (kMaxPhases);
     * fetch() hashes the phase of any chunk past the table.
     */
    std::vector<std::uint8_t> chunkPhases;
    static constexpr unsigned kMaxPhases = 256;

    /** The phase active at dynamic instruction @p index. */
    const PhaseSpec &phaseAt(InstCount index) const;

    /** Decode the dynamic instruction at @p index (pure). */
    Instruction fetch(InstCount index) const;

    /** Instruction-memory address of a static slot. */
    Addr fetchAddr(PcIndex pc) const { return codeBase + pc * 4; }

    /**
     * Synthesize the @p k-th wrong-path instruction after a
     * mispredicted branch at @p index: mostly ALU work plus loads that
     * usually touch recently-referenced correct-path data.
     */
    Instruction wrongPath(InstCount index, unsigned k) const;
};

/**
 * Build the deterministic program described by @p profile, with its
 * decode tables. Throws std::invalid_argument if profile.phases
 * exceeds Program::kMaxPhases.
 */
Program generateProgram(const WorkloadProfile &profile);

/** Dynamic length of the program (whole chunks of the target count). */
InstCount measureProgramLength(const Program &prog);

/**
 * Architecturally execute one instruction: update registers and
 * memory. Shared by the functional simulator and the detailed core so
 * both produce bit-identical state trajectories.
 */
void executeArch(const Instruction &ins, ArchRegs &regs, MemPort &mem);

} // namespace lp

#endif // LP_WORKLOAD_GENERATOR_HH
