/**
 * @file
 * ArchCore: the architectural half of a simulation session — program
 * image, register file, PC, and the SISA interpreter. One ArchCore
 * step stream is configuration-independent, which is what lets a
 * single functional-warming pass feed any number of per-config
 * timing models (core/timing.hh) in lockstep: interpret once, warm
 * and time N machines.
 */

#ifndef SMARTS_CORE_ARCH_HH
#define SMARTS_CORE_ARCH_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "core/paged_image.hh"
#include "sisa/encoding.hh"
#include "util/binary_io.hh"
#include "util/logging.hh"
#include "workloads/program.hh"

namespace smarts::core {

/** Everything a timing model needs to know about one executed inst. */
struct StepInfo
{
    sisa::DecodedInst di;
    std::uint32_t pc = 0;      ///< pc of the executed inst.
    std::uint32_t memAddr = 0; ///< valid when di.isMem().
    bool taken = false;        ///< valid when di.isBranch().
    std::uint32_t nextPc = 0;
};

/**
 * Serialized architectural state for checkpointing: registers, PC,
 * progress counters, and the mutable data image (code is rebuilt
 * deterministically from the benchmark spec, so it is not stored).
 * The image is a PagedImage: snapshots of one program share every
 * page their words have in common.
 */
struct ArchState
{
    std::array<std::uint32_t, 32> regs{};
    std::uint32_t pc = 0;
    bool finished = false;
    std::uint64_t instCount = 0;
    PagedImage data;

    /** Serialized footprint, the image counted in full. */
    std::size_t
    byteSize() const
    {
        return sizeof(regs) + sizeof(pc) + sizeof(finished) +
               sizeof(instCount) + data.size() * sizeof(std::uint32_t);
    }

    /** Field order is normative: docs/checkpoint-format.md. */
    void
    write(util::BinaryWriter &out) const
    {
        for (const std::uint32_t r : regs)
            out.u32(r);
        out.u32(pc);
        out.u8(finished ? 1 : 0);
        out.u64(instCount);
        data.write(out);
    }

    void
    read(util::BinaryReader &in)
    {
        for (std::uint32_t &r : regs)
            r = in.u32();
        pc = in.u32();
        finished = in.flag();
        instCount = in.u64();
        data.read(in);
    }
};

/**
 * Page-aligns a stepping entry point: the SimSession, MultiSession
 * and MixSession fastForward/warmAsDetailed/detailedRun, each of
 * which holds its whole per-instruction loop once the stepping
 * kernel (detail::stepLoop, with ArchCore::step and the per-step
 * timing work inlined) is expanded in it. Branch predictors and the
 * decoded-uop cache index code by its low address bits, so without a
 * fixed alignment any size change in code the linker places earlier
 * moves these loops and can shift interpreter speed by 10-30%
 * (measured on a 4-vCPU Xeon Sapphire Rapids VM). A page fixes all
 * twelve low bits.
 */
#define SMARTS_HOT_CODE [[gnu::aligned(4096)]]

/**
 * Expands a lambda's body at its call site, written after the
 * lambda's parameter list (the GNU attribute form applies to its call
 * operator). Every lambda a stepping entry point passes down to
 * detail::stepLoop carries it: an entry point holds one loop per
 * instantiation, and without it the compiler's growth limits outline
 * whichever loop body comes last, putting a call back on the
 * per-instruction path.
 */
#define SMARTS_INLINE_LAMBDA __attribute__((always_inline))

class ArchCore
{
  public:
    explicit ArchCore(const workloads::BenchmarkSpec &spec)
        : program_(workloads::buildProgram(spec)),
          dataMask_(program_.dataBytes - 1),
          pc_(program_.entryPc)
    {
        if (!program_.dataBytes ||
            (program_.dataBytes & (program_.dataBytes - 1)))
            SMARTS_FATAL("data footprint must be a power of two");
        decoded_.reserve(program_.code.size());
        for (const std::uint32_t word : program_.code)
            decoded_.push_back(sisa::decode(word));
    }

    /**
     * Execute one instruction architecturally. False at HALT/end.
     * Always inlined, so a stepping loop keeps StepInfo in registers
     * and pays no call per instruction.
     */
    [[gnu::always_inline]] bool
    step(StepInfo &info)
    {
        using sisa::Opcode;
        if (finished_)
            return false;
        const std::uint32_t idx = (pc_ - workloads::kCodeBase) >> 2;
        if (idx >= decoded_.size()) {
            finished_ = true;
            return false;
        }
        const sisa::DecodedInst di = decoded_[idx];
        info.di = di;
        info.pc = pc_;
        info.taken = false;
        std::uint32_t next = pc_ + 4;

        auto setReg = [this](unsigned r, std::uint32_t v) {
            if (r)
                regs_[r] = v;
        };
        const std::uint32_t vb = regs_[di.b];
        const std::uint32_t uimm =
            static_cast<std::uint32_t>(di.imm) & 0xffffu;

        switch (di.op) {
          case Opcode::ADD:
            setReg(di.a, vb + regs_[di.c]);
            break;
          case Opcode::SUB:
            setReg(di.a, vb - regs_[di.c]);
            break;
          case Opcode::MUL:
            setReg(di.a, vb * regs_[di.c]);
            break;
          case Opcode::AND:
            setReg(di.a, vb & regs_[di.c]);
            break;
          case Opcode::OR:
            setReg(di.a, vb | regs_[di.c]);
            break;
          case Opcode::XOR:
            setReg(di.a, vb ^ regs_[di.c]);
            break;
          case Opcode::SLT:
            setReg(di.a, static_cast<std::int32_t>(vb) <
                                 static_cast<std::int32_t>(regs_[di.c])
                             ? 1
                             : 0);
            break;
          case Opcode::ADDI:
            setReg(di.a, vb + static_cast<std::uint32_t>(di.imm));
            break;
          case Opcode::ANDI:
            setReg(di.a, vb & uimm);
            break;
          case Opcode::ORI:
            setReg(di.a, vb | uimm);
            break;
          case Opcode::SHLI:
            setReg(di.a, vb << (di.imm & 31));
            break;
          case Opcode::SHRI:
            setReg(di.a, vb >> (di.imm & 31));
            break;
          case Opcode::LUI:
            setReg(di.a, uimm << 16);
            break;
          case Opcode::LD:
            info.memAddr = vb + static_cast<std::uint32_t>(di.imm);
            setReg(di.a, loadWord(info.memAddr));
            break;
          case Opcode::ST:
            info.memAddr = vb + static_cast<std::uint32_t>(di.imm);
            storeWord(info.memAddr, regs_[di.a]);
            break;
          case Opcode::BEQ:
            info.taken = regs_[di.a] == vb;
            break;
          case Opcode::BNE:
            info.taken = regs_[di.a] != vb;
            break;
          case Opcode::BLT:
            info.taken = static_cast<std::int32_t>(regs_[di.a]) <
                         static_cast<std::int32_t>(vb);
            break;
          case Opcode::BGE:
            info.taken = static_cast<std::int32_t>(regs_[di.a]) >=
                         static_cast<std::int32_t>(vb);
            break;
          case Opcode::JAL:
            info.taken = true;
            setReg(di.a, pc_ + 4);
            next = di.branchTarget(pc_);
            break;
          case Opcode::JR:
            info.taken = true;
            next = regs_[di.a];
            break;
          case Opcode::HALT:
            finished_ = true;
            return false;
          case Opcode::NOP:
          default:
            break;
        }
        if (di.isCondBranch() && info.taken)
            next = di.branchTarget(pc_);

        info.nextPc = next;
        pc_ = next;
        ++instCount_;
        return true;
    }

    bool
    finished() const
    {
        return finished_;
    }

    /** Instructions executed so far, all modes. */
    std::uint64_t
    instCount() const
    {
        return instCount_;
    }

    std::uint32_t
    pc() const
    {
        return pc_;
    }

    /** Instruction slots in the code image, from kCodeBase. */
    std::size_t
    codeWords() const
    {
        return decoded_.size();
    }

    /**
     * Snapshot into @p state. Its image keeps every page it already
     * holds whose words are unchanged, so seeding @p state with the
     * previous snapshot's image shares all the pages not written
     * since.
     */
    void
    saveState(ArchState &state) const
    {
        std::copy(std::begin(regs_), std::end(regs_),
                  state.regs.begin());
        state.pc = pc_;
        state.finished = finished_;
        state.instCount = instCount_;
        state.data.assign(program_.data.data(), program_.data.size());
    }

    void
    restoreState(const ArchState &state)
    {
        if (state.data.size() != program_.data.size())
            SMARTS_FATAL("arch checkpoint data image mismatch (",
                         state.data.size(), " words vs ",
                         program_.data.size(), ")");
        std::copy(state.regs.begin(), state.regs.end(), regs_);
        pc_ = state.pc;
        finished_ = state.finished;
        instCount_ = state.instCount;
        state.data.copyTo(program_.data.data());
    }

  private:
    std::uint32_t
    loadWord(std::uint32_t addr) const
    {
        return program_
            .data[((addr - workloads::kDataBase) & dataMask_) >> 2];
    }

    void
    storeWord(std::uint32_t addr, std::uint32_t value)
    {
        program_
            .data[((addr - workloads::kDataBase) & dataMask_) >> 2] =
            value;
    }

    workloads::Program program_;
    std::vector<sisa::DecodedInst> decoded_; ///< predecoded code.
    std::uint32_t dataMask_;

    std::uint32_t regs_[32] = {};
    std::uint32_t pc_;
    bool finished_ = false;
    std::uint64_t instCount_ = 0;
};

namespace detail {

/**
 * The stepping kernel under every session loop: step @p arch up to
 * @p maxInsts times, handing each executed instruction's StepInfo to
 * @p perStep. Returns the instructions executed (fewer than
 * @p maxInsts only at end of stream). ArchCore::step and @p perStep
 * are expanded in place, so each caller's loop is one straight-line
 * body specialized for its per-step work: no call, no run-time mode
 * test, no StepInfo round trip through memory.
 */
template <typename PerStep>
[[gnu::always_inline]] inline std::uint64_t
stepLoop(ArchCore &arch, std::uint64_t maxInsts, PerStep &&perStep)
{
    std::uint64_t executed = 0;
    StepInfo info;
    while (executed < maxInsts && arch.step(info)) {
        ++executed;
        perStep(info);
    }
    return executed;
}

} // namespace detail

} // namespace smarts::core

#endif // SMARTS_CORE_ARCH_HH
