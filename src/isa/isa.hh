/**
 * @file
 * The dgsim micro-ISA.
 *
 * A small 64-bit RISC-like instruction set that is rich enough to express
 * the SPEC-proxy kernels and the Spectre-style attack gadgets while
 * keeping decode trivial. 32 integer registers, x0 hard-wired to zero,
 * 8-byte word-aligned memory operations.
 */

#ifndef DGSIM_ISA_ISA_HH
#define DGSIM_ISA_ISA_HH

#include <cstdint>
#include <string>

#include "common/log.hh"
#include "common/types.hh"

namespace dgsim
{

/** Micro-ISA opcodes. */
enum class Opcode : std::uint8_t
{
    // Register-register ALU.
    Add, Sub, Mul, Div, And, Or, Xor, Sll, Srl, Slt,
    // Register-immediate ALU.
    Addi, Andi, Ori, Xori, Slli, Srli, Slti,
    // Load upper immediate (writes imm directly, used as "li").
    Lui,
    // Memory: Ld rd, imm(rs1); St rs2, imm(rs1).
    Ld, St,
    // Control: conditional branches compare rs1, rs2; target = imm (abs).
    Beq, Bne, Blt, Bge,
    // Unconditional jumps. Jal: rd = pc+1, pc = imm. Jalr: pc = rs1+imm.
    Jal, Jalr,
    // Misc.
    Nop, Halt,
};

/** Functional-unit class an opcode executes on. */
enum class OpClass : std::uint8_t
{
    IntAlu,   ///< 1-cycle integer ops.
    IntMul,   ///< Pipelined multiplier.
    IntDiv,   ///< Unpipelined divider.
    MemRead,  ///< Loads (AGU + cache access).
    MemWrite, ///< Stores (AGU; data written at commit).
    Branch,   ///< Conditional and unconditional control flow.
    No_OpClass, ///< Nop/Halt.
};

/** One static instruction. PCs index the program text (one word per PC). */
struct Instruction
{
    Opcode op = Opcode::Nop;
    RegIndex rd = 0;   ///< Destination register (0 = discard).
    RegIndex rs1 = 0;  ///< First source.
    RegIndex rs2 = 0;  ///< Second source (store data for St).
    std::int64_t imm = 0; ///< Immediate / branch target / displacement.

    bool operator==(const Instruction &) const = default;
};

// The decode predicates below run on the cycle loop's hottest paths
// (issue wakeup, execute, rename), so they are defined inline here —
// each compiles to a jump table or bit test instead of a call.

/** @return the functional-unit class of @p op. */
inline OpClass
opClass(Opcode op)
{
    switch (op) {
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Sll:
      case Opcode::Srl:
      case Opcode::Slt:
      case Opcode::Addi:
      case Opcode::Andi:
      case Opcode::Ori:
      case Opcode::Xori:
      case Opcode::Slli:
      case Opcode::Srli:
      case Opcode::Slti:
      case Opcode::Lui:
        return OpClass::IntAlu;
      case Opcode::Mul:
        return OpClass::IntMul;
      case Opcode::Div:
        return OpClass::IntDiv;
      case Opcode::Ld:
        return OpClass::MemRead;
      case Opcode::St:
        return OpClass::MemWrite;
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Jal:
      case Opcode::Jalr:
        return OpClass::Branch;
      case Opcode::Nop:
      case Opcode::Halt:
        return OpClass::No_OpClass;
    }
    DGSIM_PANIC("unknown opcode");
}

/** @return true for Ld. */
inline bool
isLoad(Opcode op)
{
    return op == Opcode::Ld;
}

/** @return true for St. */
inline bool
isStore(Opcode op)
{
    return op == Opcode::St;
}

/** @return true for any control-flow instruction. */
inline bool
isControl(Opcode op)
{
    switch (op) {
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Jal:
      case Opcode::Jalr:
        return true;
      default:
        return false;
    }
}

/** @return true for conditional branches only. */
inline bool
isCondBranch(Opcode op)
{
    switch (op) {
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
        return true;
      default:
        return false;
    }
}

/** @return true if the instruction writes rd. */
inline bool
writesDest(const Instruction &inst)
{
    switch (inst.op) {
      case Opcode::St:
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Nop:
      case Opcode::Halt:
        return false;
      default:
        return inst.rd != 0;
    }
}

/** @return true if rs1 is a live source operand. */
inline bool
readsRs1(const Instruction &inst)
{
    switch (inst.op) {
      case Opcode::Lui:
      case Opcode::Jal:
      case Opcode::Nop:
      case Opcode::Halt:
        return false;
      default:
        return true;
    }
}

/** @return true if rs2 is a live source operand. */
inline bool
readsRs2(const Instruction &inst)
{
    switch (inst.op) {
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Div:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Sll:
      case Opcode::Srl:
      case Opcode::Slt:
      case Opcode::St: // rs2 carries the store data.
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
        return true;
      default:
        return false;
    }
}

/** Execution latency, in cycles, of @p op on its functional unit. */
inline unsigned
execLatency(Opcode op)
{
    switch (opClass(op)) {
      case OpClass::IntAlu: return 1;
      case OpClass::IntMul: return 3;
      case OpClass::IntDiv: return 12;
      // AGU only (register read + address add); the cache adds the
      // rest. Two cycles keeps a realistic window between dispatch and
      // address resolution, during which a doppelganger can claim an
      // idle memory port (paper Figure 5: predictions are available
      // from decode, well before the AGU result).
      case OpClass::MemRead: return 2;
      case OpClass::MemWrite: return 2;
      case OpClass::Branch: return 1;
      case OpClass::No_OpClass: return 1;
    }
    DGSIM_PANIC("unknown op class");
}

/** Textual opcode mnemonic. */
std::string mnemonic(Opcode op);

/** Disassemble one instruction (for traces and test failure messages). */
std::string disassemble(const Instruction &inst);

} // namespace dgsim

#endif // DGSIM_ISA_ISA_HH
