//! Per-processor core state and the memory-free part of the interpreter.
//!
//! Every machine shares this core: the in-order
//! [`Machine`](crate::Machine) over any of its three memory systems, and
//! the out-of-order pipeline ([`OooMachine`](crate::OooMachine)), whose
//! reservation stations compute with the same [`AluOp`]. [`CoreState`]
//! implements everything that does not touch shared memory, and exposes
//! [`CoreState::exec_local`] which either fully executes a local
//! instruction or reports that the instruction needs the machine's
//! memory system; [`MemInstr`] decodes the latter into the shape the
//! machines execute.

use wmrd_trace::{Location, ProcId, SyncRole, Value};

use crate::{Addr, Instr, Operand, Reg, SimError};

/// Number of general-purpose registers per core.
pub const NUM_REGS: usize = 16;

/// Architectural state of one simulated core.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CoreState {
    /// This core's processor id.
    pub proc: ProcId,
    regs: [i64; NUM_REGS],
    pc: usize,
    halted: bool,
}

/// Register-only arithmetic: the one ALU of every machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum AluOp {
    Mov,
    Add,
    Sub,
    Mul,
    CmpEq,
    CmpLt,
}

impl AluOp {
    /// Decodes a register-only instruction into its destination,
    /// operation and operands (`Mov`'s second operand is unused).
    pub(crate) fn decode(instr: &Instr) -> Option<(Reg, AluOp, Operand, Operand)> {
        let (dst, op, a, b) = match *instr {
            Instr::Mov { dst, src } => (dst, AluOp::Mov, src, Operand::Imm(0)),
            Instr::Add { dst, a, b } => (dst, AluOp::Add, a, b),
            Instr::Sub { dst, a, b } => (dst, AluOp::Sub, a, b),
            Instr::Mul { dst, a, b } => (dst, AluOp::Mul, a, b),
            Instr::CmpEq { dst, a, b } => (dst, AluOp::CmpEq, a, b),
            Instr::CmpLt { dst, a, b } => (dst, AluOp::CmpLt, a, b),
            _ => return None,
        };
        Some((dst, op, Operand::Reg(a), b))
    }

    /// Computes the operation on two operand values.
    pub(crate) fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            AluOp::Mov => a,
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::CmpEq => i64::from(a == b),
            AluOp::CmpLt => i64::from(a < b),
        }
    }
}

/// A memory instruction in the shape the machines execute it: `sync` is
/// `None` for data accesses, else the synchronization role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemInstr {
    /// `Ld`, `LdAcq` or `LdSync`.
    Load { dst: Reg, addr: Addr, sync: Option<SyncRole> },
    /// `St`, `StRel`, `StSync`, or `Unset` (a release storing 0).
    Store { src: Operand, addr: Addr, sync: Option<SyncRole> },
    /// `Test&Set`: an acquire read and a plain sync write, atomically.
    TestSet { dst: Reg, addr: Addr },
    /// `Fence`: flush everything pending.
    Fence,
}

impl MemInstr {
    /// Decodes `instr`, or `None` if it is local.
    pub(crate) fn decode(instr: &Instr) -> Option<MemInstr> {
        let (acq, rel, plain) =
            (Some(SyncRole::Acquire), Some(SyncRole::Release), Some(SyncRole::None));
        Some(match *instr {
            Instr::Ld { dst, addr } => MemInstr::Load { dst, addr, sync: None },
            Instr::LdAcq { dst, addr } => MemInstr::Load { dst, addr, sync: acq },
            Instr::LdSync { dst, addr } => MemInstr::Load { dst, addr, sync: plain },
            Instr::St { src, addr } => MemInstr::Store { src, addr, sync: None },
            Instr::StRel { src, addr } => MemInstr::Store { src, addr, sync: rel },
            Instr::StSync { src, addr } => MemInstr::Store { src, addr, sync: plain },
            Instr::Unset { addr } => MemInstr::Store { src: Operand::Imm(0), addr, sync: rel },
            Instr::TestSet { dst, addr } => MemInstr::TestSet { dst, addr },
            Instr::Fence => MemInstr::Fence,
            _ => return None,
        })
    }
}

/// Result of attempting to execute an instruction locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LocalOutcome {
    /// The instruction was executed entirely within the core (pc already
    /// advanced).
    Done,
    /// The instruction performs memory operations; the machine must handle
    /// it (pc *not* advanced).
    NeedsMemory,
    /// The core is halted; nothing was executed.
    Halted,
}

impl CoreState {
    /// Creates a core with zeroed registers, pc 0, not halted.
    pub fn new(proc: ProcId) -> Self {
        CoreState { proc, regs: [0; NUM_REGS], pc: 0, halted: false }
    }

    /// Current program counter.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// `true` once the core executed `Halt`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> i64 {
        self.regs[r.index()]
    }

    /// Writes a register.
    pub fn set_reg(&mut self, r: Reg, v: i64) {
        self.regs[r.index()] = v;
    }

    /// Evaluates an operand against this core's registers.
    pub fn operand(&self, op: Operand) -> i64 {
        match op {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(v) => v,
        }
    }

    /// Resolves an addressing mode to a concrete location.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadAddress`] if an indirect address computes to
    /// a negative value or one at/above `num_locations`.
    pub fn resolve_addr(&self, addr: Addr, num_locations: u32) -> Result<Location, SimError> {
        match addr {
            Addr::Abs(l) => {
                if l.addr() >= num_locations {
                    return Err(SimError::BadLocation(l));
                }
                Ok(l)
            }
            Addr::Ind { base, offset } => {
                let computed = self.reg(base).wrapping_add(offset);
                if computed < 0 || computed >= i64::from(num_locations) {
                    return Err(SimError::BadAddress {
                        proc: self.proc,
                        pc: self.pc,
                        addr: computed,
                    });
                }
                Ok(Location::new(computed as u32))
            }
        }
    }

    /// Advances the pc past the current instruction (used by machines
    /// after completing a memory instruction).
    pub(crate) fn advance_pc(&mut self) {
        self.pc += 1;
    }

    /// Executes `instr` if it is local (registers/control only).
    ///
    /// `Fence` is *not* local — the machine owns the store buffer — so it
    /// reports [`LocalOutcome::NeedsMemory`].
    pub(crate) fn exec_local(&mut self, instr: &Instr) -> LocalOutcome {
        if self.halted {
            return LocalOutcome::Halted;
        }
        match *instr {
            Instr::Li { dst, imm } => {
                self.set_reg(dst, imm);
            }
            Instr::Mov { .. }
            | Instr::Add { .. }
            | Instr::Sub { .. }
            | Instr::Mul { .. }
            | Instr::CmpEq { .. }
            | Instr::CmpLt { .. } => {
                let (dst, op, a, b) = AluOp::decode(instr).expect("register-only instruction");
                self.set_reg(dst, op.apply(self.operand(a), self.operand(b)));
            }
            Instr::Jmp { target } => {
                self.pc = target;
                return LocalOutcome::Done;
            }
            Instr::Bz { cond, target } => {
                if self.reg(cond) == 0 {
                    self.pc = target;
                } else {
                    self.pc += 1;
                }
                return LocalOutcome::Done;
            }
            Instr::Bnz { cond, target } => {
                if self.reg(cond) != 0 {
                    self.pc = target;
                } else {
                    self.pc += 1;
                }
                return LocalOutcome::Done;
            }
            Instr::Nop => {}
            Instr::Halt => {
                self.halted = true;
                return LocalOutcome::Done;
            }
            Instr::Ld { .. }
            | Instr::St { .. }
            | Instr::LdAcq { .. }
            | Instr::StRel { .. }
            | Instr::LdSync { .. }
            | Instr::StSync { .. }
            | Instr::TestSet { .. }
            | Instr::Unset { .. }
            | Instr::Fence => return LocalOutcome::NeedsMemory,
        }
        self.pc += 1;
        LocalOutcome::Done
    }

    /// Stores a loaded value in a destination register (helper for
    /// machines).
    pub(crate) fn complete_load(&mut self, dst: Reg, value: Value) {
        self.set_reg(dst, value.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> CoreState {
        CoreState::new(ProcId::new(0))
    }

    #[test]
    fn arithmetic_and_pc() {
        let mut c = core();
        assert_eq!(c.exec_local(&Instr::Li { dst: Reg::new(0), imm: 5 }), LocalOutcome::Done);
        assert_eq!(
            c.exec_local(&Instr::Add { dst: Reg::new(1), a: Reg::new(0), b: Operand::Imm(3) }),
            LocalOutcome::Done
        );
        assert_eq!(c.reg(Reg::new(1)), 8);
        assert_eq!(c.pc(), 2);
        c.exec_local(&Instr::Sub { dst: Reg::new(2), a: Reg::new(1), b: Reg::new(0).into() });
        assert_eq!(c.reg(Reg::new(2)), 3);
        c.exec_local(&Instr::Mul { dst: Reg::new(3), a: Reg::new(2), b: Operand::Imm(-2) });
        assert_eq!(c.reg(Reg::new(3)), -6);
        c.exec_local(&Instr::Mov { dst: Reg::new(4), src: Reg::new(3) });
        assert_eq!(c.reg(Reg::new(4)), -6);
    }

    #[test]
    fn comparisons() {
        let mut c = core();
        c.set_reg(Reg::new(0), 5);
        c.exec_local(&Instr::CmpEq { dst: Reg::new(1), a: Reg::new(0), b: Operand::Imm(5) });
        assert_eq!(c.reg(Reg::new(1)), 1);
        c.exec_local(&Instr::CmpEq { dst: Reg::new(1), a: Reg::new(0), b: Operand::Imm(6) });
        assert_eq!(c.reg(Reg::new(1)), 0);
        c.exec_local(&Instr::CmpLt { dst: Reg::new(1), a: Reg::new(0), b: Operand::Imm(6) });
        assert_eq!(c.reg(Reg::new(1)), 1);
        c.exec_local(&Instr::CmpLt { dst: Reg::new(1), a: Reg::new(0), b: Operand::Imm(5) });
        assert_eq!(c.reg(Reg::new(1)), 0);
    }

    #[test]
    fn branches() {
        let mut c = core();
        c.exec_local(&Instr::Jmp { target: 7 });
        assert_eq!(c.pc(), 7);
        c.set_reg(Reg::new(0), 0);
        c.exec_local(&Instr::Bz { cond: Reg::new(0), target: 2 });
        assert_eq!(c.pc(), 2);
        c.exec_local(&Instr::Bz { cond: Reg::new(0), target: 2 });
        assert_eq!(c.pc(), 2, "taken branch to same index");
        c.set_reg(Reg::new(0), 1);
        c.exec_local(&Instr::Bz { cond: Reg::new(0), target: 9 });
        assert_eq!(c.pc(), 3, "not taken falls through");
        c.exec_local(&Instr::Bnz { cond: Reg::new(0), target: 0 });
        assert_eq!(c.pc(), 0, "bnz taken");
    }

    #[test]
    fn halt_stops_execution() {
        let mut c = core();
        assert_eq!(c.exec_local(&Instr::Halt), LocalOutcome::Done);
        assert!(c.is_halted());
        assert_eq!(c.exec_local(&Instr::Nop), LocalOutcome::Halted);
    }

    #[test]
    fn memory_instructions_defer() {
        let mut c = core();
        let l = Location::new(0);
        assert_eq!(
            c.exec_local(&Instr::Ld { dst: Reg::new(0), addr: Addr::Abs(l) }),
            LocalOutcome::NeedsMemory
        );
        assert_eq!(c.pc(), 0, "pc unchanged for deferred instruction");
        assert_eq!(c.exec_local(&Instr::Fence), LocalOutcome::NeedsMemory);
    }

    #[test]
    fn resolve_addresses() {
        let mut c = core();
        c.set_reg(Reg::new(1), 10);
        assert_eq!(c.resolve_addr(Addr::Abs(Location::new(3)), 8).unwrap(), Location::new(3));
        assert!(matches!(
            c.resolve_addr(Addr::Abs(Location::new(9)), 8),
            Err(SimError::BadLocation(_))
        ));
        assert_eq!(
            c.resolve_addr(Addr::Ind { base: Reg::new(1), offset: -2 }, 16).unwrap(),
            Location::new(8)
        );
        assert!(matches!(
            c.resolve_addr(Addr::Ind { base: Reg::new(1), offset: -20 }, 16),
            Err(SimError::BadAddress { .. })
        ));
        assert!(c.resolve_addr(Addr::Ind { base: Reg::new(1), offset: 6 }, 16).is_err());
    }

    #[test]
    fn complete_load_sets_register() {
        let mut c = core();
        c.complete_load(Reg::new(5), Value::new(42));
        assert_eq!(c.reg(Reg::new(5)), 42);
    }
}
