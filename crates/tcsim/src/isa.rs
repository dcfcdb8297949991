//! SASS-like instruction streams (§5.1).
//!
//! The paper programs Tensor Cores at the SASS level using four
//! instructions "widely used in many generations of Nvidia GPUs"
//! \[12, 13, 26, 29\]:
//!
//! * `LDS` — shared memory → registers;
//! * `LDG` — global memory → registers;
//! * `STS` — registers → shared memory;
//! * `HMMA` — Tensor Core computation.
//!
//! We add `FFMA` (CUDA-core fp32 multiply-add, for the CUDA-core baseline
//! kernels) and `IALU` (address arithmetic). A kernel's inner loop is
//! described as a [`LoopBody`]: a list of [`Instr`]s with explicit data
//! dependencies, where a dependency may point into the *previous* loop
//! iteration — that is how double buffering ("loads for iteration i+1
//! overlap HMMAs of iteration i", Figure 6) is expressed.

/// Execution pipes of one SM scheduler partition.
///
/// Memory instructions (LDS/LDG/STS) share a single sequential pipe — the
/// paper cites \[15, 39\] for the observation that they "are executed
/// sequentially and cannot be further paralleled" (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pipe {
    /// The shared memory/global/store pipe (LDS, LDG, STS).
    Mem,
    /// Tensor Cores (HMMA).
    Tc,
    /// FP32 CUDA cores (FFMA).
    Fp32,
    /// Integer/address ALU.
    Alu,
}

/// Number of distinct pipes.
pub const PIPE_COUNT: usize = 4;

impl Pipe {
    /// Dense index for per-pipe bookkeeping.
    pub const fn index(self) -> usize {
        match self {
            Pipe::Mem => 0,
            Pipe::Tc => 1,
            Pipe::Fp32 => 2,
            Pipe::Alu => 3,
        }
    }

    /// All pipes in index order.
    pub const ALL: [Pipe; PIPE_COUNT] = [Pipe::Mem, Pipe::Tc, Pipe::Fp32, Pipe::Alu];
}

/// Instruction opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// 128-bit global load (global memory → registers).
    Ldg128,
    /// 128-bit shared store (registers → shared memory).
    Sts128,
    /// 32-bit shared load (shared memory → registers).
    Lds32,
    /// 128-bit shared load.
    Lds128,
    /// HMMA.1688.F32 Tensor Core matrix multiply-accumulate.
    Hmma1688,
    /// Single-precision fused multiply-add on CUDA cores.
    Ffma,
    /// Integer / address computation.
    IAlu,
}

impl Op {
    /// The pipe this opcode occupies.
    pub const fn pipe(self) -> Pipe {
        match self {
            Op::Ldg128 | Op::Sts128 | Op::Lds32 | Op::Lds128 => Pipe::Mem,
            Op::Hmma1688 => Pipe::Tc,
            Op::Ffma => Pipe::Fp32,
            Op::IAlu => Pipe::Alu,
        }
    }

    /// Issue interval (pipe-busy cycles) on the given device.
    pub fn issue_cycles(self, lat: &crate::spec::InstrLatencies) -> u32 {
        match self {
            Op::Ldg128 => lat.ldg128_issue,
            Op::Sts128 => lat.sts128_issue,
            Op::Lds32 => lat.lds32_issue,
            Op::Lds128 => lat.lds128_issue,
            Op::Hmma1688 => lat.hmma_issue,
            Op::Ffma => lat.ffma_issue,
            Op::IAlu => lat.ialu_issue,
        }
    }

    /// Completion latency on the given device.
    pub fn latency_cycles(self, lat: &crate::spec::InstrLatencies) -> u32 {
        match self {
            Op::Ldg128 => lat.ldg128_latency,
            Op::Sts128 => lat.sts128_latency,
            Op::Lds32 => lat.lds32_latency,
            Op::Lds128 => lat.lds128_latency,
            Op::Hmma1688 => lat.hmma_latency,
            Op::Ffma => lat.ffma_latency,
            Op::IAlu => lat.ialu_latency,
        }
    }
}

/// A data dependency of an instruction within a [`LoopBody`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepRef {
    /// Depends on instruction `i` of the *same* iteration.
    Same(usize),
    /// Depends on instruction `i` of the *previous* iteration (double
    /// buffering / software pipelining).
    Prev(usize),
}

/// One instruction of a loop body.
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    /// Opcode.
    pub op: Op,
    /// Data dependencies that must complete before this instruction can
    /// issue (in the latency-hiding schedule; the sequential schedule
    /// ignores them and fully serializes).
    pub deps: Vec<DepRef>,
}

/// The steady-state inner loop of one warp of a kernel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoopBody {
    /// Instructions in program order.
    pub instrs: Vec<Instr>,
}

impl LoopBody {
    /// Empty body.
    pub fn new() -> LoopBody {
        LoopBody::default()
    }

    /// Append an instruction; returns its index for use in later `deps`.
    ///
    /// `Prev` dependencies may name instructions not pushed yet, so they
    /// are checked against the finished body when it is simulated.
    pub fn push(&mut self, op: Op, deps: Vec<DepRef>) -> usize {
        for d in &deps {
            if let DepRef::Same(i) = *d {
                assert!(i < self.instrs.len(), "Same({i}) refers forward");
            }
        }
        self.instrs.push(Instr { op, deps });
        self.instrs.len() - 1
    }

    /// Number of instructions of opcode `op`.
    pub fn count(&self, op: Op) -> usize {
        self.instrs.iter().filter(|i| i.op == op).count()
    }

    /// Total issue cycles charged to `pipe` per iteration per warp.
    pub fn pipe_issue_cycles(&self, pipe: Pipe, lat: &crate::spec::InstrLatencies) -> u64 {
        self.instrs
            .iter()
            .filter(|i| i.op.pipe() == pipe)
            .map(|i| i.op.issue_cycles(lat) as u64)
            .sum()
    }

    /// FLOPs performed per iteration per warp (HMMA and FFMA).
    pub fn flops_per_iteration(&self) -> u64 {
        self.instrs
            .iter()
            .map(|i| match i.op {
                Op::Hmma1688 => crate::mma::MmaShape::HMMA_1688.flops(),
                Op::Ffma => 2,
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::InstrLatencies;

    #[test]
    fn pipes_and_indexing() {
        assert_eq!(Op::Ldg128.pipe(), Pipe::Mem);
        assert_eq!(Op::Sts128.pipe(), Pipe::Mem);
        assert_eq!(Op::Lds32.pipe(), Pipe::Mem);
        assert_eq!(Op::Hmma1688.pipe(), Pipe::Tc);
        assert_eq!(Op::Ffma.pipe(), Pipe::Fp32);
        for (i, p) in Pipe::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn body_counting_and_flops() {
        let lat = InstrLatencies::TURING;
        let mut body = LoopBody::new();
        let l = body.push(Op::Lds128, vec![]);
        body.push(Op::Hmma1688, vec![DepRef::Same(l)]);
        body.push(Op::Hmma1688, vec![DepRef::Same(l)]);
        assert_eq!(body.count(Op::Hmma1688), 2);
        assert_eq!(body.flops_per_iteration(), 2 * 2048);
        assert_eq!(
            body.pipe_issue_cycles(Pipe::Mem, &lat),
            lat.lds128_issue as u64
        );
        assert_eq!(
            body.pipe_issue_cycles(Pipe::Tc, &lat),
            2 * lat.hmma_issue as u64
        );
    }

    #[test]
    #[should_panic(expected = "refers forward")]
    fn forward_same_dep_rejected() {
        let mut body = LoopBody::new();
        body.push(Op::Hmma1688, vec![DepRef::Same(3)]);
    }
}
