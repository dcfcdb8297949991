//! # egemm-tcsim — a software Tensor-Core substrate
//!
//! The EGEMM-TC paper runs on NVIDIA Turing hardware (Tesla T4, RTX 6000)
//! programmed at the SASS level. This crate is the substitution substrate
//! for that hardware gate: a simulator of the pieces of a Turing-class GPU
//! that the paper's algorithm and evaluation depend on.
//!
//! Two orthogonal layers:
//!
//! * **Functional layer** — bit-exact numerics.
//!   [`mma()`] implements the Tensor Core compute primitive `D = A×B + C`
//!   with half-precision A/B and the internal operation precision the
//!   paper's profiling establishes (§3.2: products and accumulation behave
//!   like single-precision CUDA-core arithmetic, bitwise, up to 21 mantissa
//!   bits). [`frag`] models the Fragment register space of a warp.
//!   [`probe`] implements the generalized emulation-design workflow of
//!   Figure 2 — it can *identify* the internal precision of an unknown
//!   compute primitive by bitwise comparison against CPU-computed probes.
//!
//! * **Timing layer** — simulated performance.
//!   [`spec`] carries the hardware resource budgets of Table 3 for the
//!   T4 and RTX 6000. [`isa`] defines the SASS-like instructions the paper
//!   schedules (LDG, STS, LDS, HMMA; §5.1), [`sched`] is a small
//!   cycle-level simulator of a warp scheduler with sequential vs
//!   latency-hiding issue (Figure 6), [`occupancy`] models blocks/SM from
//!   shared-memory and register pressure plus the §5.2 register-allocation
//!   stage model, and [`timing`] assembles whole-kernel execution times
//!   (pipeline bound vs DRAM roofline, wave quantization, launch overhead).
//!
//! All kernels compared in the evaluation — EGEMM-TC and every baseline —
//! run through the same two layers; they differ only in the instruction
//! streams and resource footprints their kernel builders emit.

pub mod frag;
pub mod isa;
pub mod mma;
pub mod occupancy;
pub mod probe;
pub mod sched;
pub mod spec;
pub mod timing;

pub use frag::{Fragment, FragmentKind};
pub use isa::{DepRef, Instr, LoopBody, Op};
pub use mma::{mma, tensor_core_mma, MmaShape, OpPrecision};
pub use occupancy::{blocks_per_sm, BlockResources};
pub use probe::{
    agreement_mantissa_bits, identify_precision, ComputePrimitive, ProbeReport, TensorCoreDevice,
};
pub use sched::{
    render_timeline, simulate_loop, simulate_loop_traced, ScheduleMode, SimResult, TraceEvent,
};
pub use spec::{Arch, DeviceSpec, InstrLatencies, ResourceBudget};
pub use timing::{kernel_time, Bound, KernelDesc, KernelTiming};
