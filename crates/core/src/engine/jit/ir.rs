//! Kernel IR: a shape-specialized microkernel described as a short
//! program over virtual vector registers.
//!
//! [`lower`] turns a [`KernelSpec`] — ISA, scheme term planes, chunk
//! depth `tk`, panel depth `kcb`, and the tile's valid `rows`/`cols` —
//! into straight-line op lists: a prologue that loads the live C lanes
//! (masked on ragged edges, zeroed on padded rows), one fully unrolled
//! `tk` chunk body iterating the scheme's terms in issue order, an
//! unrolled trailing `kcb % tk` chunk, and a store epilogue. The value
//! stream per output element is, by construction, exactly the
//! interpreted microkernel's: ascending k within a chunk, terms in
//! order per chunk, one [`Op::Fma`] per product. Fusing rounds exactly
//! like the interpreter's multiply and add because every multiplicand
//! is a widened binary16, whose products are exact in binary32 (see
//! [`super`] for the argument and the NaN clause).
//!
//! Virtual registers are plain indices; [`super::regalloc`] maps them
//! onto physical ymm/zmm registers and [`super::x86`] encodes the
//! result. A kernel runs `rows.div_ceil(MR)` row blocks: one under AVX,
//! up to two adjacent ones under AVX-512, whose A slivers lie
//! `kcb x MR` apart in the worker's packed block. Arithmetic always
//! covers every row of those blocks and the full vector width — packed
//! operands are zero-padded, so padded lanes compute zeros that the
//! masked epilogue never stores, bit-identically to the edge handling
//! of `micro::interpret`.

use super::super::pack::{MR, NR};

/// Instruction set the kernel is emitted for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Isa {
    /// 8-lane ymm vectors, one `NR`-column strip per call (two vector
    /// halves per accumulator row). Requires AVX.
    Avx,
    /// 16-lane zmm vectors over a *pair* of adjacent packed strips
    /// (2 x `NR` columns per call) and up to two adjacent row blocks:
    /// an 8 x 32 tile of sixteen independent accumulator chains.
    /// Requires AVX-512F.
    Avx512,
}

impl Isa {
    /// f32 lanes per vector register.
    pub(crate) fn lanes(self) -> usize {
        match self {
            Isa::Avx => 8,
            Isa::Avx512 => 16,
        }
    }

    /// Packed B strips consumed per kernel call.
    pub(crate) fn strips(self) -> usize {
        match self {
            Isa::Avx => 1,
            Isa::Avx512 => 2,
        }
    }

    /// Most `MR`-row blocks one kernel call runs: two under AVX-512,
    /// whose 16 accumulators fit its 32 registers, one under AVX.
    pub(crate) fn blocks(self) -> usize {
        match self {
            Isa::Avx => 1,
            Isa::Avx512 => 2,
        }
    }

    /// Vector registers the encoder can name: VEX reaches ymm0-15,
    /// EVEX zmm0-31.
    pub(crate) fn regs(self) -> usize {
        match self {
            Isa::Avx => 16,
            Isa::Avx512 => 32,
        }
    }
}

/// Everything a kernel is specialized on. Two calls with equal specs
/// are served by the same machine code.
#[derive(Debug, Clone)]
pub(crate) struct KernelSpec {
    pub isa: Isa,
    /// The scheme's `(a_lo, b_lo)` term planes in issue order.
    pub terms: Vec<(bool, bool)>,
    /// Accumulation chunk depth.
    pub tk: usize,
    /// Panel depth this kernel advances through.
    pub kcb: usize,
    /// Valid output rows, `1..=isa.blocks() * MR`.
    pub rows: usize,
    /// Valid output columns, `1..=NR` (Avx) or `NR+1..=2*NR` (Avx512).
    pub cols: usize,
}

impl KernelSpec {
    /// Row blocks this kernel runs: `rows.div_ceil(MR)`.
    pub(crate) fn blocks(&self) -> usize {
        self.rows.div_ceil(MR)
    }
}

/// A virtual vector register.
pub(crate) type VReg = u16;

/// Which packed operand plane a memory operand reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Plane {
    AHi,
    ALo,
    BHi,
    BLo,
}

/// Edge handling of one C vector (one row, one of the two vector
/// positions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MaskMode {
    /// All lanes valid: plain load/store.
    Full,
    /// The kernel's single partial vector: masked load (invalid lanes
    /// zeroed) and masked store (invalid lanes untouched).
    Masked,
    /// No valid lanes (padded row, or vector past `cols`): load zeros,
    /// store nothing.
    Skip,
}

/// One IR operation. Memory offsets are bytes relative to the fixed
/// base registers the encoder assigns (plane pointers for `LoadB` /
/// `BroadcastA`; the C row origin for `LoadAcc` / `StoreAcc`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// Load accumulator `dst` from C `row`, vector position `vec`.
    LoadAcc {
        dst: VReg,
        row: u8,
        vec: u8,
        mode: MaskMode,
        /// The AVX lane-mask vector for `MaskMode::Masked` (AVX-512
        /// uses a k register instead).
        mask: Option<VReg>,
    },
    /// Materialize the AVX lane-mask vector (from the literal pool).
    LoadMask { dst: VReg },
    /// Load one full B vector.
    LoadB { dst: VReg, plane: Plane, off: i32 },
    /// Broadcast one A scalar to all lanes.
    BroadcastA { dst: VReg, plane: Plane, off: i32 },
    /// `acc = acc + a * b`, one fused multiply-add.
    Fma { acc: VReg, a: VReg, b: VReg },
    /// Store accumulator `src` to C `row`, vector position `vec`.
    StoreAcc {
        src: VReg,
        row: u8,
        vec: u8,
        mode: MaskMode,
        mask: Option<VReg>,
    },
}

/// A lowered kernel: op lists plus the loop structure and constants the
/// encoder needs.
pub(crate) struct Program {
    pub spec: KernelSpec,
    pub prologue: Vec<Op>,
    /// One full `tk` chunk; re-executed `full_chunks` times with the
    /// plane pointers advanced between iterations.
    pub body: Vec<Op>,
    pub full_chunks: usize,
    /// The trailing `kcb % tk` chunk (offsets relative to the advanced
    /// pointers).
    pub ragged: Vec<Op>,
    pub epilogue: Vec<Op>,
    /// Byte advance of the A / B plane pointers per full chunk.
    pub advance_a: i32,
    pub advance_b: i32,
    /// Virtual registers used (dense, `0..vregs`).
    pub vregs: u16,
    /// Valid lanes of the single partial C vector, when one exists.
    pub mask_lanes: Option<u32>,
}

impl Program {
    /// B-plane pointer advance per full chunk also tells the encoder
    /// which planes each term reads.
    pub(crate) fn plane_a(term: (bool, bool)) -> Plane {
        if term.0 {
            Plane::ALo
        } else {
            Plane::AHi
        }
    }

    pub(crate) fn plane_b(term: (bool, bool)) -> Plane {
        if term.1 {
            Plane::BLo
        } else {
            Plane::BHi
        }
    }
}

/// Byte offset of B vector position `vec` at chunk-relative step `kk`.
/// Under AVX the two positions are the halves of one strip row; under
/// AVX-512 position 1 is the adjacent packed strip, a whole
/// `kcb x NR` sliver away.
fn b_off(spec: &KernelSpec, kk: usize, vec: usize) -> i32 {
    let base = (kk * NR * 4) as i32;
    match spec.isa {
        Isa::Avx => base + (vec * 32) as i32,
        Isa::Avx512 => base + (vec * spec.kcb * NR * 4) as i32,
    }
}

/// Valid lanes of C vector position `vec`: `cols` clipped to the
/// vector's lane window.
fn valid_lanes(spec: &KernelSpec, vec: usize) -> usize {
    let lanes = spec.isa.lanes();
    spec.cols.saturating_sub(vec * lanes).min(lanes)
}

fn mode_of(spec: &KernelSpec, row: usize, vec: usize) -> MaskMode {
    if row >= spec.rows {
        return MaskMode::Skip;
    }
    match valid_lanes(spec, vec) {
        0 => MaskMode::Skip,
        v if v == spec.isa.lanes() => MaskMode::Full,
        _ => MaskMode::Masked,
    }
}

/// Lower a spec to IR. The accumulation order is the contract here:
/// per chunk, terms in issue order; per term, ascending `kk`; per
/// step, the two B vectors, then rows ascending over every row block,
/// each row's broadcast followed by its FMAs at vector position 0 and
/// 1 — per element the portable microkernel's order (lane streams are
/// independent, so only the per-element order matters, and that is
/// per (term, kk) one fused multiply-add).
pub(crate) fn lower(spec: &KernelSpec) -> Program {
    let mut next: VReg = 0;
    let mut fresh = || {
        let r = next;
        next += 1;
        r
    };
    let acc: Vec<[VReg; 2]> = (0..spec.blocks() * MR)
        .map(|_| [fresh(), fresh()])
        .collect();

    // At most one vector position is partial: cols <= lanes leaves
    // position 1 empty; lanes < cols < 2*lanes leaves position 0 full.
    let mask_lanes = (0..2)
        .map(|v| valid_lanes(spec, v))
        .find(|&v| v > 0 && v < spec.isa.lanes())
        .map(|v| v as u32);
    let mask_vreg = match (spec.isa, mask_lanes) {
        (Isa::Avx, Some(_)) => Some(fresh()),
        _ => None,
    };

    let mut prologue = Vec::new();
    if let Some(m) = mask_vreg {
        prologue.push(Op::LoadMask { dst: m });
    }
    for (r, a) in acc.iter().enumerate() {
        for (v, &dst) in a.iter().enumerate() {
            prologue.push(Op::LoadAcc {
                dst,
                row: r as u8,
                vec: v as u8,
                mode: mode_of(spec, r, v),
                mask: mask_vreg,
            });
        }
    }

    // One chunk of `len` steps, fully unrolled over terms x kk.
    let mut chunk = |len: usize| {
        let mut ops = Vec::new();
        for &term in &spec.terms {
            let (pa, pb) = (Program::plane_a(term), Program::plane_b(term));
            for kk in 0..len {
                let b0 = fresh();
                let b1 = fresh();
                ops.push(Op::LoadB {
                    dst: b0,
                    plane: pb,
                    off: b_off(spec, kk, 0),
                });
                ops.push(Op::LoadB {
                    dst: b1,
                    plane: pb,
                    off: b_off(spec, kk, 1),
                });
                for (r, a) in acc.iter().enumerate() {
                    let (blk, r) = (r / MR, r % MR);
                    let ar = fresh();
                    ops.push(Op::BroadcastA {
                        dst: ar,
                        plane: pa,
                        off: ((blk * spec.kcb + kk) * MR * 4 + r * 4) as i32,
                    });
                    for (v, &av) in a.iter().enumerate() {
                        ops.push(Op::Fma {
                            acc: av,
                            a: ar,
                            b: if v == 0 { b0 } else { b1 },
                        });
                    }
                }
            }
        }
        ops
    };
    let full_chunks = spec.kcb / spec.tk;
    let rem = spec.kcb % spec.tk;
    let body = if full_chunks > 0 {
        chunk(spec.tk)
    } else {
        Vec::new()
    };
    let ragged = if rem > 0 { chunk(rem) } else { Vec::new() };

    let mut epilogue = Vec::new();
    for (r, a) in acc.iter().enumerate() {
        for (v, &src) in a.iter().enumerate() {
            let mode = mode_of(spec, r, v);
            if mode == MaskMode::Skip {
                continue; // padded lanes are never written back
            }
            epilogue.push(Op::StoreAcc {
                src,
                row: r as u8,
                vec: v as u8,
                mode,
                mask: mask_vreg,
            });
        }
    }

    Program {
        prologue,
        body,
        full_chunks,
        ragged,
        epilogue,
        advance_a: (spec.tk * MR * 4) as i32,
        advance_b: (spec.tk * NR * 4) as i32,
        vregs: next,
        mask_lanes,
        spec: spec.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(isa: Isa, cols: usize) -> KernelSpec {
        KernelSpec {
            isa,
            terms: vec![(false, false), (true, false)],
            tk: 8,
            kcb: 20,
            rows: 3,
            cols,
        }
    }

    #[test]
    fn loop_structure_covers_the_panel() {
        let p = lower(&spec(Isa::Avx, 16));
        // kcb = 20, tk = 8: two full chunks plus a 4-step ragged tail.
        assert_eq!(p.full_chunks, 2);
        assert_eq!(p.advance_a, 8 * MR as i32 * 4);
        assert_eq!(p.advance_b, 8 * NR as i32 * 4);
        // Body: per term (2) per step (8): 2 B loads + 4 broadcasts +
        // 8 FMAs = 14 ops.
        assert_eq!(p.body.len(), 2 * 8 * 14);
        assert_eq!(p.ragged.len(), 2 * 4 * 14);
        assert!(p.mask_lanes.is_none());
        // 3 valid rows x 2 full vectors stored; row 3 skipped.
        assert_eq!(p.epilogue.len(), 6);
    }

    #[test]
    fn edge_masks_single_partial_vector() {
        let p = lower(&spec(Isa::Avx, 11));
        assert_eq!(p.mask_lanes, Some(3)); // lanes 8..11 of vector 1
        let masked = p
            .epilogue
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    Op::StoreAcc {
                        mode: MaskMode::Masked,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(masked, 3); // one partial vector per valid row
        let p = lower(&spec(Isa::Avx, 5));
        assert_eq!(p.mask_lanes, Some(5));
        // vector 1 entirely invalid: only vector 0 stored per row.
        assert_eq!(p.epilogue.len(), 3);
    }

    #[test]
    fn avx512_pairs_strips() {
        let p = lower(&spec(Isa::Avx512, 23));
        // Lanes 16..23 in strip 1.
        assert_eq!(p.mask_lanes, Some(7));
        // Strip-1 B offsets sit a whole kcb x NR sliver away.
        let far = p
            .body
            .iter()
            .any(|o| matches!(o, Op::LoadB { off, .. } if *off >= (20 * NR * 4) as i32));
        assert!(far, "strip-1 loads must address the adjacent sliver");
    }

    #[test]
    fn two_row_blocks_share_each_b_load() {
        let p = lower(&KernelSpec {
            rows: 8,
            ..spec(Isa::Avx512, 32)
        });
        let kcb = 20;
        // Per (term, kk) step: 2 B loads, then per row of both blocks
        // one broadcast and its two FMAs.
        let step = 2 + 8 * 3;
        assert_eq!(p.body.len(), 2 * 8 * step);
        for ops in p.body.chunks(step) {
            assert!(ops[..2].iter().all(|o| matches!(o, Op::LoadB { .. })));
            let bcasts: Vec<i32> = ops
                .iter()
                .filter_map(|o| match o {
                    Op::BroadcastA { off, .. } => Some(*off),
                    _ => None,
                })
                .collect();
            let fmas = ops.iter().filter(|o| matches!(o, Op::Fma { .. })).count();
            assert_eq!((bcasts.len(), fmas), (8, 16));
            // Block 1's rows read the same k step of the next sliver.
            for r in 0..MR {
                assert_eq!(bcasts[MR + r] - bcasts[r], (kcb * MR * 4) as i32);
            }
        }
        // Sixteen accumulators, each loaded and stored once.
        assert_eq!(p.prologue.len(), 16);
        assert_eq!(p.epilogue.len(), 16);
    }

    #[test]
    fn rows_past_a_second_block_edge_are_skipped() {
        let p = lower(&KernelSpec {
            rows: 6,
            ..spec(Isa::Avx512, 32)
        });
        for op in &p.prologue {
            if let Op::LoadAcc { row, mode, .. } = *op {
                assert_eq!(mode == MaskMode::Skip, row >= 6, "row {row}");
            }
        }
        assert!(p
            .epilogue
            .iter()
            .all(|o| matches!(o, Op::StoreAcc { row, .. } if *row < 6)));
        assert_eq!(p.epilogue.len(), 6 * 2);
        // A lone block lowers to one block of accumulators.
        let p = lower(&KernelSpec {
            rows: 4,
            ..spec(Isa::Avx512, 32)
        });
        assert_eq!(p.prologue.len(), MR * 2);
    }

    #[test]
    fn short_panel_has_no_loop() {
        let p = lower(&KernelSpec {
            tk: 8,
            kcb: 5,
            ..spec(Isa::Avx, 16)
        });
        assert_eq!(p.full_chunks, 0);
        assert!(p.body.is_empty(), "no full chunk: no loop body");
        assert_eq!(p.ragged.len(), 2 * 5 * 14);
    }
}
