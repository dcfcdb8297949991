//! x86-64 machine-code emission for allocated kernel IR.
//!
//! The ABI is `unsafe extern "sysv64" fn(*const KernelArgs)`: the
//! single argument arrives in `rdi` and every register the emitted
//! code touches is caller-saved under the SysV ABI (rax, rcx, rdx,
//! rsi, rdi, r8-r11, all vector registers), so kernels need no stack
//! frame, no spills, and no prologue saves. Fixed general-purpose
//! assignment:
//!
//! ```text
//! r8  a_hi    r9  a_lo     r10 b_hi    r11 b_lo   (advance per chunk)
//! rax C row 0 origin       rcx n*4     rsi 3*n*4  rdx chunk counter
//! rdi C row 4 origin (two-block kernels, once the arguments are read)
//! ```
//!
//! C rows address as `[rax]`, `[rax+rcx]`, `[rax+rcx*2]`, `[rax+rsi]`,
//! and rows 4-7 of a two-block kernel the same way from `rdi`. Block
//! 1's A slivers lie `kcb x MR` past block 0's, so its broadcasts reach
//! them through the same plane pointers by displacement. AVX-512
//! kernels name zmm0-31: the EVEX prefix carries bit 4 of the ModRM.reg
//! register in R', of the vvvv register in V', and of a register r/m
//! operand in X. AVX kernels fetch their single lane mask from a
//! RIP-relative literal pool appended after the code; AVX-512 kernels
//! build theirs in `k1` with `kmovw`. Each product is one `vfmadd231ps`, which
//! rounds like the interpreter's multiply and add because every
//! multiplicand is a widened binary16 (the argument is in [`super`]).

use super::super::pack::MR;
use super::ir::{Isa, MaskMode, Op, Plane, Program};
use super::regalloc::Allocation;

/// `vvvv` value for instructions with no vvvv operand. The encoders
/// below store the field in the architectural one's-complement form, so
/// logical 0 becomes the all-ones field the CPU requires there (any
/// other value raises #UD).
const NO_VVVV: u8 = 0;

// General-purpose register numbers.
const RAX: u8 = 0;
const RCX: u8 = 1;
const RSI: u8 = 6;
const RDI: u8 = 7;
const R8: u8 = 8;
const R9: u8 = 9;
const R10: u8 = 10;
const R11: u8 = 11;

/// KernelArgs field offsets (see `super::KernelArgs`, `#[repr(C)]`).
const ARG_A_HI: i32 = 0x00;
const ARG_A_LO: i32 = 0x08;
const ARG_B_HI: i32 = 0x10;
const ARG_B_LO: i32 = 0x18;
const ARG_OUT: i32 = 0x20;
const ARG_N: i32 = 0x28;

/// A memory operand.
#[derive(Clone, Copy)]
enum Mem {
    /// `[base + disp]`
    Bd { base: u8, disp: i32 },
    /// `[base + index*scale + disp]`, scale in {1, 2}
    Bid {
        base: u8,
        index: u8,
        scale: u8,
        disp: i32,
    },
    /// `[rip + disp32]` resolved to literal-pool entry `pool`.
    Rip { pool: usize },
}

/// The r/m slot of an instruction: memory or a vector register.
#[derive(Clone, Copy)]
enum Rm {
    Mem(Mem),
    Reg(u8),
}

struct Asm {
    code: Vec<u8>,
    /// 32-byte literal-pool entries and the disp32 positions to patch.
    pool: Vec<[u8; 32]>,
    fixups: Vec<(usize, usize)>,
}

impl Asm {
    fn new() -> Asm {
        Asm {
            code: Vec::with_capacity(4096),
            pool: Vec::new(),
            fixups: Vec::new(),
        }
    }

    fn u8(&mut self, b: u8) {
        self.code.push(b);
    }

    fn i32le(&mut self, v: i32) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    /// ModRM (+SIB, +disp) for `reg` against `rm`. `force_disp32`
    /// avoids EVEX compressed-disp8 semantics by always using the
    /// 32-bit displacement form for memory operands.
    fn modrm(&mut self, reg: u8, rm: Rm, force_disp32: bool) {
        let reg3 = (reg & 7) << 3;
        match rm {
            Rm::Reg(r) => self.u8(0xC0 | reg3 | (r & 7)),
            Rm::Mem(Mem::Rip { pool }) => {
                self.u8(reg3 | 0x05);
                self.fixups.push((self.code.len(), pool));
                self.i32le(0);
            }
            Rm::Mem(Mem::Bd { base, disp }) => {
                // None of the fixed bases are rsp/r12 (low bits 100,
                // which would need a SIB) or rbp/r13 (100/101 quirks);
                // keep that invariant explicit.
                debug_assert!(base & 7 != 4 && base & 7 != 5);
                if disp == 0 && !force_disp32 {
                    self.u8(reg3 | (base & 7));
                } else if (-128..128).contains(&disp) && !force_disp32 {
                    self.u8(0x40 | reg3 | (base & 7));
                    self.u8(disp as u8);
                } else {
                    self.u8(0x80 | reg3 | (base & 7));
                    self.i32le(disp);
                }
            }
            Rm::Mem(Mem::Bid {
                base,
                index,
                scale,
                disp,
            }) => {
                debug_assert!(index & 7 != 4, "rsp cannot index");
                debug_assert!(base & 7 != 5);
                let ss = match scale {
                    1 => 0u8,
                    2 => 1,
                    _ => unreachable!("row addressing only scales by 1 or 2"),
                };
                let sib = (ss << 6) | ((index & 7) << 3) | (base & 7);
                if disp == 0 && !force_disp32 {
                    self.u8(reg3 | 0x04);
                    self.u8(sib);
                } else if (-128..128).contains(&disp) && !force_disp32 {
                    self.u8(0x40 | reg3 | 0x04);
                    self.u8(sib);
                    self.u8(disp as u8);
                } else {
                    self.u8(0x80 | reg3 | 0x04);
                    self.u8(sib);
                    self.i32le(disp);
                }
            }
        }
    }

    /// High (extension) bits of an r/m operand: (X, B). A vector
    /// register r/m carries its bit 3 in B and its bit 4 in X, which
    /// only EVEX can set.
    fn rm_ext(rm: Rm) -> (u8, u8) {
        match rm {
            Rm::Reg(r) => ((r >> 4) & 1, (r >> 3) & 1),
            Rm::Mem(Mem::Rip { .. }) => (0, 0),
            Rm::Mem(Mem::Bd { base, .. }) => (0, base >> 3),
            Rm::Mem(Mem::Bid { base, index, .. }) => (index >> 3, base >> 3),
        }
    }

    /// Three-byte VEX instruction. `map`: 1 = 0F, 2 = 0F38; `pp`:
    /// 0 = none, 1 = 66; `l`: 0 = 128-bit, 1 = 256-bit.
    #[allow(clippy::too_many_arguments)]
    fn vex(&mut self, map: u8, pp: u8, w: u8, l: u8, op: u8, reg: u8, vvvv: u8, rm: Rm) {
        let (x, b) = Asm::rm_ext(rm);
        debug_assert!(reg < 16 && vvvv < 16, "VEX names registers 0-15 only");
        debug_assert!(!matches!(rm, Rm::Reg(r) if r >= 16));
        self.code.extend_from_slice(&[
            0xC4,
            ((!(reg >> 3) & 1) << 7) | ((!x & 1) << 6) | ((!b & 1) << 5) | map,
            (w << 7) | ((!vvvv & 0xF) << 3) | (l << 2) | pp,
            op,
        ]);
        self.modrm(reg, rm, false);
    }

    /// EVEX instruction, always 512-bit here. `aaa` selects the k mask
    /// (0 = none), `z` the zeroing form. Memory operands use the
    /// plain disp32 form so no compressed-disp8 scaling applies.
    /// Registers run 0-31: R' (P0 bit 4) and V' (P2 bit 3) hold bit 4
    /// of `reg` and `vvvv`, inverted like the other extension bits.
    #[allow(clippy::too_many_arguments)]
    fn evex(&mut self, map: u8, pp: u8, w: u8, op: u8, reg: u8, vvvv: u8, rm: Rm, aaa: u8, z: u8) {
        let (x, b) = Asm::rm_ext(rm);
        let (r, r_hi, v_hi) = ((reg >> 3) & 1, (reg >> 4) & 1, (vvvv >> 4) & 1);
        self.code.extend_from_slice(&[
            0x62,
            ((!r & 1) << 7) | ((!x & 1) << 6) | ((!b & 1) << 5) | ((!r_hi & 1) << 4) | map,
            (w << 7) | ((!vvvv & 0xF) << 3) | 0x04 | pp,
            // L'L = 10: 512-bit.
            (z << 7) | 0x40 | ((!v_hi & 1) << 3) | aaa,
            op,
        ]);
        self.modrm(reg, rm, true);
    }

    /// `mov r64, [base + disp]`
    fn mov_load(&mut self, dst: u8, base: u8, disp: i32) {
        self.u8(0x48 | ((dst >> 3) << 2) | (base >> 3));
        self.u8(0x8B);
        self.modrm(dst, Rm::Mem(Mem::Bd { base, disp }), false);
    }

    /// `add r64, imm32`
    fn add_imm(&mut self, r: u8, imm: i32) {
        self.u8(0x48 | (r >> 3));
        self.u8(0x81);
        self.u8(0xC0 | (r & 7));
        self.i32le(imm);
    }

    /// Append the literal pool and resolve RIP fixups.
    fn finish(mut self) -> Vec<u8> {
        let base = self.code.len();
        for entry in &self.pool {
            self.code.extend_from_slice(entry);
        }
        for (pos, idx) in self.fixups {
            let target = base + idx * 32;
            let rel = (target as i64 - (pos as i64 + 4)) as i32;
            self.code[pos..pos + 4].copy_from_slice(&rel.to_le_bytes());
        }
        self.code
    }
}

/// `lea rdi, [rax+rcx*4]`: REX.W 8D /r, ModRM 00 111 100, SIB 10 001
/// 000.
const LEA_RDI_ROW4: [u8; 4] = [0x48, 0x8D, 0x3C, 0x88];

fn plane_base(p: Plane) -> u8 {
    match p {
        Plane::AHi => R8,
        Plane::ALo => R9,
        Plane::BHi => R10,
        Plane::BLo => R11,
    }
}

/// C memory operand for `row` at byte offset `disp` from the row
/// origin: rows 0-3 from `rax`, rows 4-7 from `rdi`.
fn row_mem(row: u8, disp: i32) -> Mem {
    debug_assert!((row as usize) < 2 * MR, "at most two row blocks");
    let base = if (row as usize) < MR { RAX } else { RDI };
    match row as usize % MR {
        0 => Mem::Bd { base, disp },
        1 => Mem::Bid {
            base,
            index: RCX,
            scale: 1,
            disp,
        },
        2 => Mem::Bid {
            base,
            index: RCX,
            scale: 2,
            disp,
        },
        _ => Mem::Bid {
            base,
            index: RSI,
            scale: 1,
            disp,
        },
    }
}

/// Emit one vector op under the program's ISA.
fn emit_op(a: &mut Asm, isa: Isa, alloc: &Allocation, op: &Op) {
    let avx512 = isa == Isa::Avx512;
    match *op {
        Op::LoadAcc {
            dst,
            row,
            vec,
            mode,
            mask,
        } => {
            let d = alloc.phys(dst);
            let mem = Rm::Mem(row_mem(row, (vec as i32) * isa.lanes() as i32 * 4));
            match (mode, avx512) {
                (MaskMode::Full, false) => a.vex(1, 0, 0, 1, 0x10, d, NO_VVVV, mem),
                (MaskMode::Full, true) => a.evex(1, 0, 0, 0x10, d, NO_VVVV, mem, 0, 0),
                (MaskMode::Masked, false) => {
                    // vmaskmovps ymm, ymm(mask), m256
                    let m = alloc.phys(mask.expect("AVX masked load carries a mask vreg"));
                    a.vex(2, 1, 0, 1, 0x2C, d, m, mem);
                }
                // vmovups zmm{k1}{z}, m512: masked-off lanes read as
                // zero, exactly the interpreter's zero fill.
                (MaskMode::Masked, true) => a.evex(1, 0, 0, 0x10, d, NO_VVVV, mem, 1, 1),
                (MaskMode::Skip, false) => a.vex(1, 0, 0, 1, 0x57, d, d, Rm::Reg(d)),
                (MaskMode::Skip, true) => a.evex(1, 1, 0, 0xEF, d, d, Rm::Reg(d), 0, 0),
            }
        }
        Op::LoadMask { dst } => {
            debug_assert!(!avx512, "AVX-512 masks live in k1");
            let d = alloc.phys(dst);
            a.vex(1, 0, 0, 1, 0x10, d, NO_VVVV, Rm::Mem(Mem::Rip { pool: 0 }));
        }
        Op::LoadB { dst, plane, off } => {
            let d = alloc.phys(dst);
            let mem = Rm::Mem(Mem::Bd {
                base: plane_base(plane),
                disp: off,
            });
            if avx512 {
                a.evex(1, 0, 0, 0x10, d, NO_VVVV, mem, 0, 0);
            } else {
                a.vex(1, 0, 0, 1, 0x10, d, NO_VVVV, mem);
            }
        }
        Op::BroadcastA { dst, plane, off } => {
            let d = alloc.phys(dst);
            let mem = Rm::Mem(Mem::Bd {
                base: plane_base(plane),
                disp: off,
            });
            if avx512 {
                a.evex(2, 1, 0, 0x18, d, NO_VVVV, mem, 0, 0);
            } else {
                a.vex(2, 1, 0, 1, 0x18, d, NO_VVVV, mem);
            }
        }
        // vfmadd231ps acc, a, b: acc = a * b + acc, one rounding.
        Op::Fma { acc, a: x, b } => {
            let (d, x, b) = (alloc.phys(acc), alloc.phys(x), alloc.phys(b));
            if avx512 {
                a.evex(2, 1, 0, 0xB8, d, x, Rm::Reg(b), 0, 0);
            } else {
                a.vex(2, 1, 0, 1, 0xB8, d, x, Rm::Reg(b));
            }
        }
        Op::StoreAcc {
            src,
            row,
            vec,
            mode,
            mask,
        } => {
            let s = alloc.phys(src);
            let mem = Rm::Mem(row_mem(row, (vec as i32) * isa.lanes() as i32 * 4));
            match (mode, avx512) {
                (MaskMode::Full, false) => a.vex(1, 0, 0, 1, 0x11, s, NO_VVVV, mem),
                (MaskMode::Full, true) => a.evex(1, 0, 0, 0x11, s, NO_VVVV, mem, 0, 0),
                (MaskMode::Masked, false) => {
                    // vmaskmovps m256, ymm(mask), ymm
                    let m = alloc.phys(mask.expect("AVX masked store carries a mask vreg"));
                    a.vex(2, 1, 0, 1, 0x2E, s, m, mem);
                }
                // vmovups m512{k1}, zmm: masked-off lanes untouched.
                (MaskMode::Masked, true) => a.evex(1, 0, 0, 0x11, s, NO_VVVV, mem, 1, 0),
                (MaskMode::Skip, _) => unreachable!("skipped stores are not lowered"),
            }
        }
    }
}

/// Encode an allocated program to machine code (literal pool
/// included). The result is position-independent and complete — ready
/// for [`super::exec::ExecBuf::publish`].
pub(crate) fn emit(prog: &Program, alloc: &Allocation) -> Vec<u8> {
    let isa = prog.spec.isa;
    let mut a = Asm::new();

    // AVX-512 lane mask in k1 (before the argument loads: this
    // clobbers eax, which later holds `out`).
    if isa == Isa::Avx512 {
        if let Some(lanes) = prog.mask_lanes {
            a.u8(0xB8); // mov eax, imm32
            a.i32le(((1u32 << lanes) - 1) as i32);
            a.vex(1, 0, 0, 0, 0x92, 1, NO_VVVV, Rm::Reg(RAX)); // kmovw k1, eax
        }
    } else if prog.mask_lanes.is_some() {
        // AVX lane mask: pool entry 0, all-ones in the valid lanes.
        let lanes = prog.mask_lanes.unwrap_or(0);
        let mut entry = [0u8; 32];
        for l in 0..lanes.min(8) as usize {
            entry[l * 4..l * 4 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        }
        a.pool.push(entry);
    }

    a.mov_load(R8, RDI, ARG_A_HI);
    a.mov_load(R9, RDI, ARG_A_LO);
    a.mov_load(R10, RDI, ARG_B_HI);
    a.mov_load(R11, RDI, ARG_B_LO);
    a.mov_load(RAX, RDI, ARG_OUT);
    a.mov_load(RCX, RDI, ARG_N);
    a.code.extend_from_slice(&[0x48, 0xC1, 0xE1, 0x02]); // shl rcx, 2
    a.code.extend_from_slice(&[0x48, 0x8D, 0x34, 0x49]); // lea rsi, [rcx+rcx*2]
    if prog.spec.blocks() > 1 {
        // The argument pointer is dead: rdi becomes C's row 4 origin.
        a.code.extend_from_slice(&LEA_RDI_ROW4);
    }

    for op in &prog.prologue {
        emit_op(&mut a, isa, alloc, op);
    }

    if prog.full_chunks > 0 {
        a.u8(0xBA); // mov edx, imm32
        a.i32le(prog.full_chunks as i32);
        let top = a.code.len();
        for op in &prog.body {
            emit_op(&mut a, isa, alloc, op);
        }
        // Advance the plane pointers a chunk actually read.
        let terms = &prog.spec.terms;
        if terms.iter().any(|t| !t.0) {
            a.add_imm(R8, prog.advance_a);
        }
        if terms.iter().any(|t| t.0) {
            a.add_imm(R9, prog.advance_a);
        }
        if terms.iter().any(|t| !t.1) {
            a.add_imm(R10, prog.advance_b);
        }
        if terms.iter().any(|t| t.1) {
            a.add_imm(R11, prog.advance_b);
        }
        a.code.extend_from_slice(&[0xFF, 0xCA]); // dec edx
        a.u8(0x0F); // jnz rel32
        a.u8(0x85);
        let rel = top as i64 - (a.code.len() as i64 + 4);
        a.i32le(rel as i32);
    }

    for op in &prog.ragged {
        emit_op(&mut a, isa, alloc, op);
    }
    for op in &prog.epilogue {
        emit_op(&mut a, isa, alloc, op);
    }
    a.code.extend_from_slice(&[0xC5, 0xF8, 0x77]); // vzeroupper
    a.u8(0xC3); // ret
    a.finish()
}

#[cfg(test)]
mod tests {
    use super::super::ir::{lower, Isa, KernelSpec, VReg};
    use super::super::regalloc::allocate;
    use super::*;

    fn emit_for(isa: Isa, rows: usize, cols: usize, kcb: usize) -> Vec<u8> {
        let (prog, alloc) = program(isa, rows, cols, kcb);
        emit(&prog, &alloc)
    }

    fn program(isa: Isa, rows: usize, cols: usize, kcb: usize) -> (Program, Allocation) {
        let spec = KernelSpec {
            isa,
            terms: vec![(false, false), (true, true)],
            tk: 8,
            kcb,
            rows,
            cols,
        };
        let prog = lower(&spec);
        let alloc = allocate(&prog).unwrap();
        (prog, alloc)
    }

    /// Encode one op on a fresh assembler, `vreg v` in register `v`.
    fn encode(isa: Isa, op: Op) -> Vec<u8> {
        let mut a = Asm::new();
        emit_op(&mut a, isa, &Allocation::identity(), &op);
        a.code
    }

    /// Every vector instruction form the emitter produces, against
    /// encodings derived by hand from the VEX and EVEX prefix layouts
    /// in chapter 2 of the Intel SDM, Vol. 2. The encoder always uses
    /// the three-byte VEX prefix and, under EVEX, disp32 memory
    /// operands; `finish` patches the RIP-relative displacement later.
    #[test]
    fn golden_encodings() {
        use Isa::{Avx, Avx512};
        use MaskMode::{Full, Masked, Skip};
        let acc = |dst, row, vec, mode, mask| Op::LoadAcc {
            dst,
            row,
            vec,
            mode,
            mask,
        };
        let st = |src, row, vec, mode, mask| Op::StoreAcc {
            src,
            row,
            vec,
            mode,
            mask,
        };
        let rows: Vec<(Isa, Op, &[u8], &str)> = vec![
            (
                Avx,
                acc(1, 0, 1, Full, None),
                &[0xC4, 0xE1, 0x7C, 0x10, 0x48, 0x20],
                "vmovups ymm1, [rax+0x20]",
            ),
            (
                Avx,
                st(13, 3, 0, Full, None),
                &[0xC4, 0x61, 0x7C, 0x11, 0x2C, 0x30],
                "vmovups [rax+rsi], ymm13",
            ),
            (
                Avx,
                Op::LoadB {
                    dst: 6,
                    plane: Plane::BLo,
                    off: 0x500,
                },
                &[0xC4, 0xC1, 0x7C, 0x10, 0xB3, 0x00, 0x05, 0x00, 0x00],
                "vmovups ymm6, [r11+0x500]",
            ),
            (
                Avx,
                Op::LoadMask { dst: 7 },
                &[0xC4, 0xE1, 0x7C, 0x10, 0x3D, 0, 0, 0, 0],
                "vmovups ymm7, [rip+disp32]",
            ),
            (
                Avx,
                acc(2, 1, 1, Masked, Some(3)),
                &[0xC4, 0xE2, 0x65, 0x2C, 0x54, 0x08, 0x20],
                "vmaskmovps ymm2, ymm3, [rax+rcx+0x20]",
            ),
            (
                Avx,
                st(4, 2, 1, Masked, Some(3)),
                &[0xC4, 0xE2, 0x65, 0x2E, 0x64, 0x48, 0x20],
                "vmaskmovps [rax+rcx*2+0x20], ymm3, ymm4",
            ),
            (
                Avx,
                acc(5, 3, 0, Skip, None),
                &[0xC4, 0xE1, 0x54, 0x57, 0xED],
                "vxorps ymm5, ymm5, ymm5",
            ),
            (
                Avx,
                Op::BroadcastA {
                    dst: 9,
                    plane: Plane::ALo,
                    off: 0x1C,
                },
                &[0xC4, 0x42, 0x7D, 0x18, 0x49, 0x1C],
                "vbroadcastss ymm9, [r9+0x1c]",
            ),
            (
                Avx,
                Op::Fma { acc: 0, a: 1, b: 2 },
                &[0xC4, 0xE2, 0x75, 0xB8, 0xC2],
                "vfmadd231ps ymm0, ymm1, ymm2",
            ),
            (
                Avx,
                Op::Fma {
                    acc: 12,
                    a: 8,
                    b: 15,
                },
                &[0xC4, 0x42, 0x3D, 0xB8, 0xE7],
                "vfmadd231ps ymm12, ymm8, ymm15",
            ),
            (
                Avx512,
                Op::LoadB {
                    dst: 1,
                    plane: Plane::BHi,
                    off: 0x40,
                },
                &[0x62, 0xD1, 0x7C, 0x48, 0x10, 0x8A, 0x40, 0, 0, 0],
                "vmovups zmm1, [r10+0x40]",
            ),
            (
                Avx512,
                st(4, 0, 0, Full, None),
                &[0x62, 0xF1, 0x7C, 0x48, 0x11, 0xA0, 0, 0, 0, 0],
                "vmovups [rax+0x0], zmm4",
            ),
            (
                Avx512,
                acc(2, 1, 1, Masked, None),
                &[0x62, 0xF1, 0x7C, 0xC9, 0x10, 0x94, 0x08, 0x40, 0, 0, 0],
                "vmovups zmm2{k1}{z}, [rax+rcx+0x40]",
            ),
            (
                Avx512,
                st(3, 3, 1, Masked, None),
                &[0x62, 0xF1, 0x7C, 0x49, 0x11, 0x9C, 0x30, 0x40, 0, 0, 0],
                "vmovups [rax+rsi+0x40]{k1}, zmm3",
            ),
            (
                Avx512,
                acc(5, 2, 0, Skip, None),
                &[0x62, 0xF1, 0x55, 0x48, 0xEF, 0xED],
                "vpxord zmm5, zmm5, zmm5",
            ),
            (
                Avx512,
                Op::BroadcastA {
                    dst: 6,
                    plane: Plane::AHi,
                    off: 0x0C,
                },
                &[0x62, 0xD2, 0x7D, 0x48, 0x18, 0xB0, 0x0C, 0, 0, 0],
                "vbroadcastss zmm6, [r8+0xc]",
            ),
            (
                Avx512,
                Op::Fma { acc: 0, a: 1, b: 2 },
                &[0x62, 0xF2, 0x75, 0x48, 0xB8, 0xC2],
                "vfmadd231ps zmm0, zmm1, zmm2",
            ),
            (
                Avx512,
                Op::Fma {
                    acc: 14,
                    a: 8,
                    b: 10,
                },
                &[0x62, 0x52, 0x3D, 0x48, 0xB8, 0xF2],
                "vfmadd231ps zmm14, zmm8, zmm10",
            ),
            // The upper bank: R' (P0 bit 4), V' (P2 bit 3) and, for a
            // register r/m, X (P0 bit 6) carry bit 4 of their register,
            // inverted.
            (
                Avx512,
                Op::Fma {
                    acc: 16,
                    a: 1,
                    b: 2,
                },
                &[0x62, 0xE2, 0x75, 0x48, 0xB8, 0xC2],
                "vfmadd231ps zmm16, zmm1, zmm2",
            ),
            (
                Avx512,
                Op::Fma {
                    acc: 0,
                    a: 17,
                    b: 2,
                },
                &[0x62, 0xF2, 0x75, 0x40, 0xB8, 0xC2],
                "vfmadd231ps zmm0, zmm17, zmm2",
            ),
            (
                Avx512,
                Op::Fma {
                    acc: 0,
                    a: 1,
                    b: 18,
                },
                &[0x62, 0xB2, 0x75, 0x48, 0xB8, 0xC2],
                "vfmadd231ps zmm0, zmm1, zmm18",
            ),
            (
                Avx512,
                Op::Fma {
                    acc: 31,
                    a: 29,
                    b: 27,
                },
                &[0x62, 0x02, 0x15, 0x40, 0xB8, 0xFB],
                "vfmadd231ps zmm31, zmm29, zmm27",
            ),
            // Rows 4-7 address C from the second base, rdi.
            (
                Avx512,
                acc(31, 4, 0, Full, None),
                &[0x62, 0x61, 0x7C, 0x48, 0x10, 0xBF, 0, 0, 0, 0],
                "vmovups zmm31, [rdi+0x0]",
            ),
            (
                Avx512,
                st(17, 7, 1, Full, None),
                &[0x62, 0xE1, 0x7C, 0x48, 0x11, 0x8C, 0x37, 0x40, 0, 0, 0],
                "vmovups [rdi+rsi+0x40], zmm17",
            ),
            (
                Avx512,
                acc(20, 5, 1, Masked, None),
                &[0x62, 0xE1, 0x7C, 0xC9, 0x10, 0xA4, 0x0F, 0x40, 0, 0, 0],
                "vmovups zmm20{k1}{z}, [rdi+rcx+0x40]",
            ),
            (
                Avx512,
                st(26, 6, 1, Masked, None),
                &[0x62, 0x61, 0x7C, 0x49, 0x11, 0x94, 0x4F, 0x40, 0, 0, 0],
                "vmovups [rdi+rcx*2+0x40]{k1}, zmm26",
            ),
            // Block 1 of a kcb = 256 panel: 256 x MR x 4 bytes on.
            (
                Avx512,
                Op::BroadcastA {
                    dst: 19,
                    plane: Plane::AHi,
                    off: 0x100C,
                },
                &[0x62, 0xC2, 0x7D, 0x48, 0x18, 0x98, 0x0C, 0x10, 0, 0],
                "vbroadcastss zmm19, [r8+0x100c]",
            ),
            (
                Avx512,
                acc(21, 4, 0, Skip, None),
                &[0x62, 0xA1, 0x55, 0x40, 0xEF, 0xED],
                "vpxord zmm21, zmm21, zmm21",
            ),
        ];
        for (isa, op, want, asm) in rows {
            assert_eq!(encode(isa, op), want, "{asm}");
        }
        // The AVX-512 edge mask: `mov eax, 0x7f; kmovw k1, eax` for a
        // 23-column kernel (7 valid lanes in strip 1), first in the code.
        let code = emit_for(Isa::Avx512, 4, 23, 24);
        let kmovw = [0xB8, 0x7F, 0, 0, 0, 0xC4, 0xE1, 0x78, 0x92, 0xC8];
        assert_eq!(code[..10], kmovw, "mov eax, 0x7f; kmovw k1, eax");
        // Two-block kernels set up C's row 4 origin right after rsi; a
        // one-block kernel never touches rdi past the argument loads.
        let lea_rsi = [0x48, 0x8D, 0x34, 0x49];
        let pos = |code: &[u8]| code.windows(4).position(|w| w == lea_rsi).unwrap();
        let code = emit_for(Isa::Avx512, 6, 23, 24);
        let at = pos(&code) + 4;
        assert_eq!(
            code[at..at + 4],
            [0x48, 0x8D, 0x3C, 0x88],
            "lea rdi, [rax+rcx*4]"
        );
        let code = emit_for(Isa::Avx512, 4, 32, 24);
        let at = pos(&code) + 4;
        assert_ne!(code[at..at + 4], LEA_RDI_ROW4, "one block needs no rdi");
    }

    /// Disassemble `code` with `objdump`, one line per instruction
    /// (`None` when `objdump` cannot be started).
    fn objdump(code: &[u8], name: &str) -> Option<Vec<String>> {
        let path =
            std::env::temp_dir().join(format!("egemm-kernel-{}-{name}.bin", std::process::id()));
        std::fs::write(&path, code).unwrap();
        let out = std::process::Command::new("objdump")
            .args(["-D", "-b", "binary", "-m", "i386:x86-64", "-M", "intel"])
            .arg(&path)
            .output();
        std::fs::remove_file(&path).unwrap();
        let out = out.ok()?;
        assert!(out.status.success(), "objdump failed on {name}");
        // `addr:\tbytes\tinstruction`; a long instruction's extra bytes
        // continue on a line with no third field.
        let text = String::from_utf8(out.stdout).unwrap();
        Some(
            text.lines()
                .filter_map(|l| Some(l.split('\t').nth(2)?.trim().to_string()))
                .collect(),
        )
    }

    /// An objdump instruction in the form [`expected`] builds: operand
    /// sizes dropped and each memory operand as
    /// `[base+index*scale+0xdisp]`, a RIP-relative one as `[rip+target]`
    /// (objdump's resolved address).
    fn canonical(insn: &str) -> String {
        let (insn, target) = match insn.split_once('#') {
            Some((i, t)) => (i.trim(), Some(t.trim())),
            None => (insn, None),
        };
        let (mnem, ops) = insn.split_once(' ').unwrap_or((insn, ""));
        let ops: Vec<String> = ops
            .trim()
            .split(',')
            .map(|o| {
                let o = o.split_once(" PTR ").map_or(o, |(_, m)| m);
                let Some((pre, rest)) = o.split_once('[') else {
                    return o.to_string();
                };
                let (inner, post) = rest.split_once(']').unwrap();
                let mut regs = Vec::new();
                let mut disp = 0i64;
                for t in inner.split('+') {
                    match t.strip_prefix("0x") {
                        Some(h) => disp = i64::from_str_radix(h, 16).unwrap(),
                        None => regs.push(t),
                    }
                }
                if regs == ["rip"] {
                    disp = i64::from_str_radix(&target.unwrap()[2..], 16).unwrap();
                }
                format!("{pre}[{}+{disp:#x}]{post}", regs.join("+"))
            })
            .collect();
        format!("{mnem} {}", ops.join(","))
    }

    /// The instruction `op` must decode as under `alloc`, written
    /// independently of the encoder's addressing helpers. `pool` is
    /// the literal pool's offset.
    fn expected(isa: Isa, alloc: &Allocation, op: &Op, pool: usize) -> String {
        let avx = isa == Isa::Avx;
        let v = |r: VReg| format!("{}mm{}", if avx { 'y' } else { 'z' }, alloc.phys(r));
        let c_row = |row: u8, vec: u8| {
            let base = if row < 4 { "rax" } else { "rdi" };
            let index = ["", "+rcx*1", "+rcx*2", "+rsi*1"][row as usize % 4];
            let disp = vec as usize * isa.lanes() * 4;
            format!("[{base}{index}+{disp:#x}]")
        };
        let plane = |p, off: i32| {
            let base = match p {
                Plane::AHi => "r8",
                Plane::ALo => "r9",
                Plane::BHi => "r10",
                Plane::BLo => "r11",
            };
            format!("[{base}+{off:#x}]")
        };
        match *op {
            Op::LoadAcc {
                dst,
                row,
                vec,
                mode,
                mask,
            } => {
                let (d, mem) = (v(dst), c_row(row, vec));
                match mode {
                    MaskMode::Skip if avx => format!("vxorps {d},{d},{d}"),
                    MaskMode::Skip => format!("vpxord {d},{d},{d}"),
                    MaskMode::Full => format!("vmovups {d},{mem}"),
                    MaskMode::Masked if avx => format!("vmaskmovps {d},{},{mem}", v(mask.unwrap())),
                    MaskMode::Masked => format!("vmovups {d}{{k1}}{{z}},{mem}"),
                }
            }
            Op::LoadMask { dst } => format!("vmovups {},[rip+{pool:#x}]", v(dst)),
            Op::LoadB { dst, plane: p, off } => format!("vmovups {},{}", v(dst), plane(p, off)),
            Op::BroadcastA { dst, plane: p, off } => {
                format!("vbroadcastss {},{}", v(dst), plane(p, off))
            }
            Op::Fma { acc, a, b } => format!("vfmadd231ps {},{},{}", v(acc), v(a), v(b)),
            Op::StoreAcc {
                src,
                row,
                vec,
                mode,
                mask,
            } => {
                let (s, mem) = (v(src), c_row(row, vec));
                match mode {
                    MaskMode::Full => format!("vmovups {mem},{s}"),
                    MaskMode::Masked if avx => format!("vmaskmovps {mem},{},{s}", v(mask.unwrap())),
                    MaskMode::Masked => format!("vmovups {mem}{{k1}},{s}"),
                    MaskMode::Skip => unreachable!("skipped stores are not lowered"),
                }
            }
        }
    }

    /// Whole kernels decoded by an independent disassembler: no
    /// instruction is `(bad)`, and the vector instructions, in order,
    /// are the IR's ops with the allocation's registers. A wrong R', V'
    /// or X bit names another register here, and a wrong prefix field
    /// another instruction. The test prints a notice and passes where
    /// `objdump` is not installed; CI checks that it is.
    #[test]
    fn emitted_kernels_decode_as_allocated() {
        let kernels = [
            (Isa::Avx512, 8, 32, "avx512-8x32"),
            (Isa::Avx512, 6, 23, "avx512-6x23"),
            (Isa::Avx512, 4, 32, "avx512-4x32"),
            (Isa::Avx, 4, 11, "avx-4x11"),
        ];
        for (isa, rows, cols, name) in kernels {
            // kcb = 20, tk = 8: a looped body and a ragged tail.
            let (prog, alloc) = program(isa, rows, cols, 20);
            let code = emit(&prog, &alloc);
            // The AVX mask pool after `ret` is data, not code.
            let pool = code.len() - 32 * usize::from(isa == Isa::Avx && prog.mask_lanes.is_some());
            let Some(insns) = objdump(&code[..pool], name) else {
                eprintln!("skipped emitted_kernels_decode_as_allocated: objdump not on PATH");
                return;
            };
            assert!(
                !insns.iter().any(|i| i.contains("(bad)")),
                "{name}: {insns:#?}"
            );
            assert_eq!(insns.last().map(String::as_str), Some("ret"), "{name}");
            let lea = insns
                .iter()
                .any(|i| canonical(i) == "lea rdi,[rax+rcx*4+0x0]");
            assert_eq!(lea, rows > MR, "{name}: second C base");
            let got: Vec<String> = insns
                .iter()
                .filter(|i| i.starts_with('v') && *i != "vzeroupper")
                .map(|i| canonical(i))
                .collect();
            let body = if prog.full_chunks > 0 {
                &prog.body[..]
            } else {
                &[]
            };
            let want: Vec<String> = prog
                .prologue
                .iter()
                .chain(body)
                .chain(&prog.ragged)
                .chain(&prog.epilogue)
                .map(|op| expected(isa, &alloc, op, pool))
                .collect();
            assert_eq!(got.len(), want.len(), "{name}: vector instruction count");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g, w, "{name}: vector instruction {i}");
            }
        }
    }

    #[test]
    fn emits_complete_function() {
        for (isa, rows, cols) in [
            (Isa::Avx, 4, 16),
            (Isa::Avx, 4, 9),
            (Isa::Avx512, 4, 23),
            (Isa::Avx512, 8, 32),
        ] {
            let code = emit_for(isa, rows, cols, 24);
            // vzeroupper; ret present (before any literal pool).
            let tail = code.windows(4).any(|w| w == [0xC5, 0xF8, 0x77, 0xC3]);
            assert!(tail, "missing vzeroupper; ret ({isa:?})");
            assert!(code.len() > 64);
        }
    }

    #[test]
    fn loop_backedge_targets_body_top() {
        let code = emit_for(Isa::Avx, 4, 16, 24);
        // Find "dec edx; jnz rel32" and check the displacement lands
        // inside the code, before the branch.
        let pos = code
            .windows(4)
            .position(|w| w[0] == 0xFF && w[1] == 0xCA && w[2] == 0x0F && w[3] == 0x85)
            .expect("loop tail present");
        let rel = i32::from_le_bytes(code[pos + 4..pos + 8].try_into().unwrap());
        let target = (pos as i64 + 8) + rel as i64;
        assert!(rel < 0 && target > 0 && (target as usize) < pos);
    }

    #[test]
    fn short_panel_emits_no_loop() {
        let code = emit_for(Isa::Avx, 4, 16, 5);
        assert!(
            !code.windows(2).any(|w| w == [0xFF, 0xCA]),
            "kcb < tk must lower to straight-line code"
        );
    }

    #[test]
    fn rip_fixup_points_into_pool() {
        let code = emit_for(Isa::Avx, 4, 11, 8);
        // The pool holds one 32-byte mask: 3 valid lanes (cols 8..11).
        let pool = &code[code.len() - 32..];
        let words: Vec<u32> = pool
            .chunks(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(&words[..3], &[u32::MAX; 3]);
        assert_eq!(&words[3..], &[0; 5]);
    }
}
