//! Final emission: assembly listings and binary images.
//!
//! Assembly rendering lives on [`record_isa::Code::render`]; this module
//! adds the binary image. The reproduction does not model the C25's exact
//! opcode map — encodings are synthetic but *faithful in size*: every
//! instruction contributes exactly its `words` count, long immediates and
//! addresses occupy their extension words, and the image length equals
//! [`record_isa::Code::size_words`]. That is the quantity Table 1
//! compares.

use record_isa::{Code, Insn, InsnKind, Loc};

/// Encodes a program into 16-bit instruction words.
///
/// The image length always equals [`Code::size_words`].
///
/// # Example
///
/// ```
/// use record::emit::encode;
///
/// let compiler = record::Compiler::for_target(record_isa::targets::tic25::target())?;
/// let src = "program p; var x, y: fix; begin y := x + 1000; end";
/// let code = compiler.compile(src, record::CompileRequest::default())?.code;
/// assert_eq!(encode(&code).len() as u32, code.size_words());
/// # Ok::<(), record::CompileError>(())
/// ```
pub fn encode(code: &Code) -> Vec<u16> {
    let mut image = Vec::with_capacity(code.size_words() as usize);
    for insn in &code.insns {
        encode_insn(insn, &mut image);
    }
    debug_assert_eq!(image.len() as u32, code.size_words());
    image
}

fn encode_insn(insn: &Insn, image: &mut Vec<u16>) {
    if insn.words == 0 {
        return;
    }
    let opcode = opcode_of(insn);
    let (field, extensions) = operand_words(insn);
    image.push((opcode << 8) | (field & 0xff));
    let mut remaining = insn.words - 1;
    for ext in extensions {
        if remaining == 0 {
            break;
        }
        image.push(ext);
        remaining -= 1;
    }
    // pad any unclaimed extension words deterministically
    for _ in 0..remaining {
        image.push(0);
    }
}

/// A deterministic 8-bit opcode: rule id when present, otherwise a code
/// derived from the instruction kind.
fn opcode_of(insn: &Insn) -> u16 {
    if let Some(rule) = insn.rule {
        return 0x80 | (rule.0 as u16 & 0x7f);
    }
    match &insn.kind {
        InsnKind::Compute { .. } => 0x01,
        InsnKind::LoopStart { .. } => 0x02,
        InsnKind::LoopEnd => 0x03,
        InsnKind::Rpt { .. } => 0x04,
        InsnKind::SetMode { .. } => 0x05,
        InsnKind::ArLoad { .. } => 0x06,
        InsnKind::ArAdd { .. } => 0x07,
        InsnKind::ArLoadIndexed { .. } => 0x08,
        InsnKind::ArLoadMem { .. } => 0x09,
        InsnKind::ArStore { .. } => 0x0a,
        InsnKind::PtrInit { .. } => 0x0b,
        InsnKind::Nop => 0x00,
    }
}

/// The primary operand field plus extension words (addresses, long
/// immediates, counts).
fn operand_words(insn: &Insn) -> (u16, Vec<u16>) {
    match &insn.kind {
        InsnKind::Compute { dst, expr } => {
            let mut ext = Vec::new();
            let mut field = 0u16;
            let mut note = |loc: &Loc| match loc {
                Loc::Reg(r) => field ^= (r.class.0 << 4 | r.index) & 0xff,
                Loc::Mem(m) => match m.mode {
                    record_isa::AddrMode::Direct(a) => field = a & 0x7f,
                    record_isa::AddrMode::Indirect { ar, .. } => field = 0x80 | ar,
                    record_isa::AddrMode::Unresolved => ext.push(0xffff),
                },
                Loc::Imm(v) => {
                    if (-128..=127).contains(v) {
                        field = (*v as u16) & 0xff;
                    } else {
                        ext.push(*v as u16);
                    }
                }
            };
            for l in expr.reads() {
                note(l);
            }
            note(dst);
            (field, ext)
        }
        InsnKind::LoopStart { count, .. } => (0, vec![*count as u16]),
        InsnKind::LoopEnd => (0, vec![0]),
        InsnKind::Rpt { count } => ((*count as u16) & 0xff, vec![]),
        InsnKind::SetMode { mode, on } => (((*mode as u16) << 1) | *on as u16, vec![]),
        InsnKind::ArLoad { ar, disp, .. } => (*ar, vec![*disp as u16]),
        InsnKind::ArAdd { ar, delta } => (*ar, vec![*delta as u16]),
        InsnKind::ArLoadIndexed { ar, disp, .. } => (*ar, vec![*disp as u16]),
        InsnKind::ArLoadMem { ar, .. } | InsnKind::ArStore { ar, .. } => (*ar, vec![]),
        InsnKind::PtrInit { disp, .. } => (0, vec![*disp as u16]),
        InsnKind::Nop => (0, vec![]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompileRequest, Compiler};

    #[test]
    fn image_length_matches_size_words() {
        let compiler = Compiler::for_target(record_isa::targets::tic25::target()).unwrap();
        let code = compiler
            .compile(
                "program p; const N = 4; var a: fix[N]; var y: fix;
                 begin
                   y := 3000;
                   for i in 0..N-1 loop y := y + a[i]; end loop;
                 end",
                CompileRequest::default(),
            )
            .unwrap()
            .code;
        let image = encode(&code);
        assert_eq!(image.len() as u32, code.size_words());
    }

    #[test]
    fn encoding_is_deterministic() {
        let compiler = Compiler::for_target(record_isa::targets::tic25::target()).unwrap();
        let code = compiler
            .compile("program p; var x, y: fix; begin y := x * x; end", CompileRequest::default())
            .unwrap()
            .code;
        assert_eq!(encode(&code), encode(&code));
    }

    #[test]
    fn rule_instructions_set_the_high_bit() {
        let compiler = Compiler::for_target(record_isa::targets::tic25::target()).unwrap();
        let code = compiler
            .compile("program p; var x, y: fix; begin y := x; end", CompileRequest::default())
            .unwrap()
            .code;
        let image = encode(&code);
        // the first instruction is the LAC (a rule instruction)
        assert!(image[0] & 0x8000 != 0);
    }
}
