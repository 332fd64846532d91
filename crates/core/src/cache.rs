//! Two-level content-addressed compile cache.
//!
//! Compiled code is keyed by [`CacheKey`] — the program's fingerprint
//! (over its canonical bytes, [`record_ir::fingerprint`]), the target's
//! fingerprint, and the pass plan's fingerprint — so a repeat compile
//! becomes a lookup. An in-memory LRU answers warm lookups within a
//! process; an optional on-disk store answers them across processes.
//!
//! The BURS matcher tables are not stored: building them for a target
//! costs no more than decoding them would, so a [`Session`](crate::Session)
//! builds them once per process.
//!
//! Fingerprints are 64-bit, so collisions are improbable but not
//! impossible; every entry therefore keeps the program's canonical bytes
//! ([`program_bytes`]) and the target name, and a code hit needs both
//! to equal the request's. Equal bytes mean a structurally equal program,
//! so a collision degrades to a miss, never to wrong code.
//!
//! The disk format is hand-rolled (no serde): each file is a
//! [`codec::seal`]ed container — versioned magic header,
//! length-prefixed records, FNV-1a checksum trailer. **Every** way a
//! file can be wrong — truncation, bit rot, version skew, a record that
//! decodes to an impossible value — surfaces as a [`CodecError`] from
//! the bounds-checked reader, and the cache treats it as a miss: the
//! bad file is evicted, a corruption counter bumped, and the compile
//! proceeds as if the entry never existed.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use record_ir::fingerprint::program_bytes;
use record_ir::lir::Lir;
use record_ir::{Bank, BinOp, Symbol, UnOp};
use record_isa::code::LayoutEntry;
use record_isa::{
    AddrMode, Code, DataLayout, Insn, InsnKind, Loc, MemLoc, RegClassId, RegId, RuleId, SemExpr,
};
use record_trace::codec::{self, ByteReader, ByteWriter, CodecError};

/// Magic + version framing a cached-code file. Version 2 stores the
/// program's canonical bytes where version 1 stored an encoded `Lir`.
const CODE_MAGIC: &[u8; 8] = b"RECCODE\0";
const CODE_VERSION: u32 = 2;

/// Decode recursion guard: expressions and parallel bundles deeper than
/// this are rejected as corrupt rather than risking stack exhaustion on
/// hostile bytes. Real kernels nest a handful of levels.
const MAX_DECODE_DEPTH: usize = 512;

/// The content-derived identity of one compile:
/// (program, target, pass plan) as stable 64-bit fingerprints.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`record_ir::fingerprint::program_fingerprint`] of the LIR.
    pub program: u64,
    /// [`Compiler::stable_fingerprint`](crate::Compiler::stable_fingerprint)
    /// of the target description.
    pub target: u64,
    /// [`PassPlan::fingerprint`](crate::PassPlan::fingerprint).
    pub plan: u64,
}

/// Counter snapshot of a [`CompileCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Code lookups answered from memory or disk.
    pub hits: u64,
    /// Code lookups that found nothing usable.
    pub misses: u64,
    /// In-memory entries dropped by the LRU capacity bound.
    pub evictions: u64,
    /// On-disk entries rejected (truncated, checksum-failing,
    /// version-mismatched, or undecodable) and deleted.
    pub corruptions: u64,
}

/// One resident cache entry. The program's canonical bytes and the
/// target name are kept alongside the code so a later lookup under a
/// colliding fingerprint can be refused.
struct Slot {
    tick: u64,
    program: Vec<u8>,
    target_name: String,
    code: Code,
}

/// The two-level compile cache: in-memory LRU over [`CacheKey`] plus an
/// optional on-disk store shared across processes.
///
/// Not internally synchronized — [`Session`](crate::Session) wraps it
/// in a `Mutex`. Disk writes are best-effort (temp file + rename;
/// errors are swallowed): a read-only or full cache directory degrades
/// the cache, never the compile.
pub struct CompileCache {
    capacity: usize,
    tick: u64,
    slots: HashMap<CacheKey, Slot>,
    dir: Option<PathBuf>,
    stats: CacheStats,
}

impl CompileCache {
    /// An in-memory-only cache holding at most `capacity` entries
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        CompileCache {
            capacity: capacity.max(1),
            tick: 0,
            slots: HashMap::new(),
            dir: None,
            stats: CacheStats::default(),
        }
    }

    /// Adds an on-disk store under `dir` (created on first write).
    /// Stale temp files from writers that died mid-write are swept on
    /// attach: they were never renamed into place, so deleting them can
    /// never lose a committed entry.
    #[must_use]
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        sweep_tmp_files(&dir);
        self.dir = Some(dir);
        self
    }

    /// The on-disk store directory, if one is configured.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The file a code entry for `key` lives in (under the store dir).
    pub fn code_file_name(key: &CacheKey) -> String {
        format!("code-{:016x}-{:016x}-{:016x}.bin", key.program, key.target, key.plan)
    }

    /// Looks up compiled code for `(key, lir, target_name)`: memory
    /// first, then disk. A fingerprint collision (stored program bytes or
    /// target name differ) and a corrupt disk entry both answer `None`;
    /// the corrupt file is deleted. The program's bytes are computed only
    /// when an entry exists for `key`.
    pub fn lookup(&mut self, key: &CacheKey, lir: &Lir, target_name: &str) -> Option<Code> {
        if let Some(slot) = self.slots.get_mut(key) {
            if slot.target_name == target_name && slot.program == program_bytes(lir) {
                self.tick += 1;
                slot.tick = self.tick;
                self.stats.hits += 1;
                return Some(slot.code.clone());
            }
            self.stats.misses += 1;
            return None;
        }
        if let Some((program, code)) = self.lookup_disk(key, lir, target_name) {
            self.remember(*key, program, target_name.to_string(), code.clone());
            self.stats.hits += 1;
            return Some(code);
        }
        self.stats.misses += 1;
        None
    }

    /// Stores a freshly compiled `code` under `key`, in memory and (when
    /// configured) on disk.
    pub fn insert(&mut self, key: CacheKey, lir: &Lir, target_name: &str, code: &Code) {
        let program = program_bytes(lir);
        if self.dir.is_some() {
            let payload = encode_entry(&key, target_name, &program, code);
            let sealed = codec::seal(CODE_MAGIC, CODE_VERSION, &payload);
            self.write_file(&Self::code_file_name(&key), &sealed);
        }
        self.remember(key, program, target_name.to_string(), code.clone());
    }

    fn remember(&mut self, key: CacheKey, program: Vec<u8>, target_name: String, code: Code) {
        self.tick += 1;
        self.slots.insert(key, Slot { tick: self.tick, program, target_name, code });
        while self.slots.len() > self.capacity {
            let oldest = self
                .slots
                .iter()
                .min_by_key(|(_, s)| s.tick)
                .map(|(k, _)| *k)
                .expect("non-empty cache over capacity");
            self.slots.remove(&oldest);
            self.stats.evictions += 1;
        }
    }

    /// The disk entry for `key`, as the program bytes it holds and its
    /// code, when it is the request's.
    fn lookup_disk(
        &mut self,
        key: &CacheKey,
        lir: &Lir,
        target_name: &str,
    ) -> Option<(Vec<u8>, Code)> {
        let path = self.dir.as_ref()?.join(Self::code_file_name(key));
        let bytes = std::fs::read(&path).ok()?;
        match decode_entry(&bytes) {
            Ok(entry) if entry.key != *key => {
                // the file does not even claim to be this entry:
                // overwritten or damaged in a way that still decodes
                self.discard(&path);
                None
            }
            Ok(entry) => {
                let program = program_bytes(lir);
                // a differing program or target is a true fingerprint
                // collision: the entry is valid for some *other* compile
                // — leave it, miss here
                (entry.target_name == target_name && entry.program == program)
                    .then_some((program, entry.code))
            }
            Err(_) => {
                self.discard(&path);
                None
            }
        }
    }

    /// Deletes a bad cache file and counts the corruption. Removal
    /// failure is ignored: the entry will simply be rediscovered (and
    /// rejected again) next time.
    fn discard(&mut self, path: &Path) {
        self.stats.corruptions += 1;
        let _ = std::fs::remove_file(path);
    }

    /// Best-effort atomic write: unique temp file (pid *and* a
    /// process-wide counter, so two threads of one process can never
    /// interleave writes into the same temp), fsync, then rename. A
    /// crash at any point leaves either the old state or the complete
    /// new file — never a truncated entry under the final name — and
    /// the orphaned temp is swept on the next [`with_dir`] attach. Two
    /// processes racing on the same entry both write the same content,
    /// so whichever rename lands last is equally good.
    fn write_file(&self, name: &str, bytes: &[u8]) {
        use std::io::Write as _;
        use std::sync::atomic::{AtomicU64, Ordering};
        static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
        let Some(dir) = &self.dir else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let seq = WRITE_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!("{name}.tmp.{}.{seq}", std::process::id()));
        let committed = std::fs::File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(bytes)?;
                // without the fsync, rename can land before the data and
                // a power cut leaves a short file under the *final* name
                f.sync_all()
            })
            .and_then(|()| std::fs::rename(&tmp, dir.join(name)))
            .is_ok();
        if !committed {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Offline integrity scrub of a cache directory: every code entry is
    /// fully decoded and every stale temp file removed. Undecodable
    /// entries are deleted and counted, so after a scrub every remaining
    /// entry is loadable — the post-drain guarantee the compile daemon
    /// checks before reporting a clean exit. Unrecognized file names
    /// are left alone.
    pub fn scrub_dir(dir: &Path) -> ScrubStats {
        let mut stats = ScrubStats::default();
        let Ok(entries) = std::fs::read_dir(dir) else {
            return stats;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            if name.contains(".tmp.") {
                if std::fs::remove_file(&path).is_ok() {
                    stats.tmps_removed += 1;
                }
                continue;
            }
            if !(name.starts_with("code-") && name.ends_with(".bin")) {
                continue;
            }
            stats.code_entries += 1;
            if !std::fs::read(&path).is_ok_and(|b| decode_entry(&b).is_ok()) {
                stats.corrupt_removed += 1;
                let _ = std::fs::remove_file(&path);
            }
        }
        stats
    }
}

/// What a [`CompileCache::scrub_dir`] pass found and fixed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Code entries examined (valid ones are counted too).
    pub code_entries: usize,
    /// Undecodable files deleted.
    pub corrupt_removed: usize,
    /// Orphaned mid-write temp files deleted.
    pub tmps_removed: usize,
}

/// Deletes `*.tmp.*` leftovers from writers that died mid-write.
fn sweep_tmp_files(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.contains(".tmp.")) {
            let _ = std::fs::remove_file(&path);
        }
    }
}

// ---------------------------------------------------------------------------
// Entry codec: (key, target name, program bytes, code) in one sealed payload.
// ---------------------------------------------------------------------------

/// A decoded disk entry; `program` borrows the file's bytes.
struct Entry<'a> {
    key: CacheKey,
    target_name: &'a str,
    program: &'a [u8],
    code: Code,
}

fn encode_entry(key: &CacheKey, target_name: &str, program: &[u8], code: &Code) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(key.program);
    w.u64(key.target);
    w.u64(key.plan);
    w.str(target_name);
    w.bytes(program);
    encode_code(&mut w, code);
    w.into_bytes()
}

fn decode_entry(bytes: &[u8]) -> Result<Entry<'_>, CodecError> {
    let payload = codec::unseal(CODE_MAGIC, CODE_VERSION, bytes)?;
    let mut r = ByteReader::new(payload);
    let key = CacheKey { program: r.u64()?, target: r.u64()?, plan: r.u64()? };
    let target_name = r.str()?;
    let program = r.bytes_record()?;
    let code = decode_code(&mut r)?;
    r.finish()?;
    Ok(Entry { key, target_name, program, code })
}

fn encode_symbol(w: &mut ByteWriter, s: &Symbol) {
    w.str(s.as_str());
}

fn decode_symbol(r: &mut ByteReader<'_>) -> Result<Symbol, CodecError> {
    Ok(Symbol::new(r.str()?))
}

fn encode_bank(w: &mut ByteWriter, b: Bank) {
    w.u8(match b {
        Bank::X => 0,
        Bank::Y => 1,
    });
}

fn decode_bank(r: &mut ByteReader<'_>) -> Result<Bank, CodecError> {
    match r.u8()? {
        0 => Ok(Bank::X),
        1 => Ok(Bank::Y),
        t => Err(r.error(format!("bad bank tag {t}"))),
    }
}

fn encode_bin_op(w: &mut ByteWriter, op: BinOp) {
    w.u8(op as u8);
}

fn decode_bin_op(r: &mut ByteReader<'_>) -> Result<BinOp, CodecError> {
    Ok(match r.u8()? {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::And,
        5 => BinOp::Or,
        6 => BinOp::Xor,
        7 => BinOp::Shl,
        8 => BinOp::Shr,
        9 => BinOp::SatAdd,
        10 => BinOp::SatSub,
        11 => BinOp::Min,
        12 => BinOp::Max,
        t => return Err(r.error(format!("bad binop tag {t}"))),
    })
}

fn encode_un_op(w: &mut ByteWriter, op: UnOp) {
    w.u8(op as u8);
}

fn decode_un_op(r: &mut ByteReader<'_>) -> Result<UnOp, CodecError> {
    Ok(match r.u8()? {
        0 => UnOp::Neg,
        1 => UnOp::Not,
        2 => UnOp::Abs,
        3 => UnOp::Sat,
        4 => UnOp::Round,
        t => return Err(r.error(format!("bad unop tag {t}"))),
    })
}

// -- Code side --------------------------------------------------------------

fn encode_addr_mode(w: &mut ByteWriter, m: AddrMode) {
    match m {
        AddrMode::Unresolved => w.u8(0),
        AddrMode::Direct(a) => {
            w.u8(1);
            w.u16(a);
        }
        AddrMode::Indirect { ar, post } => {
            w.u8(2);
            w.u16(ar);
            w.u8(post as u8);
        }
    }
}

fn decode_addr_mode(r: &mut ByteReader<'_>) -> Result<AddrMode, CodecError> {
    match r.u8()? {
        0 => Ok(AddrMode::Unresolved),
        1 => Ok(AddrMode::Direct(r.u16()?)),
        2 => Ok(AddrMode::Indirect { ar: r.u16()?, post: r.u8()? as i8 }),
        t => Err(r.error(format!("bad addr mode tag {t}"))),
    }
}

fn encode_mem_loc(w: &mut ByteWriter, m: &MemLoc) {
    encode_symbol(w, &m.base);
    w.i64(m.disp);
    match &m.index {
        None => w.u8(0),
        Some(s) => {
            w.u8(1);
            encode_symbol(w, s);
        }
    }
    w.bool(m.down);
    encode_bank(w, m.bank);
    encode_addr_mode(w, m.mode);
}

fn decode_mem_loc(r: &mut ByteReader<'_>) -> Result<MemLoc, CodecError> {
    let base = decode_symbol(r)?;
    let disp = r.i64()?;
    let index = match r.u8()? {
        0 => None,
        1 => Some(decode_symbol(r)?),
        t => return Err(r.error(format!("bad option tag {t}"))),
    };
    let down = r.bool()?;
    let bank = decode_bank(r)?;
    let mode = decode_addr_mode(r)?;
    Ok(MemLoc { base, disp, index, down, bank, mode })
}

fn encode_loc(w: &mut ByteWriter, l: &Loc) {
    match l {
        Loc::Reg(rid) => {
            w.u8(0);
            w.u16(rid.class.0);
            w.u16(rid.index);
        }
        Loc::Mem(m) => {
            w.u8(1);
            encode_mem_loc(w, m);
        }
        Loc::Imm(v) => {
            w.u8(2);
            w.i64(*v);
        }
    }
}

fn decode_loc(r: &mut ByteReader<'_>) -> Result<Loc, CodecError> {
    match r.u8()? {
        0 => Ok(Loc::Reg(RegId::new(RegClassId(r.u16()?), r.u16()?))),
        1 => Ok(Loc::Mem(decode_mem_loc(r)?)),
        2 => Ok(Loc::Imm(r.i64()?)),
        t => Err(r.error(format!("bad loc tag {t}"))),
    }
}

fn encode_sem_expr(w: &mut ByteWriter, e: &SemExpr) {
    match e {
        SemExpr::Loc(l) => {
            w.u8(0);
            encode_loc(w, l);
        }
        SemExpr::Bin(op, a, b) => {
            w.u8(1);
            encode_bin_op(w, *op);
            encode_sem_expr(w, a);
            encode_sem_expr(w, b);
        }
        SemExpr::Un(op, a) => {
            w.u8(2);
            encode_un_op(w, *op);
            encode_sem_expr(w, a);
        }
    }
}

fn decode_sem_expr(r: &mut ByteReader<'_>, depth: usize) -> Result<SemExpr, CodecError> {
    if depth > MAX_DECODE_DEPTH {
        return Err(r.error("expression nesting too deep"));
    }
    match r.u8()? {
        0 => Ok(SemExpr::Loc(decode_loc(r)?)),
        1 => {
            let op = decode_bin_op(r)?;
            let a = decode_sem_expr(r, depth + 1)?;
            let b = decode_sem_expr(r, depth + 1)?;
            Ok(SemExpr::Bin(op, Box::new(a), Box::new(b)))
        }
        2 => {
            let op = decode_un_op(r)?;
            Ok(SemExpr::Un(op, Box::new(decode_sem_expr(r, depth + 1)?)))
        }
        t => Err(r.error(format!("bad semexpr tag {t}"))),
    }
}

fn encode_insn_kind(w: &mut ByteWriter, k: &InsnKind) {
    match k {
        InsnKind::Compute { dst, expr } => {
            w.u8(0);
            encode_loc(w, dst);
            encode_sem_expr(w, expr);
        }
        InsnKind::LoopStart { var, count } => {
            w.u8(1);
            encode_symbol(w, var);
            w.u32(*count);
        }
        InsnKind::LoopEnd => w.u8(2),
        InsnKind::Rpt { count } => {
            w.u8(3);
            w.u32(*count);
        }
        InsnKind::SetMode { mode, on } => {
            w.u8(4);
            w.u64(*mode as u64);
            w.bool(*on);
        }
        InsnKind::ArLoad { ar, base, disp } => {
            w.u8(5);
            w.u16(*ar);
            encode_symbol(w, base);
            w.i64(*disp);
        }
        InsnKind::ArAdd { ar, delta } => {
            w.u8(6);
            w.u16(*ar);
            w.i64(*delta);
        }
        InsnKind::ArLoadIndexed { ar, base, disp, index, down } => {
            w.u8(7);
            w.u16(*ar);
            encode_symbol(w, base);
            w.i64(*disp);
            encode_symbol(w, index);
            w.bool(*down);
        }
        InsnKind::ArLoadMem { ar, cell } => {
            w.u8(8);
            w.u16(*ar);
            encode_symbol(w, cell);
        }
        InsnKind::ArStore { ar, cell } => {
            w.u8(9);
            w.u16(*ar);
            encode_symbol(w, cell);
        }
        InsnKind::PtrInit { cell, base, disp } => {
            w.u8(10);
            encode_symbol(w, cell);
            encode_symbol(w, base);
            w.i64(*disp);
        }
        InsnKind::Nop => w.u8(11),
    }
}

fn decode_insn_kind(r: &mut ByteReader<'_>) -> Result<InsnKind, CodecError> {
    match r.u8()? {
        0 => {
            let dst = decode_loc(r)?;
            let expr = decode_sem_expr(r, 0)?;
            Ok(InsnKind::Compute { dst, expr })
        }
        1 => Ok(InsnKind::LoopStart { var: decode_symbol(r)?, count: r.u32()? }),
        2 => Ok(InsnKind::LoopEnd),
        3 => Ok(InsnKind::Rpt { count: r.u32()? }),
        4 => Ok(InsnKind::SetMode { mode: r.u64()? as usize, on: r.bool()? }),
        5 => Ok(InsnKind::ArLoad { ar: r.u16()?, base: decode_symbol(r)?, disp: r.i64()? }),
        6 => Ok(InsnKind::ArAdd { ar: r.u16()?, delta: r.i64()? }),
        7 => Ok(InsnKind::ArLoadIndexed {
            ar: r.u16()?,
            base: decode_symbol(r)?,
            disp: r.i64()?,
            index: decode_symbol(r)?,
            down: r.bool()?,
        }),
        8 => Ok(InsnKind::ArLoadMem { ar: r.u16()?, cell: decode_symbol(r)? }),
        9 => Ok(InsnKind::ArStore { ar: r.u16()?, cell: decode_symbol(r)? }),
        10 => Ok(InsnKind::PtrInit {
            cell: decode_symbol(r)?,
            base: decode_symbol(r)?,
            disp: r.i64()?,
        }),
        11 => Ok(InsnKind::Nop),
        t => Err(r.error(format!("bad insn kind tag {t}"))),
    }
}

fn encode_insn(w: &mut ByteWriter, insn: &Insn) {
    match insn.rule {
        None => w.u8(0),
        Some(rid) => {
            w.u8(1);
            w.u32(rid.0);
        }
    }
    encode_insn_kind(w, &insn.kind);
    w.str(&insn.text);
    w.u32(insn.words);
    w.u32(insn.cycles);
    w.u32(insn.units);
    w.bool(insn.mode_sensitive);
    match insn.mode_req {
        None => w.u8(0),
        Some((mode, on)) => {
            w.u8(1);
            w.u64(mode as u64);
            w.bool(on);
        }
    }
    w.u32(insn.parallel.len() as u32);
    for p in &insn.parallel {
        encode_insn(w, p);
    }
}

fn decode_insn(r: &mut ByteReader<'_>, depth: usize) -> Result<Insn, CodecError> {
    if depth > MAX_DECODE_DEPTH {
        return Err(r.error("parallel nesting too deep"));
    }
    let rule = match r.u8()? {
        0 => None,
        1 => Some(RuleId(r.u32()?)),
        t => return Err(r.error(format!("bad option tag {t}"))),
    };
    let kind = decode_insn_kind(r)?;
    let text = r.str()?.to_string();
    let words = r.u32()?;
    let cycles = r.u32()?;
    let units = r.u32()?;
    let mode_sensitive = r.bool()?;
    let mode_req = match r.u8()? {
        0 => None,
        1 => Some((r.u64()? as usize, r.bool()?)),
        t => return Err(r.error(format!("bad option tag {t}"))),
    };
    let n = r.seq_len(1)?;
    let mut parallel = Vec::with_capacity(n);
    for _ in 0..n {
        parallel.push(decode_insn(r, depth + 1)?);
    }
    Ok(Insn { rule, kind, text, words, cycles, units, mode_sensitive, mode_req, parallel })
}

fn encode_layout(w: &mut ByteWriter, layout: &DataLayout) {
    let entries = layout.entries();
    w.u32(entries.len() as u32);
    for e in entries {
        encode_symbol(w, &e.sym);
        w.u16(e.addr);
        w.u32(e.len);
        encode_bank(w, e.bank);
    }
}

fn decode_layout(r: &mut ByteReader<'_>) -> Result<DataLayout, CodecError> {
    let n = r.seq_len(8)?;
    let mut entries = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..n {
        let sym = decode_symbol(r)?;
        if !seen.insert(sym.clone()) {
            // `replace_entries` panics on duplicates; reject here so a
            // corrupted file decodes to an error, not a panic
            return Err(r.error(format!("duplicate layout symbol `{sym}`")));
        }
        let addr = r.u16()?;
        let len = r.u32()?;
        let bank = decode_bank(r)?;
        entries.push(LayoutEntry { sym, addr, len, bank });
    }
    let mut layout = DataLayout::new();
    layout.replace_entries(entries);
    Ok(layout)
}

fn encode_code(w: &mut ByteWriter, code: &Code) {
    w.u32(code.insns.len() as u32);
    for insn in &code.insns {
        encode_insn(w, insn);
    }
    encode_layout(w, &code.layout);
    w.str(&code.target);
    w.str(&code.name);
}

fn decode_code(r: &mut ByteReader<'_>) -> Result<Code, CodecError> {
    let n = r.seq_len(1)?;
    let mut insns = Vec::with_capacity(n);
    for _ in 0..n {
        insns.push(decode_insn(r, 0)?);
    }
    let layout = decode_layout(r)?;
    let target = r.str()?.to_string();
    let name = r.str()?.to_string();
    Ok(Code { insns, layout, target, name })
}

#[cfg(test)]
mod tests {
    use super::*;
    use record_ir::fingerprint::program_fingerprint;

    fn lower(src: &str) -> Lir {
        record_ir::lower::lower(&record_ir::dfl::parse(src).unwrap()).unwrap()
    }

    fn compiled() -> (Lir, Code) {
        let src = "program p; const N = 4; in a: fix[N]; out y: fix; begin \
                   y := 0; for i in 0..N-1 loop y := y + a[i] * 3; end loop; end";
        let lir = lower(src);
        let compiler = crate::Compiler::for_target(record_isa::targets::tic25::target()).unwrap();
        let code = compiler.compile(&lir, crate::CompileRequest::default()).unwrap().code;
        (lir, code)
    }

    fn key_of(lir: &Lir) -> CacheKey {
        CacheKey { program: program_fingerprint(lir), target: 7, plan: 9 }
    }

    /// A sealed entry for the compiled test program.
    fn sealed_entry(lir: &Lir, code: &Code) -> Vec<u8> {
        let payload = encode_entry(&key_of(lir), "tic25", &program_bytes(lir), code);
        codec::seal(CODE_MAGIC, CODE_VERSION, &payload)
    }

    #[test]
    fn entry_round_trips_structurally() {
        let (lir, code) = compiled();
        let bytes = sealed_entry(&lir, &code);
        let entry = decode_entry(&bytes).unwrap();
        assert_eq!(entry.key, key_of(&lir));
        assert_eq!(entry.program, program_bytes(&lir));
        assert_eq!(entry.target_name, "tic25");
        assert_eq!(entry.code, code);
        assert_eq!(entry.code.render(), code.render());
    }

    #[test]
    fn every_bit_flip_is_rejected_or_equal() {
        // Any single-bit corruption must either fail the checksum/decode
        // or (if it flips a payload bit *and* the matching checksum bit —
        // impossible for one flip) be caught; it must never panic.
        let (lir, code) = compiled();
        let bytes = sealed_entry(&lir, &code);
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 1;
            assert!(decode_entry(&bad).is_err(), "flip at byte {byte} accepted");
        }
    }

    #[test]
    fn truncation_at_every_length_is_rejected() {
        let (lir, code) = compiled();
        let bytes = sealed_entry(&lir, &code);
        for len in 0..bytes.len() {
            assert!(decode_entry(&bytes[..len]).is_err(), "truncation to {len} accepted");
        }
    }

    #[test]
    fn a_version_1_entry_is_rejected() {
        let (lir, code) = compiled();
        let payload = encode_entry(&key_of(&lir), "tic25", &program_bytes(&lir), &code);
        assert!(decode_entry(&codec::seal(CODE_MAGIC, 1, &payload)).is_err());
    }

    #[test]
    fn lru_evicts_oldest_and_counts() {
        let (lir, code) = compiled();
        let mut cache = CompileCache::new(2);
        for plan in 0..3u64 {
            let key = CacheKey { plan, ..key_of(&lir) };
            cache.insert(key, &lir, "tic25", &code);
        }
        assert_eq!(cache.stats().evictions, 1);
        // oldest (plan 0) is gone, plan 1 and 2 remain
        assert!(cache.lookup(&CacheKey { plan: 0, ..key_of(&lir) }, &lir, "tic25").is_none());
        assert!(cache.lookup(&CacheKey { plan: 1, ..key_of(&lir) }, &lir, "tic25").is_some());
        assert!(cache.lookup(&CacheKey { plan: 2, ..key_of(&lir) }, &lir, "tic25").is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }

    #[test]
    fn colliding_fingerprint_is_refused_by_structural_equality() {
        let (lir, code) = compiled();
        let other = lower("program q; var x, y: fix; begin y := x + 1; end");
        let key = key_of(&lir);
        let mut cache = CompileCache::new(8);
        cache.insert(key, &lir, "tic25", &code);
        // same key, structurally different program → miss, not wrong code
        assert!(cache.lookup(&key, &other, "tic25").is_none());
        // same program under a different target name → miss too
        assert!(cache.lookup(&key, &lir, "dsp56k").is_none());
        assert_eq!(cache.stats().misses, 2);
        assert!(cache.lookup(&key, &lir, "tic25").is_some());
    }

    #[test]
    fn disk_round_trip_and_corruption_as_miss() {
        let dir = std::env::temp_dir().join(format!("record-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (lir, code) = compiled();
        let key = key_of(&lir);

        let mut writer = CompileCache::new(8).with_dir(&dir);
        writer.insert(key, &lir, "tic25", &code);

        // a fresh cache (cold memory) reads it back from disk
        let mut reader = CompileCache::new(8).with_dir(&dir);
        assert_eq!(reader.lookup(&key, &lir, "tic25"), Some(code.clone()));
        assert_eq!(reader.stats().hits, 1);

        // another program under the same key misses and leaves the entry
        let other = lower("program q; var x, y: fix; begin y := x + 1; end");
        let mut colliding = CompileCache::new(8).with_dir(&dir);
        assert!(colliding.lookup(&key, &other, "tic25").is_none());
        assert_eq!(colliding.stats().corruptions, 0);
        assert_eq!(colliding.lookup(&key, &lir, "tic25"), Some(code.clone()));

        // corrupt the file: the entry becomes a miss, the file is deleted
        let path = dir.join(CompileCache::code_file_name(&key));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut cold = CompileCache::new(8).with_dir(&dir);
        assert!(cold.lookup(&key, &lir, "tic25").is_none());
        let s = cold.stats();
        assert_eq!((s.misses, s.corruptions), (1, 1));
        assert!(!path.exists(), "corrupt entry must be evicted from disk");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
