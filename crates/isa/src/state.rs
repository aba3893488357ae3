//! Little-endian byte codec for simulation-state snapshots.
//!
//! The checkpoint/restore layer (see `bebop::checkpoint`) snapshots the
//! *mutable* state of every simulation component — predictor tables, branch
//! histories, in-flight windows — into a flat byte payload. Components are
//! always restored onto a freshly constructed instance of the identical
//! configuration, so configuration-derived state (masks, geometries, folded
//! history shapes) is never serialised: only what mutates during a run is.
//!
//! Every checkpointed type implements [`Snap`], which carries its byte layout
//! in both directions plus the fewest bytes one encoded value can occupy
//! ([`Snap::MIN_BYTES`]). Structs state their layout once, as a field list
//! given to [`snap!`]; the container rules are written once here:
//!
//! * scalars are fixed-width little-endian, `usize` travels as a `u64` and
//!   `bool` as a 0/1 byte;
//! * `Option<T>` is a presence byte followed by `T`;
//! * tuples are their fields in order; arrays and slices are their elements
//!   with no length prefix (the length is part of the configuration);
//! * `Vec<T>` is a *fixed-length table*: a `u64` length that must equal the
//!   length of the freshly built table being restored, then the elements;
//! * `VecDeque<T>`, [`VarVec<T>`] and `BTreeMap<K, V>` are *variable-length
//!   queues*: a `u64` length bounded by `remaining bytes / T::MIN_BYTES`
//!   before anything is decoded, so a corrupt length fails instead of
//!   allocating without bound; map keys must be strictly ascending, and so
//!   must the sequence numbers of a [`SeqQueue`](crate::SeqQueue);
//! * [`Nested<T>`] frames `T` as a length-prefixed sub-payload.
//!
//! Checks that depend on the configuration — index ranges, clamped
//! confidence levels — run once per component after its fields are
//! decoded (the `validate` hook of [`snap!`]). Decoding never panics: a
//! truncated, oversized or out-of-range payload is an [`StateError`], so a
//! corrupt checkpoint is rejected rather than restored into nonsense.

use crate::dynuop::{BranchInfo, BranchKind, DynUop, MemAccess};
use crate::reg::{ArchReg, NUM_ARCH_REGS};
use crate::uop::{Uop, UopKind, MAX_SRCS};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Error produced when decoding a state payload fails.
///
/// Carries a static description of the violated expectation; the
/// checkpoint layer wraps it with component context before surfacing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateError(pub &'static str);

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "state decode error: {}", self.0)
    }
}

impl std::error::Error for StateError {}

/// Shorthand for state-decoding results.
pub type StateResult<T> = Result<T, StateError>;

/// `Ok(())` when `ok` holds, otherwise the error `what`: the building block
/// of the post-restore validation hooks.
pub fn ensure(ok: bool, what: &'static str) -> StateResult<()> {
    if ok {
        Ok(())
    } else {
        Err(StateError(what))
    }
}

/// A type with one checkpoint byte layout, used in both directions.
///
/// `restore` decodes *in place* onto a freshly constructed value of the same
/// configuration; it may leave `self` partially overwritten on error (callers
/// discard the whole component then).
pub trait Snap {
    /// The fewest bytes any encoding of this type occupies. Variable-length
    /// decoders bound a length prefix by `remaining / MIN_BYTES`.
    const MIN_BYTES: usize;

    /// Appends this value's encoding.
    fn save(&self, w: &mut StateWriter);

    /// Overwrites this value with one decoded from `r`.
    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()>;
}

/// Encodes `v` as a complete payload.
pub fn snapshot<T: Snap + ?Sized>(v: &T) -> Vec<u8> {
    let mut w = StateWriter::new();
    v.save(&mut w);
    w.finish()
}

/// Restores `v` from a complete payload written by [`snapshot`], rejecting
/// trailing bytes: they mean the payload does not match the shape it claims
/// to restore.
pub fn restore_snapshot<T: Snap + ?Sized>(v: &mut T, bytes: &[u8]) -> StateResult<()> {
    let mut r = StateReader::new(bytes);
    v.restore(&mut r)?;
    ensure(r.remaining() == 0, "payload has trailing bytes")
}

/// Implements [`Snap`] for a struct from one list of its checkpointed fields.
///
/// Each field is written and read in list order through the codec of the
/// stated type; fields not listed are configuration or derived state and are
/// left as constructed. The stated type may be one the field derefs to —
/// `flags: [bool]` encodes a `Vec<bool>` field without a length prefix, and
/// a tuple struct names its fields by position (`0: [u16; 4]`). An
/// optional `validate method` names a `fn(&mut self) -> StateResult<()>` run
/// after every field is decoded, for checks that need the configuration.
/// Generic types put their parameters in brackets: `impl[T: Snap] Table<T>`.
///
/// ```
/// use bebop_isa::{ensure, restore_snapshot, snap, snapshot, StateResult};
///
/// #[derive(Debug, Default, PartialEq)]
/// struct Counter {
///     hits: u64,
///     history: Vec<bool>,
///     limit: u64, // configuration: never serialised
/// }
///
/// impl Counter {
///     fn check(&mut self) -> StateResult<()> {
///         ensure(self.hits <= self.limit, "hits exceed limit")
///     }
/// }
///
/// snap!(Counter { hits: u64, history: Vec<bool> } validate check);
///
/// let c = Counter { hits: 3, history: vec![true, false], limit: 9 };
/// let bytes = snapshot(&c);
/// let mut back = Counter { history: vec![false; 2], limit: 9, ..Default::default() };
/// restore_snapshot(&mut back, &bytes).unwrap();
/// assert_eq!(back, c);
/// ```
#[macro_export]
macro_rules! snap {
    (
        impl[$($gen:tt)*] $t:ty { $($f:tt : $ft:ty),* $(,)? }
        $(validate $check:ident)?
    ) => {
        impl<$($gen)*> $crate::Snap for $t {
            const MIN_BYTES: usize = 0 $(+ <$ft as $crate::Snap>::MIN_BYTES)*;

            fn save(&self, w: &mut $crate::StateWriter) {
                $(<$ft as $crate::Snap>::save(&self.$f, w);)*
            }

            fn restore(&mut self, r: &mut $crate::StateReader<'_>) -> $crate::StateResult<()> {
                $(<$ft as $crate::Snap>::restore(&mut self.$f, r)?;)*
                $(self.$check()?;)?
                Ok(())
            }
        }
    };
    ($t:ty { $($body:tt)* } $($rest:tt)*) => {
        $crate::snap!(impl[] $t { $($body)* } $($rest)*);
    };
}

/// Implements [`Snap`] for a fieldless enum as one tag byte per variant; any
/// other byte is rejected with the given message.
#[macro_export]
macro_rules! snap_enum {
    ($t:ident { $($v:ident = $b:literal),* $(,)? } else $what:literal) => {
        impl $crate::Snap for $t {
            const MIN_BYTES: usize = 1;

            fn save(&self, w: &mut $crate::StateWriter) {
                w.u8(match self {
                    $($t::$v => $b,)*
                });
            }

            fn restore(&mut self, r: &mut $crate::StateReader<'_>) -> $crate::StateResult<()> {
                *self = match r.u8()? {
                    $($b => $t::$v,)*
                    _ => return Err($crate::StateError($what)),
                };
                Ok(())
            }
        }
    };
}

/// Appends fixed-width little-endian fields to a growing byte payload.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    pub fn new() -> Self {
        StateWriter::default()
    }

    /// Consumes the writer, returning the accumulated payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64` (two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a collection length as a `u64` (usize-safe on every target).
    pub fn len_of(&mut self, n: usize) {
        self.u64(n as u64);
    }
}

/// Consumes fixed-width little-endian fields from a state payload.
#[derive(Debug)]
pub struct StateReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> StateReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        StateReader { bytes, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take(&mut self, n: usize) -> StateResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(StateError("payload truncated"));
        }
        let out = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> StateResult<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> StateResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> StateResult<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> StateResult<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> StateResult<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> StateResult<i64> {
        self.array().map(i64::from_le_bytes)
    }

    /// Reads a `bool` byte, rejecting values other than 0/1.
    pub fn bool(&mut self) -> StateResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(StateError("invalid bool byte")),
        }
    }

    /// Reads the length of a collection of `T` written by
    /// [`StateWriter::len_of`], bounded by what the remaining payload could
    /// possibly hold (each element takes at least `T::MIN_BYTES`, and at
    /// least one byte is assumed so zero-sized elements stay bounded too), so
    /// corrupt lengths fail instead of attempting absurd allocations.
    pub fn len_for<T: Snap + ?Sized>(&mut self) -> StateResult<usize> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| StateError("length overflows usize"))?;
        ensure(
            n <= self.remaining() / T::MIN_BYTES.max(1),
            "length exceeds remaining payload",
        )?;
        Ok(n)
    }
}

macro_rules! snap_scalar {
    ($($t:ident: $n:literal),*) => {$(
        impl Snap for $t {
            const MIN_BYTES: usize = $n;

            fn save(&self, w: &mut StateWriter) {
                w.$t(*self);
            }

            fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
                *self = r.$t()?;
                Ok(())
            }
        }
    )*};
}

snap_scalar!(u8: 1, u16: 2, u32: 4, u64: 8, i64: 8, bool: 1);

impl Snap for usize {
    const MIN_BYTES: usize = 8;

    fn save(&self, w: &mut StateWriter) {
        w.len_of(*self);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        *self = usize::try_from(r.u64()?).map_err(|_| StateError("index overflows usize"))?;
        Ok(())
    }
}

impl<T: Snap + Default> Snap for Option<T> {
    const MIN_BYTES: usize = 1;

    fn save(&self, w: &mut StateWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.save(w);
        }
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        if r.bool()? {
            self.get_or_insert_with(T::default).restore(r)
        } else {
            *self = None;
            Ok(())
        }
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;

    fn save(&self, w: &mut StateWriter) {
        self.0.save(w);
        self.1.save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        self.0.restore(r)?;
        self.1.restore(r)
    }
}

impl<T: Snap> Snap for [T] {
    // The length is configuration, so nothing bounds it from below.
    const MIN_BYTES: usize = 0;

    fn save(&self, w: &mut StateWriter) {
        for v in self {
            v.save(w);
        }
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        self.iter_mut().try_for_each(|v| v.restore(r))
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;

    fn save(&self, w: &mut StateWriter) {
        self[..].save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        self[..].restore(r)
    }
}

impl<T: Snap> Snap for Vec<T> {
    const MIN_BYTES: usize = 8;

    fn save(&self, w: &mut StateWriter) {
        w.len_of(self.len());
        self[..].save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        let n = r.len_for::<T>()?;
        ensure(n == self.len(), "table size mismatch")?;
        self[..].restore(r)
    }
}

/// Decodes a length-prefixed run of `T`, handing each element to `push`.
fn restore_each<T: Snap + Default>(
    r: &mut StateReader<'_>,
    mut push: impl FnMut(T),
) -> StateResult<()> {
    let n = r.len_for::<T>()?;
    for _ in 0..n {
        let mut v = T::default();
        v.restore(r)?;
        push(v);
    }
    Ok(())
}

impl<T: Snap + Default> Snap for VecDeque<T> {
    const MIN_BYTES: usize = 8;

    fn save(&self, w: &mut StateWriter) {
        w.len_of(self.len());
        for v in self {
            v.save(w);
        }
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        self.clear();
        restore_each(r, |v| self.push_back(v))
    }
}

/// A variable-length list kept in a contiguous `Vec` (plain `Vec` fields
/// are fixed-length tables). Encoded like a `VecDeque`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarVec<T>(pub Vec<T>);

impl<T> Deref for VarVec<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        &self.0
    }
}

impl<T> DerefMut for VarVec<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.0
    }
}

impl<T: Snap + Default> Snap for VarVec<T> {
    const MIN_BYTES: usize = 8;

    fn save(&self, w: &mut StateWriter) {
        w.len_of(self.len());
        self[..].save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        self.clear();
        restore_each(r, |v| self.push(v))
    }
}

impl<K: Snap + Ord + Default, V: Snap + Default> Snap for BTreeMap<K, V> {
    const MIN_BYTES: usize = 8;

    fn save(&self, w: &mut StateWriter) {
        w.len_of(self.len());
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        self.clear();
        let mut ascending = true;
        restore_each(r, |(k, v): (K, V)| {
            ascending &= self.last_key_value().map_or(true, |(last, _)| *last < k);
            self.insert(k, v);
        })?;
        ensure(ascending, "map keys not ascending")
    }
}

/// A component whose state travels as a length-prefixed sub-payload: the
/// outer decoder can skip or bound it without knowing its layout, and the
/// inner payload must be consumed exactly.
#[derive(Debug, Clone, Default)]
pub struct Nested<T>(pub T);

impl<T> Deref for Nested<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for Nested<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T: Snap> Snap for Nested<T> {
    const MIN_BYTES: usize = 8;

    fn save(&self, w: &mut StateWriter) {
        let at = w.buf.len();
        w.u64(0);
        self.0.save(w);
        let len = (w.buf.len() - at - 8) as u64;
        w.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        let n = r.len_for::<u8>()?;
        restore_snapshot(&mut self.0, r.take(n)?)
    }
}

impl Snap for ArchReg {
    const MIN_BYTES: usize = 2;

    fn save(&self, w: &mut StateWriter) {
        w.u16(self.raw());
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        let raw = r.u16()?;
        ensure(raw < NUM_ARCH_REGS, "register index out of range")?;
        *self = ArchReg::from_raw(raw);
        Ok(())
    }
}

snap_enum!(UopKind {
    Alu = 0,
    Mul = 1,
    Div = 2,
    FpAdd = 3,
    FpMul = 4,
    FpDiv = 5,
    Load = 6,
    Store = 7,
    Branch = 8,
    LoadImm = 9,
    Nop = 10,
} else "invalid µ-op kind byte");

snap_enum!(BranchKind {
    Conditional = 0,
    Unconditional = 1,
    Call = 2,
    Return = 3,
    Indirect = 4,
} else "invalid branch kind byte");

/// A static µ-op: kind, optional destination, then a source count byte and
/// the sources (its in-memory form pads the sources to [`MAX_SRCS`]).
impl Snap for Uop {
    const MIN_BYTES: usize = UopKind::MIN_BYTES + <Option<ArchReg>>::MIN_BYTES + 1;

    fn save(&self, w: &mut StateWriter) {
        self.kind().save(w);
        self.dst().save(w);
        // CAST: a µ-op encodes at most MAX_SRCS sources (far below 256).
        w.u8(self.srcs().count() as u8);
        self.srcs().for_each(|s| s.save(w));
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> StateResult<()> {
        let mut kind = UopKind::default();
        kind.restore(r)?;
        let mut dst = None;
        dst.restore(r)?;
        let n = usize::from(r.u8()?);
        ensure(n <= MAX_SRCS, "µ-op source count out of range")?;
        let mut srcs = [ArchReg::default(); MAX_SRCS];
        srcs[..n].restore(r)?;
        *self = Uop::new(kind, dst, &srcs[..n]);
        Ok(())
    }
}

snap!(MemAccess {
    addr: u64,
    size: u8
});
snap!(BranchInfo {
    kind: BranchKind,
    taken: bool,
    target: u64
});
snap!(DynUop {
    seq: u64,
    pc: u64,
    inst_len: u8,
    uop_idx: u8,
    inst_num_uops: u8,
    uop: Uop,
    value: u64,
    mem: Option<MemAccess>,
    branch: Option<BranchInfo>,
    imm_available_at_decode: bool,
    wrong_path: bool,
    asid: u8,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Snap + Default + PartialEq + fmt::Debug>(v: &T) {
        let bytes = snapshot(v);
        assert!(bytes.len() >= T::MIN_BYTES, "MIN_BYTES overstates {v:?}");
        let mut back = T::default();
        restore_snapshot(&mut back, &bytes).unwrap();
        assert_eq!(&back, v);
    }

    #[test]
    fn scalar_round_trip() {
        round_trip(&7u8);
        round_trip(&0xbeefu16);
        round_trip(&0xdead_beefu32);
        round_trip(&0x0123_4567_89ab_cdefu64);
        round_trip(&-42i64);
        round_trip(&true);
        round_trip(&false);
        round_trip(&usize::MAX);
        round_trip(&Some(99u64));
        round_trip(&None::<u64>);
        round_trip(&(3u8, Some(-1i64)));
        round_trip(&[1u16, 2, 3]);
        assert_eq!(snapshot(&0x0102u16), vec![2, 1], "little-endian");
        assert_eq!(snapshot(&Some(5u8)), vec![1, 5], "presence byte first");
    }

    #[test]
    fn containers_round_trip() {
        let q: VecDeque<(u64, bool)> = [(1, true), (9, false)].into_iter().collect();
        round_trip(&q);
        let v = VarVec(vec![(1u64, true), (9, false)]);
        assert_eq!(snapshot(&v), snapshot(&q), "one variable-length encoding");
        round_trip(&v);
        let m: BTreeMap<u64, u16> = [(4, 1), (70, 2)].into_iter().collect();
        round_trip(&m);
        let table = vec![Some(1u8), None, Some(3)];
        let mut back = vec![None; 3];
        restore_snapshot(&mut back, &snapshot(&table)).unwrap();
        assert_eq!(back, table);
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let bytes = snapshot(&1u64);
        let mut v = 0u64;
        assert!(restore_snapshot(&mut v, &bytes[..4]).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut v = 0u8;
        assert!(restore_snapshot(&mut v, &[1, 2]).is_err());
    }

    #[test]
    fn absurd_length_is_rejected_without_allocation() {
        let bytes = snapshot(&u64::MAX);
        let mut q: VecDeque<u64> = VecDeque::new();
        assert!(restore_snapshot(&mut q, &bytes).is_err());
        // The bound is exact: one element more than the payload can hold.
        let mut bytes = snapshot(&2u64);
        bytes.extend_from_slice(&snapshot(&7u64));
        assert!(restore_snapshot(&mut q, &bytes).is_err());
        bytes.extend_from_slice(&snapshot(&8u64));
        restore_snapshot(&mut q, &bytes).unwrap();
        assert_eq!(q, [7, 8]);
    }

    #[test]
    fn fixed_tables_reject_size_mismatch() {
        let bytes = snapshot(&vec![1u8, 2, 3]);
        let mut short = vec![0u8; 2];
        assert!(restore_snapshot(&mut short, &bytes).is_err());
        let mut exact = vec![0u8; 3];
        restore_snapshot(&mut exact, &bytes).unwrap();
        assert_eq!(exact, [1, 2, 3]);
    }

    #[test]
    fn map_keys_must_ascend() {
        let mut bytes = snapshot(&2u64);
        for k in [5u64, 5] {
            bytes.extend_from_slice(&snapshot(&(k, 1u16)));
        }
        let mut m: BTreeMap<u64, u16> = BTreeMap::new();
        assert!(restore_snapshot(&mut m, &bytes).is_err());
    }

    #[test]
    fn dyn_uop_round_trip() {
        let uop = Uop::new(UopKind::Load, Some(ArchReg::int(3)), &[ArchReg::int(4)]);
        let mut u = DynUop::new(77, 0x1003, 5, 1, 2, uop, 0xabcdef)
            .with_mem(0xdead_0000, 8)
            .with_wrong_path()
            .with_asid(2);
        u.imm_available_at_decode = true;
        let br = DynUop::new(78, 0x2000, 2, 0, 1, Uop::new(UopKind::Branch, None, &[]), 0)
            .with_branch(BranchKind::Return, true, 0x3000);
        round_trip(&u);
        round_trip(&br);
    }

    #[test]
    fn nested_payload_round_trip() {
        let v = (Nested(5u64), 9u8);
        let bytes = snapshot(&v);
        assert_eq!(bytes[..8], 8u64.to_le_bytes(), "length prefix");
        let mut back = (Nested(0u64), 0u8);
        restore_snapshot(&mut back, &bytes).unwrap();
        assert_eq!((*back.0, back.1), (5, 9));
        // The inner payload must be consumed exactly.
        let mut bytes = snapshot(&9u64);
        bytes.extend_from_slice(&[0; 9]);
        assert!(restore_snapshot(&mut Nested(0u64), &bytes).is_err());
    }

    #[test]
    fn invalid_enum_bytes_are_rejected() {
        let mut kind = UopKind::default();
        assert!(restore_snapshot(&mut kind, &[200]).is_err());
        let mut branch = BranchKind::default();
        assert!(restore_snapshot(&mut branch, &[77]).is_err());
        let mut b = false;
        assert!(restore_snapshot(&mut b, &[3]).is_err());
        let mut reg = ArchReg::default();
        assert!(restore_snapshot(&mut reg, &snapshot(&NUM_ARCH_REGS)).is_err());
    }
}
