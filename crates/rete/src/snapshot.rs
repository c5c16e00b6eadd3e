//! Versioned, checksummed session snapshots: a replayable delta log.
//!
//! A session's mutable match state ([`crate::state::MatchState`] +
//! [`crate::session::SessionNet`]) is never serialized as a pointer graph.
//! Because every mutation enters through a small deterministic API
//! (`add_wme` / `remove_wme` / `run_cycle` / `add_production`) and the
//! overlay replays monolithic append order exactly, the *op log itself* is
//! a complete snapshot: replaying it against the same frozen
//! [`crate::session::Topology`] reconstructs working memory, token
//! memories, the chunk overlay, and the conflict-set-bearing P-node tokens
//! bit for bit. The serving layer's tiered session store (psme-serve)
//! hibernates sessions as these logs and resumes them transparently; the
//! engine that records them is [`crate::session::JournaledSession`].
//!
//! On the wire a snapshot is framed as
//!
//! ```text
//! magic (4) | version (u32 LE) | payload_len (u64 LE) | payload | fnv1a64(payload)
//! ```
//!
//! and every decode path returns a typed [`SnapshotError`] — corrupted,
//! truncated or wrong-version bytes are rejected, never panicked on and
//! never replayed into a silently wrong session. Symbols travel as strings
//! (re-interned on decode) and chunk productions travel as their printed
//! source text (the printer/parser round-trip is property-tested), so a
//! snapshot does not depend on intern-table numbering.
//!
//! This module is also the one codec for every binary format in the repo —
//! this journal (`PSNJ`), psme-soar's agent shell, psme-serve's session
//! frame (`PSNS`) and psme-net's wire frames (`PSMN`). Values are written
//! with [`ByteWriter::put`] and read with [`ByteReader::get`], through the
//! [`Encode`]/[`Decode`] pair; the generic impls below fix the shared rules
//! (lists, options, map order, widths), and each struct or tagged enum
//! states its field order and tags once, in its declaration, with
//! [`codec!`](crate::codec).

use crate::network::NetworkOrg;
use crate::node::Side;
use crate::serial::SerialEngine;
use crate::session::{SessionNet, Topology};
use crate::state::MatchState;
use crate::trace::Phase;
use crate::view::ReteView;
use psme_ops::{
    parse_production, production_text, ClassRegistry, Instantiation, Production, Symbol, TimeTag,
    Value, Wme, WmeId,
};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

/// Frame magic for a rete journal snapshot.
pub const JOURNAL_MAGIC: [u8; 4] = *b"PSNJ";
/// Current journal format version.
pub const JOURNAL_VERSION: u32 = 1;

/// Why a snapshot could not be decoded or replayed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The frame does not start with the expected magic.
    BadMagic,
    /// The frame is a later (or earlier) format than this build reads.
    UnsupportedVersion(u32),
    /// The byte stream ends before the structure it promises.
    Truncated,
    /// The payload checksum does not match its contents.
    ChecksumMismatch,
    /// Structurally invalid payload (bad tag, bad UTF-8, trailing bytes…).
    Corrupt(String),
    /// The log decoded but could not be replayed against this topology.
    Replay(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "snapshot: bad magic"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "snapshot: unsupported format version {v}")
            }
            SnapshotError::Truncated => write!(f, "snapshot: truncated"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot: checksum mismatch"),
            SnapshotError::Corrupt(why) => write!(f, "snapshot: corrupt ({why})"),
            SnapshotError::Replay(why) => write!(f, "snapshot: replay failed ({why})"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a over `bytes` (64-bit). A single flipped payload byte always
/// changes the digest (xor-then-odd-multiply is injective per step), which
/// is all the framing needs — this guards against torn writes, not
/// adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian append-only encoder for snapshot payloads. Values go in
/// through [`ByteWriter::put`]; their layout is their [`Encode`] impl.
#[derive(Default)]
pub struct ByteWriter<'c> {
    buf: Vec<u8>,
    classes: Option<&'c ClassRegistry>,
}

impl<'c> ByteWriter<'c> {
    /// Empty writer.
    pub fn new() -> ByteWriter<'c> {
        ByteWriter::default()
    }

    /// Empty writer that can print productions against `classes`.
    pub fn with_classes(classes: &'c ClassRegistry) -> ByteWriter<'c> {
        ByteWriter { buf: Vec::new(), classes: Some(classes) }
    }

    /// The encoded bytes.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    /// Append one value.
    pub fn put<T: Encode + ?Sized>(&mut self, v: &T) {
        v.encode_to(self);
    }

    /// Append a sequence: its length as a `u64`, then each item — the
    /// layout of every list, whatever holds it.
    pub fn put_seq<I: ExactSizeIterator<Item: Encode>>(&mut self, items: I) {
        self.put(&items.len());
        items.for_each(|v| self.put(&v));
    }
}

/// Cursor over snapshot payload bytes; every read is bounds-checked and
/// returns [`SnapshotError::Truncated`] rather than panicking. Values come
/// out through [`ByteReader::get`].
pub struct ByteReader<'a> {
    buf: &'a [u8],
    classes: Option<&'a mut ClassRegistry>,
}

impl<'a> ByteReader<'a> {
    /// Reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, classes: None }
    }

    /// Reader that can parse productions into `classes`.
    pub fn with_classes(buf: &'a [u8], classes: &'a mut ClassRegistry) -> ByteReader<'a> {
        ByteReader { buf, classes: Some(classes) }
    }

    /// Error unless every byte was consumed (a valid payload has no slack
    /// for trailing garbage).
    pub fn expect_done(&self) -> Result<(), SnapshotError> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(SnapshotError::Corrupt(format!("{n} trailing bytes"))),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let Some((head, rest)) = self.buf.split_at_checked(n) else {
            return Err(SnapshotError::Truncated);
        };
        self.buf = rest;
        Ok(head)
    }

    /// Read one value.
    pub fn get<T: Decode>(&mut self) -> Result<T, SnapshotError> {
        T::decode_from(self)
    }

    /// A u64 that must fit a usize-sized count. Counts are *not* used to
    /// pre-reserve allocations — decode loops consume at least one byte per
    /// element, so a lying count dies as [`SnapshotError::Truncated`].
    pub fn count(&mut self) -> Result<usize, SnapshotError> {
        self.get()
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.count()?;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| SnapshotError::Corrupt("string is not UTF-8".into()))
    }
}

/// A value with one byte layout, written by [`ByteWriter::put`]. Its
/// [`Decode`] impl reads back exactly these bytes.
pub trait Encode {
    /// Append this value's bytes.
    fn encode_to(&self, w: &mut ByteWriter<'_>);
}

/// The reading half of [`Encode`]: every malformation is a typed error.
/// Every layout takes at least one byte, so a count can never make a
/// decode loop spin without consuming input.
pub trait Decode: Sized {
    /// Read one value.
    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError>;
}

/// Fixed-width little-endian integers.
macro_rules! le_codec {
    ($($t:ty),+) => {$(
        impl Encode for $t {
            fn encode_to(&self, w: &mut ByteWriter<'_>) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }
        }

        impl Decode for $t {
            fn decode_from(r: &mut ByteReader<'_>) -> Result<$t, SnapshotError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("exact width")))
            }
        }
    )+};
}

le_codec!(u8, u32, u64, i64);

/// Types that travel in another type's layout: `T as V: |x| to, |y| from`
/// writes `to` for `x: &T` and reads a `V` back as `y`, which `from` turns
/// into the `T` or rejects.
macro_rules! via {
    ($($t:ty as $v:ty: |$x:ident| $to:expr, |$y:pat_param| $from:expr;)+) => {$(
        impl Encode for $t {
            fn encode_to(&self, w: &mut ByteWriter<'_>) {
                let $x = self;
                w.put(&$to);
            }
        }

        impl Decode for $t {
            fn decode_from(r: &mut ByteReader<'_>) -> Result<$t, SnapshotError> {
                let $y = r.get::<$v>()?;
                $from
            }
        }
    )+};
}

via! {
    bool as u8: |b| *b as u8, |b| match b {
        0 | 1 => Ok(b == 1),
        b => Err(SnapshotError::Corrupt(format!("bool byte {b}"))),
    };
    f64 as u64: |x| x.to_bits(), |bits| Ok(f64::from_bits(bits));
    usize as u64: |n| *n as u64, |n| {
        usize::try_from(n).map_err(|_| SnapshotError::Corrupt(format!("count {n} overflows")))
    };
    i32 as i64: |n| *n as i64, |n| {
        i32::try_from(n).map_err(|_| SnapshotError::Corrupt(format!("{n} overflows i32")))
    };
    WmeId as u32: |id| id.0, |id| Ok(WmeId(id));
    TimeTag as u64: |t| t.0, |t| Ok(TimeTag(t));
    Wme as (Symbol, Vec<Value>): |m| (m.class, &*m.fields),
        |(class, fields)| Ok(Wme { class, fields: fields.into() });
}

impl Encode for str {
    /// Its length as a `u64`, then its UTF-8 bytes.
    fn encode_to(&self, w: &mut ByteWriter<'_>) {
        w.put(&self.len());
        w.buf.extend_from_slice(self.as_bytes());
    }
}

impl Encode for String {
    fn encode_to(&self, w: &mut ByteWriter<'_>) {
        w.put(self.as_str());
    }
}

impl Decode for String {
    fn decode_from(r: &mut ByteReader<'_>) -> Result<String, SnapshotError> {
        r.str()
    }
}

impl Encode for Symbol {
    /// By name, never by intern id.
    fn encode_to(&self, w: &mut ByteWriter<'_>) {
        w.put(&*psme_ops::sym_name(*self));
    }
}

impl Decode for Symbol {
    /// Re-interned.
    fn decode_from(r: &mut ByteReader<'_>) -> Result<Symbol, SnapshotError> {
        Ok(psme_ops::intern(&r.str()?))
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode_to(&self, w: &mut ByteWriter<'_>) {
        (**self).encode_to(w);
    }
}

impl<T: Encode> Encode for [T] {
    fn encode_to(&self, w: &mut ByteWriter<'_>) {
        w.put_seq(self.iter());
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode_to(&self, w: &mut ByteWriter<'_>) {
        w.put_seq(self.iter());
    }
}

impl<T: Decode> Decode for Vec<T> {
    /// Never reserves from the count: a lying count runs out of bytes.
    fn decode_from(r: &mut ByteReader<'_>) -> Result<Vec<T>, SnapshotError> {
        let n = r.count()?;
        let mut v = Vec::new();
        for _ in 0..n {
            v.push(r.get()?);
        }
        Ok(v)
    }
}

impl<T: Encode> Encode for Option<T> {
    /// A `bool`, then the value when there is one.
    fn encode_to(&self, w: &mut ByteWriter<'_>) {
        w.put(&self.is_some());
        self.iter().for_each(|v| w.put(v));
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode_from(r: &mut ByteReader<'_>) -> Result<Option<T>, SnapshotError> {
        Ok(if r.get()? { Some(r.get()?) } else { None })
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode_to(&self, w: &mut ByteWriter<'_>) {
        w.put(&self.0);
        w.put(&self.1);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode_from(r: &mut ByteReader<'_>) -> Result<(A, B), SnapshotError> {
        Ok((r.get()?, r.get()?))
    }
}

impl<T: Encode, const N: usize> Encode for [T; N] {
    /// The elements, no length: `N` is part of the layout.
    fn encode_to(&self, w: &mut ByteWriter<'_>) {
        self.iter().for_each(|v| w.put(v));
    }
}

impl<T: Decode + Default, const N: usize> Decode for [T; N] {
    fn decode_from(r: &mut ByteReader<'_>) -> Result<[T; N], SnapshotError> {
        const { assert!(N > 0, "an empty array would decode from no bytes") };
        let mut a: [T; N] = std::array::from_fn(|_| T::default());
        for v in &mut a {
            *v = r.get()?;
        }
        Ok(a)
    }
}

/// A hash-map or hash-set key. A section sorts its entries by this, so its
/// bytes depend on neither hash order nor intern order: symbols by name,
/// ids numerically, strings as strings.
pub trait SortKey {
    /// This key's position in its section.
    fn sort_key(&self) -> impl Ord;
}

impl SortKey for Symbol {
    fn sort_key(&self) -> impl Ord {
        psme_ops::sym_name(*self)
    }
}

impl SortKey for WmeId {
    fn sort_key(&self) -> impl Ord {
        self.0
    }
}

impl SortKey for String {
    fn sort_key(&self) -> impl Ord {
        self.clone()
    }
}

impl<K: Encode + SortKey, V: Encode, S> Encode for HashMap<K, V, S> {
    /// A list of `(key, value)` pairs in key order.
    fn encode_to(&self, w: &mut ByteWriter<'_>) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by_cached_key(|(k, _)| k.sort_key());
        w.put(&entries);
    }
}

impl<K: Decode + Eq + Hash, V: Decode, S: BuildHasher + Default> Decode for HashMap<K, V, S> {
    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        Ok(r.get::<Vec<(K, V)>>()?.into_iter().collect())
    }
}

impl<K: Encode + SortKey, S> Encode for HashSet<K, S> {
    /// A list of keys in key order.
    fn encode_to(&self, w: &mut ByteWriter<'_>) {
        let mut keys: Vec<&K> = self.iter().collect();
        keys.sort_by_cached_key(|k| k.sort_key());
        w.put(&keys);
    }
}

impl<K: Decode + Eq + Hash, S: BuildHasher + Default> Decode for HashSet<K, S> {
    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        Ok(r.get::<Vec<K>>()?.into_iter().collect())
    }
}

impl Encode for Instantiation {
    /// The production's name, then its `(wme, time tag)` pairs.
    fn encode_to(&self, w: &mut ByteWriter<'_>) {
        w.put(&self.prod);
        w.put_seq(self.wmes.iter().zip(&self.tags));
    }
}

impl Decode for Instantiation {
    fn decode_from(r: &mut ByteReader<'_>) -> Result<Instantiation, SnapshotError> {
        let prod = r.get()?;
        let (wmes, tags) = r.get::<Vec<(WmeId, TimeTag)>>()?.into_iter().unzip();
        Ok(Instantiation { prod, wmes, tags })
    }
}

impl Encode for Arc<Production> {
    /// Its printed source text (the printer/parser round-trip is
    /// property-tested), so the bytes do not depend on intern numbering.
    fn encode_to(&self, w: &mut ByteWriter<'_>) {
        let classes = w.classes.expect("productions are written by ByteWriter::with_classes");
        let text = production_text(self, classes);
        w.put(&text);
    }
}

impl Decode for Arc<Production> {
    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let text = r.str()?;
        let classes = r.classes.as_deref_mut();
        parse_production(&text, classes.expect("productions are read by ByteReader::with_classes"))
            .map(Arc::new)
            .map_err(|e| SnapshotError::Corrupt(format!("production does not parse: {e}")))
    }
}

/// Declare a struct or a tagged enum together with its byte layout: the
/// [`Encode`]/[`Decode`] impls follow the declaration, fields in declared
/// order, each enum variant behind its `u8` tag (`Variant { .. } = tag`).
/// Attributes, doc comments included, pass through. A field written
/// `name: T as V` travels as the newtype `V(T)`.
/// `codec! { impl Type { .. } }` declares the layout of an enum defined
/// elsewhere; its variants may also be one-field tuples, `Variant(x: T)`.
#[macro_export]
macro_rules! codec {
    (
        $(#[$meta:meta])*
        $vis:vis struct $ty:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $f:ident : $ft:ty $(as $via:ident)? ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $ty { $( $(#[$fmeta])* $fvis $f: $ft, )+ }

        impl $crate::snapshot::Encode for $ty {
            fn encode_to(&self, w: &mut $crate::snapshot::ByteWriter<'_>) {
                let $ty { $($f),+ } = self;
                $( $crate::codec!(@put w, $f $(, $via)?); )+
            }
        }

        impl $crate::snapshot::Decode for $ty {
            fn decode_from(
                r: &mut $crate::snapshot::ByteReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok($ty { $( $f: $crate::codec!(@get r, $ft $(, $via)?), )+ })
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $ty:ident {
            $(
                $(#[$vmeta:meta])*
                $v:ident $({ $( $(#[$fmeta:meta])* $f:ident : $ft:ty $(as $via:ident)? ),+ $(,)? })?
                = $tag:literal
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $ty { $( $(#[$vmeta])* $v $({ $( $(#[$fmeta])* $f: $ft ),+ })?, )+ }

        $crate::codec! { impl $ty { $( $v $({ $( $f: $ft $(as $via)? ),+ })? = $tag ),+ } }
    };
    (
        impl $ty:ident {
            $(
                $v:ident
                $(( $b:ident : $bt:ty ))?
                $({ $( $f:ident : $ft:ty $(as $via:ident)? ),+ })?
                = $tag:literal
            ),+ $(,)?
        }
    ) => {
        impl $crate::snapshot::Encode for $ty {
            fn encode_to(&self, w: &mut $crate::snapshot::ByteWriter<'_>) {
                match self {
                    $( $ty::$v $(($b))? $({ $($f),+ })? => {
                        w.put::<u8>(&$tag);
                        $( w.put($b); )?
                        $( $( $crate::codec!(@put w, $f $(, $via)?); )+ )?
                    } )+
                }
            }
        }

        impl $crate::snapshot::Decode for $ty {
            fn decode_from(
                r: &mut $crate::snapshot::ByteReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok(match r.get::<u8>()? {
                    $( $tag => $ty::$v
                        $(( r.get::<$bt>()? ))?
                        $({ $( $f: $crate::codec!(@get r, $ft $(, $via)?) ),+ })?, )+
                    t => {
                        let why = format!("{} tag {t}", stringify!($ty));
                        return Err($crate::snapshot::SnapshotError::Corrupt(why));
                    }
                })
            }
        }
    };
    (@put $w:ident, $f:ident) => { $w.put($f) };
    (@put $w:ident, $f:ident, $via:ident) => { $w.put(&$via($f.clone())) };
    (@get $r:ident, $ft:ty) => { $r.get()? };
    (@get $r:ident, $ft:ty, $via:ident) => { $r.get::<$via>()?.0 };
}

codec! { impl Value { Nil = 0, Sym(s: Symbol) = 1, Int(i: i64) = 2 } }

codec! { impl NetworkOrg { Linear = 0, Bilinear(groups: Vec<Vec<usize>>) = 1 } }

/// Frame a payload: magic, version, length, payload, checksum.
pub fn seal_frame(magic: [u8; 4], version: u32, payload: Vec<u8>) -> Vec<u8> {
    let mut w = ByteWriter { buf: Vec::with_capacity(payload.len() + 24), classes: None };
    w.put(&magic);
    w.put(&version);
    w.put(&payload.len());
    w.buf.extend_from_slice(&payload);
    w.put(&fnv1a64(&payload));
    w.buf
}

/// Open a frame, validating magic, version, length and checksum. Returns
/// the payload slice.
pub fn open_frame(bytes: &[u8], magic: [u8; 4], version: u32) -> Result<&[u8], SnapshotError> {
    let mut r = ByteReader::new(bytes);
    if r.get::<[u8; 4]>()? != magic {
        return Err(SnapshotError::BadMagic);
    }
    match r.get()? {
        v if v == version => {}
        v => return Err(SnapshotError::UnsupportedVersion(v)),
    }
    let n = r.count()?;
    let payload = r.take(n)?;
    let sum: u64 = r.get()?;
    r.expect_done()?;
    if fnv1a64(payload) != sum {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(payload)
}

crate::codec! {
    /// One engine mutation, as recorded in call order.
    #[derive(Clone, Debug)]
    pub enum SnapOp {
        /// `store.add(wme)` — `id` is the id the store assigned, revalidated on
        /// replay (ids are dense and never reused, so any divergence means the
        /// log is being replayed against the wrong history).
        AddWme {
            /// The wme added.
            wme: Wme,
            /// The id the store assigned at record time.
            id: WmeId,
        } = 0,
        /// `store.remove(id)`.
        RemoveWme {
            /// The wme marked dead.
            id: WmeId,
        } = 1,
        /// `run_cycle(changes, Phase::Match)` — one batched match to
        /// quiescence.
        RunChanges {
            /// The signed wme deltas injected.
            changes: Vec<(WmeId, i32)>,
        } = 2,
        /// `add_production(prod, org)` — a chunk built into the overlay plus
        /// its §5.2 state update.
        AddProd {
            /// The chunk (serialized as printed source text).
            prod: Arc<Production>,
            /// The network organization it was compiled under.
            org: NetworkOrg,
        } = 3,
        /// `reorganize_production(prod_idx, org)` — an adaptive mid-run rebuild.
        /// Deterministic given the ops before it, so replaying the op (rather
        /// than the detector state that triggered it) reconstructs the same
        /// rebuilt overlay.
        Reorg {
            /// Index of the production rebuilt.
            prod_idx: u32,
            /// The organization it was rebuilt under.
            org: NetworkOrg,
        } = 4,
    }
}

crate::codec! {
    /// The replayable delta log of one session's engine mutations.
    #[derive(Clone, Debug, Default)]
    pub struct Journal {
        /// Ops in exact call order.
        pub ops: Vec<SnapOp>,
    }
}

impl Journal {
    /// Encode into a sealed frame (see module docs for the layout). Chunks
    /// are printed against `reg`.
    pub fn encode(&self, reg: &ClassRegistry) -> Vec<u8> {
        let mut w = ByteWriter::with_classes(reg);
        w.put(self);
        seal_frame(JOURNAL_MAGIC, JOURNAL_VERSION, w.into_inner())
    }

    /// Decode a sealed frame; chunks are parsed into `reg`.
    pub fn decode(bytes: &[u8], reg: &mut ClassRegistry) -> Result<Journal, SnapshotError> {
        let payload = open_frame(bytes, JOURNAL_MAGIC, JOURNAL_VERSION)?;
        let mut r = ByteReader::with_classes(payload, reg);
        let j = r.get()?;
        r.expect_done()?;
        Ok(j)
    }

    /// Replay against a frozen topology: a fresh session engine re-runs
    /// every op through the same deterministic APIs that recorded them,
    /// reconstructing `MatchState` + `SessionNet` exactly. An op the
    /// engine could not have recorded — a change to an id the store never
    /// assigned, a wme entering or leaving the match out of turn, a
    /// production index past the network — is a [`SnapshotError::Replay`]
    /// naming the op, raised before the engine sees it.
    pub fn replay(&self, topo: Arc<Topology>) -> Result<SerialEngine<SessionNet>, SnapshotError> {
        let mut eng = SerialEngine::with_state(SessionNet::new(topo), MatchState::new());
        // Per wme id: `Some(true)` while it is in the match. A wme enters
        // the match once (+1) and leaves it at most once (-1).
        let mut matched: Vec<Option<bool>> = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            let fail = |why: String| SnapshotError::Replay(format!("op {i}: {why}"));
            match op {
                SnapOp::AddWme { wme, id } => {
                    let (got, _) = eng.state.store.add(wme.clone());
                    if got != *id {
                        return Err(fail(format!("store assigned {got:?}, log recorded {id:?}")));
                    }
                }
                SnapOp::RemoveWme { id } => {
                    let removed = eng.state.store.remove(*id);
                    removed.ok_or_else(|| fail(format!("remove of dead/unknown {id:?}")))?;
                }
                SnapOp::RunChanges { changes } => {
                    matched.resize(eng.state.store.total_count(), None);
                    for &(id, delta) in changes {
                        let m = matched.get_mut(id.0 as usize);
                        let m = m.ok_or_else(|| fail(format!("{id:?} was never assigned")))?;
                        *m = match (*m, delta) {
                            (None, 1) => Some(true),
                            (Some(true), -1) => Some(false),
                            _ => return Err(fail(format!("{id:?} changed {delta:+} out of turn"))),
                        };
                    }
                    eng.run_cycle(changes.clone(), Phase::Match);
                }
                SnapOp::AddProd { prod, org } => {
                    eng.add_production(prod.clone(), org.clone())
                        .map_err(|e| fail(format!("chunk rebuild failed: {e}")))?;
                }
                SnapOp::Reorg { prod_idx, org } => {
                    if *prod_idx as usize >= eng.net.num_prods() {
                        return Err(fail(format!("no production {prod_idx} to reorganize")));
                    }
                    eng.reorganize_production(*prod_idx, org.clone())
                        .map_err(|e| fail(format!("reorganization failed: {e}")))?;
                }
            }
        }
        Ok(eng)
    }
}

/// Structural digest of a session engine's complete observable match state:
/// every id's liveness and retirement, the content and tag of every wme not
/// retired, every node's left/right token
/// memory, the overlay's shape and splices, and the current instantiations.
/// Two engines with equal digests are bit-for-bit interchangeable for
/// everything downstream code reads — this is what the snapshot round-trip
/// property pins.
pub fn session_digest(eng: &SerialEngine<SessionNet>) -> u64 {
    let mut w = ByteWriter::new();
    let store = &eng.state.store;
    w.put(&[store.total_count(), store.live_count()]);
    for id in (0..store.total_count() as u32).map(WmeId) {
        let retired = store.is_retired(id);
        w.put(&[store.is_alive(id), retired]);
        if !retired {
            w.put(&**store.get(id));
            w.put(&store.tag(id));
        }
    }
    let net = &eng.net;
    w.put(&[
        net.num_nodes(),
        net.num_prods(),
        net.overlay_nodes(),
        net.overlay_prods(),
        net.splice_edges(),
    ]);
    for id in 0..net.num_nodes() as u32 {
        for &(child, side) in net.node(id).out_edges.iter().chain(net.extra_out_edges(id)) {
            w.put(&(child, side as u8));
        }
        for sym in net.prod_names_of(id) {
            w.put(sym);
        }
        for side in [Side::Left, Side::Right] {
            let mut toks = eng.state.mem.tokens_of(id, side);
            toks.sort_by(|a, b| (a.0.wmes(), a.1).cmp(&(b.0.wmes(), b.1)));
            w.put_seq(toks.iter().map(|(t, weight)| (t.wmes(), *weight)));
        }
    }
    for p in 0..net.num_prods() as u32 {
        w.put(&net.prod_info(p).production.name);
    }
    w.put(&eng.current_instantiations());
    fnv1a64(&w.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ReteBuild;
    use crate::network::ReteNetwork;
    use crate::session::JournaledSession;
    use psme_ops::parse_wme;

    fn topo(reg: &mut ClassRegistry) -> Arc<Topology> {
        reg.declare_str("a", &["x", "y"]);
        reg.declare_str("b", &["x", "y"]);
        let mut net = ReteNetwork::new();
        let p = parse_production("(p base (a ^x <v>) (b ^x <v>) --> (halt))", reg).unwrap();
        net.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
        Topology::freeze(net)
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.put(&7u8);
        w.put(&true);
        w.put(&0xdead_beef_u32);
        w.put(&u64::MAX);
        w.put(&-42i64);
        w.put(&3.25f64);
        w.put("hé");
        w.put(&Value::Int(-9));
        w.put(&Value::Nil);
        let buf = w.into_inner();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get::<u8>().unwrap(), 7);
        assert!(r.get::<bool>().unwrap());
        assert_eq!(r.get::<u32>().unwrap(), 0xdead_beef);
        assert_eq!(r.get::<u64>().unwrap(), u64::MAX);
        assert_eq!(r.get::<i64>().unwrap(), -42);
        assert_eq!(r.get::<f64>().unwrap(), 3.25);
        assert_eq!(r.str().unwrap(), "hé");
        assert_eq!(r.get::<Value>().unwrap(), Value::Int(-9));
        assert_eq!(r.get::<Value>().unwrap(), Value::Nil);
        r.expect_done().unwrap();
        assert_eq!(r.get::<u8>(), Err(SnapshotError::Truncated));
    }

    #[test]
    fn frame_rejects_tampering_with_typed_errors() {
        let good = seal_frame(JOURNAL_MAGIC, JOURNAL_VERSION, b"payload".to_vec());
        assert!(open_frame(&good, JOURNAL_MAGIC, JOURNAL_VERSION).is_ok());
        // Wrong magic.
        let mut b = good.clone();
        b[0] ^= 0xff;
        assert_eq!(open_frame(&b, JOURNAL_MAGIC, JOURNAL_VERSION), Err(SnapshotError::BadMagic));
        // Future version.
        let b = seal_frame(JOURNAL_MAGIC, JOURNAL_VERSION + 9, b"payload".to_vec());
        assert_eq!(
            open_frame(&b, JOURNAL_MAGIC, JOURNAL_VERSION),
            Err(SnapshotError::UnsupportedVersion(JOURNAL_VERSION + 9))
        );
        // Truncation at every prefix length.
        for cut in 0..good.len() {
            assert!(open_frame(&good[..cut], JOURNAL_MAGIC, JOURNAL_VERSION).is_err());
        }
        // Payload flip.
        let mut b = good.clone();
        b[18] ^= 0x01;
        assert_eq!(
            open_frame(&b, JOURNAL_MAGIC, JOURNAL_VERSION),
            Err(SnapshotError::ChecksumMismatch)
        );
        // Trailing garbage.
        let mut b = good.clone();
        b.push(0);
        assert!(matches!(
            open_frame(&b, JOURNAL_MAGIC, JOURNAL_VERSION),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn journal_round_trips_and_replays() {
        let mut reg = ClassRegistry::new();
        let topo = topo(&mut reg);
        let mut live = JournaledSession::fresh(topo.clone(), true);
        let w1 = parse_wme("(a ^x 1 ^y 2)", &reg).unwrap();
        let w2 = parse_wme("(b ^x 1)", &reg).unwrap();
        let (id1, _) = live.add_wme(w1);
        let (id2, _) = live.add_wme(w2);
        live.run_changes(vec![(id1, 1), (id2, 1)]);
        let chunk =
            parse_production("(p chunk*1 (a ^x <v>) (b ^x <v>) (a ^y <w>) --> (halt))", &mut reg)
                .unwrap();
        live.add_production(Arc::new(chunk), NetworkOrg::Linear).unwrap();
        live.remove_wme(id2);
        live.run_changes(vec![(id2, -1)]);

        let bytes = live.journal().unwrap().encode(&reg);
        let decoded = Journal::decode(&bytes, &mut reg).unwrap();
        let resumed = JournaledSession::resume(topo, decoded).unwrap();
        assert_eq!(session_digest(&live.eng), session_digest(&resumed.eng));
        // And the resumed session re-encodes to the identical bytes.
        assert_eq!(resumed.journal().unwrap().encode(&reg), bytes);
    }

    #[test]
    fn journaled_reorg_round_trips_and_replays() {
        let mut reg = ClassRegistry::new();
        reg.declare_str("anchor", &["id"]);
        reg.declare_str("item", &["grp", "anchor", "val"]);
        let mut net = ReteNetwork::new();
        let p = parse_production(
            "(p cross (anchor ^id <a>)
                      (item ^grp 1 ^anchor <a> ^val <v1>)
                      (item ^grp 2 ^anchor <a> ^val <v2>)
                      (item ^grp 3 ^anchor <a> ^val <v3>)
               --> (halt))",
            &mut reg,
        )
        .unwrap();
        let groups = crate::bilinear::plan_bilinear(&p, 1);
        net.add_production(Arc::new(p), NetworkOrg::Linear).unwrap();
        let topo = Topology::freeze(net);
        let mut live = JournaledSession::fresh(topo.clone(), true);
        let mut changes = Vec::new();
        for g in 1..=3 {
            for v in 0..4 {
                let (id, _) =
                    live.add_wme(parse_wme(&format!("(item ^grp {g} ^anchor a ^val {v})"), &reg).unwrap());
                changes.push((id, 1));
            }
        }
        let (id, _) = live.add_wme(parse_wme("(anchor ^id a)", &reg).unwrap());
        changes.push((id, 1));
        live.run_changes(changes);
        let groups = groups.expect("cross production splits");
        live.reorganize_production(0, NetworkOrg::Bilinear(groups)).unwrap();
        // Keep matching after the rebuild so replay exercises the rebuilt net.
        let (id, _) = live.add_wme(parse_wme("(item ^grp 1 ^anchor a ^val 9)", &reg).unwrap());
        live.run_changes(vec![(id, 1)]);

        let bytes = live.journal().unwrap().encode(&reg);
        let decoded = Journal::decode(&bytes, &mut reg).unwrap();
        let resumed = JournaledSession::resume(topo, decoded).unwrap();
        assert_eq!(session_digest(&live.eng), session_digest(&resumed.eng));
        assert_eq!(resumed.journal().unwrap().encode(&reg), bytes);
    }

    #[test]
    fn replay_against_wrong_history_is_a_typed_error() {
        let mut reg = ClassRegistry::new();
        let topo = topo(&mut reg);
        let j = Journal {
            ops: vec![SnapOp::AddWme {
                wme: parse_wme("(a ^x 1)", &reg).unwrap(),
                id: WmeId(5), // a fresh store assigns 0
            }],
        };
        assert!(matches!(j.replay(topo.clone()), Err(SnapshotError::Replay(_))));
        let j = Journal { ops: vec![SnapOp::RemoveWme { id: WmeId(0) }] };
        assert!(matches!(j.replay(topo), Err(SnapshotError::Replay(_))));
    }
}
