//! Deterministic snapshot/restore of simulation state.
//!
//! Every stateful component of the stack can encode itself as a
//! self-describing JSON document and be rebuilt from one, bit-identically:
//! the invariant the campaign service rests on is *resume ==
//! uninterrupted, byte-for-byte on the final report* (ARCHITECTURE.md §5).
//!
//! Three traits split the work, and all three work on the text:
//!
//! * [`Snapshot`] — encode state, once per type, into any
//!   [`JsonSink`]: straight to text ([`Snapshot::write_json`], what a
//!   checkpoint is written with) or to a [`JsonValue`]
//!   ([`Snapshot::snapshot`], for tests and tools) — the same calls, so
//!   the two forms cannot disagree;
//! * [`FromSnapshot`] — value types decoded from a [`JsonReader`] over
//!   the text (flits, packets, VC state fields, …);
//! * [`Restore`] — stateful components that are first rebuilt from their
//!   configuration and then read snapshot state *into* themselves from a
//!   [`JsonReader`] (routers, networks, traffic generators) — restoring
//!   in place lets the component keep everything that is a pure function
//!   of its config (wiring tables, scratch buffers, thread pools) out of
//!   the snapshot.
//!
//! Decoders read the text in the encoder's key order, through the
//! reader's combinators ([`JsonReader::field`], [`JsonReader::obj`],
//! [`JsonReader::arr_of`], …), which name the path of a failure as they
//! go (`routers[3]: ports[1]: vcs[2]: …`). Every document on disk is
//! encoder output; a key out of place is an error naming the key
//! expected and the key found. The tree forms
//! ([`FromSnapshot::from_snapshot`], [`Restore::restore`]) render the
//! tree and read the text, for tests and tools.
//!
//! A *record* — a type whose encoding is one object of its fields, in
//! order — names each field once, in a [`crate::record!`] list that
//! both its encoder and its decoder are generated from.
//!
//! The traits live here (rather than `noc-types`) because the JSON
//! model does, and the crates below telemetry in the dependency order
//! (`noc-types`, `noc-faults`) get their implementations in this module —
//! a local trait may be implemented for foreign types.
//!
//! ## Encoding conventions
//!
//! * `u64` values that may exceed 2^53 (seeds, RNG state words) are
//!   encoded as `"0x…"` hex strings — [`JsonValue::Num`] is an `f64` and
//!   would silently round them. Cycle counts and event counters stay
//!   numeric: they are bounded by simulated time and stay far below 2^53.
//!   An integer field reads only a run of digits that fits its type.
//! * Enums encode as lowercase tag strings; fault sites reuse their
//!   canonical `Display`/`FromStr` codec from `noc-faults`.
//! * Object key order is fixed by the encoder and both sinks keep it, so
//!   equal state renders to equal bytes.

use crate::json::{JsonError, JsonReader, JsonSink, JsonValue, JsonWriter, TreeBuilder};
use noc_faults::{DetectionModel, FaultSite};
use noc_types::{
    Coord, DeliveredPacket, Flit, FlitKind, FlitSeq, Packet, PacketId, PacketKind, PortId,
    VcGlobalState, VcId, VcStateFields,
};

/// Version stamp carried by every top-level snapshot document
/// (`Network::snapshot`, checkpoint envelopes, the committed golden
/// artefact). Bump on any incompatible change to the layout produced by
/// the [`Snapshot`] implementations; restore refuses mismatched
/// versions rather than guessing.
/// Version history:
///
/// * **1** — initial format; checkpoint envelopes embedded the full
///   delivery log in `network.deliveries`.
/// * **2** — the delivery log moved out of snapshots into the
///   append-only delivery stream; checkpoint envelopes carry a
///   `delivery_offset` instead, making their size O(live state).
/// * **3** — the spatial metrics plane: router snapshots carry the
///   `occ_integral` / `va_stalls` / `sa_stalls` counters, epoch samples
///   carry `active_routers` / `load_imbalance`, and checkpoint
///   envelopes gain a `progress` section (the per-router counter grid,
///   informational — restore re-derives it from the routers).
/// * **4** — the heterogeneous link model: network snapshots carry the
///   per-router `link_free` serialisation-pacing state, the `wires`
///   wheel records its actual (possibly pacing-grown) horizon instead
///   of a fixed `link_latency + 1` slots, config fingerprints cover the
///   chiplet topologies (`chipletmesh` / `chipletstar` with their d2d
///   and hub link classes), and spatial grids may carry a `chiplet_k`
///   with chiplet-major `cx,cy:x,y` cell keys.
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 4;

/// Error produced when a snapshot document cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// Human-readable description, innermost context first.
    pub message: String,
}

impl SnapshotError {
    /// Construct an error from a message.
    pub fn new(message: impl Into<String>) -> Self {
        SnapshotError {
            message: message.into(),
        }
    }

    /// Wrap the error with the name of the enclosing field/component;
    /// an index (`[3]: …`) joins the name of its array (`routers[3]: …`).
    pub fn within(mut self, context: &str) -> Self {
        let sep = if self.message.starts_with('[') {
            ""
        } else {
            ": "
        };
        self.message = format!("{context}{sep}{}", self.message);
        self
    }
}

impl From<JsonError> for SnapshotError {
    fn from(e: JsonError) -> Self {
        SnapshotError::new(e.to_string())
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot error: {}", self.message)
    }
}

impl std::error::Error for SnapshotError {}

/// Encode state as a self-describing JSON document.
pub trait Snapshot {
    /// Send the component's complete resumable state to `sink`: the
    /// type's one encoding, behind both forms below.
    fn encode<S: JsonSink>(&self, sink: &mut S);

    /// The state as a tree.
    fn snapshot(&self) -> JsonValue {
        TreeBuilder::build(|tree| self.encode(tree))
    }

    /// The state as compact text appended to `out`: the bytes of
    /// `self.snapshot().render()`, with no tree between.
    fn write_json(&self, out: &mut String) {
        self.encode(&mut JsonWriter::new(out));
    }
}

/// Value types decoded straight from a snapshot's text.
pub trait FromSnapshot: Sized {
    /// Read the value at `r`, in the encoder's key order. Fails on a
    /// malformed, misordered or out-of-range encoding.
    fn decode(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError>;

    /// [`FromSnapshot::decode`] as the value of member `key`, which an
    /// error names.
    fn decode_member(r: &mut JsonReader<'_>, key: &str) -> Result<Self, SnapshotError> {
        Self::decode(r).map_err(|e| e.within(key))
    }

    /// Decode a whole document.
    fn from_text(text: &str) -> Result<Self, SnapshotError> {
        let mut r = JsonReader::new(text);
        let v = Self::decode(&mut r)?;
        r.end()?;
        Ok(v)
    }

    /// The tree form: [`FromSnapshot::from_text`] of its rendering.
    fn from_snapshot(v: &JsonValue) -> Result<Self, SnapshotError> {
        Self::from_text(&v.render())
    }
}

/// Stateful components that restore snapshot state *into* themselves.
///
/// The receiver must have been freshly built from the same configuration
/// the snapshot was taken under; a restore overwrites all dynamic state
/// and validates structural agreement (port/VC counts, buffer depths,
/// indices) where cheap.
pub trait Restore {
    /// Overwrite this component's dynamic state from the snapshot at `r`.
    fn restore_from(&mut self, r: &mut JsonReader<'_>) -> Result<(), SnapshotError>;

    /// Restore from a whole document.
    fn restore_text(&mut self, text: &str) -> Result<(), SnapshotError> {
        let mut r = JsonReader::new(text);
        self.restore_from(&mut r)?;
        Ok(r.end()?)
    }

    /// The tree form: [`Restore::restore_text`] of its rendering.
    fn restore(&mut self, v: &JsonValue) -> Result<(), SnapshotError> {
        self.restore_text(&v.render())
    }
}

// ---------------------------------------------------------------------
// Decoding combinators
// ---------------------------------------------------------------------

impl JsonReader<'_> {
    /// Read the key of the next member of the open object, which must be
    /// `key`.
    pub fn member(&mut self, key: &str) -> Result<&mut Self, SnapshotError> {
        match self.key()? {
            Some(k) if k == key => Ok(self),
            Some(k) => Err(SnapshotError::new(format!(
                "expected key `{key}`, found `{k}`"
            ))),
            None => Err(SnapshotError::new(format!(
                "expected key `{key}`, found the end of the object"
            ))),
        }
    }

    /// Member `key`, decoded.
    pub fn field<T: FromSnapshot>(&mut self, key: &str) -> Result<T, SnapshotError> {
        T::decode_member(self.member(key)?, key)
    }

    /// Member `key`, read by `read`; its errors name the key.
    pub fn field_with<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        read(self.member(key)?).map_err(|e| e.within(key))
    }

    /// An object whose members `members` reads; a member it leaves is
    /// an error.
    pub fn obj<T>(
        &mut self,
        members: impl FnOnce(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        self.begin_obj()?;
        let v = members(self)?;
        match self.key()? {
            None => Ok(v),
            Some(k) => Err(SnapshotError::new(format!("unexpected key `{k}`"))),
        }
    }

    /// An array, item `i` read by `item(reader, i)` with its errors
    /// named `[i]`; the number of items.
    pub fn arr(
        &mut self,
        mut item: impl FnMut(&mut Self, usize) -> Result<(), SnapshotError>,
    ) -> Result<usize, SnapshotError> {
        self.begin_arr()?;
        let mut n = 0;
        while self.next_item()? {
            item(self, n).map_err(|e| e.within(&format!("[{n}]")))?;
            n += 1;
        }
        Ok(n)
    }

    /// Nested arrays of exactly `dims` items a level — `[p, v]` is `p`
    /// arrays of `v` — each innermost item read by `item` with its
    /// row-major index. An array of another length is an error (items
    /// past the length are checked for syntax only).
    pub fn arr_of(
        &mut self,
        dims: &[usize],
        item: &mut dyn FnMut(&mut Self, usize) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        self.arr_from(dims, 0, item)
    }

    fn arr_from(
        &mut self,
        dims: &[usize],
        at: usize,
        item: &mut dyn FnMut(&mut Self, usize) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let [len, rest @ ..] = dims else {
            return item(self, at);
        };
        let n = self.arr(|r, i| match i < *len {
            true => r.arr_from(rest, at * len + i, item),
            false => Ok(r.skip().map(drop)?),
        })?;
        match n == *len {
            true => Ok(()),
            false => Err(SnapshotError::new(format!(
                "{n} entries where {len} belong"
            ))),
        }
    }

    /// Member `key`, read by [`JsonReader::arr_of`].
    pub fn field_arr_of(
        &mut self,
        key: &str,
        dims: &[usize],
        item: &mut dyn FnMut(&mut Self, usize) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        self.field_with(key, |r| r.arr_of(dims, item))
    }

    /// [`JsonReader::field_arr_of`], each item decoded into `slots`.
    pub fn fill<T: FromSnapshot>(
        &mut self,
        key: &str,
        dims: &[usize],
        slots: &mut [T],
    ) -> Result<(), SnapshotError> {
        self.field_arr_of(key, dims, &mut |r, i| {
            slots[i] = T::decode(r)?;
            Ok(())
        })
    }
}

/// Narrow a decoded number to `T`. A value that does not fit is an
/// error naming `what`, so a corrupt document cannot wrap (port 300
/// restoring as port 44).
pub fn narrow<T: TryFrom<u64>>(x: u64, what: &str) -> Result<T, SnapshotError> {
    T::try_from(x).map_err(|_| {
        SnapshotError::new(format!(
            "{what} {x} does not fit a {}",
            std::any::type_name::<T>()
        ))
    })
}

/// Narrow `x`, which must be below `bound`, to `T`: an index, pointer or
/// count the stepper uses unchecked. An error names `what` otherwise.
pub fn below<T: TryFrom<u64>>(x: u64, bound: usize, what: &str) -> Result<T, SnapshotError> {
    match x < bound as u64 {
        true => narrow(x, what),
        false => Err(SnapshotError::new(format!(
            "{what} {x} is not below {bound}"
        ))),
    }
}

/// Encode a full-width `u64` (seed, RNG word) losslessly as `"0x…"`:
/// `0x` and sixteen lowercase digits, formatted on the stack.
pub fn encode_hex<S: JsonSink>(sink: &mut S, x: u64) {
    let mut text = *b"0x0000000000000000";
    for (i, digit) in text[2..].iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(x >> (60 - 4 * i)) as usize & 0xf];
    }
    sink.str(std::str::from_utf8(&text).expect("ASCII digits"));
}

/// Decode a `"0x…"` string written by [`encode_hex`].
pub fn decode_hex(r: &mut JsonReader<'_>) -> Result<u64, SnapshotError> {
    let s = r.str()?;
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| SnapshotError::new(format!("`{s}` lacks the 0x prefix")))?;
    u64::from_str_radix(digits, 16)
        .map_err(|e| SnapshotError::new(format!("`{s}` is not valid hex: {e}")))
}

/// Implement [`Snapshot`] and [`FromSnapshot`] for a *record* — a type
/// whose encoding is one object of its fields, in order — from its
/// field list, so each key is named once.
///
/// An entry is a field, keyed by its name, written with its type's
/// [`Snapshot`] and read with its type's [`FromSnapshot::decode_member`]
/// (which narrows integers to the field's width), or a derived member
/// `key: T = derive`: written as `derive(&record)`, and on decode
/// required to equal what the decoded record derives. Fields the
/// encoding leaves out are listed after `skip` and decode to their
/// `Default`. An enum is a record per variant behind a tag member:
/// `record!(Wire by "t" { "flit" => Flit { router, flit }, … })`.
#[macro_export]
macro_rules! record {
    ($ty:ident by $tag:literal {
        $($vtag:literal => $variant:ident { $($field:ident),* $(,)? }),* $(,)?
    }) => {
        impl $crate::snapshot::Snapshot for $ty {
            fn encode<S: $crate::json::JsonSink>(&self, sink: &mut S) {
                sink.obj(|sink| match self {
                    $($ty::$variant { $($field),* } => {
                        sink.field($tag).str($vtag);
                        $($crate::snapshot::Snapshot::encode($field, sink.field(stringify!($field)));)*
                    })*
                });
            }
        }
        impl $crate::snapshot::FromSnapshot for $ty {
            fn decode(
                r: &mut $crate::json::JsonReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                r.obj(|r| {
                    let tag = r.member($tag)?.str()?;
                    match &*tag {
                        $($vtag => Ok($ty::$variant { $($field: r.field(stringify!($field))?),* }),)*
                        other => Err($crate::snapshot::SnapshotError::new(format!(
                            "unknown `{}` tag `{other}`",
                            $tag
                        ))),
                    }
                })
            }
        }
    };
    ($ty:ident { $($key:ident $(: $dty:ty = $derive:expr)?),* $(,)? } $(skip { $($skipped:ident),* })?) => {
        impl $crate::snapshot::Snapshot for $ty {
            fn encode<S: $crate::json::JsonSink>(&self, sink: &mut S) {
                sink.obj(|sink| {
                    $($crate::record!(@encode self sink $key $(= $derive)?);)*
                });
            }
        }
        impl $crate::snapshot::FromSnapshot for $ty {
            fn decode(
                r: &mut $crate::json::JsonReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                r.obj(|r| {
                    $(let $key $(: $dty)? = r.field(stringify!($key))?;)*
                    let out = $crate::record!(@build $ty [$($($skipped)*)?] [] $($key $(: $dty = $derive)?,)*);
                    $($crate::record!(@check out $key $(= $derive)?);)*
                    Ok(out)
                })
            }
        }
    };
    (@encode $self:ident $sink:ident $key:ident) => {
        $crate::snapshot::Snapshot::encode(&$self.$key, $sink.field(stringify!($key)))
    };
    (@encode $self:ident $sink:ident $key:ident = $derive:expr) => {
        $crate::snapshot::Snapshot::encode(&($derive)($self), $sink.field(stringify!($key)))
    };
    (@check $out:ident $key:ident) => {};
    (@check $out:ident $key:ident = $derive:expr) => {
        let derived = ($derive)(&$out);
        if $key != derived {
            return Err($crate::snapshot::SnapshotError::new(format!(
                "{:?} is not the derived {:?}",
                $key, derived
            ))
            .within(stringify!($key)));
        }
    };
    (@build $ty:ident [$($skipped:ident)*] [$($done:ident)*]) => {
        $ty { $($done,)* $($skipped: Default::default(),)* }
    };
    (@build $ty:ident [$($skipped:ident)*] [$($done:ident)*]
        $key:ident : $dty:ty = $derive:expr, $($rest:tt)*) => {
        $crate::record!(@build $ty [$($skipped)*] [$($done)*] $($rest)*)
    };
    (@build $ty:ident [$($skipped:ident)*] [$($done:ident)*] $key:ident, $($rest:tt)*) => {
        $crate::record!(@build $ty [$($skipped)*] [$($done)* $key] $($rest)*)
    };
}

// ---------------------------------------------------------------------
// Containers and scalars
// ---------------------------------------------------------------------

impl<T: Snapshot + ?Sized> Snapshot for &T {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        (**self).encode(sink);
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.arr(self, |sink, x| x.encode(sink));
    }
}

impl<T: FromSnapshot> FromSnapshot for Vec<T> {
    fn decode(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        let mut out = Vec::new();
        r.arr(|r, _| {
            out.push(T::decode(r)?);
            Ok(())
        })?;
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        match self {
            None => sink.null(),
            Some(x) => x.encode(sink),
        }
    }
}

impl<T: FromSnapshot> FromSnapshot for Option<T> {
    fn decode(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_null()? {
            true => Ok(None),
            false => T::decode(r).map(Some),
        }
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Snapshot for $t {
            #[allow(clippy::unnecessary_cast)]
            fn encode<S: JsonSink>(&self, sink: &mut S) {
                sink.u64(*self as u64);
            }
        }
        /// A run of digits that fits; a field's error names its key.
        impl FromSnapshot for $t {
            fn decode(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
                narrow(r.u64()?, stringify!($t))
            }

            fn decode_member(r: &mut JsonReader<'_>, key: &str) -> Result<Self, SnapshotError> {
                let x = r.u64().map_err(|e| SnapshotError::from(e).within(key))?;
                narrow(x, &format!("field `{key}`"))
            }
        }
    )*};
}

unsigned!(u8, u16, u32, u64, usize);

/// Scalars a sink and the reader have one call for.
macro_rules! scalar {
    ($($t:ty: $write:ident / $read:ident),*) => {$(
        impl Snapshot for $t {
            fn encode<S: JsonSink>(&self, sink: &mut S) {
                sink.$write(*self);
            }
        }
        impl FromSnapshot for $t {
            fn decode(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
                Ok(r.$read()?)
            }
        }
    )*};
}

scalar!(bool: bool / bool, f64: num / num);

impl Snapshot for str {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.str(self);
    }
}

impl FromSnapshot for String {
    fn decode(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        Ok(r.str()?.into_owned())
    }
}

// ---------------------------------------------------------------------
// Leaf types from noc-types
// ---------------------------------------------------------------------

macro_rules! numeric_id {
    ($($ty:ident($inner:ty)),*) => {$(
        impl Snapshot for $ty {
            fn encode<S: JsonSink>(&self, sink: &mut S) {
                self.0.encode(sink);
            }
        }
        impl FromSnapshot for $ty {
            fn decode(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
                narrow::<$inner>(r.u64()?, stringify!($ty)).map(Self)
            }
        }
    )*};
}

numeric_id!(PortId(u8), VcId(u8), PacketId(u64), FlitSeq(u8));

impl Snapshot for Coord {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        // Compact pair form: coordinates appear in every buffered flit.
        sink.arr([self.x, self.y], |sink, c| c.encode(sink));
    }
}

impl FromSnapshot for Coord {
    fn decode(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        let mut xy = [0u8; 2];
        r.arr_of(&[2], &mut |r, i| {
            xy[i] = narrow(r.u64()?, "Coord")?;
            Ok(())
        })
        .map_err(|e| e.within("Coord"))?;
        Ok(Coord::new(xy[0], xy[1]))
    }
}

/// Codecs of enums written as lowercase tags, each tag named once.
macro_rules! tags {
    ($($ty:ident { $($variant:ident = $tag:literal),* $(,)? })*) => {$(
        impl Snapshot for $ty {
            fn encode<S: JsonSink>(&self, sink: &mut S) {
                sink.str(match self {
                    $($ty::$variant => $tag,)*
                });
            }
        }
        impl FromSnapshot for $ty {
            fn decode(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
                match &*r.str()? {
                    $($tag => Ok($ty::$variant),)*
                    other => Err(SnapshotError::new(format!(
                        concat!("unknown ", stringify!($ty), " `{}`"),
                        other
                    ))),
                }
            }
        }
    )*};
}

tags! {
    FlitKind { Head = "head", Body = "body", Tail = "tail", Single = "single" }
    PacketKind { Control = "control", Data = "data" }
    VcGlobalState { Idle = "idle", Routing = "routing", VcAlloc = "vc_alloc", Active = "active" }
}

record! {
    Flit {
        packet, seq, kind, src, dst, created_at, injected_at,
        // Flits carry no payload; the key stays so documents keep their
        // bytes.
        payload: String = |_: &Flit| "",
        hops,
    }
}

record! { Packet { id, kind, src, dst, created_at } }

// Also a line of the delivery stream.
record! { DeliveredPacket { id, kind, src, dst, created_at, injected_at, ejected_at, hops } }

record! { VcStateFields { g, r, o, r2, vf, id, sp, fsp, vmask } }

// ---------------------------------------------------------------------
// Leaf types from noc-faults
// ---------------------------------------------------------------------

impl Snapshot for FaultSite {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        // The canonical compact codec lives in noc-faults
        // (Display / FromStr round-trip, pinned by tests there).
        sink.str(&self.to_string());
    }
}

impl FromSnapshot for FaultSite {
    fn decode(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        let s = r.str()?;
        s.parse()
            .map_err(|e: String| SnapshotError::new(format!("fault site `{s}`: {e}")))
    }
}

impl Snapshot for DetectionModel {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        match self {
            DetectionModel::Ideal => sink.str("ideal"),
            DetectionModel::Delayed(n) => sink.str(&format!("delayed:{n}")),
        }
    }
}

impl FromSnapshot for DetectionModel {
    fn decode(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        let s = r.str()?;
        if s == "ideal" {
            return Ok(DetectionModel::Ideal);
        }
        if let Some(n) = s.strip_prefix("delayed:") {
            return n
                .parse::<u32>()
                .map(DetectionModel::Delayed)
                .map_err(|e| SnapshotError::new(format!("detection latency `{n}`: {e}")));
        }
        Err(SnapshotError::new(format!("unknown detection model `{s}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Snapshot + FromSnapshot + PartialEq + std::fmt::Debug>(x: T) {
        let v = x.snapshot();
        // The encoding must survive a render/parse cycle too.
        let reparsed = JsonValue::parse(&v.render()).expect("valid JSON");
        assert_eq!(T::from_snapshot(&reparsed).unwrap(), x);
        assert_eq!(v.render(), reparsed.render(), "canonical rendering");
    }

    #[test]
    fn leaf_round_trips() {
        round_trip(PortId(3));
        round_trip(VcId(2));
        round_trip(PacketId(123_456_789));
        round_trip(FlitSeq(4));
        round_trip(Coord::new(7, 2));
        round_trip(FlitKind::Single);
        round_trip(PacketKind::Data);
        round_trip(VcGlobalState::VcAlloc);
        round_trip(DetectionModel::Ideal);
        round_trip(DetectionModel::Delayed(8));
        round_trip(Some(PortId(1)));
        round_trip(None::<PortId>);
        round_trip(vec![VcId(0), VcId(3)]);
    }

    #[test]
    fn flit_round_trips_with_hops_and_rejects_a_payload() {
        let mut f = Flit::new(
            PacketId(9),
            FlitSeq(1),
            FlitKind::Body,
            Coord::new(0, 0),
            Coord::new(3, 5),
            10,
        );
        f.injected_at = 14;
        f.hops = 3;
        round_trip(f);
        let text = f
            .snapshot()
            .render()
            .replace(r#""payload":"""#, r#""payload":"01ff""#);
        let err = Flit::from_snapshot(&JsonValue::parse(&text).unwrap()).unwrap_err();
        assert!(err.to_string().contains("payload"), "{err}");
    }

    #[test]
    fn packet_and_delivery_round_trip() {
        round_trip(Packet::new(
            PacketId(5),
            PacketKind::Control,
            Coord::new(1, 1),
            Coord::new(2, 0),
            77,
        ));
        round_trip(DeliveredPacket {
            id: PacketId(5),
            kind: PacketKind::Data,
            src: Coord::new(0, 0),
            dst: Coord::new(7, 7),
            created_at: 1,
            injected_at: 2,
            ejected_at: 40,
            hops: 14,
        });
    }

    #[test]
    fn vc_state_fields_round_trip() {
        let f = VcStateFields {
            g: VcGlobalState::Active,
            r: Some(PortId(2)),
            o: Some(VcId(1)),
            r2: Some(PortId(4)),
            vf: true,
            sp: Some(PortId(3)),
            fsp: true,
            vmask: 0b1010,
            ..Default::default()
        };
        round_trip(f);
    }

    #[test]
    fn fault_sites_round_trip_via_canonical_codec() {
        for site in FaultSite::enumerate(&noc_types::RouterConfig::paper()) {
            round_trip(site);
        }
    }

    #[test]
    fn hex_codec_is_lossless_at_full_width() {
        let decode = |text: &str| decode_hex(&mut JsonReader::new(text));
        for x in [0u64, 1, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            let hex = TreeBuilder::build(|tree| encode_hex(tree, x));
            assert_eq!(hex.as_str(), Some(format!("{x:#018x}").as_str()));
            assert_eq!(decode(&hex.render()).unwrap(), x);
        }
        assert!(decode("\"1234\"").is_err());
        assert!(decode("3").is_err());
    }

    /// Decode `doc` with field `key` set to `value` and return the error.
    fn out_of_range<T: Snapshot + FromSnapshot + std::fmt::Debug>(
        doc: T,
        key: &str,
        value: u64,
    ) -> SnapshotError {
        let mut v = doc.snapshot();
        if let JsonValue::Obj(fields) = &mut v {
            fields.iter_mut().find(|(k, _)| k == key).unwrap().1 = value.into();
        }
        T::from_snapshot(&v).expect_err("an out-of-range number must not wrap")
    }

    #[test]
    fn out_of_range_numbers_are_errors_naming_the_field() {
        let fields = VcStateFields {
            g: VcGlobalState::VcAlloc,
            r: Some(PortId(1)),
            ..Default::default()
        };
        let err = out_of_range(fields, "r", 256);
        assert_eq!(err.message, "r: PortId 256 does not fit a u8");
        let err = out_of_range(fields, "o", 256);
        assert_eq!(err.message, "o: VcId 256 does not fit a u8");

        let flit = Flit::new(
            PacketId(9),
            FlitSeq(1),
            FlitKind::Body,
            Coord::new(0, 0),
            Coord::new(3, 5),
            10,
        );
        let err = out_of_range(flit, "seq", 256);
        assert_eq!(err.message, "seq: FlitSeq 256 does not fit a u8");
        let err = out_of_range(flit, "hops", 65_536);
        assert_eq!(err.message, "field `hops` 65536 does not fit a u16");
        // The largest values that fit still decode.
        let mut v = flit.snapshot();
        if let JsonValue::Obj(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                match k.as_str() {
                    "seq" => *val = 255u64.into(),
                    "hops" => *val = 65_535u64.into(),
                    _ => {}
                }
            }
        }
        let back = Flit::from_snapshot(&v).unwrap();
        assert_eq!((back.seq, back.hops), (FlitSeq(255), u16::MAX));
    }

    #[test]
    fn errors_carry_context() {
        let mut r = JsonReader::new(r#"{"a":null,"b":[[1,2],[3,300]]}"#);
        r.begin_obj().unwrap();
        let err = r.field::<u64>("b").unwrap_err();
        assert_eq!(err.message, "expected key `b`, found `a`");

        let mut r = JsonReader::new(r#"{"b":[[1,2],[3,300]]}"#);
        let err = r.obj(|r| r.field::<Vec<Coord>>("b")).unwrap_err();
        assert_eq!(err.message, "b[1]: Coord[1]: Coord 300 does not fit a u8");

        let mut r = JsonReader::new("[1,2,3]");
        let err = r
            .arr_of(&[2], &mut |r, _| {
                r.u64()?;
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err.message, "3 entries where 2 belong");
    }

    /// Integer fields read a digit run that fits, and nothing else.
    #[test]
    fn integers_must_be_digit_runs_that_fit() {
        let read = |text: &str| u64::from_text(text);
        assert_eq!(read("18446744073709551615"), Ok(u64::MAX));
        for bad in [
            "18446744073709551616",
            "1e20",
            "100.0",
            "-1",
            "\"7\"",
            "null",
        ] {
            assert!(read(bad).is_err(), "{bad}");
        }
        assert_eq!(u16::from_text("65535"), Ok(u16::MAX));
        assert!(u16::from_text("65536").is_err());
    }
}
