//! Deterministic snapshot/restore of simulation state.
//!
//! Every stateful component of the stack can encode itself as a
//! self-describing JSON document and be rebuilt from one, bit-identically:
//! the invariant the campaign service rests on is *resume ==
//! uninterrupted, byte-for-byte on the final report* (ARCHITECTURE.md §5).
//!
//! Three traits split the work:
//!
//! * [`Snapshot`] — encode state, once per type, into any
//!   [`JsonSink`]: straight to text ([`Snapshot::write_json`], what a
//!   checkpoint is written with) or to a [`JsonValue`]
//!   ([`Snapshot::snapshot`], for tests, restore and tools) — the same
//!   calls, so the two forms cannot disagree;
//! * [`FromSnapshot`] — value types that can be constructed straight from
//!   a snapshot (flits, packets, VC state fields, …);
//! * [`Restore`] — stateful components that are first rebuilt from their
//!   configuration and then have snapshot state written *into* them
//!   (routers, networks, traffic generators) — restoring in place lets
//!   the component keep everything that is a pure function of its config
//!   (wiring tables, scratch buffers, thread pools) out of the snapshot.
//!
//! The traits live here (rather than `noc-types`) because [`JsonValue`]
//! does, and the crates below telemetry in the dependency order
//! (`noc-types`, `noc-faults`) get their implementations in this module —
//! a local trait may be implemented for foreign types.
//!
//! ## Encoding conventions
//!
//! * `u64` values that may exceed 2^53 (seeds, RNG state words) are
//!   encoded as `"0x…"` hex strings — [`JsonValue::Num`] is an `f64` and
//!   would silently round them. Cycle counts and event counters stay
//!   numeric: they are bounded by simulated time and stay far below 2^53.
//! * Enums encode as lowercase tag strings; fault sites reuse their
//!   canonical `Display`/`FromStr` codec from `noc-faults`.
//! * Object key order is fixed by the encoder and both sinks keep it, so
//!   equal state renders to equal bytes.

use crate::json::{JsonSink, JsonValue, JsonWriter, TreeBuilder};
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

    /// Wrap the error with the name of the enclosing field/component.
    pub fn within(mut self, context: &str) -> Self {
        self.message = format!("{context}: {}", self.message);
        self
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

/// A document is its own snapshot.
impl Snapshot for JsonValue {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        JsonValue::encode(self, sink);
    }
}

/// Value types constructible directly from a snapshot.
pub trait FromSnapshot: Sized {
    /// Rebuild the value. Fails on missing fields or malformed encodings.
    fn from_snapshot(v: &JsonValue) -> Result<Self, SnapshotError>;
}

/// Stateful components that restore snapshot state *into* themselves.
///
/// The receiver must have been freshly built from the same configuration
/// the snapshot was taken under; `restore` overwrites all dynamic state
/// and validates structural agreement (port/VC counts, buffer depths)
/// where cheap.
pub trait Restore {
    /// Overwrite this component's dynamic state from the snapshot.
    fn restore(&mut self, v: &JsonValue) -> Result<(), SnapshotError>;
}

// ---------------------------------------------------------------------
// Decoding helpers
// ---------------------------------------------------------------------

/// Look up a required object field.
pub fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, SnapshotError> {
    v.get(key)
        .ok_or_else(|| SnapshotError::new(format!("missing field `{key}`")))
}

/// A required `u64` field.
pub fn u64_field(v: &JsonValue, key: &str) -> Result<u64, SnapshotError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| SnapshotError::new(format!("field `{key}` is not a u64")))
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

/// A required unsigned field that must fit `T` (see [`narrow`]).
pub fn uint_field<T: TryFrom<u64>>(v: &JsonValue, key: &str) -> Result<T, SnapshotError> {
    narrow(u64_field(v, key)?, &format!("field `{key}`"))
}

/// A required `f64` field.
pub fn f64_field(v: &JsonValue, key: &str) -> Result<f64, SnapshotError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| SnapshotError::new(format!("field `{key}` is not a number")))
}

/// A required boolean field.
pub fn bool_field(v: &JsonValue, key: &str) -> Result<bool, SnapshotError> {
    match field(v, key)? {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(SnapshotError::new(format!("field `{key}` is not a bool"))),
    }
}

/// A required string field.
pub fn str_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, SnapshotError> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| SnapshotError::new(format!("field `{key}` is not a string")))
}

/// A required array field.
pub fn arr_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], SnapshotError> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| SnapshotError::new(format!("field `{key}` is not an array")))
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

/// Decode a `"0x…"` string produced by [`encode_hex`].
pub fn parse_hex(v: &JsonValue) -> Result<u64, SnapshotError> {
    let s = v
        .as_str()
        .ok_or_else(|| SnapshotError::new("hex value is not a string"))?;
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| SnapshotError::new(format!("`{s}` lacks the 0x prefix")))?;
    u64::from_str_radix(digits, 16)
        .map_err(|e| SnapshotError::new(format!("`{s}` is not valid hex: {e}")))
}

/// Decode a required field of any [`FromSnapshot`] type.
pub fn decode_field<T: FromSnapshot>(v: &JsonValue, key: &str) -> Result<T, SnapshotError> {
    T::from_snapshot(field(v, key)?).map_err(|e| e.within(key))
}

// ---------------------------------------------------------------------
// Blanket impls for containers
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
    fn from_snapshot(v: &JsonValue) -> Result<Self, SnapshotError> {
        let arr = v
            .as_array()
            .ok_or_else(|| SnapshotError::new("expected an array"))?;
        arr.iter()
            .enumerate()
            .map(|(i, e)| T::from_snapshot(e).map_err(|err| err.within(&format!("[{i}]"))))
            .collect()
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
    fn from_snapshot(v: &JsonValue) -> Result<Self, SnapshotError> {
        match v {
            JsonValue::Null => Ok(None),
            other => T::from_snapshot(other).map(Some),
        }
    }
}

// ---------------------------------------------------------------------
// Leaf types from noc-types
// ---------------------------------------------------------------------

macro_rules! numeric_id {
    ($ty:ty, $inner:ty) => {
        impl Snapshot for $ty {
            fn encode<S: JsonSink>(&self, sink: &mut S) {
                sink.u64(self.0 as u64);
            }
        }
        impl FromSnapshot for $ty {
            fn from_snapshot(v: &JsonValue) -> Result<Self, SnapshotError> {
                let x = v.as_u64().ok_or_else(|| {
                    SnapshotError::new(concat!(stringify!($ty), " must be a number"))
                })?;
                narrow::<$inner>(x, stringify!($ty)).map(Self)
            }
        }
    };
}

numeric_id!(PortId, u8);
numeric_id!(VcId, u8);
numeric_id!(PacketId, u64);
numeric_id!(FlitSeq, u8);

impl Snapshot for Coord {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        // Compact pair form: coordinates appear in every buffered flit.
        sink.arr([self.x, self.y], |sink, c| sink.u64(u64::from(c)));
    }
}

impl FromSnapshot for Coord {
    fn from_snapshot(v: &JsonValue) -> Result<Self, SnapshotError> {
        let arr = v
            .as_array()
            .filter(|a| a.len() == 2)
            .ok_or_else(|| SnapshotError::new("Coord must be a [x, y] pair"))?;
        let x = arr[0]
            .as_u64()
            .ok_or_else(|| SnapshotError::new("Coord.x must be a number"))?;
        let y = arr[1]
            .as_u64()
            .ok_or_else(|| SnapshotError::new("Coord.y must be a number"))?;
        Ok(Coord::new(narrow(x, "Coord.x")?, narrow(y, "Coord.y")?))
    }
}

impl Snapshot for FlitKind {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.str(match self {
            FlitKind::Head => "head",
            FlitKind::Body => "body",
            FlitKind::Tail => "tail",
            FlitKind::Single => "single",
        });
    }
}

impl FromSnapshot for FlitKind {
    fn from_snapshot(v: &JsonValue) -> Result<Self, SnapshotError> {
        match v.as_str() {
            Some("head") => Ok(FlitKind::Head),
            Some("body") => Ok(FlitKind::Body),
            Some("tail") => Ok(FlitKind::Tail),
            Some("single") => Ok(FlitKind::Single),
            other => Err(SnapshotError::new(format!("unknown flit kind {other:?}"))),
        }
    }
}

impl Snapshot for PacketKind {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.str(match self {
            PacketKind::Control => "control",
            PacketKind::Data => "data",
        });
    }
}

impl FromSnapshot for PacketKind {
    fn from_snapshot(v: &JsonValue) -> Result<Self, SnapshotError> {
        match v.as_str() {
            Some("control") => Ok(PacketKind::Control),
            Some("data") => Ok(PacketKind::Data),
            other => Err(SnapshotError::new(format!("unknown packet kind {other:?}"))),
        }
    }
}

impl Snapshot for Flit {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.obj(|sink| {
            self.packet.encode(sink.field("packet"));
            self.seq.encode(sink.field("seq"));
            self.kind.encode(sink.field("kind"));
            self.src.encode(sink.field("src"));
            self.dst.encode(sink.field("dst"));
            sink.field("created_at").u64(self.created_at);
            sink.field("injected_at").u64(self.injected_at);
            // Flits carry no payload; the key stays so documents keep
            // their bytes.
            sink.field("payload").str("");
            sink.field("hops").u64(u64::from(self.hops));
        });
    }
}

impl FromSnapshot for Flit {
    fn from_snapshot(v: &JsonValue) -> Result<Self, SnapshotError> {
        if !str_field(v, "payload")?.is_empty() {
            return Err(SnapshotError::new("payload: flits carry no payload"));
        }
        let mut flit = Flit::new(
            decode_field(v, "packet")?,
            decode_field(v, "seq")?,
            decode_field(v, "kind")?,
            decode_field(v, "src")?,
            decode_field(v, "dst")?,
            u64_field(v, "created_at")?,
        );
        flit.injected_at = u64_field(v, "injected_at")?;
        flit.hops = uint_field(v, "hops")?;
        Ok(flit)
    }
}

impl Snapshot for Packet {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.obj(|sink| {
            self.id.encode(sink.field("id"));
            self.kind.encode(sink.field("kind"));
            self.src.encode(sink.field("src"));
            self.dst.encode(sink.field("dst"));
            sink.field("created_at").u64(self.created_at);
        });
    }
}

impl FromSnapshot for Packet {
    fn from_snapshot(v: &JsonValue) -> Result<Self, SnapshotError> {
        Ok(Packet::new(
            decode_field(v, "id")?,
            decode_field(v, "kind")?,
            decode_field(v, "src")?,
            decode_field(v, "dst")?,
            u64_field(v, "created_at")?,
        ))
    }
}

impl Snapshot for DeliveredPacket {
    /// Also a line of the delivery stream.
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.obj(|sink| {
            self.id.encode(sink.field("id"));
            self.kind.encode(sink.field("kind"));
            self.src.encode(sink.field("src"));
            self.dst.encode(sink.field("dst"));
            sink.field("created_at").u64(self.created_at);
            sink.field("injected_at").u64(self.injected_at);
            sink.field("ejected_at").u64(self.ejected_at);
            sink.field("hops").u64(u64::from(self.hops));
        });
    }
}

impl FromSnapshot for DeliveredPacket {
    fn from_snapshot(v: &JsonValue) -> Result<Self, SnapshotError> {
        Ok(DeliveredPacket {
            id: decode_field(v, "id")?,
            kind: decode_field(v, "kind")?,
            src: decode_field(v, "src")?,
            dst: decode_field(v, "dst")?,
            created_at: u64_field(v, "created_at")?,
            injected_at: u64_field(v, "injected_at")?,
            ejected_at: u64_field(v, "ejected_at")?,
            hops: uint_field(v, "hops")?,
        })
    }
}

impl Snapshot for VcGlobalState {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.str(match self {
            VcGlobalState::Idle => "idle",
            VcGlobalState::Routing => "routing",
            VcGlobalState::VcAlloc => "vc_alloc",
            VcGlobalState::Active => "active",
        });
    }
}

impl FromSnapshot for VcGlobalState {
    fn from_snapshot(v: &JsonValue) -> Result<Self, SnapshotError> {
        match v.as_str() {
            Some("idle") => Ok(VcGlobalState::Idle),
            Some("routing") => Ok(VcGlobalState::Routing),
            Some("vc_alloc") => Ok(VcGlobalState::VcAlloc),
            Some("active") => Ok(VcGlobalState::Active),
            other => Err(SnapshotError::new(format!(
                "unknown VC global state {other:?}"
            ))),
        }
    }
}

impl Snapshot for VcStateFields {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.obj(|sink| {
            self.g.encode(sink.field("g"));
            self.r.encode(sink.field("r"));
            self.o.encode(sink.field("o"));
            self.r2.encode(sink.field("r2"));
            sink.field("vf").bool(self.vf);
            self.id.encode(sink.field("id"));
            self.sp.encode(sink.field("sp"));
            sink.field("fsp").bool(self.fsp);
            sink.field("vmask").u64(u64::from(self.vmask));
        });
    }
}

impl FromSnapshot for VcStateFields {
    fn from_snapshot(v: &JsonValue) -> Result<Self, SnapshotError> {
        Ok(VcStateFields {
            g: decode_field(v, "g")?,
            r: decode_field(v, "r")?,
            o: decode_field(v, "o")?,
            r2: decode_field(v, "r2")?,
            vf: bool_field(v, "vf")?,
            id: decode_field(v, "id")?,
            sp: decode_field(v, "sp")?,
            fsp: bool_field(v, "fsp")?,
            vmask: uint_field(v, "vmask")?,
        })
    }
}

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
    fn from_snapshot(v: &JsonValue) -> Result<Self, SnapshotError> {
        let s = v
            .as_str()
            .ok_or_else(|| SnapshotError::new("fault site must be a string"))?;
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
    fn from_snapshot(v: &JsonValue) -> Result<Self, SnapshotError> {
        let s = v
            .as_str()
            .ok_or_else(|| SnapshotError::new("detection model must be a string"))?;
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
    use crate::json::obj;

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
        for x in [0u64, 1, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            let hex = TreeBuilder::build(|tree| encode_hex(tree, x));
            assert_eq!(hex.as_str(), Some(format!("{x:#018x}").as_str()));
            assert_eq!(parse_hex(&hex).unwrap(), x);
        }
        assert!(parse_hex(&JsonValue::Str("1234".into())).is_err());
        assert!(parse_hex(&JsonValue::Num(3.0)).is_err());
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
        let v = obj([("a", JsonValue::Null)]);
        let err = u64_field(&v, "b").unwrap_err();
        assert!(err.message.contains("`b`"));
        let err = decode_field::<Coord>(&v, "a").unwrap_err();
        assert!(err.message.contains("a:"), "{}", err.message);
    }
}
