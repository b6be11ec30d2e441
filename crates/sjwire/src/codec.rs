//! Columnar payload sections: the binary codecs for hot row payloads.
//!
//! Three codecs, composed by `sjserve::wire` into full messages:
//!
//! - **String tables** ([`encode_str_rows`]) for rendered result rows
//!   (the cells of `QueryResult::rows` and `WindowEmission::rows`,
//!   tables of strings): either plain length-prefixed cells or a
//!   shared dict of distinct cell strings plus a `u32` code per cell,
//!   picked adaptively from a sample of the data. Either way the cells
//!   skip per-cell JSON escape/parse entirely.
//! - **Values** ([`encode_value`]): a tagged binary encoding of
//!   [`sjcore::Value`] that is *bit-exact* — float NaN payloads and
//!   ±∞ survive, which JSON cannot do (`serde_json` renders
//!   non-finite floats as `null`).
//! - **Partitions** ([`encode_partition`]): [`ColumnarPartition`]
//!   lanes shipped directly — lane tag, validity bitmap, then the
//!   typed array (`i64`s, `f64` bit patterns, dict-encoded strings,
//!   or tagged values for `Mixed`). Append batches ride this codec,
//!   so ingested rows never materialize as JSON at all.
//!
//! All integers little-endian. Every decoder is bounds-checked and
//! returns [`WireError::Decode`]/[`WireError::Truncated`] instead of
//! panicking: payloads arrive from the network.

use std::collections::HashMap;
use std::sync::Arc;

use sjcore::column::{Column, ColumnData, ColumnarPartition, Validity};
use sjcore::units::time::{TimeSpan, Timestamp};
use sjcore::{Row, Value};

use crate::frame::WireError;

/// Bounds-checked little-endian reader over a payload slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(self.u64()? as i64)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|e| WireError::Decode(format!("bad utf-8: {e}")))
    }

    /// Guard a count field against allocation bombs: each counted item
    /// must occupy at least `min_item_bytes` in what remains.
    fn check_count(&self, n: usize, min_item_bytes: usize) -> Result<(), WireError> {
        if n.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(())
    }
}

/// Decode one whole section with `decode`. A section's length must
/// equal what its decoder consumed: bytes left unread are an error, so
/// nothing can hide behind an otherwise valid body.
pub fn decode_section<'a, T>(
    bytes: &'a [u8],
    decode: impl FnOnce(&mut Reader<'a>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let out = decode(&mut r)?;
    match r.remaining() {
        0 => Ok(out),
        n => Err(WireError::Decode(format!("{n} trailing bytes in section"))),
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// String tables: Vec<Vec<String>> as dict-encoded lanes.
// ---------------------------------------------------------------------------

/// [`encode_str_rows`] body format: plain length-prefixed cells.
const STRS_PLAIN: u8 = 0;
/// [`encode_str_rows`] body format: shared dict + `u32` code per cell.
const STRS_DICT: u8 = 1;

/// How many leading cells to sample when deciding plain vs dict.
const DICT_SAMPLE: usize = 1024;

/// Encode rendered rows with an adaptive body format.
///
/// Layout: `[nrows u32][ncols u32][ragged u8]` then, when ragged, one
/// `u32` length per row; then a format byte and the cells:
///
/// - [`STRS_PLAIN`]: one `u32` length per cell (row-major), then
///   `[blob_len u32]` and every cell's bytes as one contiguous UTF-8
///   blob, validated once on decode.
/// - [`STRS_DICT`]: the dict (`[count u32]` + strings) and one `u32`
///   code per cell in row-major order.
///
/// Telemetry rows repeat node names, racks, and quantized readings
/// heavily, so the dict is usually both smaller and cheaper than
/// per-cell JSON escape/parse — but a high-cardinality result (every
/// cell distinct) would pay the dict's hashing and bloat its payload
/// with codes for nothing. A sample of the leading cells picks the
/// format; a misprediction costs bytes, never correctness.
pub fn encode_str_rows(rows: &[Vec<String>]) -> Vec<u8> {
    let mut out = Vec::new();
    let ncols = rows.first().map(Vec::len).unwrap_or(0);
    let ragged = rows.iter().any(|r| r.len() != ncols);
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    out.extend_from_slice(&(ncols as u32).to_le_bytes());
    out.push(ragged as u8);
    if ragged {
        for r in rows {
            out.extend_from_slice(&(r.len() as u32).to_le_bytes());
        }
    }
    let cells = rows.iter().flatten();
    let mut sampled = 0usize;
    let mut sample: HashMap<&str, ()> = HashMap::with_capacity(DICT_SAMPLE);
    for cell in cells.clone().take(DICT_SAMPLE) {
        sampled += 1;
        sample.insert(cell.as_str(), ());
    }
    // Dict wins when at least half the sampled cells repeat.
    if sampled > 0 && sample.len() * 2 <= sampled {
        out.push(STRS_DICT);
        let mut index: HashMap<&str, u32> = HashMap::new();
        let mut dict: Vec<&str> = Vec::new();
        let mut codes: Vec<u32> = Vec::new();
        for cell in cells {
            let code = *index.entry(cell.as_str()).or_insert_with(|| {
                dict.push(cell.as_str());
                (dict.len() - 1) as u32
            });
            codes.push(code);
        }
        out.extend_from_slice(&(dict.len() as u32).to_le_bytes());
        for s in &dict {
            put_str(&mut out, s);
        }
        for c in &codes {
            out.extend_from_slice(&c.to_le_bytes());
        }
    } else {
        out.push(STRS_PLAIN);
        // Cell lengths first, then one contiguous UTF-8 blob: the
        // decoder validates the whole blob once and slices it, instead
        // of validating 4-byte-prefixed cells one at a time.
        let mut blob_len = 0usize;
        for cell in cells.clone() {
            out.extend_from_slice(&(cell.len() as u32).to_le_bytes());
            blob_len += cell.len();
        }
        out.extend_from_slice(&(blob_len as u32).to_le_bytes());
        out.reserve(blob_len);
        for cell in cells {
            out.extend_from_slice(cell.as_bytes());
        }
    }
    out
}

/// Decode [`encode_str_rows`].
pub fn decode_str_rows(r: &mut Reader) -> Result<Vec<Vec<String>>, WireError> {
    let nrows = r.u32()? as usize;
    let ncols = r.u32()? as usize;
    let ragged = r.u8()? != 0;
    let lens: Vec<usize> = if ragged {
        r.check_count(nrows, 4)?;
        (0..nrows)
            .map(|_| r.u32().map(|v| v as usize))
            .collect::<Result<_, _>>()?
    } else {
        r.check_count(nrows.saturating_mul(ncols), 4)?;
        vec![ncols; nrows]
    };
    let format = r.u8()?;
    match format {
        STRS_PLAIN => {
            let total = lens.iter().fold(0usize, |a, &b| a.saturating_add(b));
            r.check_count(total, 4)?;
            let mut cell_lens = Vec::with_capacity(total);
            for _ in 0..total {
                cell_lens.push(r.u32()? as usize);
            }
            let blob_len = r.u32()? as usize;
            let blob = std::str::from_utf8(r.take(blob_len)?)
                .map_err(|e| WireError::Decode(format!("bad utf-8: {e}")))?;
            let mut pos = 0usize;
            let mut next = cell_lens.into_iter();
            let mut rows = Vec::with_capacity(nrows);
            for &len in &lens {
                let mut row = Vec::with_capacity(len);
                for _ in 0..len {
                    let n = next.next().expect("cell_lens covers every cell");
                    let end = pos
                        .checked_add(n)
                        .ok_or_else(|| WireError::Decode("cell length overflow".into()))?;
                    let cell = blob.get(pos..end).ok_or_else(|| {
                        WireError::Decode("cell exceeds blob or splits a code point".into())
                    })?;
                    pos = end;
                    row.push(cell.to_string());
                }
                rows.push(row);
            }
            if pos != blob.len() {
                return Err(WireError::Decode(format!(
                    "{} blob bytes belong to no cell",
                    blob.len() - pos
                )));
            }
            Ok(rows)
        }
        STRS_DICT => {
            let dict_len = r.u32()? as usize;
            r.check_count(dict_len, 4)?;
            let mut dict: Vec<String> = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                dict.push(r.str()?.to_string());
            }
            let mut rows = Vec::with_capacity(nrows);
            for &len in &lens {
                r.check_count(len, 4)?;
                let mut row = Vec::with_capacity(len);
                for _ in 0..len {
                    let code = r.u32()? as usize;
                    let cell = dict.get(code).ok_or_else(|| {
                        WireError::Decode(format!("string code {code} out of range"))
                    })?;
                    row.push(cell.clone());
                }
                rows.push(row);
            }
            Ok(rows)
        }
        other => Err(WireError::Decode(format!(
            "unknown string-rows format {other}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Tagged values: bit-exact Value encoding.
// ---------------------------------------------------------------------------

const VAL_NULL: u8 = 0;
const VAL_BOOL_FALSE: u8 = 1;
const VAL_BOOL_TRUE: u8 = 2;
const VAL_INT: u8 = 3;
const VAL_FLOAT: u8 = 4;
const VAL_STR: u8 = 5;
const VAL_TIME: u8 = 6;
const VAL_SPAN: u8 = 7;
const VAL_LIST: u8 = 8;

/// Append one value, tag byte first. Floats go out as raw bit
/// patterns: NaN payloads and infinities round-trip exactly.
pub fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(VAL_NULL),
        Value::Bool(false) => out.push(VAL_BOOL_FALSE),
        Value::Bool(true) => out.push(VAL_BOOL_TRUE),
        Value::Int(i) => {
            out.push(VAL_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(VAL_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(VAL_STR);
            put_str(out, s);
        }
        Value::Time(t) => {
            out.push(VAL_TIME);
            out.extend_from_slice(&t.as_micros().to_le_bytes());
        }
        Value::Span(s) => {
            out.push(VAL_SPAN);
            out.extend_from_slice(&s.start.as_micros().to_le_bytes());
            out.extend_from_slice(&s.end.as_micros().to_le_bytes());
        }
        Value::List(items) => {
            out.push(VAL_LIST);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items.iter() {
                encode_value(out, item);
            }
        }
    }
}

/// Decode one tagged value.
pub fn decode_value(r: &mut Reader) -> Result<Value, WireError> {
    Ok(match r.u8()? {
        VAL_NULL => Value::Null,
        VAL_BOOL_FALSE => Value::Bool(false),
        VAL_BOOL_TRUE => Value::Bool(true),
        VAL_INT => Value::Int(r.i64()?),
        VAL_FLOAT => Value::Float(f64::from_bits(r.u64()?)),
        VAL_STR => Value::str(r.str()?),
        VAL_TIME => Value::Time(Timestamp::from_micros(r.i64()?)),
        VAL_SPAN => {
            let start = Timestamp::from_micros(r.i64()?);
            let end = Timestamp::from_micros(r.i64()?);
            Value::Span(TimeSpan::new(start, end))
        }
        VAL_LIST => {
            let n = r.u32()? as usize;
            r.check_count(n, 1)?;
            let items: Vec<Value> = (0..n).map(|_| decode_value(r)).collect::<Result<_, _>>()?;
            Value::List(items.into())
        }
        tag => return Err(WireError::Decode(format!("unknown value tag {tag}"))),
    })
}

// ---------------------------------------------------------------------------
// Partitions: ColumnarPartition lanes shipped directly.
// ---------------------------------------------------------------------------

const LANE_INT: u8 = 0;
const LANE_FLOAT: u8 = 1;
const LANE_TIME: u8 = 2;
const LANE_STR: u8 = 3;
const LANE_MIXED: u8 = 4;

fn encode_validity(out: &mut Vec<u8>, v: &Validity) {
    let all_valid = v.count_valid() == v.len();
    out.push(all_valid as u8);
    if all_valid {
        return;
    }
    let mut word = 0u64;
    for i in 0..v.len() {
        if v.get(i) {
            word |= 1u64 << (i % 64);
        }
        if i % 64 == 63 {
            out.extend_from_slice(&word.to_le_bytes());
            word = 0;
        }
    }
    if !v.len().is_multiple_of(64) {
        out.extend_from_slice(&word.to_le_bytes());
    }
}

fn decode_validity(r: &mut Reader, rows: usize) -> Result<Validity, WireError> {
    if r.u8()? != 0 {
        return Ok(Validity::all_valid(rows));
    }
    let mut v = Validity::all_null(rows);
    let words = rows.div_ceil(64);
    for w in 0..words {
        let bits = r.u64()?;
        let lo = w * 64;
        let hi = (lo + 64).min(rows);
        for i in lo..hi {
            if bits >> (i - lo) & 1 == 1 {
                v.set(i, true);
            }
        }
    }
    Ok(v)
}

/// Encode a partition: `[rows u32][ncols u32]` then per column a lane
/// tag, the validity bitmap, and the lane's typed array.
pub fn encode_partition(part: &ColumnarPartition) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(part.len() as u32).to_le_bytes());
    out.extend_from_slice(&(part.num_columns() as u32).to_le_bytes());
    for col in part.columns() {
        encode_validity(&mut out, col.validity());
        match col.data() {
            ColumnData::Int(v) => {
                out.push(LANE_INT);
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::Float(v) => {
                out.push(LANE_FLOAT);
                for x in v {
                    out.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
            ColumnData::Time(v) => {
                out.push(LANE_TIME);
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::Str { codes, dict } => {
                out.push(LANE_STR);
                out.extend_from_slice(&(dict.len() as u32).to_le_bytes());
                for s in dict {
                    put_str(&mut out, s);
                }
                for c in codes {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
            ColumnData::Mixed(v) => {
                out.push(LANE_MIXED);
                for x in v {
                    encode_value(&mut out, x);
                }
            }
        }
    }
    out
}

/// Decode [`encode_partition`].
pub fn decode_partition(r: &mut Reader) -> Result<ColumnarPartition, WireError> {
    let rows = r.u32()? as usize;
    let ncols = r.u32()? as usize;
    r.check_count(ncols, 2)?;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let validity = decode_validity(r, rows)?;
        let data = match r.u8()? {
            LANE_INT => {
                r.check_count(rows, 8)?;
                ColumnData::Int((0..rows).map(|_| r.i64()).collect::<Result<_, _>>()?)
            }
            LANE_FLOAT => {
                r.check_count(rows, 8)?;
                ColumnData::Float(
                    (0..rows)
                        .map(|_| r.u64().map(f64::from_bits))
                        .collect::<Result<_, _>>()?,
                )
            }
            LANE_TIME => {
                r.check_count(rows, 8)?;
                ColumnData::Time((0..rows).map(|_| r.i64()).collect::<Result<_, _>>()?)
            }
            LANE_STR => {
                let dict_len = r.u32()? as usize;
                r.check_count(dict_len, 4)?;
                let mut dict: Vec<Arc<str>> = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    dict.push(Arc::from(r.str()?));
                }
                r.check_count(rows, 4)?;
                let codes: Vec<u32> = (0..rows).map(|_| r.u32()).collect::<Result<_, _>>()?;
                for &c in &codes {
                    if c as usize >= dict.len().max(1) {
                        return Err(WireError::Decode(format!("dict code {c} out of range")));
                    }
                }
                ColumnData::Str { codes, dict }
            }
            LANE_MIXED => {
                r.check_count(rows, 1)?;
                ColumnData::Mixed(
                    (0..rows)
                        .map(|_| decode_value(r))
                        .collect::<Result<_, _>>()?,
                )
            }
            tag => return Err(WireError::Decode(format!("unknown lane tag {tag}"))),
        };
        if data_len(&data) != rows {
            return Err(WireError::Decode("lane length mismatch".into()));
        }
        columns.push(Column::from_parts(data, validity));
    }
    Ok(ColumnarPartition::from_columns(columns))
}

fn data_len(d: &ColumnData) -> usize {
    match d {
        ColumnData::Int(v) => v.len(),
        ColumnData::Float(v) => v.len(),
        ColumnData::Time(v) => v.len(),
        ColumnData::Str { codes, .. } => codes.len(),
        ColumnData::Mixed(v) => v.len(),
    }
}

// ---------------------------------------------------------------------------
// Row batches: the append-path payload.
// ---------------------------------------------------------------------------

/// Encode a row batch. Rectangular batches (the normal case) ship as
/// [`ColumnarPartition`] lanes; ragged ones fall back to tagged
/// row-major values. Both are bit-exact.
pub fn encode_rows(rows: &[Row]) -> Vec<u8> {
    let mut out = Vec::new();
    let ncols = rows.first().map(Row::len).unwrap_or(0);
    // Zero-column rows would lose their count through a partition
    // (`from_columns` derives the row count from the first column), so
    // they take the row-major fallback too.
    let rectangular = ncols > 0 && rows.iter().all(|r| r.len() == ncols);
    out.push(rectangular as u8);
    if rectangular {
        out.extend_from_slice(&encode_partition(&ColumnarPartition::from_rows(rows)));
    } else {
        out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
        for row in rows {
            out.extend_from_slice(&(row.len() as u32).to_le_bytes());
            for v in row.values() {
                encode_value(&mut out, v);
            }
        }
    }
    out
}

/// Decode [`encode_rows`].
pub fn decode_rows(r: &mut Reader) -> Result<Vec<Row>, WireError> {
    if r.u8()? != 0 {
        return Ok(decode_partition(r)?.to_rows());
    }
    let nrows = r.u32()? as usize;
    r.check_count(nrows, 4)?;
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let ncells = r.u32()? as usize;
        r.check_count(ncells, 1)?;
        let values: Vec<Value> = (0..ncells)
            .map(|_| decode_value(r))
            .collect::<Result<_, _>>()?;
        rows.push(Row::new(values));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt_rows(rows: Vec<Row>) {
        let buf = encode_rows(&rows);
        let back = decode_rows(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn str_rows_round_trip_including_empty_and_dict_heavy() {
        for rows in [
            vec![],
            vec![vec!["a".to_string(), "b".to_string()]],
            vec![vec![String::new(); 4]; 100],
            (0..50)
                .map(|i| {
                    vec![
                        format!("node{}", i % 3),
                        "rack0".to_string(),
                        format!("{i}"),
                    ]
                })
                .collect::<Vec<_>>(),
        ] {
            let buf = encode_str_rows(&rows);
            let back = decode_str_rows(&mut Reader::new(&buf)).unwrap();
            assert_eq!(back, rows);
        }
    }

    #[test]
    fn ragged_str_rows_round_trip() {
        let rows = vec![vec!["a".into()], vec!["b".into(), "c".into()], vec![]];
        let buf = encode_str_rows(&rows);
        assert_eq!(decode_str_rows(&mut Reader::new(&buf)).unwrap(), rows);
    }

    #[test]
    fn values_round_trip_bit_exactly() {
        let nan_payload = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
        let values = vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(nan_payload),
            Value::Float(-0.0),
            Value::str("höstlöv"),
            Value::Time(Timestamp::from_micros(-1)),
            Value::Span(TimeSpan::new(
                Timestamp::from_micros(10),
                Timestamp::from_micros(20),
            )),
            Value::list([Value::Int(1), Value::list([Value::Null])]),
        ];
        let mut buf = Vec::new();
        for v in &values {
            encode_value(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for v in &values {
            let back = decode_value(&mut r).unwrap();
            match (v, &back) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(&back, v),
            }
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn partitions_round_trip_with_nulls_and_nan() {
        let rows = vec![
            Row::new(vec![
                Value::Int(1),
                Value::Float(f64::NAN),
                Value::str("cab1"),
                Value::Time(Timestamp::from_micros(1_000_000)),
                Value::Bool(true),
            ]),
            Row::new(vec![
                Value::Null,
                Value::Float(2.5),
                Value::Null,
                Value::Time(Timestamp::from_micros(2_000_000)),
                Value::Null,
            ]),
        ];
        let part = ColumnarPartition::from_rows(&rows);
        let buf = encode_partition(&part);
        let back = decode_partition(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back.len(), part.len());
        for (a, b) in back.to_rows().iter().zip(&rows) {
            for (x, y) in a.values().iter().zip(b.values()) {
                match (x, y) {
                    (Value::Float(x), Value::Float(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                    _ => assert_eq!(x, y),
                }
            }
        }
    }

    #[test]
    fn row_batches_round_trip() {
        rt_rows(vec![]);
        rt_rows(vec![Row::new(vec![Value::Int(1), Value::str("a")]); 10]);
        // Ragged batch takes the tagged-value fallback.
        rt_rows(vec![
            Row::new(vec![Value::Int(1)]),
            Row::new(vec![Value::Int(1), Value::str("a")]),
        ]);
    }

    #[test]
    fn truncated_payloads_never_panic() {
        let rows = vec![Row::new(vec![Value::Int(7), Value::str("node"), Value::Float(1.5)]); 8];
        let buf = encode_rows(&rows);
        for cut in 0..buf.len() {
            // Any prefix must error or decode to something; no panic.
            let _ = decode_rows(&mut Reader::new(&buf[..cut]));
        }
    }
}
