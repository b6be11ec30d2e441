//! Property tests for the wire codec: every message type round-trips
//! bit-exactly (including NaN/∞ floats, empty and dict-heavy string
//! lanes), and corrupt/truncated/oversized frames are rejected without
//! panicking — the daemon-side guarantee that a bad peer cannot wedge
//! a connection handler.

use proptest::prelude::*;
use sjcore::units::time::{TimeSpan, Timestamp};
use sjcore::{ColumnarPartition, Row, Value};
use sjwire::codec::{
    decode_partition, decode_rows, decode_section, decode_str_rows, decode_value, encode_partition,
    encode_rows, encode_str_rows, encode_value, Reader,
};
use sjwire::{read_frame, write_frame, MsgType};

/// Deterministically expand one (tag, bits) pair into a Value. The
/// whole u64 feeds float bits, so NaN payloads, ±∞, and -0.0 all occur.
fn value_from(tag: u8, bits: u64) -> Value {
    match tag % 8 {
        0 => Value::Null,
        1 => Value::Bool(bits & 1 == 1),
        2 => Value::Int(bits as i64),
        3 => Value::Float(f64::from_bits(bits)),
        4 => Value::str(format!("node-{}", bits % 7)), // small dict: heavy reuse
        5 => Value::Time(Timestamp::from_micros(bits as i64 % 1_000_000_000)),
        6 => Value::Span(TimeSpan::new(
            Timestamp::from_micros((bits % 1_000_000) as i64),
            Timestamp::from_micros((bits % 1_000_000) as i64 + (bits >> 32) as i64 % 1_000),
        )),
        _ => Value::List(
            (0..bits % 4)
                .map(|i| value_from((bits >> (8 * i)) as u8 % 7, bits.rotate_left(i as u32 * 13)))
                .collect(),
        ),
    }
}

/// Bit-exact value equality (PartialEq on f64 fails for NaN).
fn bit_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::List(x), Value::List(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(p, q)| bit_eq(p, q))
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Tagged values round-trip bit-exactly, lists and NaN included.
    #[test]
    fn values_round_trip(cells in prop::collection::vec((any::<u8>(), any::<u64>()), 0..64)) {
        let values: Vec<Value> = cells.iter().map(|&(t, b)| value_from(t, b)).collect();
        let mut buf = Vec::new();
        for v in &values {
            encode_value(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for v in &values {
            let back = decode_value(&mut r).unwrap();
            prop_assert!(bit_eq(&back, v), "{back:?} != {v:?}");
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    /// Rectangular row batches ship as partition lanes and round-trip.
    #[test]
    fn row_batches_round_trip(
        nrows in 0usize..40,
        ncols in 0usize..6,
        seeds in prop::collection::vec((any::<u8>(), any::<u64>()), 0..240),
    ) {
        let rows: Vec<Row> = (0..nrows)
            .map(|i| {
                Row::new(
                    (0..ncols)
                        .map(|j| {
                            let (t, b) = seeds
                                .get((i * ncols + j) % seeds.len().max(1))
                                .copied()
                                .unwrap_or((0, 0));
                            // Same tag per column keeps typed lanes in play;
                            // xor keeps cell values distinct.
                            value_from(t.wrapping_add(j as u8), b ^ (i as u64) << 7)
                        })
                        .collect(),
                )
            })
            .collect();
        let buf = encode_rows(&rows);
        let back = decode_rows(&mut Reader::new(&buf)).unwrap();
        prop_assert_eq!(back.len(), rows.len());
        for (a, b) in back.iter().zip(&rows) {
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.values().iter().zip(b.values()) {
                prop_assert!(bit_eq(x, y), "{x:?} != {y:?}");
            }
        }
    }

    /// Partition lanes round-trip with validity bitmaps intact.
    #[test]
    fn partitions_round_trip(
        nrows in 1usize..50,
        seeds in prop::collection::vec((any::<u8>(), any::<u64>()), 1..64),
    ) {
        let rows: Vec<Row> = (0..nrows)
            .map(|i| {
                Row::new(
                    seeds
                        .iter()
                        .take(4)
                        .enumerate()
                        .map(|(j, &(t, b))| {
                            if (b >> (i % 60)) & 1 == 1 {
                                Value::Null // exercises the validity bitmap
                            } else {
                                value_from(t.wrapping_mul(j as u8 + 1), b ^ i as u64)
                            }
                        })
                        .collect(),
                )
            })
            .collect();
        let part = ColumnarPartition::from_rows(&rows);
        let buf = encode_partition(&part);
        let back = decode_partition(&mut Reader::new(&buf)).unwrap();
        prop_assert_eq!(back.len(), part.len());
        prop_assert_eq!(back.num_columns(), part.num_columns());
        for (a, b) in back.to_rows().iter().zip(&rows) {
            for (x, y) in a.values().iter().zip(b.values()) {
                prop_assert!(bit_eq(x, y), "{x:?} != {y:?}");
            }
        }
    }

    /// Rendered string rows round-trip, from empty to dict-heavy.
    #[test]
    fn str_rows_round_trip(
        nrows in 0usize..60,
        ncols in 0usize..8,
        dict_size in 1u64..12,
        seed in any::<u64>(),
    ) {
        let rows: Vec<Vec<String>> = (0..nrows)
            .map(|i| {
                (0..ncols)
                    .map(|j| {
                        let x = seed.wrapping_mul(i as u64 + 1).wrapping_add(j as u64);
                        format!("cell-{}", x % dict_size)
                    })
                    .collect()
            })
            .collect();
        let buf = encode_str_rows(&rows);
        let back = decode_str_rows(&mut Reader::new(&buf)).unwrap();
        prop_assert_eq!(back, rows);
    }

    /// A section decodes only when its decoder consumes every byte: the
    /// same bytes with one more appended are rejected, for both the
    /// string-table and the row-batch codec.
    #[test]
    fn sections_reject_an_appended_byte(
        nrows in 0usize..40,
        ncols in 1usize..6,
        dict_size in 1u64..200,
        extra in any::<u8>(),
    ) {
        let table: Vec<Vec<String>> = (0..nrows)
            .map(|i| (0..ncols).map(|j| format!("c{}", (i * ncols + j) as u64 % dict_size)).collect())
            .collect();
        let mut buf = encode_str_rows(&table);
        prop_assert_eq!(decode_section(&buf, decode_str_rows).unwrap(), table);
        buf.push(extra);
        prop_assert!(decode_section(&buf, decode_str_rows).is_err());

        let rows: Vec<Row> = (0..nrows)
            .map(|i| Row::new((0..ncols).map(|j| value_from(j as u8, i as u64)).collect()))
            .collect();
        let mut buf = encode_rows(&rows);
        prop_assert_eq!(decode_section(&buf, decode_rows).unwrap().len(), nrows);
        buf.push(extra);
        prop_assert!(decode_section(&buf, decode_rows).is_err());
    }

    /// Frames round-trip over every message type; any single-byte
    /// corruption or truncation is rejected, never mis-decoded.
    #[test]
    fn frames_reject_corruption(
        type_sel in any::<u8>(),
        payload in prop::collection::vec(any::<u8>(), 0..512),
        victim in any::<u16>(),
        flip in 1u8..255,
    ) {
        let msg_type = MsgType::from_u8(type_sel % 5 + 1).unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, msg_type, &payload).unwrap();
        let f = read_frame(&mut &buf[..]).unwrap();
        prop_assert_eq!(f.msg_type, msg_type);
        prop_assert_eq!(&f.payload, &payload);

        let mut corrupt = buf.clone();
        let at = victim as usize % corrupt.len();
        corrupt[at] ^= flip;
        prop_assert!(read_frame(&mut &corrupt[..]).is_err(), "flip at {at} decoded");

        let cut = victim as usize % buf.len();
        match read_frame(&mut &buf[..cut]) {
            Err(_) => {}
            Ok(_) => prop_assert!(false, "truncation at {cut} decoded"),
        }
    }

    /// Arbitrary garbage prefixes never panic the decoders (daemon-side
    /// robustness: network bytes are untrusted).
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_frame(&mut &bytes[..]);
        let _ = decode_rows(&mut Reader::new(&bytes));
        let _ = decode_partition(&mut Reader::new(&bytes));
        let _ = decode_str_rows(&mut Reader::new(&bytes));
        let _ = decode_value(&mut Reader::new(&bytes));
    }
}

/// A plain-format string table whose blob is one byte longer than its
/// cells is malformed, even when the blob length is self-consistent.
#[test]
fn plain_blob_longer_than_its_cells_is_rejected() {
    // Every cell distinct, so the sample picks the plain format.
    let table: Vec<Vec<String>> = (0..3)
        .map(|i| (0..2).map(|j| format!("cell-{i}-{j}")).collect())
        .collect();
    let mut buf = encode_str_rows(&table);
    // [nrows u32][ncols u32][ragged u8][format u8][6 cell lengths][blob_len u32][blob]
    assert_eq!(buf[9], 0, "expected the plain format");
    let at = 10 + 4 * 6;
    let blob_len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
    assert_eq!(buf.len(), at + 4 + blob_len as usize);
    buf[at..at + 4].copy_from_slice(&(blob_len + 1).to_le_bytes());
    buf.push(b'x');
    assert!(decode_str_rows(&mut Reader::new(&buf)).is_err());
}
