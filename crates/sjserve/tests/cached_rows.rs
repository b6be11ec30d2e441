//! Result-cache hits serve the stored encoding of their rows.
//!
//! A miss renders the rows it shows and encodes them once; the entry
//! keeps that `SEC_RESULT_ROWS` section, and a hit showing as many rows
//! copies it. These tests pin what that must not change: the section
//! bytes, the JSON-lines line, the in-process cells, the rows a hit at
//! another limit shows, and the accounting in `stats`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use sjcore::catalog::Catalog;
use sjcore::engine::{Query, QueryEngine, QueryValue};
use sjcore::row::Row;
use sjcore::schema::{FieldDef, Schema};
use sjcore::semantics::FieldSemantics;
use sjcore::value::Value;
use sjcore::SjDataset;
use sjdf::{ByteSize, ExecCtx};
use sjserve::protocol::{QuerySpec, Request, Response};
use sjserve::server::{serve, wait_ready};
use sjserve::service::{QueryService, ServiceConfig};
use sjserve::wire::{encode_response, SEC_RESULT_ROWS};
use sjserve::StatsReport;
use sjwire::codec::encode_str_rows;

const ROWS: usize = 120;

/// One dataset of per-node power readings: repeated and distinct cells,
/// non-ASCII names, and a null.
fn catalog(ctx: &ExecCtx) -> Catalog {
    let schema = Schema::new(vec![
        FieldDef::new("node", FieldSemantics::domain("compute-node", "node-id")),
        FieldDef::new("power", FieldSemantics::value("power", "watts")),
    ])
    .unwrap();
    let rows = (0..ROWS)
        .map(|i| {
            Row::new(vec![
                Value::str(format!("nöde-{i:03}/rack{}", i % 4)),
                if i % 17 == 0 {
                    Value::Null
                } else {
                    Value::Float(90.0 + (i % 9) as f64 * 0.25)
                },
            ])
        })
        .collect();
    let mut c = Catalog::default_hpc();
    c.register_dataset(
        "node_power",
        SjDataset::from_rows(ctx, rows, schema, "node_power", 2),
    )
    .unwrap();
    c
}

fn service() -> QueryService {
    let ctx = ExecCtx::local();
    let catalog = catalog(&ctx);
    QueryService::new(ctx, catalog, ServiceConfig::default())
}

fn request(id: &str, limit: usize) -> Request {
    let mut spec = QuerySpec::new(["compute-node"], ["power"]);
    spec.limit = Some(limit);
    Request::query(id, "t", spec)
}

/// The query's rows as the plan produces them.
fn executed_rows() -> Vec<Row> {
    let ctx = ExecCtx::local();
    let catalog = catalog(&ctx);
    let query = Query {
        domains: vec!["compute-node".into()],
        values: vec![QueryValue::dim("power")],
    };
    let plan = QueryEngine::new(&catalog)
        .solve(&query.canonicalize(catalog.dict()).unwrap())
        .unwrap();
    plan.execute(&catalog, None).unwrap().collect().unwrap()
}

/// Every result row rendered with `Value::to_string`.
fn expected_rows() -> Vec<Vec<String>> {
    executed_rows()
        .iter()
        .map(|row| row.values().iter().map(Value::to_string).collect())
        .collect()
}

/// The `SEC_RESULT_ROWS` bytes of an encoded response, if it has them.
fn result_section(payload: &[u8]) -> Option<Vec<u8>> {
    let u32_at = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
    let mut at = 4 + u32_at(0);
    let sections = payload[at];
    at += 1;
    for _ in 0..sections {
        let (id, len) = (payload[at], u32_at(at + 1));
        if id == SEC_RESULT_ROWS {
            return Some(payload[at + 5..at + 5 + len].to_vec());
        }
        at += 5 + len;
    }
    None
}

fn ok(response: Response) -> Response {
    assert!(response.is_ok(), "{:?}", response.error);
    response
}

#[test]
fn binary_hits_copy_the_miss_section() {
    let all = expected_rows();
    assert_eq!(all.len(), ROWS);
    for limit in [ROWS / 3, ROWS, ROWS + 50, 0] {
        let shown = &all[..limit.min(ROWS)];
        let service = service();
        let mut miss = ok(service.handle(request("q", limit)));
        assert!(!miss.result.as_ref().unwrap().result_cache_hit);
        let miss_section = result_section(&encode_response(&mut miss));
        for round in 0..3 {
            let mut hit = ok(service.handle(request("q", limit)));
            let result = hit.result.as_ref().unwrap();
            assert!(result.result_cache_hit, "limit {limit} round {round}");
            assert_eq!(result.row_count, ROWS);
            assert_eq!(result.truncated, limit < ROWS);
            let hit_section = result_section(&encode_response(&mut hit));
            assert_eq!(hit_section, miss_section, "limit {limit} round {round}");
        }
        if limit == 0 {
            assert_eq!(miss_section, None, "an empty table ships no section");
        } else {
            assert_eq!(miss_section, Some(encode_str_rows(shown)), "limit {limit}");
        }
        service.shutdown();
    }
}

#[test]
fn in_process_rows_are_unchanged_and_other_limits_render_the_right_rows() {
    let all = expected_rows();
    let service = service();
    let miss = ok(service.handle(request("q", 50)));
    assert_eq!(*miss.result.unwrap().rows, all[..50]);
    let hit = ok(service.handle(request("q", 50)));
    let result = hit.result.unwrap();
    assert!(result.result_cache_hit);
    assert_eq!(result.rows.len(), 50);
    assert_eq!(*result.rows, all[..50]);
    for limit in [0, 1, 10, 49, 51, ROWS, ROWS * 2] {
        let mut hit = ok(service.handle(request("q", limit)));
        let result = hit.result.as_ref().unwrap();
        assert!(result.result_cache_hit);
        assert_eq!(*result.rows, all[..limit.min(ROWS)], "limit {limit}");
        assert_eq!(result.truncated, limit < ROWS);
        let section = result_section(&encode_response(&mut hit));
        let want = (limit > 0).then(|| encode_str_rows(&all[..limit.min(ROWS)]));
        assert_eq!(section, want, "limit {limit}");
    }
    service.shutdown();
}

/// A result-cache hit over JSON-lines writes the miss's line, apart from
/// the fields that describe the request rather than the result.
#[test]
fn json_lines_hits_write_the_miss_line() {
    let handle = serve(service(), "127.0.0.1:0").unwrap();
    assert!(wait_ready(handle.addr, Duration::from_secs(5)));
    let stream = TcpStream::connect(handle.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut call = |request: &Request| {
        let mut line = serde_json::to_string(request).unwrap();
        line.push('\n');
        writer.write_all(line.as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    };
    let request = request("same-id", ROWS);
    let miss_line = call(&request);
    let hit_line = call(&request);
    let rows_text = |line: &str| {
        let start = line.find("\"rows\":").expect("rows key");
        let end = line.find(",\"row_count\":").expect("row_count key");
        line[start..end].to_string()
    };
    assert_eq!(rows_text(&hit_line), rows_text(&miss_line));
    assert_eq!(
        rows_text(&miss_line),
        format!(
            "\"rows\":{}",
            serde_json::to_string(&expected_rows()).unwrap()
        )
    );

    let normalized = |line: &str| {
        let mut r: Response = serde_json::from_str(line).unwrap();
        assert!(r.is_ok(), "{line}");
        r.query_id = None;
        let result = r.result.as_mut().unwrap();
        result.elapsed_ms = 0.0;
        result.plan_cache_hit = false;
        result.result_cache_hit = false;
        result.engine_metrics = None;
        serde_json::to_string(&r).unwrap()
    };
    assert_eq!(normalized(&hit_line), normalized(&miss_line));
    let hit: Response = serde_json::from_str(&hit_line).unwrap();
    assert!(hit.result.unwrap().result_cache_hit);
    handle.stop();
}

#[test]
fn stats_count_reused_and_rendered_rows_and_charge_the_encoding() {
    let service = service();
    let stats = |s: &QueryService| -> StatsReport { s.stats_report() };
    ok(service.handle(request("miss", 40)));
    let after_miss = stats(&service);
    assert_eq!(after_miss.result_rows_rendered, 1, "a miss renders");
    assert_eq!(after_miss.result_rows_reused, 0);

    // The entry is charged its rows plus the stored section.
    let row_bytes: usize = executed_rows().iter().map(ByteSize::byte_size).sum();
    let section = encode_str_rows(&expected_rows()[..40]);
    assert_eq!(
        after_miss.result_cache_bytes as usize,
        row_bytes + section.len()
    );

    for i in 0..4 {
        ok(service.handle(request(&format!("hit-{i}"), 40)));
    }
    let after_hits = stats(&service);
    assert_eq!(after_hits.result_rows_reused, 4);
    assert_eq!(after_hits.result_rows_rendered, 1);
    assert_eq!(after_hits.result_cache_hits, 4);
    assert_eq!(after_hits.result_cache_bytes, after_miss.result_cache_bytes);

    ok(service.handle(request("other-limit", 41)));
    let after_other = stats(&service);
    assert_eq!(after_other.result_rows_reused, 4);
    assert_eq!(after_other.result_rows_rendered, 2);
    let text = after_other.render();
    assert!(
        text.contains("result rows: 4 responses reused a stored encoding, 2 rendered from values"),
        "{text}"
    );
    let json = serde_json::to_string(&after_other).unwrap();
    assert!(json.contains("\"result_rows_reused\":4"), "{json}");
    assert!(json.contains("\"result_rows_rendered\":2"), "{json}");
    service.shutdown();
}
