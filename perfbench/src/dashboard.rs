//! `dashboard_hot`: dashboards re-pulling full results already computed.
//!
//! Two closed-loop clients repeat Figure 7 family queries at fixed knobs
//! with a row limit above the result size (every response carries all
//! ~32k rows). The results are warmed before timing, so every request is
//! a result-cache hit: the executor does nothing and the time goes to
//! rendering rows, encoding them, the socket, and client decoding.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Barrier;
use std::time::Instant;

use sjserve::protocol::Request;
use sjserve::wire::{decode_response, encode_response};

use crate::inputs::{self, Rng, Value};
use crate::layers::{LayerTrace, LayerValues, OpTimes};
use crate::measure::{median, peak_rss_mb};
use crate::served::{self, require_result, Served};
use crate::wireclient::{Timed, WireClient};
use crate::{timed_setups, trace_path, Args, Measured, Report, SETUPS};

/// Ops per second of `--seconds` (a fixed op count per run).
const OPS_PER_SECOND: f64 = 6.0;

/// Closed-loop client connections.
const CLIENTS: usize = 2;

/// Row limit: above every member's result size, so nothing is cut.
const LIMIT: usize = 40_000;

/// Members whose results all fit the default result-cache budget
/// together: Figure 7 itself, and its subsets without frequency (no
/// CPU-spec join) and without thermal margin.
fn members() -> Vec<Vec<Value>> {
    let family = inputs::fig7_family();
    vec![family[0].clone(), family[1].clone(), family[5].clone()]
}

fn request(id: String, values: &[Value]) -> Request {
    let mut spec = inputs::spec(values, None, None);
    spec.limit = Some(LIMIT);
    Request::query(&id, "", spec).with_proto()
}

/// Which member op `i` asks for: a seeded rotation, the same mix on
/// every seed.
fn member_of(seed: u64, i: usize) -> usize {
    (Rng::new(seed, 3).next_u64() as usize + i) % members().len()
}

/// What every response to one member must carry, byte for byte.
#[derive(Clone, PartialEq)]
struct Expected {
    columns: Vec<String>,
    row_count: usize,
    rows_digest: u64,
}

fn expected(reply: &Timed) -> Result<Expected, String> {
    let result = reply.response.result.as_ref().ok_or("no result")?;
    let mut h = DefaultHasher::new();
    reply.result_rows_section()?.hash(&mut h);
    Ok(Expected {
        columns: result.columns.clone(),
        row_count: result.row_count,
        rows_digest: h.finish(),
    })
}

/// Boot, then warm every member's result into the cache.
fn boot(seed: u64) -> Result<(Served, Vec<Expected>), String> {
    let mut served = served::boot(seed, CLIENTS)?;
    let mut warm = Vec::new();
    for (m, values) in members().iter().enumerate() {
        let request = request(format!("dashboard-warm-up-{m}"), values);
        let reply = served.clients[0].call(&request)?;
        require_result(&request, &reply.response)?;
        let want = expected(&reply)?;
        if want.row_count > LIMIT || want.row_count < 8_000 {
            return Err(format!("member {m} returns {} rows", want.row_count));
        }
        warm.push(want);
    }
    Ok((served, warm))
}

/// What the checks need from one completed op.
struct Seen {
    op_ms: f64,
    emit_ms: f64,
    result_cache_hit: bool,
    answer: Expected,
}

fn seen(reply: Result<Timed, String>) -> Result<Seen, String> {
    let reply = reply?;
    let result = match &reply.response.result {
        Some(result) if reply.response.is_ok() => result,
        _ => {
            return Err(format!(
                "{} {:?}",
                reply.response.status, reply.response.error
            ))
        }
    };
    Ok(Seen {
        op_ms: reply.op_ms(),
        emit_ms: reply.emit_ms(),
        result_cache_hit: result.result_cache_hit,
        answer: expected(&reply)?,
    })
}

/// One client's share of the ops: (op index, what it saw or the error).
type Replies = Vec<(usize, Result<Seen, String>)>;

pub fn run(args: &Args) -> Result<Report, String> {
    let count = (OPS_PER_SECOND * args.seconds as f64).round().max(12.0) as usize;
    let ((mut served, warm), setup_s) =
        timed_setups(SETUPS, || boot(args.seed), |(s, _)| served::stop(s))?;

    let barrier = Barrier::new(CLIENTS + 1);
    let mut started = Instant::now();
    let replies: Vec<Replies> = std::thread::scope(|scope| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    (c..count)
                        .step_by(CLIENTS)
                        .map(|i| {
                            let m = member_of(args.seed, i);
                            let request = request(format!("dashboard-{i}"), &members()[m]);
                            (i, seen(client.call(&request)))
                        })
                        .collect::<Replies>()
                })
            })
            .collect();
        barrier.wait();
        started = Instant::now();
        handles
            .into_iter()
            .map(|h| h.join().expect("dashboard client thread"))
            .collect()
    });

    let mut measured = Measured {
        wall_s: started.elapsed().as_secs_f64(),
        ..Measured::default()
    };
    let peak = peak_rss_mb();
    served::stop(served);

    // Output and validity checks, outside the timed window.
    for (i, seen) in replies.into_iter().flatten() {
        measured.attempted += 1;
        let seen = match seen {
            Ok(seen) => seen,
            Err(e) => {
                measured.failed += 1;
                eprintln!("dashboard-{i}: {e}");
                continue;
            }
        };
        measured.op_ms.push(seen.op_ms);
        measured.emit_ms.push(seen.emit_ms);
        if !seen.result_cache_hit {
            measured
                .problems
                .push(format!("dashboard-{i}: missed the result cache"));
        }
        if seen.answer != warm[member_of(args.seed, i)] {
            measured.problems.push(format!(
                "dashboard-{i}: response differs from the warm-up response"
            ));
        }
    }

    let layers = if args.trace {
        traced(args, count, median(&measured.op_ms))?
    } else {
        LayerValues::default()
    };
    Ok(Report {
        measured,
        setup_s,
        peak_rss_mb: peak,
        layers: layers.into_metrics(),
        params: vec![
            ("ops", count.to_string()),
            ("clients", CLIENTS.to_string()),
            ("members", members().len().to_string()),
            ("limit", LIMIT.to_string()),
            (
                "rows_per_response",
                warm.iter()
                    .map(|w| w.row_count.to_string())
                    .collect::<Vec<_>>()
                    .join("/"),
            ),
        ],
    })
}

/// The traced replay, one client: `QueryService::handle` on a warmed
/// in-process twin, `wire::encode_response`/`decode_response` on its
/// response, then the same request to the served service over TCP.
fn traced(args: &Args, count: usize, untraced_p50: f64) -> Result<LayerValues, String> {
    let (mut served, _) = boot(args.seed)?;
    let (_twin_ctx, twin) = served::service(args.seed)?;
    for (m, values) in members().iter().enumerate() {
        let request = request(format!("dashboard-warm-up-{m}"), values);
        require_result(&request, &twin.handle(request.clone()))?;
    }
    let client: &mut WireClient = &mut served.clients[0];

    let trace = LayerTrace::new();
    let before = served.ctx.metrics.report();
    let (mut server_ms, mut transport_ms, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut plan_hits, mut result_hits) = (0usize, 0usize);
    for i in 0..count {
        let request = request(
            format!("dashboard-{i}"),
            &members()[member_of(args.seed, i)],
        );
        let op = trace.op(&request.id);
        let mut response = trace.call("serve.handle", || twin.handle(request.clone()));
        require_result(&request, &response)?;
        let payload = trace.call("wire.encode", || encode_response(&mut response));
        bytes.push(payload.len() as f64);
        trace
            .call("wire.decode", || decode_response(&payload))
            .map_err(|e| e.to_string())?;
        let reply = trace.call("tcp.call", || client.call(&request))?;
        drop(op);
        require_result(&request, &reply.response)?;
        let result = reply.response.result.as_ref().expect("checked ok");
        plan_hits += usize::from(result.plan_cache_hit);
        result_hits += usize::from(result.result_cache_hit);
        server_ms.push(result.elapsed_ms);
        transport_ms.push(reply.op_ms() - result.elapsed_ms - reply.decode_ms());
    }
    let after = served.ctx.metrics.report();
    served::stop(served);
    twin.shutdown();

    let times = OpTimes::new(&trace.finish(&trace_path(args))?);
    let ops = count as f64;
    let handle = times.median_self("serve.handle");
    let encode = times.median_self("wire.encode");
    let decode = times.median_self("wire.decode");
    let mut v = LayerValues::default();
    v.set_exec_counters(&after, &before, count);
    v.set("serve.handle_ms", handle);
    v.set("serve.server_ms", median(&server_ms));
    v.set("serve.plan_cache_hit_ratio", plan_hits as f64 / ops);
    v.set("serve.result_cache_hit_ratio", result_hits as f64 / ops);
    v.set("wire.encode_ms", encode);
    v.set("wire.decode_ms", decode);
    v.set("wire.response_bytes", median(&bytes));
    v.set("wire.transport_ms", median(&transport_ms));
    v.set_account(
        &args.workload,
        untraced_p50,
        &[
            ("serve.handle", handle),
            ("wire.encode", encode),
            ("wire.decode", decode),
        ],
    );
    Ok(v)
}
