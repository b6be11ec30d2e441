//! `explore_cold`: an analyst exploring DAT-2.
//!
//! One closed-loop client sends the Figure 7 query and its four-value
//! subsets in a fixed rotation. Every request carries a fresh seeded
//! `window_secs`/`step_secs`, so the plan cache and the result cache both
//! miss and the executor does the work. Rows come back at the service's
//! default limit.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use sjcore::catalog::Catalog;
use sjcore::engine::{EngineConfig, Plan, QueryEngine};
use sjdf::ExecCtx;
use sjserve::protocol::{QueryResult, QuerySpec, Request};
use sjserve::service::ServiceConfig;
use sjserve::wire::{decode_response, encode_response};

use crate::inputs::{self, Rng};
use crate::layers::{LayerTrace, LayerValues, OpTimes};
use crate::measure::{median, peak_rss_mb};
use crate::served::{self, require_result};
use crate::{timed_setups, trace_path, Args, Measured, Report, SETUPS};

/// Ops per second of `--seconds`. The workload runs a fixed number of
/// ops, so its sample count and tail percentile are fixed too.
const OPS_PER_SECOND: f64 = 1.2;

/// Ops the traced replay repeats (its first ops): each costs three
/// executions, and the run must stay inside its time budget.
const TRACED_OPS: usize = 12;

fn requests(seed: u64, count: usize) -> Vec<Request> {
    let family = inputs::fig7_family();
    let mut rng = Rng::new(seed, 1);
    let rotation = rng.next_u64() as usize % family.len();
    let phase = rng.unit();
    (0..count)
        .map(|i| {
            // Golden-ratio spacing keeps every window distinct and spread
            // over [90, 150) seconds.
            let spread = (phase + i as f64 * 0.618_033_988_749_894_9).fract();
            let spec = inputs::spec(
                &family[(rotation + i) % family.len()],
                Some(90.0 + 60.0 * spread),
                Some(45.0 + 30.0 * rng.unit()),
            );
            Request::query(&format!("explore-{i}"), "", spec).with_proto()
        })
        .collect()
}

/// The warm-up request: Figure 7 at knobs no op uses.
fn warm_up(seed: u64) -> Request {
    let jitter = Rng::new(seed, 2).unit();
    let spec = inputs::spec(&inputs::FIG7, Some(80.0 + jitter), Some(40.0 + jitter));
    Request::query("explore-warm-up", "", spec).with_proto()
}

fn boot(seed: u64) -> Result<served::Served, String> {
    let mut served = served::boot(seed, 1)?;
    let request = warm_up(seed);
    let reply = served.clients[0].call(&request)?;
    require_result(&request, &reply.response)?;
    Ok(served)
}

/// The answer reduced to what the output check compares.
fn digest(result: &QueryResult) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    result.columns.hash(&mut h);
    result.rows.hash(&mut h);
    result.row_count.hash(&mut h);
    result.truncated.hash(&mut h);
    h.finish()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let count = (OPS_PER_SECOND * args.seconds as f64).round().max(12.0) as usize;
    let requests = requests(args.seed, count);
    let (mut served, setup_s) = timed_setups(SETUPS, || boot(args.seed), served::stop)?;

    let mut measured = Measured::default();
    let mut digests: Vec<(usize, u64)> = Vec::with_capacity(count);
    let started = Instant::now();
    for (i, request) in requests.iter().enumerate() {
        measured.attempted += 1;
        let reply = match served.clients[0].call(request) {
            Ok(reply) => reply,
            Err(e) => {
                measured.failed += 1;
                eprintln!("{}: {e}", request.id);
                continue;
            }
        };
        let Some(result) = reply
            .response
            .result
            .as_ref()
            .filter(|_| reply.response.is_ok())
        else {
            measured.failed += 1;
            eprintln!("{}: {:?}", request.id, reply.response.error);
            continue;
        };
        measured.op_ms.push(reply.op_ms());
        measured.emit_ms.push(reply.emit_ms());
        if result.plan_cache_hit || result.result_cache_hit {
            measured.problems.push(format!(
                "{}: a cache hit (plan {}, result {}) where the workload needs misses",
                request.id, result.plan_cache_hit, result.result_cache_hit
            ));
        }
        digests.push((i, digest(result)));
    }
    measured.wall_s = started.elapsed().as_secs_f64();
    let peak = peak_rss_mb();
    served::stop(served);

    // Output check, outside the timed window: answers equal an in-process
    // execution of the same query at the same knobs. Each check costs a
    // full execution, so half the ops are checked — alternate rotations,
    // which covers every family member twice at different knobs — to keep
    // the run inside the benchmark's time budget.
    let members = inputs::fig7_family().len();
    let reference = Reference::new(args.seed)?;
    let mut checked = 0;
    for (i, got) in digests
        .into_iter()
        .filter(|(i, _)| (i / members).is_multiple_of(2))
    {
        checked += 1;
        let spec = requests[i].query.as_ref().expect("query request");
        let (plan, _) = reference.solve(spec)?;
        if digest(&reference.execute(&plan)?) != got {
            measured.problems.push(format!(
                "{}: rows differ from in-process Plan::execute",
                requests[i].id
            ));
        }
    }
    drop(reference);

    let layers = if args.trace {
        traced(
            args,
            &requests[..TRACED_OPS.min(count)],
            median(&measured.op_ms),
        )?
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
            ("clients", "1".into()),
            ("family_members", members.to_string()),
            ("limit", ServiceConfig::default().default_limit.to_string()),
            ("checked_ops", checked.to_string()),
            ("traced_ops", TRACED_OPS.min(count).to_string()),
        ],
    })
}

/// In-process planning and execution over a private copy of the catalog,
/// configured like the service (engine defaults, stage-cache budget).
pub struct Reference {
    catalog: Catalog,
}

impl Reference {
    pub fn new(seed: u64) -> Result<Reference, String> {
        let ctx = ExecCtx::local();
        ctx.set_cache_budget(ServiceConfig::default().stage_cache_bytes);
        let catalog = inputs::dat2_catalog(&ctx, seed)?;
        Ok(Reference { catalog })
    }

    /// `QueryEngine::solve` at the spec's knobs; also returns how many
    /// datasets the planner considered.
    pub fn solve(&self, spec: &QuerySpec) -> Result<(Plan, usize), String> {
        let defaults = EngineConfig::default();
        let engine = QueryEngine::with_config(
            &self.catalog,
            EngineConfig {
                interp_window_secs: spec.window_secs.unwrap_or(defaults.interp_window_secs),
                explode_step_secs: spec.step_secs.unwrap_or(defaults.explode_step_secs),
                ..defaults
            },
        );
        let query = inputs::query(spec)
            .canonicalize(self.catalog.dict())
            .map_err(|e| e.to_string())?;
        let plan = engine.solve(&query).map_err(|e| e.to_string())?;
        Ok((plan, engine.stats().datasets_considered))
    }

    /// `Plan::execute` + `SjDataset::collect`, rendered the way the
    /// service renders a response at its default limit.
    pub fn execute(&self, plan: &Plan) -> Result<QueryResult, String> {
        let ds = plan
            .execute(&self.catalog, None)
            .map_err(|e| e.to_string())?;
        let rows = ds.collect().map_err(|e| e.to_string())?;
        let schema = ds.schema();
        let limit = ServiceConfig::default().default_limit;
        Ok(QueryResult {
            columns: schema.fields().iter().map(|f| f.name.clone()).collect(),
            rows: rows
                .iter()
                .take(limit)
                .map(|row| (0..schema.len()).map(|i| row.get(i).to_string()).collect())
                .collect(),
            row_count: rows.len(),
            truncated: rows.len() > limit,
            plan_cache_hit: false,
            result_cache_hit: false,
            elapsed_ms: 0.0,
            engine_metrics: None,
        })
    }
}

/// The traced replay of the same requests on a fresh system. Each op
/// calls, in pipeline order, `QueryEngine::solve` and `Plan::execute`
/// (on a private catalog), `QueryService::handle` (on an in-process twin
/// of the service), `wire::encode_response`/`decode_response` on that
/// response, and finally the served service over TCP.
fn traced(args: &Args, requests: &[Request], untraced_p50: f64) -> Result<LayerValues, String> {
    let mut served = boot(args.seed)?;
    let (_twin_ctx, twin) = served::service(args.seed)?;
    let reference = Reference::new(args.seed)?;
    let warm = warm_up(args.seed);
    require_result(&warm, &twin.handle(warm.clone()))?;
    reference.execute(&reference.solve(warm.query.as_ref().expect("query"))?.0)?;

    let trace = LayerTrace::new();
    let before = served.ctx.metrics.report();
    let (mut considered, mut server_ms, mut transport_ms, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut plan_hits, mut result_hits) = (0usize, 0usize);
    for request in requests {
        let spec = request.query.as_ref().expect("query request");
        let op = trace.op(&request.id);
        let (plan, n) = trace.call("engine.solve", || reference.solve(spec))?;
        considered.push(n as f64);
        trace.call("exec.run", || reference.execute(&plan))?;
        let mut response = trace.call("serve.handle", || twin.handle(request.clone()));
        require_result(request, &response)?;
        let payload = trace.call("wire.encode", || encode_response(&mut response));
        bytes.push(payload.len() as f64);
        trace
            .call("wire.decode", || decode_response(&payload))
            .map_err(|e| e.to_string())?;
        let reply = trace.call("tcp.call", || served.clients[0].call(request))?;
        drop(op);
        require_result(request, &reply.response)?;
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
    let ops = requests.len() as f64;
    let mut v = LayerValues::default();
    let solve = times.median_self("engine.solve");
    let run = times.median_self("exec.run");
    let handle = times.median_self("serve.handle");
    let encode = times.median_self("wire.encode");
    let decode = times.median_self("wire.decode");
    v.set("engine.solve_ms", solve);
    v.set("engine.datasets_considered", median(&considered));
    v.set("exec.run_ms", run);
    v.set_exec_counters(&after, &before, requests.len());
    v.set("serve.handle_ms", handle);
    v.set("serve.server_ms", median(&server_ms));
    v.set("serve.plan_cache_hit_ratio", plan_hits as f64 / ops);
    v.set("serve.result_cache_hit_ratio", result_hits as f64 / ops);
    v.set("wire.encode_ms", encode);
    v.set("wire.decode_ms", decode);
    v.set("wire.response_bytes", median(&bytes));
    v.set("wire.transport_ms", median(&transport_ms));
    // `QueryService::handle` solves and executes inside itself, so the
    // serve layer's own share is what is left of it.
    v.set_account(
        &args.workload,
        untraced_p50,
        &[
            ("engine.solve", solve),
            ("exec.run", run),
            ("serve (handle - solve - run)", handle - solve - run),
            ("wire.encode", encode),
            ("wire.decode", decode),
        ],
    );
    Ok(v)
}
