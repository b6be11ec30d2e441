//! `stream_ingest`: telemetry ingest beside standing queries.
//!
//! One connection holds three standing derive-rate + interpolation-join
//! subscriptions over `sjdata::stream_catalog` and reads their pushed
//! window frames; a second connection replays the seeded
//! `LateDuplicates` disarray schedule through `append`, waiting for each
//! ack (appends are ordered per connection). A step of the schedule is
//! the appends that deliver one event-time tick of telemetry (one per
//! rack of counters, then the coolant readings); an op is eight steps.
//! The ops are split over five replays of the schedule, each on a fresh
//! service, and every replay must deliver the same frames. Emit latency
//! runs from sending an append to receiving a window frame it produced
//! on the subscriber connection. One client thread drives
//! both connections: after each ack it reads the frames the ack counts
//! from the subscriber connection, then sends the next batch. (A
//! separate reader thread had to wait for a CPU behind the next append's
//! evaluation on two cores, which made the emit median flip between one
//! and two op latencies from run to run.)

use std::sync::{Arc, Mutex};
use std::time::Instant;

use sjcore::engine::Query;
use sjdata::{disarray_schedule, stream_catalog, Disarray};
use sjdf::ExecCtx;
use sjserve::protocol::{QuerySpec, Request, Response, ValueSpec};
use sjserve::server::{serve, EmissionSink, ServerHandle};
use sjserve::service::{QueryService, ServiceConfig};
use sjserve::wire::{decode_response, encode_response};
use sjstream::{AppendBatch, StreamEngine};
use sjwire::{Frame, MsgType};

use crate::inputs;
use crate::layers::{merged, LayerTrace, LayerValues, OpTimes};
use crate::measure::{median, peak_rss_mb};
use crate::wireclient::{ms, Timed, WireClient};
use crate::{bounded_teardown, timed_setups, trace_path, Args, Measured, Report};

/// Ops per second of `--seconds` (a fixed op count per run, so a fixed
/// tail percentile).
const OPS_PER_SECOND: f64 = 5.0;

/// Schedule steps (about three appends each) in one op. Summing several
/// steps keeps a single descheduled append from deciding the tail, and
/// with the op count fixed, bigger ops make the measured window longer.
const STEPS_PER_OP: usize = 8;

/// The ops are split over this many replays of the schedule, each on a
/// freshly booted service, so the measured window spans about
/// `--seconds`. One replay is a few seconds; on a shared host a window
/// that short caught whatever the neighbours were doing, and medians
/// moved by a quarter from run to run. A single longer schedule instead
/// grows the state each append works over (and the frame check's cost
/// faster still).
const ROUNDS: usize = 5;

/// Set-ups timed per run. One set-up is well under a second, so a
/// median of three moved with every hiccup of a shared host.
const SETUPS: usize = 7;

/// Steps replayed while warming up, before the timed ops.
const WARM_UP_STEPS: usize = 30;

/// Counters the standing queries turn into rates, each joined with
/// coolant temperature by interpolation.
const COUNTERS: [&str; 3] = ["instructions", "memory-reads", "cycles"];

fn standing_specs() -> Vec<QuerySpec> {
    COUNTERS
        .iter()
        .map(|counter| QuerySpec {
            domains: vec!["compute-node".into(), "time".into()],
            values: vec![
                ValueSpec::with_units(counter, &format!("{counter}-per-ms")),
                ValueSpec::dim("temperature"),
            ],
            window_secs: None,
            step_secs: None,
            limit: None,
        })
        .collect()
}

fn subscribe_request(k: usize, spec: QuerySpec) -> Request {
    Request::subscribe(&format!("subscribe-{k}"), "", spec).with_proto()
}

/// The seeded appends, grouped into schedule steps: warm-up steps
/// first, then [`STEPS_PER_OP`] steps per op. Each step ends with its
/// coolant batch.
fn steps(seed: u64, ops: usize) -> Vec<Vec<Request>> {
    let n = WARM_UP_STEPS + ops * STEPS_PER_OP;
    let batches = disarray_schedule(Disarray::LateDuplicates, seed, n);
    let mut steps = vec![Vec::new()];
    for (i, batch) in batches.into_iter().enumerate() {
        let ends_step = batch.dataset == "coolant";
        let request = Request::append(&format!("append-{i}"), "", batch).with_proto();
        steps.last_mut().expect("a step is open").push(request);
        if ends_step {
            steps.push(Vec::new());
        }
    }
    steps.retain(|step| !step.is_empty());
    steps
}

fn batch(request: &Request) -> &AppendBatch {
    request.append.as_ref().expect("append request")
}

/// Frames an append pushed, from its ack.
fn emitted(response: &Response) -> Result<usize, String> {
    match &response.append {
        Some(ack) if response.is_ok() => Ok(ack.windows_emitted),
        _ => Err(format!(
            "{}: {} {:?}",
            response.id, response.status, response.error
        )),
    }
}

/// A received window frame and when it arrived.
type Arrival = (Instant, Frame);

/// Open the subscriber connection and register the standing queries;
/// returns the connection and the server-assigned subscription ids.
fn subscribe(addr: std::net::SocketAddr) -> Result<(WireClient, Vec<String>), String> {
    let mut client = WireClient::connect(addr)?;
    let mut ids = Vec::new();
    for (k, spec) in standing_specs().into_iter().enumerate() {
        let ack = client.call(&subscribe_request(k, spec))?.response;
        match ack.subscription {
            Some(sub) if ack.is_ok() => ids.push(sub.query_id),
            _ => return Err(format!("subscribe {k}: {:?}", ack.error)),
        }
    }
    Ok((client, ids))
}

struct Served {
    ctx: ExecCtx,
    handle: ServerHandle,
    appender: WireClient,
    subscriber: WireClient,
    /// Server-assigned subscription ids, in subscription order.
    subscription_ids: Vec<String>,
    /// Frames each warm-up append produced, and the frames themselves.
    warm_up_emitted: Vec<usize>,
    warm_up_frames: Vec<Arrival>,
}

impl Served {
    /// One append, then the window frames its ack says it pushed.
    fn append(&mut self, request: &Request) -> Result<(Timed, Vec<Arrival>), String> {
        let reply = self.appender.call(request)?;
        let n = emitted(&reply.response)?;
        let frames = (0..n)
            .map(|_| {
                let frame = self.subscriber.read();
                frame.map(|f| (Instant::now(), f))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((reply, frames))
    }
}

fn boot(seed: u64, ops: usize) -> Result<(Served, Vec<Vec<Request>>), String> {
    let steps = steps(seed, ops);
    let ctx = ExecCtx::local();
    let catalog = stream_catalog(&ctx).map_err(|e| e.to_string())?;
    let service = QueryService::new(ctx.clone(), catalog, ServiceConfig::default());
    let handle = serve(service, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let (subscriber, subscription_ids) = subscribe(handle.addr)?;
    let appender = WireClient::connect(handle.addr)?;
    let mut served = Served {
        ctx,
        handle,
        appender,
        subscriber,
        subscription_ids,
        warm_up_emitted: Vec::new(),
        warm_up_frames: Vec::new(),
    };
    for request in steps[..WARM_UP_STEPS].iter().flatten() {
        let (_, frames) = served.append(request)?;
        served.warm_up_emitted.push(frames.len());
        served.warm_up_frames.extend(frames);
    }
    Ok((served, steps))
}

/// Close the appender and the subscriber, then stop the server:
/// subscriber connections first, so none outlives its server.
fn stop(served: Served) {
    bounded_teardown("stream_ingest service", || {
        served.appender.close();
        served.subscriber.close();
        served.handle.stop();
    });
}

/// A shadow stream engine: same catalog, policy and standing queries as
/// the service, fed the same batches in process.
fn shadow(ctx: &ExecCtx) -> Result<(StreamEngine, Vec<String>), String> {
    let config = ServiceConfig::default();
    let catalog = stream_catalog(ctx).map_err(|e| e.to_string())?;
    let mut engine = StreamEngine::new(ctx, catalog, config.stream, config.engine);
    let mut ids = Vec::new();
    for (k, spec) in standing_specs().iter().enumerate() {
        let id = format!("shadow-{k}");
        let query: Query = inputs::query(spec);
        engine
            .subscribe(&id, "", &query)
            .map_err(|e| e.to_string())?;
        ids.push(id);
    }
    Ok((engine, ids))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let total = (OPS_PER_SECOND * args.seconds as f64).round().max(12.0) as usize;
    let count = total.div_ceil(ROUNDS);
    let ((first, steps), setup_s) =
        timed_setups(SETUPS, || boot(args.seed, count), |(s, _)| stop(s))?;

    let mut measured = Measured::default();
    let mut peak = 0.0;
    let mut first_round: Option<Round> = None;
    let mut served = Some(first);
    for r in 0..ROUNDS {
        let fresh = match served.take() {
            Some(s) => s,
            None => boot(args.seed, count)?.0,
        };
        let (round, completed) = replay(fresh, &steps, &mut measured, &mut peak);
        // Outside the timed window: a later round must deliver exactly
        // the first round's frames, which are checked below.
        match &first_round {
            None => first_round = Some(round),
            Some(first) => same_as_first(r, first, &round, &mut measured.problems),
        }
        if !completed {
            break;
        }
    }
    let round = first_round.expect("at least one round");
    let timed_frames = measured.emit_ms.len();

    // Output check, outside the timed window: replay the same appends on
    // a shadow engine and compare every frame of the first round with a
    // cold batch solve over the accepted prefix
    // (`StreamEngine::cold_window`).
    let appends: Vec<Request> = steps.into_iter().flatten().collect();
    check_frames(
        &appends,
        &round.emitted_per_append,
        &round.arrivals,
        &round.subscription_ids,
        &mut measured.problems,
    )?;

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
            ("rounds", ROUNDS.to_string()),
            ("ops_per_round", count.to_string()),
            ("steps_per_op", STEPS_PER_OP.to_string()),
            ("warm_up_steps", WARM_UP_STEPS.to_string()),
            (
                "appends_per_round",
                (round.emitted_per_append.len() - round.warm_up_appends).to_string(),
            ),
            ("subscriptions", COUNTERS.len().to_string()),
            ("schedule", "late_duplicates".into()),
            ("frames", timed_frames.to_string()),
        ],
    })
}

/// What one replay of the schedule delivered, warm-up included.
struct Round {
    /// Server-assigned subscription ids, in subscription order.
    subscription_ids: Vec<String>,
    /// Frames each append's ack counted.
    emitted_per_append: Vec<usize>,
    warm_up_appends: usize,
    arrivals: Vec<Arrival>,
}

/// Time the ops of one round on a booted service, then stop it. Returns
/// what it delivered and whether every op completed; the peak RSS is
/// read before the service stops.
fn replay(
    mut served: Served,
    steps: &[Vec<Request>],
    measured: &mut Measured,
    peak: &mut f64,
) -> (Round, bool) {
    let mut emitted_per_append = std::mem::take(&mut served.warm_up_emitted);
    let warm_up_appends = emitted_per_append.len();
    let mut arrivals = std::mem::take(&mut served.warm_up_frames);
    let mut completed = true;
    let started = Instant::now();
    'ops: for op in steps[WARM_UP_STEPS..].chunks(STEPS_PER_OP) {
        measured.attempted += 1;
        // From the first append sent to the last ack decoded.
        let mut span: Option<(Instant, Instant)> = None;
        for request in op.iter().flatten() {
            match served.append(request) {
                Ok((reply, frames)) => {
                    span = Some((span.map_or(reply.sent, |(s, _)| s), reply.decoded));
                    for (at, _) in &frames {
                        measured.emit_ms.push(ms(*at - reply.sent));
                    }
                    emitted_per_append.push(frames.len());
                    arrivals.extend(frames);
                }
                Err(e) => {
                    // A failed append leaves the server's prefix unknown;
                    // stop rather than append into a diverged state.
                    measured.failed += 1;
                    eprintln!("{}: {e}", request.id);
                    completed = false;
                    break 'ops;
                }
            }
        }
        if let Some((start, end)) = span {
            measured.op_ms.push(ms(end - start));
        }
    }
    measured.wall_s += started.elapsed().as_secs_f64();
    *peak = peak_rss_mb();
    let subscription_ids = served.subscription_ids.clone();
    stop(served);
    let round = Round {
        subscription_ids,
        emitted_per_append,
        warm_up_appends,
        arrivals,
    };
    (round, completed)
}

/// A later round replays the same appends on a fresh service, so its
/// subscription ids, frame counts and frames must equal the first
/// round's byte for byte (up to where it stopped).
fn same_as_first(r: usize, first: &Round, round: &Round, problems: &mut Vec<String>) {
    if round.subscription_ids != first.subscription_ids {
        problems.push(format!("round {r}: subscription ids differ from round 0"));
    }
    let n = round.emitted_per_append.len();
    if first.emitted_per_append.get(..n) != Some(&round.emitted_per_append[..]) {
        problems.push(format!("round {r}: frame counts differ from round 0"));
        return;
    }
    for (k, ((_, got), (_, want))) in round.arrivals.iter().zip(&first.arrivals).enumerate() {
        if got.msg_type != want.msg_type || got.payload != want.payload {
            problems.push(format!("round {r}: frame {k} differs from round 0"));
            return;
        }
    }
}

fn check_frames(
    requests: &[Request],
    emitted_per_append: &[usize],
    arrivals: &[Arrival],
    subscription_ids: &[String],
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let ctx = ExecCtx::local();
    let (mut engine, shadow_ids) = shadow(&ctx)?;
    let mut frames = arrivals.iter();
    for (request, &pushed) in requests.iter().zip(emitted_per_append) {
        let outcome = engine.append(batch(request)).map_err(|e| e.to_string())?;
        if outcome.emissions.len() != pushed {
            problems.push(format!(
                "{}: service pushed {pushed} frames, shadow emits {}",
                request.id,
                outcome.emissions.len()
            ));
            return Ok(());
        }
        for want in &outcome.emissions {
            let Some((_, frame)) = frames.next() else {
                problems.push(format!("{}: frame missing", request.id));
                return Ok(());
            };
            let got = match (frame.msg_type, decode_response(&frame.payload)) {
                (MsgType::WindowFrame, Ok(got)) => got,
                (t, r) => {
                    problems.push(format!("{}: bad frame {t:?} {:?}", request.id, r.err()));
                    continue;
                }
            };
            let sub = shadow_ids.iter().position(|id| *id == want.query_id);
            let window = got.window.as_ref();
            let (columns, rows) = engine
                .cold_window(&want.query_id, want.window_id)
                .map_err(|e| e.to_string())?;
            let same = got.is_ok()
                && sub.map(|k| &subscription_ids[k]) == got.query_id.as_ref()
                && window.is_some_and(|w| {
                    w.window_id == want.window_id
                        && w.watermark_us == want.watermark_us
                        && w.re_emission == want.re_emission
                        && w.columns == columns
                        && w.rows == rows
                });
            if !same {
                problems.push(format!(
                    "{}: frame for window {} differs from cold_window",
                    request.id, want.window_id
                ));
            }
        }
    }
    Ok(())
}

/// Collects the frames an in-process service pushes for its standing
/// queries.
#[derive(Default)]
struct Frames(Mutex<Vec<Response>>);

impl EmissionSink for Frames {
    fn send(&self, frame: &Response) -> std::io::Result<()> {
        self.0
            .lock()
            .map_err(|_| std::io::Error::other("frame sink poisoned"))?
            .push(frame.clone());
        Ok(())
    }
}

/// The traced replay of the same appends on a fresh system. Each op
/// calls `StreamEngine::append` on a shadow engine (with the executor's
/// own `job` spans kept as `exec.run` children), `QueryService::handle`
/// on an in-process twin whose subscribers are an in-memory sink,
/// `wire::encode_response`/`decode_response` on the ack and the frames,
/// and finally the served service over TCP.
fn traced(args: &Args, count: usize, untraced_p50: f64) -> Result<LayerValues, String> {
    let (mut served, steps) = boot(args.seed, count)?;
    let shadow_ctx = ExecCtx::local();
    let (mut engine, _) = shadow(&shadow_ctx)?;
    let twin_ctx = ExecCtx::local();
    let twin = QueryService::new(
        twin_ctx.clone(),
        stream_catalog(&twin_ctx).map_err(|e| e.to_string())?,
        ServiceConfig::default(),
    );
    let frames = Arc::new(Frames::default());
    let sink: Arc<dyn EmissionSink> = frames.clone();
    for (k, spec) in standing_specs().into_iter().enumerate() {
        let ack = twin.handle_streaming(subscribe_request(k, spec), &sink);
        if !ack.is_ok() {
            return Err(format!("twin subscribe {k}: {:?}", ack.error));
        }
    }
    for request in steps[..WARM_UP_STEPS].iter().flatten() {
        engine.append(batch(request)).map_err(|e| e.to_string())?;
        emitted(&twin.handle(request.clone()))?;
    }
    frames.0.lock().map_err(|_| "frame sink poisoned")?.clear();

    let trace = LayerTrace::new();
    let tracer = shadow_ctx.tracer().clone();
    tracer.enable();
    tracer.drain();
    let before = served.ctx.metrics.report();
    let (mut transport_ms, mut bytes) = (Vec::new(), Vec::new());
    let (mut emissions, mut invalidated, mut late, mut duplicates) = (0, 0, 0, 0);
    let mut appends = 0usize;
    for op_steps in steps[WARM_UP_STEPS..].chunks(STEPS_PER_OP) {
        let op = trace.op(&op_steps[0][0].id);
        let mut rtt_minus_decode = 0.0;
        for request in op_steps.iter().flatten() {
            appends += 1;
            let outcome = {
                let span = trace.span("stream.append");
                // The executor's own `job` spans inside this append, moved
                // onto this trace's clock, become its `exec.run` children.
                let offset = trace.now_us() as i64 - tracer.now_us() as i64;
                let outcome = engine.append(batch(request)).map_err(|e| e.to_string())?;
                let jobs: Vec<(u64, u64)> = tracer
                    .drain()
                    .into_iter()
                    .filter(|e| e.name == "job")
                    .map(|e| {
                        let shift = |t: u64| (t as i64 + offset).max(0) as u64;
                        (shift(e.start_us), shift(e.end_us))
                    })
                    .collect();
                for (start, end) in merged(jobs) {
                    trace.record("exec.run", &span, start, end);
                }
                outcome
            };
            emissions += outcome.emissions.len();
            invalidated += outcome.invalidated;
            late += outcome.late_dropped;
            duplicates += outcome.duplicates_dropped;
            let mut ack = trace.call("serve.handle", || twin.handle(request.clone()));
            emitted(&ack)?;
            let mut pushed =
                std::mem::take(&mut *frames.0.lock().map_err(|_| "frame sink poisoned")?);
            let (ack_bytes, frame_bytes) = trace.call("wire.encode", || {
                let frames: Vec<Vec<u8>> = pushed.iter_mut().map(encode_response).collect();
                (encode_response(&mut ack), frames)
            });
            bytes.push((ack_bytes.len() + frame_bytes.iter().map(Vec::len).sum::<usize>()) as f64);
            trace
                .call("wire.decode", || decode_response(&ack_bytes))
                .map_err(|e| e.to_string())?;
            trace
                .call("wire.decode_frames", || {
                    frame_bytes
                        .iter()
                        .try_for_each(|f| decode_response(f).map(|_| ()))
                })
                .map_err(|e| e.to_string())?;
            let (reply, _) = trace.call("tcp.call", || served.append(request))?;
            rtt_minus_decode += reply.op_ms() - reply.decode_ms();
        }
        drop(op);
        transport_ms.push(rtt_minus_decode);
    }
    tracer.disable();
    let after = served.ctx.metrics.report();
    stop(served);
    twin.shutdown();

    let times = OpTimes::new(&trace.finish(&trace_path(args))?);
    let run = times.median_self("exec.run");
    let append_self = times.median_self("stream.append");
    let handle = times.median_self("serve.handle");
    let encode = times.median_self("wire.encode");
    let decode = times.median_self("wire.decode");
    let decode_frames = times.median_self("wire.decode_frames");
    let mut v = LayerValues::default();
    v.set("exec.run_ms", run);
    v.set_exec_counters(&after, &before, count);
    v.set("serve.handle_ms", handle);
    v.set("wire.encode_ms", encode);
    v.set("wire.decode_ms", decode + decode_frames);
    v.set("wire.response_bytes", median(&bytes));
    // Appends carry no server-side elapsed time; the in-process handle
    // time stands in for it.
    let rtt_minus_decode = median(&transport_ms);
    v.set("wire.transport_ms", rtt_minus_decode - handle);
    v.set("stream.append_ms", times.median_total("stream.append"));
    v.set(
        "stream.emissions_per_append",
        emissions as f64 / appends as f64,
    );
    v.set(
        "stream.invalidated_per_append",
        invalidated as f64 / appends as f64,
    );
    v.set("stream.late_dropped", late as f64);
    v.set("stream.duplicates_dropped", duplicates as f64);
    // `QueryService::handle` runs the stream engine (and it the
    // executor) inside itself; each layer is charged its own share.
    v.set_account(
        &args.workload,
        untraced_p50,
        &[
            ("exec.run", run),
            ("stream (append - exec)", append_self),
            ("serve (handle - append)", handle - append_self - run),
            ("wire.encode (ack + frames)", encode),
            ("wire.decode (ack)", decode),
        ],
    );
    Ok(v)
}
