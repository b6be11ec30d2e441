//! Process watchdog: turns a hang into a failed run.
//!
//! One background thread watches a deadline; phases re-arm it with their
//! own budget. When a deadline passes, the process exits with code 3
//! without printing a result, so a stuck teardown or a wedged connection
//! can never hold a run open.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static DEADLINE_MS: AtomicU64 = AtomicU64::new(u64::MAX);
static PHASE: Mutex<String> = Mutex::new(String::new());

fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Start the watching thread. It runs until the process exits.
pub fn start() {
    epoch();
    std::thread::Builder::new()
        .name("perfbench-watchdog".into())
        .spawn(|| loop {
            std::thread::sleep(Duration::from_millis(50));
            let now = epoch().elapsed().as_millis() as u64;
            if now > DEADLINE_MS.load(Ordering::SeqCst) {
                let phase = PHASE.lock().map(|p| p.clone()).unwrap_or_default();
                eprintln!("perfbench: watchdog: {phase} overran its budget; failing the run");
                std::process::exit(3);
            }
        })
        .expect("spawn watchdog thread");
}

/// The overall run deadline, which no phase may extend.
static RUN_DEADLINE_MS: AtomicU64 = AtomicU64::new(u64::MAX);

fn set(phase: &str, deadline_ms: u64) {
    if let Ok(mut p) = PHASE.lock() {
        *p = phase.to_string();
    }
    DEADLINE_MS.store(deadline_ms, Ordering::SeqCst);
}

/// Give the whole run `budget` from now.
pub fn arm_run(budget: Duration) {
    let deadline = (epoch().elapsed() + budget).as_millis() as u64;
    RUN_DEADLINE_MS.store(deadline, Ordering::SeqCst);
    set("run", deadline);
}

/// Run `f` as a phase that must end within `budget` (and within the run
/// deadline).
pub fn phase<T>(name: &str, budget: Duration, f: impl FnOnce() -> T) -> T {
    let run = RUN_DEADLINE_MS.load(Ordering::SeqCst);
    let deadline = ((epoch().elapsed() + budget).as_millis() as u64).min(run);
    set(name, deadline);
    let out = f();
    set("run", run);
    out
}
