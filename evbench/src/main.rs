//! `evbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits non-zero, without a result line, when the run cannot
//! complete.

use std::process::ExitCode;

fn main() -> ExitCode {
    tighten_timer_slack();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match evbench::run::Args::parse(&argv) {
        Ok(a) => a,
        Err(err) => {
            eprintln!("evbench: {err}");
            eprintln!(
                "usage: evbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]"
            );
            return ExitCode::from(2);
        }
    };
    match evbench::dispatch(&args) {
        Ok(outcome) => {
            outcome.print(&args);
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("evbench {}: {err}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// The simulated disk sleeps for its per-page latency. Linux lets a sleep
/// overrun by the thread's timer slack (50 µs by default, as long as the
/// simulated latency itself), by an amount that varies with host load; a
/// 1 ns slack keeps each simulated I/O close to its stated latency. Set
/// before any thread starts, so every thread inherits it.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    use std::ffi::{c_int, c_ulong};
    const PR_SET_TIMERSLACK: c_int = 29;
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only sets
    // the calling thread's timer slack; no memory is passed or retained.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
    if rc != 0 {
        eprintln!("evbench: could not set the timer slack; simulated I/O may overrun");
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}
