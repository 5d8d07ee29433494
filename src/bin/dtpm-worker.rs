//! `dtpm-worker`: the worker-process end of a distributed campaign.
//!
//! A thin argument parser around [`platform_sim::distributed::serve`]: the
//! coordinator ships the grid and its calibration, as exact bits, over the
//! transport, so the binary itself takes only wiring and (for tests) chaos
//! flags; it never calibrates. The
//! `inspect` subcommand prints a checkpoint, merge-sink or sweep-spec file
//! as text ([`platform_sim::distributed::inspect`]).
//!
//! ```text
//! dtpm-worker                         # serve on stdin/stdout (subprocess wiring)
//! dtpm-worker --connect HOST:PORT     # connect to a listening coordinator
//! dtpm-worker inspect FILE            # print a checkpoint/sink/spec blob
//! ```
//!
//! Chaos flags (lease-recovery tests): `--die-after N` drops the transport
//! after delivering N cells (the coordinator folds those N and leases the
//! rest of the lease again); `--stall-after N --stall-ms M` sleeps M ms
//! once, before delivering cell N+1.

use std::process::ExitCode;
use std::time::Duration;

use platform_sim::distributed::{
    inspect, serve_with, StdioTransport, TcpTransport, Transport, WorkerChaos,
};

/// Parsed command line.
struct Args {
    connect: Option<String>,
    chaos: WorkerChaos,
}

fn usage() -> ! {
    eprintln!(
        "usage: dtpm-worker [--connect HOST:PORT] \
         [--die-after N] [--stall-after N] [--stall-ms M]\n       \
         dtpm-worker inspect FILE"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        connect: None,
        chaos: WorkerChaos::default(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| -> String {
            argv.next().unwrap_or_else(|| {
                eprintln!("dtpm-worker: {flag} needs {what}");
                usage();
            })
        };
        match flag.as_str() {
            "--connect" => args.connect = Some(value("an address")),
            "--die-after" => {
                args.chaos.die_after_cells = Some(parse_count(&flag, &value("a cell count")));
            }
            "--stall-after" => {
                args.chaos.stall_after_cells = Some(parse_count(&flag, &value("a cell count")));
            }
            "--stall-ms" => {
                args.chaos.stall_for =
                    Duration::from_millis(parse_count(&flag, &value("milliseconds")) as u64);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("dtpm-worker: unknown flag {other}");
                usage();
            }
        }
    }
    args
}

fn parse_count(flag: &str, text: &str) -> usize {
    text.parse().unwrap_or_else(|_| {
        eprintln!("dtpm-worker: {flag} expects an unsigned integer, got {text:?}");
        usage();
    })
}

/// `dtpm-worker inspect FILE`: prints the blob in `FILE` as text.
fn inspect_file(args: &[String]) -> ExitCode {
    let [path] = args else { usage() };
    let rendered = std::fs::read(path)
        .map_err(platform_sim::SimError::from)
        .and_then(|bytes| inspect(&bytes));
    match rendered {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dtpm-worker: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(("inspect", rest)) = argv.split_first().map(|(cmd, rest)| (cmd.as_str(), rest)) {
        return inspect_file(rest);
    }
    let args = parse_args();
    let transport: Box<dyn Transport> = match &args.connect {
        Some(addr) => match TcpTransport::connect(addr.as_str()) {
            Ok(transport) => Box::new(transport),
            Err(e) => {
                eprintln!("dtpm-worker: connecting to {addr} failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Box::new(StdioTransport::new()),
    };
    match serve_with(transport, args.chaos) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dtpm-worker: {e}");
            ExitCode::FAILURE
        }
    }
}
