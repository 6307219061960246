//! One round over the wire: a fresh `fidr serve` child, one closed-loop
//! `StorageClient` connection, the workload's setup then its measured
//! epochs, an in-band scrape, and the correctness checks.

use crate::child::ServerProc;
use crate::estimate::Epoch;
use crate::procfs::{self, ProcSample};
use crate::prom::Counters;
use crate::spans::Spans;
use crate::workload::{Kind, Plan, Request, Requests, DELETED_PROBES};
use fidr::chunk::Lba;
use fidr::client::StorageClient;
use fidr::nic::protocol::StatsFormat;
use std::path::Path;
use std::time::Instant;

/// Where and how rounds run.
pub struct Env<'a> {
    /// The release-built `fidr` binary.
    pub server_bin: &'a Path,
    /// The CPU server and harness are both pinned to, if pinning worked.
    pub cpu: Option<usize>,
    /// Directory for port files and span files.
    pub out_dir: &'a Path,
}

/// What one round measured.
#[derive(Default)]
pub struct Round {
    /// Server spawn → first connect → last setup op acked.
    pub setup_s: f64,
    /// The measured epochs, in order.
    pub epochs: Vec<Epoch>,
    /// In-band Prometheus scrape at the end of the measured phase.
    pub counters: Counters,
    /// Server `VmHWM` at the end of the round, KiB.
    pub peak_rss_kb: u64,
    /// Ops issued (setup, measured and end-state checks).
    pub attempted: u64,
    /// Ops refused, errored, or answered with wrong bytes.
    pub failed: u64,
    /// Server CPU / context switches / threads over the measured phase.
    pub server_proc: ProcSample,
    /// Server `(utime, stime)` ticks over the measured phase.
    pub server_ticks: (u64, u64),
}

/// The one connection of a round, with its op and failure counts.
struct Session<'a> {
    server: &'a ServerProc,
    client: Option<StorageClient>,
    attempted: u64,
    failed: u64,
}

impl<'a> Session<'a> {
    fn open(server: &'a ServerProc) -> Session<'a> {
        Session {
            server,
            client: server.connect().ok(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Issues one request and checks its reply. Returns the op's start
    /// and end instants (send → whole reply decoded; the byte comparison
    /// of a read happens after the clock stops). A refused, errored or
    /// mismatched op is a failed op; the server drops the connection on
    /// an error, so the session reconnects and carries on.
    fn issue(&mut self, req: &Request) -> (Instant, Instant) {
        self.attempted += 1;
        if self.client.is_none() {
            self.client = self.server.connect().ok();
        }
        let start = Instant::now();
        let Some(client) = self.client.as_mut() else {
            self.failed += 1;
            return (start, start);
        };
        let lba = Lba(req.lba);
        let reply = match req.kind {
            Kind::Write => client.write(lba, req.data.clone()).map(|()| None),
            Kind::Read => client.read(lba).map(Some),
            Kind::Delete => client.delete(lba).map(|()| None),
        };
        let end = Instant::now();
        let ok = match reply {
            Ok(None) => true,
            Ok(Some(got)) => req.data == got,
            Err(_) => {
                self.client = None;
                false
            }
        };
        if !ok {
            self.failed += 1;
        }
        (start, end)
    }
}

/// Runs one round. With `spans`, every op, epoch and the round itself
/// are recorded (the traced run); `check_end_state` adds the re-read of
/// every mapped LBA and the deleted-LBA probes after the scrape.
pub fn run_round(
    env: &Env,
    plan: &Plan,
    requests: &Requests,
    mut spans: Option<&mut Spans>,
    check_end_state: bool,
) -> std::io::Result<Round> {
    let round_span = spans.as_deref_mut().map(|s| s.begin("round", None));
    let spawned = Instant::now();
    let server = ServerProc::spawn(
        env.server_bin,
        env.cpu,
        plan.workload.gc_every(),
        env.out_dir,
    )?;
    let mut session = Session::open(&server);
    for req in &requests.setup {
        session.issue(req);
    }
    let setup_s = spawned.elapsed().as_secs_f64();
    if let (Some(s), Some(parent)) = (spans.as_deref_mut(), round_span) {
        s.record("setup", Some(parent), spawned, Instant::now());
    }

    let proc_before = procfs::sample_process(server.pid);
    let ticks_before = procfs::process_ticks(server.pid);
    let mut server_cpu = proc_before.cpu_ns;
    let mut client_cpu = procfs::thread_cpu_ns();
    let mut epochs = Vec::with_capacity(plan.epochs());
    for epoch_reqs in requests.measured.chunks(plan.epoch_ops) {
        let epoch_span = spans.as_deref_mut().map(|s| s.begin("epoch", round_span));
        let mut latencies_ns = Vec::with_capacity(epoch_reqs.len());
        let started = Instant::now();
        for req in epoch_reqs {
            let (start, end) = session.issue(req);
            latencies_ns.push((end - start).as_nanos().min(u128::from(u32::MAX)) as u32);
            if let Some(s) = spans.as_deref_mut() {
                s.record(req.kind.name(), epoch_span, start, end);
            }
        }
        let wall_ns = started.elapsed().as_nanos() as u64;
        let (server_now, client_now) =
            (procfs::process_cpu_ns(server.pid), procfs::thread_cpu_ns());
        epochs.push(Epoch {
            wall_ns,
            server_cpu_ns: server_now.saturating_sub(server_cpu),
            client_cpu_ns: client_now.saturating_sub(client_cpu),
            latencies_ns,
        });
        (server_cpu, client_cpu) = (server_now, client_now);
        if let (Some(s), Some(id)) = (spans.as_deref_mut(), epoch_span) {
            s.end(id);
        }
    }
    let proc_after = procfs::sample_process(server.pid);
    let ticks_after = procfs::process_ticks(server.pid);

    // The scrape comes before the end-state reads so that every round's
    // counters cover exactly the same ops.
    session.attempted += 1;
    let counters = match session
        .client
        .as_mut()
        .map(|c| c.scrape(StatsFormat::Prometheus))
    {
        Some(Ok(body)) => Counters::parse(&String::from_utf8_lossy(&body)),
        _ => {
            session.failed += 1;
            Counters::default()
        }
    };
    let peak_rss_kb = procfs::peak_rss_kb(server.pid);

    if check_end_state {
        for (&lba, &content) in &plan.mapped {
            session.issue(&Request {
                kind: Kind::Read,
                lba,
                data: requests.content(content),
            });
        }
        // A read of a deleted LBA must be refused (the server closes the
        // connection), so each probe gets a connection of its own.
        for &lba in plan.deleted.iter().take(DELETED_PROBES) {
            session.attempted += 1;
            let refused = match server.connect() {
                Ok(mut probe) => probe.read(Lba(lba)).is_err(),
                Err(_) => false,
            };
            if !refused {
                session.failed += 1;
            }
        }
    }
    if let (Some(s), Some(id)) = (spans, round_span) {
        s.end(id);
    }
    Ok(Round {
        setup_s,
        epochs,
        counters,
        peak_rss_kb,
        attempted: session.attempted,
        failed: session.failed,
        server_proc: ProcSample {
            cpu_ns: proc_after.cpu_ns.saturating_sub(proc_before.cpu_ns),
            ctx_switches: proc_after
                .ctx_switches
                .saturating_sub(proc_before.ctx_switches),
            threads: proc_after.threads,
        },
        server_ticks: (
            ticks_after.0.saturating_sub(ticks_before.0),
            ticks_after.1.saturating_sub(ticks_before.1),
        ),
    })
}
