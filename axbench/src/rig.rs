//! Bring-up of the loopback daemons and the sending peer, the closed-loop
//! sender threads, and the per-op outcome check.

use axml_core::invoke::{InvokeError, Invoker};
use axml_net::{ClientConfig, Handler, NetServer, ServerConfig, WireFault};
use axml_peer::{envelope_handler, NetInvoker, Peer, PeerError, Query, RemotePeer};
use axml_schema::ITree;
use axml_services::Registry;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crate::spin::Spinners;
use crate::workload::{answers, judge, Input, Kind, Outcome, Schemas, CHUNK_BYTES};

/// Sender threads: one per vCPU of the 2-vCPU reference host.
pub const SENDERS: usize = 2;
/// Receiver repository names per sender thread: the store cannot grow.
const NAME_POOL: usize = 4;

/// A daemon handler that records a `bench.handler` span per request,
/// stamped with the wire request id and the daemon's role.
struct TracedHandler {
    inner: Arc<dyn Handler>,
    role: &'static str,
}

impl Handler for TracedHandler {
    fn handle(&self, id: u64, envelope: &str) -> Result<String, WireFault> {
        let mut sp = axml_obs::span("bench.handler");
        sp.set("rid", id);
        sp.set("role", self.role);
        self.inner.handle(id, envelope)
    }

    fn handle_document(&self, id: u64, name: &str, text: &str) -> Result<String, WireFault> {
        let mut sp = axml_obs::span("bench.handler");
        sp.set("rid", id);
        sp.set("role", self.role);
        self.inner.handle_document(id, name, text)
    }
}

/// An invoker that records a `bench.invoke` span around each call.
struct TracedInvoker<'a>(&'a mut dyn Invoker);

impl Invoker for TracedInvoker<'_> {
    fn invoke(&mut self, function: &str, params: &[ITree]) -> Result<Vec<ITree>, InvokeError> {
        let mut sp = axml_obs::span("bench.invoke");
        sp.set("fn", function);
        self.0.invoke(function, params)
    }
}

fn handler(peer: &Arc<Peer>, role: &'static str, traced: bool) -> Arc<dyn Handler> {
    let inner = envelope_handler(Arc::clone(peer));
    if traced {
        Arc::new(TracedHandler { inner, role })
    } else {
        inner
    }
}

/// One sender thread's pooled clients: at most one connection per daemon.
pub struct Lane {
    to_receiver: RemotePeer,
    to_provider: Option<RemotePeer>,
}

fn dial(addr: SocketAddr) -> RemotePeer {
    let config = ClientConfig {
        pool: 1,
        ..ClientConfig::default()
    };
    let remote = RemotePeer::connect(addr, config).expect("loopback address resolves");
    remote.client().server_caps().expect("loopback handshake");
    remote
}

/// A running workload: the daemons, the sending peer, and one lane per
/// sender thread.
pub struct Rig {
    /// The workload.
    pub kind: Kind,
    /// The sending peer (shared by every sender thread).
    pub sender: Arc<Peer>,
    /// The receiving daemon's peer.
    pub receiver: Arc<Peer>,
    /// The compiled schemas.
    pub schemas: Schemas,
    lanes: Vec<Lane>,
    traced: bool,
    daemons: Vec<NetServer>,
}

impl Rig {
    /// Bring-up: compile schemas, build the peers, bind the daemons on
    /// loopback with `ServerConfig::default()`, dial and handshake.
    pub fn bring_up(kind: Kind, traced: bool) -> Rig {
        let schemas = Schemas::compile(kind);
        let registry = Arc::new(Registry::new());
        if kind == Kind::Churn {
            for (def, answer) in answers(kind) {
                registry.register_fn(def, move |_| Ok(answer.clone()));
            }
        }
        let sender = Arc::new(
            Peer::new("sender.bench", Arc::clone(&schemas.sender), registry).with_k(kind.k()),
        );
        let receiver = Arc::new(
            Peer::new(
                "receiver.bench",
                Arc::clone(&schemas.receiver),
                Arc::new(Registry::new()),
            )
            .with_k(kind.k()),
        );
        let bind = |peer: &Arc<Peer>, role| {
            NetServer::bind(
                "127.0.0.1:0",
                handler(peer, role, traced),
                ServerConfig::default(),
            )
            .expect("bind a loopback daemon")
        };
        let mut daemons = vec![bind(&receiver, "receiver")];
        if let Some(vocab) = &schemas.provider {
            let provider = Arc::new(
                Peer::new(
                    "provider.bench",
                    Arc::clone(vocab),
                    Arc::new(Registry::new()),
                )
                .with_k(kind.k()),
            );
            for (def, answer) in answers(kind) {
                provider.declare(def, Query::Const(answer));
            }
            daemons.push(bind(&provider, "provider"));
        }
        let receiver_addr = daemons[0].local_addr();
        let provider_addr = daemons.get(1).map(NetServer::local_addr);
        let lanes = (0..SENDERS)
            .map(|_| Lane {
                to_receiver: dial(receiver_addr),
                to_provider: provider_addr.map(dial),
            })
            .collect();
        Rig {
            kind,
            sender,
            receiver,
            schemas,
            lanes,
            traced,
            daemons,
        }
    }

    /// Stops every daemon and joins its threads.
    pub fn shut_down(self) {
        drop(self.lanes);
        for d in self.daemons {
            d.shutdown().expect("daemon shuts down cleanly");
        }
    }

    /// Runs one op: ships `input` as repository entry `name` and returns
    /// the raw result.
    fn ship(&self, lane: &Lane, input: &Input, name: &str) -> Result<(), PeerError> {
        let exchange = &self.schemas.exchanges[input.exchange];
        let sender = &*self.sender;
        let mut registry_invoker;
        let mut net_invoker;
        let base: &mut dyn Invoker = match &lane.to_provider {
            Some(remote) => {
                net_invoker = NetInvoker {
                    caller: sender,
                    remote,
                };
                &mut net_invoker
            }
            None => {
                registry_invoker = sender.registry.invoker(None);
                &mut registry_invoker
            }
        };
        let mut traced;
        let invoker: &mut dyn Invoker = if self.traced {
            traced = TracedInvoker(base);
            &mut traced
        } else {
            base
        };
        let to = &lane.to_receiver;
        match self.kind {
            Kind::Bulk => to
                .send_document_chunked_with(
                    sender,
                    name,
                    &input.doc,
                    exchange,
                    CHUNK_BYTES,
                    invoker,
                )
                .map(drop),
            Kind::Fig1 | Kind::Churn => to
                .send_document_with(sender, name, &input.doc, exchange, invoker)
                .map(drop),
        }
    }

    /// Judges an op against its reference outcome. Accepted documents
    /// are taken back out of the receiver's repository, so the store
    /// holds nothing between ops.
    fn check(&self, input: &Input, name: &str, result: Result<(), PeerError>) -> Outcome {
        judge(&input.expect, result, || {
            self.receiver.repository.remove(name)
        })
    }
}

/// One timed op, kept small so the benchmark's own bookkeeping stays a
/// negligible, steady part of the process's memory.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the reply arrived, in microseconds since the phase epoch.
    pub end_us: u32,
    /// Send call to reply, in nanoseconds (saturating).
    pub latency_ns: u32,
    /// Index of the input shipped.
    pub input: u32,
    /// Whether the op came out as its reference said.
    pub ok: bool,
}

/// Everything one phase of sender threads produced.
pub struct Phase {
    /// Every op, in completion order per thread.
    pub samples: Vec<Sample>,
    /// Unexpected outcomes: input index and reason.
    pub failures: Vec<(u32, String)>,
}

/// Runs the sender threads. With `cycle` false each thread ships its
/// half of `inputs` once (the warm-up pass); otherwise both cycle through
/// `inputs` until `on_start` returns. `on_start` runs on the calling
/// thread right after the senders are released and is handed the phase
/// epoch `Sample::end_us` counts from; it is how the measured window
/// times itself.
pub fn run_senders(
    rig: &Rig,
    inputs: &[Input],
    cycle: bool,
    on_start: impl FnOnce(Instant),
) -> Phase {
    let stop = AtomicBool::new(false);
    let gate = Barrier::new(SENDERS + 1);
    let n = inputs.len();
    let epoch = Instant::now();
    let (samples, failures) = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .lanes
            .iter()
            .enumerate()
            .map(|(t, lane)| {
                let (stop, gate) = (&stop, &gate);
                s.spawn(move || {
                    let (mut out, mut failures) = (Vec::new(), Vec::new());
                    gate.wait();
                    let mut j = 0usize;
                    loop {
                        let i = if cycle {
                            (t * n / SENDERS + j) % n
                        } else if t + j * SENDERS < n {
                            t + j * SENDERS
                        } else {
                            break;
                        };
                        if cycle && stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let name = format!("s{t}-{}", j % NAME_POOL);
                        let began = Instant::now();
                        let result = {
                            let mut sp = rig.traced.then(|| axml_obs::span("bench.op"));
                            let r = rig.ship(lane, &inputs[i], &name);
                            if let (Some(sp), Err(e)) = (sp.as_mut(), &r) {
                                sp.set("refused", e);
                            }
                            r
                        };
                        let end = Instant::now();
                        let outcome = rig.check(&inputs[i], &name, result);
                        let ok = !matches!(outcome, Outcome::Failed(_));
                        if let Outcome::Failed(why) = outcome {
                            failures.push((i as u32, why));
                        }
                        out.push(Sample {
                            end_us: u32::try_from((end - epoch).as_micros()).unwrap_or(u32::MAX),
                            latency_ns: u32::try_from((end - began).as_nanos()).unwrap_or(u32::MAX),
                            input: i as u32,
                            ok,
                        });
                        j += 1;
                    }
                    (out, failures)
                })
            })
            .collect();
        gate.wait();
        on_start(epoch);
        stop.store(true, Ordering::Relaxed);
        let mut samples = Vec::new();
        let mut failures = Vec::new();
        for h in handles {
            let (s, f) = h.join().expect("sender thread panicked");
            samples.extend(s);
            failures.extend(f);
        }
        (samples, failures)
    });
    Phase { samples, failures }
}

/// Sleeps until `deadline` (no-op when it has passed).
fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// One tick of a measured window: its span and the CPU the process used
/// in it.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    /// Tick start, in microseconds since the phase epoch.
    pub from_us: u32,
    /// Tick end, in microseconds since the phase epoch.
    pub to_us: u32,
    /// The program's CPU time inside the tick, in nanoseconds.
    pub cpu_ns: u64,
    /// Share of host CPU ticks stolen inside the tick.
    pub steal: f64,
}

/// Length of one tick of a measured window. Ticks are merged into
/// slices afterwards (see `main.rs`); a short tick lets a fast
/// workload's slices stay short, so that some fall between bursts of
/// host steal.
pub const TICK_SECONDS: f64 = 0.02;

/// A measured window: the senders cycle for `seconds`, cut into ticks
/// of about [`TICK_SECONDS`] at whose boundaries the program's CPU time
/// (the process's, less `spin`'s) and the host steal counters are read.
/// `each_tick` runs at every boundary (the traced run drains spans
/// there).
pub fn measure(
    rig: &Rig,
    inputs: &[Input],
    seconds: f64,
    spin: &Spinners,
    mut each_tick: impl FnMut(),
) -> (Phase, Vec<Tick>) {
    let mut ticks = Vec::new();
    let phase = run_senders(rig, inputs, true, |epoch| {
        let at = |t: Instant| u32::try_from((t - epoch).as_micros()).unwrap_or(u32::MAX);
        let count = (seconds / TICK_SECONDS).round().max(1.0) as u32;
        let step = Duration::from_secs_f64(seconds / f64::from(count));
        let start = Instant::now();
        let mut from = at(start);
        let mut cpu = spin.program_cpu_ns();
        let mut host = crate::stats::HostTicks::read();
        for i in 1..=count {
            sleep_until(start + step * i);
            let to = at(Instant::now());
            // The spinners' clocks and the process clock are read one
            // after the other, so a reading can come out a little below
            // the previous one; the program's CPU time never falls.
            let now_cpu = spin.program_cpu_ns().max(cpu);
            let now_host = crate::stats::HostTicks::read();
            ticks.push(Tick {
                from_us: from,
                to_us: to,
                cpu_ns: now_cpu - cpu,
                steal: host.steal_share(&now_host),
            });
            from = to;
            cpu = now_cpu;
            host = now_host;
            each_tick();
        }
    });
    (phase, ticks)
}
