//! The `serve-mixed` workload: an in-process `Server::start` over
//! `SimEngine`, answering quick-scale 1B1S requests from a closed loop of
//! two keep-alive connections (the daemon's callers each wait for their
//! reply).
//!
//! The traffic has the shape of the repository's one stated serve
//! profile, the CI gate's `loadgen --quick --requests 1000 --distinct 25
//! --min-warm-rate 0.9` (`ci.sh`): sessions of [`SESSION`] requests over
//! [`DISTINCT`] distinct requests, in `loadgen`'s order. Each connection
//! plays such sessions back to back, each over requests from its own
//! disjoint slice of the request space that it has not sent before, so
//! one request in 40 is cold, the cold ones come first in each session,
//! and a connection's hit/miss sequence is the same for every seed. The
//! seed picks which requests fill the sessions.

use crate::trace::Tracer;
use crate::{
    build_context, overhead_pct, peak_rss_mb, repeat_setup, stats, tmp_dir, Args, Outcome, Window,
};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use relsim::experiments::Context;
use relsim::RunObs;
use relsim_cache::CacheConfig;
use relsim_serve::http::read_response;
use relsim_serve::{
    artifact_bytes, run_request, Server, ServerConfig, SimArtifact, SimEngine, SimRequest,
};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections, and server exec workers: the host's two cores.
const CLIENTS: usize = 2;
/// Requests per `loadgen` session, as in the CI gate.
const SESSION: usize = 1000;
/// Distinct requests per session, as in the CI gate.
const DISTINCT: usize = 25;
/// Quick-scale request length, as `loadgen --quick`.
const TICKS: u64 = 20_000;
const QUANTUM: u64 = 5_000;
const SCHEDULERS: [&str; 4] = ["reliability", "performance", "random", "static"];

struct State {
    ctx: Context,
    server: Server,
    dir: PathBuf,
}

fn setup(tracer: &Tracer, parent: Option<u64>, k: u64) -> State {
    let ctx = build_context(tracer, parent, k);
    let dir = tmp_dir(&format!("serve-cache-{k}"));
    let _ = std::fs::remove_dir_all(&dir);
    relsim_cache::configure(Some(CacheConfig {
        dir: Some(dir.clone()),
    }));
    let engine = Arc::new(SimEngine::new(ctx.refs.clone()));
    let cfg = ServerConfig {
        exec_workers: CLIENTS,
        ..ServerConfig::default()
    };
    let server = tracer.scope("setup.server_start", parent, k, || {
        Server::start(engine, cfg).expect("bind a loopback port")
    });
    State { ctx, server, dir }
}

/// The whole request space: every ordered benchmark pair under every
/// scheduler.
fn request_space() -> Vec<SimRequest> {
    let names: Vec<String> = relsim_trace::spec2006_profiles()
        .into_iter()
        .map(|p| p.name)
        .collect();
    let mut reqs = Vec::new();
    for sched in SCHEDULERS {
        for a in &names {
            for b in &names {
                reqs.push(SimRequest {
                    benchmarks: vec![a.clone(), b.clone()],
                    big: 1,
                    small: 1,
                    scheduler: sched.to_string(),
                    ticks: TICKS,
                    quantum: QUANTUM,
                    half_freq_small: false,
                    rob_only: false,
                });
            }
        }
    }
    reqs
}

struct Sample {
    ms: f64,
    hit: bool,
    ok: bool,
    traced: bool,
}

/// `loadgen`'s order: position `j` of a session asks for the session's
/// `slot(j)`-th distinct request. The first occurrences of the 25 slots
/// fall at positions 0–18, 20, 25, 28, 33, 36 and 38.
fn slot(j: usize) -> usize {
    ((j as u64).wrapping_mul(2_654_435_761) >> 7) as usize % DISTINCT
}

/// One closed-loop connection and its slice of the request space.
struct Client {
    stream: TcpStream,
    /// This connection's request ids, [`DISTINCT`] per session in order.
    /// A connection's slice (1682 requests) lasts 67 sessions, far more
    /// than a window holds; past that the sessions would repeat.
    fresh: Vec<usize>,
    /// First body and request count per id.
    bodies: HashMap<usize, (Vec<u8>, u64)>,
    sent: u64,
}

impl Client {
    fn connect(addr: SocketAddr, fresh: Vec<usize>) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the in-process server");
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
        Client {
            stream,
            fresh,
            bodies: HashMap::new(),
            sent: 0,
        }
    }

    /// The request this connection sends next.
    fn next_id(&self) -> usize {
        let j = self.sent as usize;
        let session = j / SESSION;
        self.fresh[(session * DISTINCT + slot(j % SESSION)) % self.fresh.len()]
    }

    /// Send request `id` and check the body against this id's first.
    fn request(&mut self, id: usize, payloads: &[Vec<u8>]) -> Sample {
        self.sent += 1;
        let head = format!(
            "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            payloads[id].len()
        );
        let t0 = Instant::now();
        let sent = self
            .stream
            .write_all(head.as_bytes())
            .and_then(|_| self.stream.write_all(&payloads[id]));
        let reply = sent.ok().and_then(|_| read_response(&mut self.stream).ok());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let (ok, hit) = match reply {
            Some((200, cache, body)) => {
                let hit = cache.as_deref() == Some("hit");
                let entry = self.bodies.entry(id).or_insert_with(|| (body.clone(), 0));
                entry.1 += 1;
                (entry.0 == body, hit)
            }
            _ => (false, false),
        };
        Sample {
            ms,
            hit,
            ok,
            traced: false,
        }
    }
}

/// Both connections in a closed loop for `seconds`; returns the samples
/// and the window's wall time. With `tracer` enabled, every other request
/// of a connection is traced; a request's span carries its request id as
/// the job, as does the `serve.run_request` span that verifies it.
fn measure(
    clients: &mut [Client],
    payloads: &[Vec<u8>],
    seconds: f64,
    tracer: &Tracer,
) -> (Vec<Sample>, f64) {
    let off = Tracer::new(false);
    let t0 = Instant::now();
    let window = tracer.start("serve.window", None, 0);
    let parent = window.id();
    let off = &off;
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    while t0.elapsed().as_secs_f64() < seconds {
                        let id = client.next_id();
                        let traced = tracer.enabled() && client.sent % 2 == 1;
                        let t = if traced { tracer } else { off };
                        let g = t.start("serve.request", parent, id as u64);
                        let mut sample = client.request(id, payloads);
                        g.end(TICKS, if sample.hit { "hit" } else { "miss" });
                        sample.traced = traced;
                        out.push(sample);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    window.end(0, "");
    (per_client.into_iter().flatten().collect(), wall)
}

fn window_of(samples: &[Sample], wall: f64) -> Window {
    let ok = samples.iter().filter(|s| s.ok).count() as u64;
    let ms_where = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.ms)
            .collect()
    };
    Window {
        attempted: samples.len() as u64,
        failed: samples.len() as u64 - ok,
        op_ms: samples.iter().map(|s| s.ms).collect(),
        part_ms: Vec::new(),
        warmup_ms: 0.0,
        busy_s: wall,
        done: ok,
        overhead_pct: overhead_pct(&ms_where(true), &ms_where(false)),
        peak_rss_mb: peak_rss_mb(),
    }
}

pub fn run(args: &Args, tracer: &Tracer) -> (f64, Outcome) {
    let (state, setup_s) = repeat_setup(tracer, setup, |old: State| {
        old.server.shutdown();
        let _ = std::fs::remove_dir_all(&old.dir);
    });
    let space = request_space();
    let payloads: Vec<Vec<u8>> = space
        .iter()
        .map(|r| serde_json::to_vec(r).expect("request serializes"))
        .collect();
    let mut order: Vec<usize> = (0..space.len()).collect();
    order.shuffle(&mut SmallRng::seed_from_u64(args.seed));
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|c| {
            let fresh = order.iter().skip(c).step_by(CLIENTS).copied().collect();
            Client::connect(state.server.addr(), fresh)
        })
        .collect();

    // One untimed warm-up request per connection.
    let mut warmup_failed = 0;
    let mut warmup_ms = 0.0f64;
    for client in &mut clients {
        let id = client.next_id();
        let sample = client.request(id, &payloads);
        warmup_failed += u64::from(!sample.ok);
        warmup_ms = warmup_ms.max(sample.ms);
    }
    let (samples, wall) = measure(&mut clients, &payloads, args.seconds, tracer);
    let mut window = window_of(&samples, wall);
    window.warmup_ms = warmup_ms;
    let snap = state.server.snapshot();
    let store_stats = relsim_cache::global_stats().unwrap_or_default();
    let bodies: BTreeMap<usize, (Vec<u8>, u64)> =
        clients.into_iter().flat_map(|c| c.bodies).collect();
    let _ = state.server.shutdown();
    relsim_cache::configure(None);

    // Every served body must equal the batch path's bytes for the same
    // request; a wrong first body fails every request of that id.
    let bodies: Vec<_> = bodies.into_iter().collect();
    let wrong: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = bodies
            .chunks(bodies.len().div_ceil(CLIENTS).max(1))
            .map(|chunk| {
                let (refs, space) = (&state.ctx.refs, &space);
                s.spawn(move || {
                    let mut wrong = 0;
                    for (id, (body, count)) in chunk {
                        let g = tracer.start("serve.run_request", None, *id as u64);
                        let artifact = run_request(refs, &space[*id], &mut RunObs::disabled());
                        g.end(TICKS, "");
                        if artifact_bytes(&artifact) != *body {
                            wrong += count;
                        }
                    }
                    wrong
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verification thread panicked"))
            .sum()
    });

    window.failed += warmup_failed + wrong;
    window.attempted += CLIENTS as u64;
    let lat = &window.op_ms;
    let ok = samples.iter().filter(|s| s.ok).count();
    let mut report = vec![
        ("req_per_s".to_string(), ok as f64 / wall, "req/s", format!(
            "{CLIENTS} keep-alive connections, closed loop, 1B1S {TICKS}-tick requests, loadgen sessions of {SESSION} over {DISTINCT} distinct per connection"
        )),
        ("req_p50_ms".to_string(), stats::median(lat), "ms", format!("n={}", lat.len())),
    ];
    let tail = stats::beyond(lat, 0.99);
    if tail >= 10 {
        report.push((
            "req_p99_ms".to_string(),
            stats::quantile(lat, 0.99),
            "ms",
            format!("n={}, {tail} samples beyond", lat.len()),
        ));
    } else {
        report.push((
            "req_p99_ms".to_string(),
            f64::NAN,
            "ms",
            format!("not reported: n={}, only {tail} samples beyond", lat.len()),
        ));
    }

    let mut layers = Vec::new();
    let mut checks_ok = true;
    if tracer.enabled() {
        let spans = tracer.spans("serve.request", "");
        let ms_where = |tag: &str| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.tag == tag)
                .map(|s| s.ms())
                .collect()
        };
        let run_request_ms: HashMap<u64, f64> = tracer
            .spans("serve.run_request", "")
            .iter()
            .map(|s| (s.job, s.ms()))
            .collect();
        let queue_wait: Vec<f64> = spans
            .iter()
            .filter(|s| s.tag == "miss")
            .filter_map(|s| run_request_ms.get(&s.job).map(|r| s.ms() - r))
            .collect();
        let requests = snap.counter("serve.requests").unwrap_or(0).max(1) as f64;
        let warm = snap.counter("serve.warm_hits").unwrap_or(0)
            + snap.counter("serve.queued_hits").unwrap_or(0);
        let (cache, decoded) = crate::cache::entry_pass::<SimArtifact>(tracer, &state.dir);
        checks_ok &= decoded;
        let builds: Vec<f64> = tracer
            .ms("setup.context_build", "")
            .iter()
            .map(|m| m / 1e3)
            .collect();
        report.push((
            "setup.server_start_ms".to_string(),
            stats::median(&tracer.ms("setup.server_start", "")),
            "ms",
            "Server::start, bound and serving on return".to_string(),
        ));
        layers = vec![
            ("setup.context_build_s", stats::median(&builds)),
            ("serve.warm_p50_ms", stats::median(&ms_where("hit"))),
            ("serve.cold_p50_ms", stats::median(&ms_where("miss"))),
            (
                "serve.run_request_ms",
                stats::median(&run_request_ms.values().copied().collect::<Vec<_>>()),
            ),
            ("serve.queue_wait_ms", stats::median(&queue_wait)),
            ("serve.warm_rate", warm as f64 / requests),
            (
                "serve.shed_frac",
                snap.counter("serve.shed").unwrap_or(0) as f64 / requests,
            ),
            ("cache.hit_rate", store_stats.hit_rate()),
        ];
        layers.extend(cache);
    }
    let _ = std::fs::remove_dir_all(&state.dir);
    (
        setup_s,
        Outcome {
            window,
            checks_ok,
            report,
            layers,
        },
    )
}
