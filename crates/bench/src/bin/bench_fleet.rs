//! Million-entity fleet benchmark for the distributed serving tier: the
//! orchestrator spawns several `bench_fleet node` child *processes* on
//! this host, places entities across them through a [`net::FleetRouter`],
//! then drives seed → ingest → abrupt node kill → more ingest → forecast
//! and reports throughput plus tail latency to `BENCH_fleet.json`.
//!
//! Modes:
//! - `bench_fleet` — orchestrator (default). Flags: `--entities <n>`
//!   (default 1_000_000), `--nodes <n>` (default 3), `--rounds <n>`
//!   (default 3), `--seed <u64>`, `--quick` (50k entities, CI smoke).
//! - `bench_fleet node --shards <n>` — one serving node; prints
//!   `RPTCN_NODE_LISTENING <addr>` on stdout and blocks until a wire
//!   `Shutdown` frame (or the orchestrator kills it).
//!
//! The kill phase is the point: one child is SIGKILLed mid-traffic and
//! the run only succeeds if the router fails over — zero lost
//! acknowledged ingests, the death journaled as `NodeDown`, and every
//! sampled forecast still answered by the survivors.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use net::{FleetRouter, NodeConfig, NodeServer, RouterConfig};
use obs::EventKind;
use serve::{PredictionService, ServiceConfig};

/// Ids per ingest request — one latency sample per chunk.
const INGEST_CHUNK: usize = 2_000;
/// Ids per forecast request — forecasts wait on shard processing, so
/// smaller chunks keep the latency samples honest.
const FORECAST_CHUNK: usize = 500;
/// Forecast latency/correctness is measured on a fleet sample this big;
/// forecasting a million entities one shard queue at a time would time
/// the queue, not the tier.
const FORECAST_SAMPLE: usize = 20_000;

struct FleetArgs {
    entities: usize,
    nodes: usize,
    rounds: usize,
    seed: u64,
    quick: bool,
    shards: usize,
}

impl Default for FleetArgs {
    fn default() -> Self {
        FleetArgs {
            entities: 1_000_000,
            nodes: 3,
            rounds: 3,
            seed: 2018,
            quick: false,
            shards: 2,
        }
    }
}

fn parse_args(mut it: impl Iterator<Item = String>) -> FleetArgs {
    let mut out = FleetArgs::default();
    while let Some(flag) = it.next() {
        let mut take = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--entities" => out.entities = take("--entities").parse().expect("--entities: usize"),
            "--nodes" => out.nodes = take("--nodes").parse().expect("--nodes: usize"),
            "--rounds" => out.rounds = take("--rounds").parse().expect("--rounds: usize"),
            "--seed" => out.seed = take("--seed").parse().expect("--seed: u64"),
            "--shards" => out.shards = take("--shards").parse().expect("--shards: usize"),
            "--quick" => out.quick = true,
            "--help" | "-h" => {
                eprintln!(
                    "flags: --entities <n> --nodes <n> --rounds <n> --seed <u64> --shards <n> --quick"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag '{other}' (try --help)"),
        }
    }
    if out.quick {
        out.entities = out.entities.min(50_000);
    }
    assert!(out.nodes >= 2, "a fleet needs at least two nodes");
    assert!(out.rounds >= 2, "need rounds before and after the kill");
    out
}

/// Child-process mode: one serving node on an ephemeral port.
fn run_node(args: FleetArgs) {
    let service = PredictionService::new(ServiceConfig {
        shards: args.shards,
        queue_capacity: 4096,
        refit_workers: 0,
        refit_every: 0,
        score_on_ingest: false,
        ..Default::default()
    })
    .expect("node service starts");
    let mut server = NodeServer::start(NodeConfig::default(), service).expect("node starts");
    // The orchestrator parses this exact line to learn the port.
    println!("RPTCN_NODE_LISTENING {}", server.addr());
    std::io::stdout().flush().expect("flush addr line");
    server.join();
}

/// Spawn one `bench_fleet node` child and read its listen address.
fn spawn_node(shards: usize) -> (Child, String) {
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = Command::new(exe)
        .arg("node")
        .arg("--shards")
        .arg(shards.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn node process");
    let stdout = child.stdout.take().expect("child stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read node banner");
    let addr = line
        .trim()
        .strip_prefix("RPTCN_NODE_LISTENING ")
        .unwrap_or_else(|| panic!("unexpected node banner: {line:?}"))
        .to_string();
    (child, addr)
}

/// Exact `(p50, p99)` quantiles of per-request latencies, in nanoseconds.
fn quantiles(mut ns: Vec<u64>) -> (u64, u64) {
    if ns.is_empty() {
        return (0, 0);
    }
    ns.sort_unstable();
    let q = |p: f64| ns[((ns.len() - 1) as f64 * p).round() as usize];
    (q(0.50), q(0.99))
}

/// Deterministic per-entity, per-round sample (single column, matching
/// the seeded bootstrap arity).
fn sample(idx: usize, round: usize) -> Vec<f32> {
    vec![0.35 + 0.0005 * (idx % 97) as f32 + 0.01 * round as f32]
}

struct PhaseStats {
    seconds: f64,
    items: u64,
    p50_ns: u64,
    p99_ns: u64,
}

impl PhaseStats {
    fn per_sec(&self) -> f64 {
        self.items as f64 / self.seconds.max(1e-9)
    }
}

/// One full ingest round in `INGEST_CHUNK`-sized requests, timing each.
fn ingest_round(
    router: &mut FleetRouter,
    ids: &[String],
    round: usize,
    latencies: &mut Vec<u64>,
) -> (u64, u64) {
    let (mut accepted, mut failed_over) = (0u64, 0u64);
    for (chunk_idx, chunk) in ids.chunks(INGEST_CHUNK).enumerate() {
        let base = chunk_idx * INGEST_CHUNK;
        let batch: Vec<(String, Vec<f32>)> = chunk
            .iter()
            .enumerate()
            .map(|(i, id)| (id.clone(), sample(base + i, round)))
            .collect();
        let t = Instant::now();
        let report = router.ingest_batch(&batch).expect("ingest batch routes");
        latencies.push(t.elapsed().as_nanos() as u64);
        assert!(
            report.errors.is_empty(),
            "hard ingest errors: {:?}",
            &report.errors[..report.errors.len().min(3)]
        );
        accepted += report.accepted;
        failed_over += report.failed_over;
    }
    (accepted, failed_over)
}

fn run_orchestrator(args: FleetArgs) {
    eprintln!(
        "bench_fleet: {} entities across {} node processes ({} shards each), {} rounds",
        args.entities, args.nodes, args.shards, args.rounds
    );
    let mut children: Vec<(Child, String)> =
        (0..args.nodes).map(|_| spawn_node(args.shards)).collect();

    let mut router = FleetRouter::new(RouterConfig {
        request_timeout: Duration::from_secs(30),
        bulk_timeout: Duration::from_secs(600),
        probe_timeout: Duration::from_secs(2),
        replay_window: 4,
        seed: args.seed,
        bootstrap_len: 64,
        window: 12,
        ..Default::default()
    });
    for (i, (_, addr)) in children.iter().enumerate() {
        router
            .add_node(&format!("n{i}"), addr)
            .expect("node joins fleet");
    }

    // ---- Phase 1: seed the fleet ------------------------------------
    let ids: Vec<String> = (0..args.entities).map(|i| format!("f-{i:07}")).collect();
    let t = Instant::now();
    let installed = router.seed_entities(&ids).expect("seeding succeeds");
    let seed_secs = t.elapsed().as_secs_f64();
    assert_eq!(installed as usize, args.entities, "every entity seeded");
    eprintln!(
        "seeded {installed} entities in {seed_secs:.1}s ({:.0}/s)",
        installed as f64 / seed_secs
    );

    // ---- Phase 2: ingest rounds with a mid-run kill ------------------
    let kill_at = args.rounds / 2;
    let victim = args.nodes - 1;
    let mut latencies = Vec::new();
    let mut acked = 0u64;
    let mut failed_over = 0u64;
    let t = Instant::now();
    for round in 0..args.rounds {
        if round == kill_at {
            // SIGKILL, not drain: sockets die with the process and the
            // router must discover the death from transport errors.
            children[victim].0.kill().expect("kill victim node");
            children[victim].0.wait().expect("reap victim node");
            eprintln!("killed node n{victim} before round {round}");
        }
        let (a, f) = ingest_round(&mut router, &ids, round, &mut latencies);
        acked += a;
        failed_over += f;
        eprintln!("round {round}: acked {a}, failed_over {f}");
    }
    let ingest_secs = t.elapsed().as_secs_f64();
    let (ip50, ip99) = quantiles(latencies);
    let ingest = PhaseStats {
        seconds: ingest_secs,
        items: acked,
        p50_ns: ip50,
        p99_ns: ip99,
    };
    // Zero lost acknowledged ingests: every sample of every round acked.
    assert_eq!(acked, (args.rounds * args.entities) as u64);
    assert!(failed_over > 0, "the kill must surface as failovers");

    router.probe();
    let statuses = router.nodes();
    let node_down_events = router.journal().count(EventKind::NodeDown);
    assert!(node_down_events >= 1, "node death must be journaled");
    eprintln!(
        "ingested {acked} samples in {ingest_secs:.1}s ({:.0}/s), fleet: {statuses:?}",
        ingest.per_sec()
    );

    // ---- Phase 3: forecast a fleet sample ----------------------------
    let stride = (args.entities / FORECAST_SAMPLE).max(1);
    let sample_ids: Vec<String> = ids.iter().step_by(stride).cloned().collect();
    let mut latencies = Vec::new();
    let mut ok = 0u64;
    let t = Instant::now();
    for chunk in sample_ids.chunks(FORECAST_CHUNK) {
        let req = Instant::now();
        let results = router.forecast_batch(chunk);
        latencies.push(req.elapsed().as_nanos() as u64);
        for (id, result) in results {
            let f = result.expect("forecast after failover")[0];
            assert!(f.is_finite(), "{id}: non-finite forecast");
            ok += 1;
        }
    }
    let forecast_secs = t.elapsed().as_secs_f64();
    let (fp50, fp99) = quantiles(latencies);
    let forecast = PhaseStats {
        seconds: forecast_secs,
        items: ok,
        p50_ns: fp50,
        p99_ns: fp99,
    };
    assert_eq!(
        ok as usize,
        sample_ids.len(),
        "every sampled forecast answered"
    );
    eprintln!(
        "forecast {ok} entities in {forecast_secs:.1}s ({:.0}/s)",
        forecast.per_sec()
    );

    // ---- Report ------------------------------------------------------
    let reg = router.registry();
    let json = render_report(
        &args,
        ReportInputs {
            seed_secs,
            installed,
            ingest: &ingest,
            forecast: &forecast,
            failed_over,
            healed: reg.counter("router_healed").get(),
            migrated: reg.counter("router_migrated").get(),
            node_down_transitions: reg.counter("router_node_down_transitions").get(),
            node_down_events,
            victim,
            statuses: &statuses,
            router: &router,
        },
    );
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    print!("{json}");

    router.shutdown_fleet();
    for (i, (child, _)) in children.iter_mut().enumerate() {
        if i != victim {
            child.wait().expect("node exits after Shutdown");
        }
    }
}

struct ReportInputs<'a> {
    seed_secs: f64,
    installed: u64,
    ingest: &'a PhaseStats,
    forecast: &'a PhaseStats,
    failed_over: u64,
    healed: u64,
    migrated: u64,
    node_down_transitions: u64,
    node_down_events: usize,
    victim: usize,
    statuses: &'a [(String, net::NodeStatus)],
    router: &'a FleetRouter,
}

fn render_report(args: &FleetArgs, r: ReportInputs<'_>) -> String {
    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"host\": {},", bench_harness::host_json()).unwrap();
    writeln!(
        json,
        "  \"config\": {{\"entities\": {}, \"nodes\": {}, \"shards_per_node\": {}, \"rounds\": {}, \"seed\": {}, \"quick\": {}, \"ingest_chunk\": {INGEST_CHUNK}, \"forecast_chunk\": {FORECAST_CHUNK}}},",
        args.entities, args.nodes, args.shards, args.rounds, args.seed, args.quick
    )
    .unwrap();
    writeln!(
        json,
        "  \"seed_phase\": {{\"entities\": {}, \"seconds\": {:.2}, \"entities_per_sec\": {:.0}}},",
        r.installed,
        r.seed_secs,
        r.installed as f64 / r.seed_secs.max(1e-9)
    )
    .unwrap();
    writeln!(
        json,
        "  \"ingest_phase\": {{\"samples_acked\": {}, \"seconds\": {:.2}, \"samples_per_sec\": {:.0}, \"chunk_p50_us\": {:.1}, \"chunk_p99_us\": {:.1}}},",
        r.ingest.items,
        r.ingest.seconds,
        r.ingest.per_sec(),
        r.ingest.p50_ns as f64 / 1_000.0,
        r.ingest.p99_ns as f64 / 1_000.0
    )
    .unwrap();
    writeln!(
        json,
        "  \"forecast_phase\": {{\"forecasts\": {}, \"seconds\": {:.2}, \"forecasts_per_sec\": {:.0}, \"chunk_p50_us\": {:.1}, \"chunk_p99_us\": {:.1}}},",
        r.forecast.items,
        r.forecast.seconds,
        r.forecast.per_sec(),
        r.forecast.p50_ns as f64 / 1_000.0,
        r.forecast.p99_ns as f64 / 1_000.0
    )
    .unwrap();
    writeln!(
        json,
        "  \"failover\": {{\"killed_node\": \"n{}\", \"samples_failed_over\": {}, \"entities_healed\": {}, \"entities_migrated\": {}, \"node_down_transitions\": {}, \"node_down_journal_events\": {}}},",
        r.victim, r.failed_over, r.healed, r.migrated, r.node_down_transitions, r.node_down_events
    )
    .unwrap();
    writeln!(json, "  \"fleet\": [").unwrap();
    for (i, (name, status)) in r.statuses.iter().enumerate() {
        let sep = if i + 1 == r.statuses.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"node\": \"{name}\", \"status\": \"{status:?}\"}}{sep}"
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    // Per-request wire RTT distributions recorded by the router's spans.
    let snap = r.router.registry().snapshot();
    writeln!(json, "  \"router_rtt_ns\": {{").unwrap();
    let rtts: Vec<_> = snap
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("router_rtt_"))
        .collect();
    for (i, (name, h)) in rtts.iter().enumerate() {
        let sep = if i + 1 == rtts.len() { "" } else { "," };
        writeln!(
            json,
            "    \"{name}\": {{\"count\": {}, \"mean_ns\": {:.0}, \"p50_le_ns\": {}, \"p99_le_ns\": {}, \"max_ns\": {}}}{sep}",
            h.count,
            h.mean().unwrap_or(0.0),
            h.quantile(0.50).unwrap_or(0),
            h.quantile(0.99).unwrap_or(0),
            h.max.unwrap_or(0),
        )
        .unwrap();
    }
    writeln!(json, "  }}").unwrap();
    writeln!(json, "}}").unwrap();
    json
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("node") {
        argv.next();
        run_node(parse_args(argv));
    } else {
        run_orchestrator(parse_args(argv));
    }
}
